"""The per-source shortest-path memo of :class:`repro.simnet.topology.Network`.

Every path query must return exactly what a fresh ``nx.dijkstra_path`` on
the current routing graph returns — ties included — however the graph was
mutated in between, and only ``Network`` may mutate that graph.
"""

import ast
import random
from pathlib import Path

import networkx as nx
import pytest

from repro.experiments.tiered import build_tiered_topology
from repro.multicast.builders import ProtectedTreeBuilder
from repro.multicast.manager import GroupState
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _random_network(seed, n_nodes=10, p_link=0.3):
    """Seeded random directed topology; delays 1..3 so equal-cost paths
    (and hence Dijkstra tie-breaks) are common."""
    rng = random.Random(seed)
    net = Network(Scheduler())
    names = [f"n{i}" for i in range(n_nodes)]
    for name in names:
        net.add_node(name)
    for a in names:
        for b in names:
            if a == b or (a, b) in net.links or rng.random() >= p_link:
                continue
            both = (b, a) not in net.links and rng.random() < 0.5
            net.add_link(a, b, bandwidth=1e6, delay=rng.randint(1, 3), bidirectional=both)
    return net, rng


def _assert_matches_networkx(net):
    graph = net.graph
    for s in net.nodes:
        for t in net.nodes:
            try:
                want = nx.dijkstra_path(graph, s, t, weight="delay")
            except nx.NetworkXNoPath:
                want = None
            assert net.shortest_path_or_none(s, t) == want, (s, t)
            if want is None:
                with pytest.raises(nx.NetworkXNoPath):
                    net.shortest_path(s, t)
                with pytest.raises(nx.NetworkXNoPath):
                    net.path_delay(s, t)
            else:
                assert net.shortest_path(s, t) == want, (s, t)
                assert net.path_delay(s, t) == nx.dijkstra_path_length(
                    graph, s, t, weight="delay"
                )


def _random_mutation(net, rng):
    names = sorted(net.nodes)
    kind = rng.choice(["link", "node", "add", "precompute"])
    if kind == "link":
        a, b = rng.choice(sorted(net.links))
        net.set_link_up(a, b, rng.random() < 0.5, bidirectional=(b, a) in net.links)
    elif kind == "node":
        net.set_node_up(rng.choice(names), rng.random() < 0.5)
    elif kind == "add":
        free = [(a, b) for a in names for b in names
                if a != b and (a, b) not in net.links and (b, a) not in net.links]
        if free:
            a, b = rng.choice(free)
            net.add_link(a, b, bandwidth=1e6, delay=rng.randint(1, 3))
    else:
        builder = ProtectedTreeBuilder()
        source = rng.choice(names)
        state = GroupState(1, source)
        state.edges = builder.build(source, rng.sample(names, 4), net)
        builder.precompute(state, net)


@pytest.mark.parametrize("seed", range(8))
def test_paths_match_networkx_on_random_graphs_under_mutation(seed):
    net, rng = _random_network(seed)
    _assert_matches_networkx(net)
    for _ in range(12):
        _random_mutation(net, rng)
        _assert_matches_networkx(net)


@pytest.mark.parametrize("seed", [0, 3])
def test_paths_match_networkx_on_tiered_topology(seed):
    net = build_tiered_topology(seed=seed).network
    _assert_matches_networkx(net)
    rng = random.Random(seed)
    for _ in range(4):
        _random_mutation(net, rng)
        _assert_matches_networkx(net)


def test_unknown_nodes_keep_the_networkx_exception_contract():
    net, _ = _random_network(0)
    with pytest.raises(nx.NodeNotFound):
        net.shortest_path("ghost", "n0")
    with pytest.raises(nx.NodeNotFound):
        net.paths_from("ghost")
    with pytest.raises(nx.NetworkXNoPath):
        net.shortest_path("n0", "ghost")
    assert net.shortest_path_or_none("ghost", "n0") is None
    assert net.shortest_path_or_none("n0", "ghost") is None
    assert net.shortest_path("n0", "n0") == ["n0"]
    assert net.path_delay("n0", "n0") == 0


# ----------------------------------------------------------------------
# Memo lifetime
# ----------------------------------------------------------------------
def _line():
    net = Network(Scheduler())
    for name in "abc":
        net.add_node(name)
    net.add_link("a", "b", bandwidth=1e6, delay=0.1)
    net.add_link("b", "c", bandwidth=1e6, delay=0.1)
    return net


def test_paths_from_is_memoised_until_the_graph_changes():
    net = _line()
    paths = net.paths_from("a")
    assert net.paths_from("a") is paths
    net.set_link_bandwidth("a", "b", 5e5)  # delay weights unchanged
    assert net.paths_from("a") is paths
    assert net.set_link_up("a", "b", True) == []  # already up: no change
    assert net.paths_from("a") is paths
    net.set_link_up("b", "c", False)
    assert net.shortest_path_or_none("a", "c") is None
    net.set_node_up("b", False)
    assert net.shortest_path_or_none("a", "b") is None
    net.set_node_up("b", True)
    assert net.shortest_path("a", "c") == ["a", "b", "c"]
    net.add_node("d")
    assert net.shortest_path_or_none("a", "d") is None
    net.add_link("c", "d", bandwidth=1e6, delay=0.1)
    assert net.shortest_path("a", "d") == ["a", "b", "c", "d"]


def test_returned_paths_are_copies():
    net = _line()
    net.shortest_path("a", "c").append("x")
    net.shortest_path_or_none("a", "c").append("x")
    assert net.shortest_path("a", "c") == ["a", "b", "c"]


def test_build_routes_does_not_fill_the_memo(monkeypatch):
    net = _line()
    calls = []
    real = nx.single_source_dijkstra_path

    def counting(graph, source, **kwargs):
        calls.append(source)
        return real(graph, source, **kwargs)

    monkeypatch.setattr(nx, "single_source_dijkstra_path", counting)
    net.build_routes()
    assert sorted(calls) == ["a", "b", "c"]
    net.shortest_path("a", "c")
    net.shortest_path("a", "b")
    assert calls.count("a") == 2  # one miss after build_routes, then hits


def test_shortest_path_avoiding_restores_edges_and_clears_memo():
    net = _line()
    net.add_link("a", "c", bandwidth=1e6, delay=0.5)
    assert net.shortest_path("a", "c") == ["a", "b", "c"]
    assert net.shortest_path_avoiding("a", "c", [("b", "c")]) == ["a", "c"]
    assert net.shortest_path_avoiding("a", "c", [("b", "c"), ("a", "c")]) is None
    assert net.graph.has_edge("b", "c") and net.graph.has_edge("a", "c")
    assert net.graph.edges["b", "c"] == {"delay": 0.1, "bandwidth": 1e6}
    # Restored edges moved to the end of their adjacency: queries must
    # see the graph as it is now, not a memo from before.
    paths = net.paths_from("a")
    net.shortest_path_avoiding("a", "c", [("a", "b")])
    assert net.paths_from("a") is not paths
    # Avoiding edges that are not in the graph mutates nothing.
    paths = net.paths_from("a")
    assert net.shortest_path_avoiding("a", "c", [("c", "x")]) == ["a", "b", "c"]
    assert net.paths_from("a") is paths


# ----------------------------------------------------------------------
# Only Network mutates the routing graph
# ----------------------------------------------------------------------
_GRAPH_MUTATORS = {
    "add_node", "add_nodes_from", "add_edge", "add_edges_from",
    "add_weighted_edges_from", "remove_node", "remove_nodes_from",
    "remove_edge", "remove_edges_from", "clear", "clear_edges", "update",
}


def _graph_mutations(source):
    """Line numbers where ``source`` mutates a ``<x>.graph`` routing graph:
    a mutator call on it (directly or through a local alias) or an
    assignment into its node/edge attribute views."""
    tree = ast.parse(source)
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "graph":
            aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))

    def is_graph(expr):
        return (isinstance(expr, ast.Attribute) and expr.attr == "graph") or (
            isinstance(expr, ast.Name) and expr.id in aliases
        )

    def rooted_at_graph(expr):
        while isinstance(expr, (ast.Subscript, ast.Attribute)):
            if is_graph(expr):
                return True
            expr = expr.value
        return is_graph(expr)

    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _GRAPH_MUTATORS and is_graph(node.func.value):
            hits.append(node.lineno)
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.Delete)):
            targets = [node.target] if isinstance(node, ast.AugAssign) else node.targets
        for target in targets:
            if isinstance(target, ast.Subscript) and rooted_at_graph(target.value):
                hits.append(node.lineno)
    return sorted(hits)


def test_graph_mutation_detector_catches_the_known_shapes():
    source = (
        "graph = network.graph\n"
        "graph.remove_edge(a, b)\n"
        "network.graph.add_edge(a, b, delay=1)\n"
        "net.graph.edges[a, b]['delay'] = 2\n"
        "n = net.graph.has_edge(a, b)\n"
        "d = net.graph.edges[a, b]['delay']\n"
    )
    assert _graph_mutations(source) == [2, 3, 4]


def test_only_topology_module_mutates_the_routing_graph():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "simnet/topology.py":
            continue
        hits = _graph_mutations(path.read_text())
        if hits:
            offenders[rel] = hits
    assert offenders == {}, (
        "mutate the routing graph only through Network methods, which keep "
        f"the shortest-path memo coherent: {offenders}"
    )

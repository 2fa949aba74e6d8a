"""Tests for membership churn plans, receiver re-attachment and the
tree-churn backend sweep (``python -m repro churn``)."""

import json
import math

import networkx as nx
import pytest

from repro.experiments.churn import (
    build_churn_scenario,
    churn_receiver_ids,
    default_churn_plan,
    run_churn,
)
from repro.faults import FaultInjector, FaultPlan
from repro.multicast.builders import ProtectedTreeBuilder
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network


# ----------------------------------------------------------------------
# membership_churn plan builder
# ----------------------------------------------------------------------
def test_membership_churn_is_deterministic_per_seed():
    ids = ["A", "B", "C", "D"]
    one = FaultPlan().membership_churn(ids, start=5.0, end=60.0, seed=7)
    two = FaultPlan().membership_churn(ids, start=5.0, end=60.0, seed=7)
    other = FaultPlan().membership_churn(ids, start=5.0, end=60.0, seed=8)
    assert list(one) == list(two)
    assert list(one) != list(other)


def test_membership_churn_events_are_well_formed():
    ids = ["A", "B", "C", "D"]
    plan = FaultPlan().membership_churn(
        ids, start=10.0, end=50.0, rate=0.5, off_time=(4.0, 12.0), seed=3
    )
    events = list(plan)
    assert events, "a 40 s window at rate 0.5 should produce churn"
    assert all(ev.kind in ("receiver_leave", "receiver_join") for ev in events)
    # Every rejoin pairs with an earlier leave of the same receiver at an
    # off-time inside the configured bounds.  (Waves can overlap: a receiver
    # may be picked to leave again while still departed — the injector is
    # idempotent about that — and a leave near the window end legitimately
    # has no rejoin at all.)
    leaves = {}
    n_joins = 0
    for ev in events:
        rid = ev.args[0]
        assert rid in ids
        if ev.kind == "receiver_leave":
            assert 10.0 <= ev.time <= 50.0
            leaves.setdefault(rid, []).append(ev.time)
        else:
            n_joins += 1
            assert ev.time < 50.0, "rejoins past the window are dropped"
            assert any(
                4.0 <= ev.time - t0 <= 12.0 for t0 in leaves.get(rid, ())
            ), "join without a matching leave"
    assert n_joins > 0


def test_membership_churn_round_trips_through_json():
    plan = FaultPlan().membership_churn(["A", "B", "C"], start=1.0, end=30.0, seed=5)
    plan.link_flap(10.0, "x", "y", down_for=2.0, times=1)
    replayed = FaultPlan.from_dicts(json.loads(json.dumps(plan.to_dicts())))
    assert list(replayed) == list(plan)


# ----------------------------------------------------------------------
# Receiver leave/rejoin through the injector
# ----------------------------------------------------------------------
def test_membership_fault_leave_and_rejoin_are_idempotent():
    sc = build_churn_scenario(seed=2, n_receivers=4)
    injector = FaultInjector(sc)
    handle = next(h for h in sc.receivers if h.receiver_id == "A0")

    sc.run(10.0)
    first_agent = handle.agent
    assert first_agent.active
    assert handle.receiver.level >= 1

    injector.membership.leave("A0")
    injector.membership.leave("A0")  # no-op, not an error
    sc.run(20.0)
    assert not first_agent.active
    assert handle.receiver.level == 0

    injector.membership.join("A0")
    injector.membership.join("A0")  # no-op, not an error
    rejoined = handle.agent
    assert rejoined is not first_agent  # fresh agent, fresh RNG stream
    assert rejoined.active
    sc.run(40.0)
    assert handle.receiver.level >= 1
    # The replacement agent keeps reporting: the controller still reaches it.
    assert any(t > 20.0 for t in rejoined.suggestion_times)


def test_reattach_unknown_receiver_raises():
    sc = build_churn_scenario(seed=2, n_receivers=2)
    injector = FaultInjector(sc)
    with pytest.raises(KeyError):
        injector.membership.leave("nope")


# ----------------------------------------------------------------------
# The backend sweep
# ----------------------------------------------------------------------
def test_churn_receiver_ids_split_across_aggregations():
    assert churn_receiver_ids(5) == ["A0", "A1", "A2", "B0", "B1"]
    assert churn_receiver_ids(1) == ["A0"]


def test_default_plan_covers_both_aggregation_links():
    plan = default_churn_plan(churn_receiver_ids(6), duration=120.0, seed=1)
    downs = [tuple(ev.args) for ev in plan if ev.kind == "link_down"]
    assert ("core", "agg_a") in downs
    assert ("core", "agg_b") in downs
    assert any(ev.kind == "receiver_leave" for ev in plan)


def test_run_churn_rejects_unknown_backend():
    with pytest.raises(ValueError):
        run_churn(backends=["spt", "bogus"])


def test_run_churn_smoke_all_backends():
    """One full seeded sweep: the ISSUE's churn acceptance gate."""
    result = run_churn(seed=1)
    assert result["backends"] == ["spt", "degree", "protected"]
    assert result["ok"], "canonical churn sweep must pass its own gate"

    spt = result["per_backend"]["spt"]
    prot = result["per_backend"]["protected"]
    # Identical (seed, plan) per backend: same fault log, same churn input.
    assert spt["fault_log"] == prot["fault_log"]
    assert result["plan"] == FaultPlan.from_dicts(result["plan"]).to_dicts()

    # SPT never patches locally; protected must have, and strictly cheaper
    # than SPT's full rebuilds on the same scenario.
    assert spt["local_repairs"] == 0
    assert prot["local_repairs"] >= 1
    assert prot["rebuild_repairs"] < spt["rebuild_repairs"]
    assert (
        prot["repair_ms"]["local"]["mean_ms"]
        < spt["repair_ms"]["rebuild"]["mean_ms"]
    )

    for backend in result["backends"]:
        b = result["per_backend"][backend]
        # The incremental path skipped the sibling session's groups.
        assert b["groups_skipped"] > 0
        assert b["repair_epoch"] > 0
        assert b["recovered_all"]
        # The access-link cut orphans one receiver for its 6 s outage.
        assert b["orphan_member_seconds"] > 0
        # Its post-restore loss report spans the window and is fenced.
        assert b["reports_fenced"] >= 1
        # Nobody lies under pure churn; the guard must stay silent.
        assert b["guard"]["precision"] == 1.0 and b["guard"]["recall"] == 1.0
        assert math.isfinite(b["convergence_s"])


# ----------------------------------------------------------------------
# Deterministic repair cost: counted calls, not wall-clock time
# ----------------------------------------------------------------------
@pytest.fixture
def dijkstra_calls(monkeypatch):
    """Route networkx's two Dijkstra entry points through a recorder.

    Returns ``(log, watch)``: each call is logged as ``(kind, graph,
    source)`` while ``watch[0]`` is true, so tests can scope recording."""
    log = []
    log_watch = [True]
    for kind in ("single_source_dijkstra_path", "dijkstra_path"):
        real = getattr(nx, kind)

        def counting(graph, source, *args, _real=real, _kind=kind, **kwargs):
            if log_watch[0]:
                log.append((_kind, graph, source))
            return _real(graph, source, *args, **kwargs)

        monkeypatch.setattr(nx, kind, counting)
    return log, log_watch


def _run_churn_backend(builder, duration=90.0):
    sc = build_churn_scenario(seed=1, builder=builder)
    plan = default_churn_plan(churn_receiver_ids(6), duration=120.0, seed=1)
    plan.apply(sc)
    sc.run(duration)
    return sc


@pytest.mark.parametrize("builder", ["spt", "protected"])
def test_at_most_one_sssp_per_source_and_topology_version(monkeypatch, builder):
    version = [0]  # bumped by every routing-graph mutation
    for name in ("add_node", "add_edge", "remove_edge"):
        real = getattr(nx.DiGraph, name)

        def bumping(self, *args, _real=real, **kwargs):
            version[0] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(nx.DiGraph, name, bumping)
    in_rebuild = [False]
    per_key = {}
    real_sssp = nx.single_source_dijkstra_path

    def sssp(graph, source, **kwargs):
        if in_rebuild[0]:
            key = (id(graph), version[0], source)
            per_key[key] = per_key.get(key, 0) + 1
        return real_sssp(graph, source, **kwargs)

    monkeypatch.setattr(nx, "single_source_dijkstra_path", sssp)
    real_rebuild = MulticastManager._rebuild

    def rebuild(self, state):
        in_rebuild[0] = True
        try:
            real_rebuild(self, state)
        finally:
            in_rebuild[0] = False

    monkeypatch.setattr(MulticastManager, "_rebuild", rebuild)
    sc = _run_churn_backend(builder)
    assert sc.mcast.builds > len(per_key) > 0  # groups shared cached trees
    assert max(per_key.values()) == 1


def test_protected_local_repair_runs_no_dijkstra_and_no_splice(
    monkeypatch, dijkstra_calls
):
    log, watch = dijkstra_calls
    watch[0] = False
    splices = []
    real_splice = ProtectedTreeBuilder._splice.__func__

    def splice(cls, *args):
        splices.append(watch[0])
        return real_splice(cls, *args)

    monkeypatch.setattr(ProtectedTreeBuilder, "_splice", classmethod(splice))
    real_precompute = ProtectedTreeBuilder.precompute

    def precompute(self, state, network):
        # Off the repair clock: preparation for the next failure.
        was, watch[0] = watch[0], False
        try:
            real_precompute(self, state, network)
        finally:
            watch[0] = was

    monkeypatch.setattr(ProtectedTreeBuilder, "precompute", precompute)
    local_costs = []
    real_repair = MulticastManager._repair

    def repair(self, state, lost):
        local_before, log_before = self.local_repairs, len(log)
        splices_before = splices.count(True)
        watch[0] = True
        try:
            return real_repair(self, state, lost)
        finally:
            watch[0] = False
            if self.local_repairs > local_before:
                local_costs.append(
                    (len(log) - log_before, splices.count(True) - splices_before)
                )

    monkeypatch.setattr(MulticastManager, "_repair", repair)
    sc = _run_churn_backend("protected")
    assert sc.mcast.local_repairs == len(local_costs) >= 1
    assert local_costs == [(0, 0)] * len(local_costs)
    assert splices and not any(splices)  # every splice ran in precompute


def test_expedited_prune_delay_runs_no_per_member_dijkstra(dijkstra_calls):
    log, watch = dijkstra_calls
    sched = Scheduler()
    net = Network(sched)
    members = [f"h{i}" for i in range(8)]
    for name in ["src", "core", "a", "b"] + members:
        net.add_node(name)
    for a, b in [("src", "core"), ("core", "a"), ("core", "b")]:
        net.add_link(a, b, bandwidth=1e6, delay=0.1)
    for i, host in enumerate(members):
        net.add_link("ab"[i % 2], host, bandwidth=1e6, delay=0.1)
    net.build_routes()
    mcast = MulticastManager(net, igmp_report_delay=0.0, expedited_leave=True)
    group = mcast.create_group("src")
    for host in members:
        mcast.join(group, host)
    sched.run(until=1.0)
    assert mcast.members(group) == frozenset(members)

    del log[:]
    assert mcast.leave(group, "h7") - sched.now == pytest.approx(0.1)
    assert log == []  # the source's cached tree answers every path
    net.add_node("spare")  # new topology version: the memo is cold
    mcast.leave(group, "h6")
    assert [(kind, source) for kind, _, source in log] == [
        ("single_source_dijkstra_path", "src")
    ]

"""Span tracing for the benchmark's traced run.

:class:`Tracer` replaces selected methods of the program's classes with
timing wrappers (one span per call) and restores the originals on
:meth:`Tracer.uninstall`.  It also poses as the program's ``profiler``
hook object (``add``/``lap``), so the spans the program already
reports — the six TopoSense stages, ``ctrl.tick``, ``fed.exchange`` — are
recorded beside the wrapped ones.

Every span keeps its name, start, end and parent span in compact arrays in
memory (a span's id is its row); :meth:`Tracer.write` saves them with the
run id when the run ends.  Self time is computed as calls close: a span's duration minus the
time its direct wrapped children cover.  Hook spans are annotations: they
nest under the wrapped span open when they end and do not reduce its self
time.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["LAYER_SPANS", "HOOK_PREFIX", "Tracer", "layer_classes"]

#: Name prefix of spans the program's own profiler hooks report.
HOOK_PREFIX = "hook:"

#: span name -> (module, class, method) of every wrapped call.  One span
#: name may cover several methods that do the same job.
LAYER_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("simnet.engine.run", "repro.simnet.engine", "Scheduler", "run"),
    ("simnet.link.send", "repro.simnet.link", "Link", "send"),
    ("simnet.node.receive", "repro.simnet.node", "Node", "receive"),
    ("simnet.node.send", "repro.simnet.node", "Node", "send"),
    ("simnet.topology.shortest_path", "repro.simnet.topology", "Network", "shortest_path"),
    ("simnet.topology.shortest_path", "repro.simnet.topology", "Network",
     "shortest_path_or_none"),
    ("simnet.topology.build_routes", "repro.simnet.topology", "Network", "build_routes"),
    ("multicast.manager.join", "repro.multicast.manager", "MulticastManager", "join"),
    ("multicast.manager.leave", "repro.multicast.manager", "MulticastManager", "leave"),
    ("multicast.builders.build", "repro.multicast.builders", "SPTBuilder", "build"),
    ("multicast.builders.build", "repro.multicast.builders", "DegreeBoundedBuilder", "build"),
    ("multicast.builders.build", "repro.multicast.builders", "ProtectedTreeBuilder", "build"),
    ("media.receiver.interval_stats", "repro.media.receiver", "LayeredReceiver",
     "interval_stats"),
    ("media.receiver.set_level", "repro.media.receiver", "LayeredReceiver", "set_level"),
    # The controller tick is a private timer callback, wrapped so its self
    # time (tick minus discovery, guard, TopoSense and sends) is measurable.
    ("control.agent.tick", "repro.control.agent", "ControllerAgent", "_tick"),
    ("control.discovery.session_tree", "repro.control.discovery", "TopologyDiscovery",
     "session_tree"),
    ("control.guard.audit", "repro.control.guard", "ReportGuard", "audit"),
    ("control.guard.admit_report", "repro.control.guard", "ReportGuard", "admit_report"),
    ("core.toposense.update", "repro.core.toposense", "TopoSense", "update"),
    ("federation.shard.run_to", "repro.federation.shard", "DomainShard", "run_to"),
    ("federation.shard.summaries", "repro.federation.shard", "DomainShard", "summaries"),
    ("federation.coordinator.merge", "repro.federation.coordinator",
     "FederationCoordinator", "merge"),
    ("experiments.scenario.reattach_receiver", "repro.experiments.scenario", "Scenario",
     "reattach_receiver"),
    ("experiments.scenario.detach_receiver", "repro.experiments.scenario", "Scenario",
     "detach_receiver"),
    # Private callbacks the engine dispatches most, plus the packet handlers
    # node delivery calls: without them their work would land in the
    # engine's (or node.receive's) self time and trace.coverage would say
    # little.
    ("simnet.link.tx_done", "repro.simnet.link", "Link", "_tx_done"),
    ("simnet.link.tx_done", "repro.simnet.wireless", "WirelessEdgeLink", "_tx_done"),
    ("media.source.slot", "repro.media.source", "LayeredSource", "_run_slot"),
    ("media.source.emit", "repro.media.source", "LayeredSource", "_emit"),
    ("media.receiver.on_packet", "repro.media.receiver", "LayeredReceiver", "_on_packet"),
    ("control.agent.report", "repro.control.agent", "ReceiverAgent", "_report"),
    ("control.agent.on_packet", "repro.control.agent", "ReceiverAgent", "_on_packet"),
    ("control.agent.on_packet", "repro.control.agent", "ControllerAgent", "_on_packet"),
    ("multicast.manager.apply", "repro.multicast.manager", "MulticastManager", "_apply"),
    ("workloads.runner.fire", "repro.workloads.runner", "WorkloadRunner", "_fire"),
)


def layer_classes() -> Dict[Tuple[str, str], Any]:
    """``{(module, class): class}`` for every class :data:`LAYER_SPANS` names."""
    import importlib

    out: Dict[Tuple[str, str], Any] = {}
    for _span, module, cls_name, _attr in LAYER_SPANS:
        out[(module, cls_name)] = getattr(importlib.import_module(module), cls_name)
    return out


class _Stats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Records spans from method wrappers and from the program's hooks."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.t0 = perf_counter()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.stats: List[_Stats] = []
        # Span records in opening order; a span's id is its row.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        # Open wrapped spans: [row, child seconds].
        self._stack: List[List[Any]] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append(_Stats())
        return nid

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        nid = self._name_id(name)
        stats = self.stats[nid]
        stack = self._stack
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        t0 = self.t0
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            row = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [row, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                starts[row] = start - t0
                ends[row] = end - t0
                stats.calls += 1
                stats.total += dur
                stats.self_time += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every method in :data:`LAYER_SPANS`."""
        classes = layer_classes()
        for span, module, cls_name, attr in LAYER_SPANS:
            cls = classes[(module, cls_name)]
            original = cls.__dict__.get(attr)
            if original is None:
                raise AttributeError(f"{cls_name}.{attr} is not defined on the class")
            self._installed.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped method to the original function."""
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    # ------------------------------------------------------------------
    # The program's ``profiler`` hook interface.
    # ------------------------------------------------------------------
    def add(self, name: str, seconds: float) -> None:
        end = perf_counter()
        nid = self._name_id(HOOK_PREFIX + name)
        stats = self.stats[nid]
        stats.calls += 1
        stats.total += seconds
        stats.self_time += seconds
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(end - seconds - self.t0)
        self.span_end.append(end - self.t0)

    def lap(self, name: str, t0: float) -> float:
        t1 = perf_counter()
        self.add(name, t1 - t0)
        return t1

    def attach_hooks(self, scenarios: List[Any], fed: Any = None) -> None:
        """Point the program's profiler hooks at this tracer."""
        for sc in scenarios:
            sc.sched.profiler = self
            sc.mcast.profiler = self
            for controller in sc.controllers.values():
                controller.profiler = self
                if hasattr(controller.algorithm, "profiler"):
                    controller.algorithm.profiler = self
        if fed is not None:
            fed.profiler = self

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.stats[nid].calls

    def total_ms(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self.stats[nid].total * 1e3

    def self_ms(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self.stats[nid].self_time * 1e3

    @property
    def n_spans(self) -> int:
        return len(self.span_name)

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Save every span, the name table and ``meta`` as a ``.npz`` file."""
        import json

        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            meta=np.array(json.dumps({"run_id": self.run_id, **meta}, sort_keys=True)),
        )

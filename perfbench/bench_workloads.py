"""The benchmark's three workloads, built from the program's public API.

Each workload is a batch job: :func:`build` does the set-up (scenario,
workload install, domain partition) and returns a :class:`Job` that the
harness advances one fixed simulated-time slice at a time.  Receiver joins
arrive open-loop in *simulated* time on the seeded spec's schedule; on the
host every run is one closed job.

A job also owns its output checks and its timing-stripped fingerprint, the
basis of the digest that must repeat bit for bit across runs of one commit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List

__all__ = ["WORKLOADS", "Job", "build", "digest"]


class Job:
    """One built workload, advanced slice by slice."""

    horizon = 0.0
    slice_s = 0.0

    def advance(self) -> None:
        """Simulate one slice of ``slice_s`` seconds."""
        raise NotImplementedError

    def schedulers(self) -> List[Any]:
        """Every event scheduler the job drives."""
        raise NotImplementedError

    def scenarios(self) -> List[Any]:
        """Every :class:`~repro.experiments.scenario.Scenario` the job drives."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Output checks after the full horizon; returns the failures."""
        raise NotImplementedError

    def fingerprint(self) -> Dict[str, Any]:
        """Simulated outputs only: no host time anywhere."""
        raise NotImplementedError

    @property
    def n_slices(self) -> int:
        return int(round(self.horizon / self.slice_s))

    def run_all(self) -> None:
        for _ in range(self.n_slices):
            self.advance()

    def events(self) -> int:
        return sum(s.events_processed for s in self.schedulers())

    def pending(self) -> int:
        return sum(s.pending for s in self.schedulers())


def scenario_fingerprint(sc: Any) -> Dict[str, Any]:
    """Level traces, control bytes, per-link traffic and drops of one scenario."""
    from repro.workloads import control_bytes

    links = []
    for (a, b), link in sorted(sc.network.links.items(), key=lambda kv: str(kv[0])):
        links.append([
            f"{a}->{b}", link.stats.tx_packets, link.queue.stats.dropped,
            getattr(link, "wireless_drops", 0),
        ])
    return {
        "now": sc.sched.now,
        "events": sc.sched.events_processed,
        "control_bytes": control_bytes(sc),
        "receivers": [
            [str(h.session_id), str(h.receiver_id), h.trace.times, h.trace.values]
            for h in sc.receivers
        ],
        "links": links,
    }


def digest(job: Job) -> str:
    """SHA-256 over the job's canonical fingerprint (first 16 hex digits)."""
    blob = json.dumps(job.fingerprint(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class ScenarioJob(Job):
    """A single-domain scenario advanced with ``Scenario.run(slice)``."""

    def __init__(self, sc: Any, horizon: float, slice_s: float):
        self.sc = sc
        self.horizon = horizon
        self.slice_s = slice_s

    def advance(self) -> None:
        self.sc.run(self.slice_s)

    def schedulers(self) -> List[Any]:
        return [self.sc.sched]

    def scenarios(self) -> List[Any]:
        return [self.sc]

    def fingerprint(self) -> Dict[str, Any]:
        return scenario_fingerprint(self.sc)


class PaperBJob(ScenarioJob):
    #: Upper bound on the mean relative deviation from the oracle over the
    #: second half of the run.
    MAX_DEVIATION = 0.5

    def check(self) -> List[str]:
        from repro.experiments.scenario import ScenarioResult

        dev = ScenarioResult(self.sc, self.sc.sched.now).mean_deviation(self.horizon / 2.0)
        if not dev <= self.MAX_DEVIATION:
            return [f"mean_deviation({self.horizon / 2.0:g}) = {dev:.3f} > {self.MAX_DEVIATION}"]
        return []


class CrowdJob(ScenarioJob):
    def __init__(self, sc: Any, runner: Any, size: int, horizon: float, slice_s: float):
        super().__init__(sc, horizon, slice_s)
        self.runner = runner
        self.size = size

    def scheduled_joins(self) -> int:
        return sum(1 for ev in self.runner.spec.events if ev.kind == "join")

    def max_control_rate(self) -> float:
        rows = [r for r in self.runner.control_bytes_per_live() if r["n_live"] > 0]
        return max((r["bytes_per_live_s"] for r in rows), default=0.0)

    def check(self) -> List[str]:
        from repro.experiments.crowd import CONTROL_BYTES_PER_LIVE_BOUND

        bad = []
        if self.runner.peak_live != self.size:
            bad.append(f"peak_live = {self.runner.peak_live} != {self.size}")
        if self.runner.joins_fired != self.scheduled_joins():
            bad.append(
                f"joins fired {self.runner.joins_fired} != scheduled "
                f"{self.scheduled_joins()}"
            )
        rate = self.max_control_rate()
        if not rate <= CONTROL_BYTES_PER_LIVE_BOUND:
            bad.append(
                f"control {rate:.1f} B/s per live receiver > "
                f"{CONTROL_BYTES_PER_LIVE_BOUND}"
            )
        return bad

    def fingerprint(self) -> Dict[str, Any]:
        fp = scenario_fingerprint(self.sc)
        summary = self.runner.summary()
        fp["workload"] = {
            k: summary[k]
            for k in ("joins_fired", "leaves_fired", "n_live", "peak_live", "samples")
        }
        # Sorted: same-instant first packets arrive in multicast fan-out
        # order, which follows set iteration and so PYTHONHASHSEED.
        fp["join_latency_ms"] = sorted(self.runner.join_latency_ms)
        return fp


class FedJob(Job):
    """A federated session advanced one federation round per slice."""

    MAX_DEVIATION = 0.5

    def __init__(self, fed: Any, horizon: float):
        self.fed = fed
        self.horizon = horizon
        self.slice_s = fed.cadence

    def advance(self) -> None:
        self.fed.run(self.slice_s)

    def shards(self) -> List[Any]:
        return [self.fed.shards[n] for n in sorted(self.fed.shards)]

    def schedulers(self) -> List[Any]:
        return [s.scenario.sched for s in self.shards()]

    def scenarios(self) -> List[Any]:
        return [s.scenario for s in self.shards()]

    def check(self) -> List[str]:
        from repro.experiments.scenario import ScenarioResult

        fed = self.fed
        bad = []
        coord = fed.coordinator
        if coord.rejected_messages != 0:
            bad.append(f"coordinator rejected {coord.rejected_messages} messages")
        n_sessions = len({
            sid for s in self.shards() for sid in s.scenario.sessions
        })
        limit = fed.n_domains * n_sessions
        if coord.peak_tracked > limit:
            bad.append(f"peak_tracked {coord.peak_tracked} > {limit}")
        for shard in self.shards():
            dev = ScenarioResult(shard.scenario, fed.now).mean_deviation(self.horizon / 2.0)
            if not dev <= self.MAX_DEVIATION:
                bad.append(f"domain {shard.domain} deviation {dev:.3f} > {self.MAX_DEVIATION}")
        return bad

    def fingerprint(self) -> Dict[str, Any]:
        fed = self.fed
        coord = fed.coordinator
        return {
            "rounds": fed.rounds_completed,
            "shards": {str(s.domain): scenario_fingerprint(s.scenario) for s in self.shards()},
            "bytes": fed.control_bytes_by_tier(),
            "coordinator": [
                coord.summaries_received, coord.rejected_messages,
                coord.peak_tracked, coord.merges,
            ],
            "advice": sorted(
                [str(sid), a.ceiling, a.floor, a.receiver_count, a.bottleneck_bps]
                for sid, a in coord.session_advice.items()
            ),
        }


# ----------------------------------------------------------------------
# Builders: seed in, built job out.  ``horizon`` shortens a run for tests.
# ----------------------------------------------------------------------
def _paper_b_vbr(seed: int, horizon: float = 600.0) -> Job:
    from repro.experiments.topologies import build_topology_b

    sc = build_topology_b(n_sessions=4, traffic="vbr", peak_to_mean=3.0, seed=seed)
    return PaperBJob(sc, horizon, slice_s=1.0)


def _crowd_flash_4096(seed: int, horizon: float = 60.0) -> Job:
    from repro.experiments.crowd import (
        build_crowd_scenario,
        default_crowd_spec,
        edge_node_names,
    )
    from repro.workloads import WorkloadRunner

    size = 4096
    sc, session_ids = build_crowd_scenario(seed=seed, n_edges=8, wireless_loss=0.1)
    spec = default_crowd_spec(
        size, edge_node_names(8), session_ids, duration=60.0, seed=seed
    )
    runner = WorkloadRunner(sc, spec).install()
    return CrowdJob(sc, runner, size, horizon, slice_s=0.5)


def _fed_8x32(seed: int, horizon: float = 60.0) -> Job:
    from repro.federation import FederatedSession
    from repro.federation.experiment import build_federated_views

    views = build_federated_views(8, 32, seed=seed)
    fed = FederatedSession(views, seed=seed, cadence=4.0, parallel=False)
    return FedJob(fed, horizon)


#: name -> builder(seed, horizon=...) -> Job
WORKLOADS: Dict[str, Callable[..., Job]] = {
    "paper_b_vbr": _paper_b_vbr,
    "crowd_flash_4096": _crowd_flash_4096,
    "fed_8x32": _fed_8x32,
}


def build(name: str, seed: int, horizon: float = 0.0) -> Job:
    """Set up workload ``name``; ``horizon`` > 0 overrides its length."""
    builder = WORKLOADS[name]
    return builder(seed, horizon) if horizon > 0 else builder(seed)

#!/usr/bin/env python3
"""Host-speed benchmark of the TopoSense simulator.

Run from the repository root::

    python3 perfbench/run.py --workload crowd_flash_4096 --seed 1 --seconds 40 --trace 0

``--trace 0`` times untraced repeats of the workload for about ``--seconds``
host seconds and prints the end-to-end metrics.  ``--trace 1`` does the
same untraced repeats, then one more repeat with span wrappers installed,
and prints the per-layer metrics.  Every repeat is a full set-up plus the
whole simulated horizon, advanced in fixed simulated-time slices; its
outputs are checked and its timing-stripped digest must equal every other
repeat's.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import hostspeed
from bench_trace import HOOK_PREFIX, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where traced runs write their spans and reports (inside the checkout).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Every run times at least this many full repeats, so digests can be compared.
MIN_REPEATS = 2
#: Set-up-only builds made before the timed repeats: at least this many,
#: and more until they took SETUP_SECONDS.  Each repeat adds one more
#: set-up sample to the ``setup_s`` median.
EXTRA_SETUPS = 4
SETUP_SECONDS = 1.0
#: A p90 is supported by at least ten slices above it, so 100 slices.
P90_MIN_SLICES = 100

#: (name, unit, better) of every end-to-end metric (``--trace 0``).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("sim_speed", "sim_s/s", "higher"),
    ("slice_ms.p50", "ms", "lower"),
    ("slice_ms.p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric (``--trace 1``).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("simnet.engine.events", "count", "lower"),
    ("simnet.engine.heap_peak", "count", "lower"),
    ("simnet.engine.run.ms", "ms", "lower"),
    ("simnet.engine.self_ms", "ms", "lower"),
    ("simnet.link.send.calls", "count", "lower"),
    ("simnet.link.send.self_ms", "ms", "lower"),
    ("simnet.link.drops.queue_full", "count", "lower"),
    ("simnet.link.drops.wireless", "count", "lower"),
    ("simnet.queues.offered", "count", "lower"),
    ("simnet.queues.drop_ratio", "ratio", "lower"),
    ("simnet.node.receive.calls", "count", "lower"),
    ("simnet.node.receive.self_ms", "ms", "lower"),
    ("simnet.node.send.calls", "count", "lower"),
    ("simnet.link.tx_done.self_ms", "ms", "lower"),
    ("media.source.slot.self_ms", "ms", "lower"),
    ("media.source.emit.self_ms", "ms", "lower"),
    ("media.receiver.on_packet.self_ms", "ms", "lower"),
    ("control.agent.report.self_ms", "ms", "lower"),
    ("control.agent.on_packet.self_ms", "ms", "lower"),
    ("simnet.topology.shortest_path.calls", "count", "lower"),
    ("simnet.topology.shortest_path.ms", "ms", "lower"),
    ("simnet.topology.build_routes.ms", "ms", "lower"),
    ("multicast.manager.join.calls", "count", "lower"),
    ("multicast.manager.join.ms", "ms", "lower"),
    ("multicast.manager.leave.calls", "count", "lower"),
    ("multicast.manager.leave.ms", "ms", "lower"),
    ("multicast.builders.build.calls", "count", "lower"),
    ("multicast.builders.build.ms", "ms", "lower"),
    ("media.receiver.interval_stats.calls", "count", "lower"),
    ("media.receiver.set_level.calls", "count", "lower"),
    ("control.agent.tick.calls", "count", "lower"),
    ("control.agent.tick.ms", "ms", "lower"),
    ("control.agent.tick.self_ms", "ms", "lower"),
    ("control.agent.suggestions", "count", "lower"),
    ("control.agent.bytes", "bytes", "lower"),
    ("control.discovery.session_tree.calls", "count", "lower"),
    ("control.discovery.session_tree.ms", "ms", "lower"),
    ("control.guard.audit.ms", "ms", "lower"),
    ("control.guard.admit_report.calls", "count", "lower"),
    ("control.guard.admit_report.ms", "ms", "lower"),
    ("core.toposense.update.calls", "count", "lower"),
    ("core.toposense.update.ms", "ms", "lower"),
    ("core.toposense.stage1_congestion.ms", "ms", "lower"),
    ("core.toposense.stage2_capacity.ms", "ms", "lower"),
    ("core.toposense.stage3_bottleneck.ms", "ms", "lower"),
    ("core.toposense.stage4_fair_share.ms", "ms", "lower"),
    ("core.toposense.stage5_demand.ms", "ms", "lower"),
    ("core.toposense.stage6_supply.ms", "ms", "lower"),
    ("federation.shard.run_to.ms", "ms", "lower"),
    ("federation.shard.summaries.ms", "ms", "lower"),
    ("federation.session.exchange.ms", "ms", "lower"),
    ("federation.coordinator.merge.ms", "ms", "lower"),
    ("federation.summary_bytes", "bytes", "lower"),
    ("workloads.runner.joins", "count", "higher"),
    ("workloads.runner.leaves", "count", "higher"),
    ("experiments.scenario.reattach_receiver.ms", "ms", "lower"),
    ("experiments.scenario.detach_receiver.ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

#: Where work that no wrapped span covers lands in the traced run.
UNWRAPPED_WORK = (
    ("simnet.engine.self_ms", "heap pops and Event.__lt__, the every() trampoline, "
     "WorkloadRunner._sample, agent registration and silence timers"),
    ("the self time of the span that schedules an event", "heap pushes, e.g. "
     "media.source.slot for packet emits, simnet.link.send/tx_done for transmissions"),
    ("simnet.node.receive.self_ms", "multicast and unicast forwarding"),
)


class Repeat:
    """Host timings and outputs of one full repeat of a workload."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.sim_s = 0.0
        self.slice_s: List[float] = []
        self.heap_peak = 0
        self.failures: List[str] = []
        self.digest = ""
        #: Calibration loop times taken between this repeat's slices.
        self.cal_s: List[float] = []

    @property
    def run_s(self) -> float:
        """Raw host seconds of the horizon."""
        return sum(self.slice_s)


def import_program() -> Any:
    """Import the program from the checkout's ``src``; None when absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import bench_workloads
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        return None
    return bench_workloads


def one_repeat(bw: Any, name: str, seed: int, horizon: float = 0.0,
               tracer: Optional[Tracer] = None) -> Tuple[Repeat, Any]:
    """Set up, run the whole horizon slice by slice, then check and digest.

    With ``tracer`` the wrappers are installed around set-up and slices and
    removed before the checks, which run on the original classes.  Returns
    the repeat and its job (``None`` when the repeat raised).
    """
    rep = Repeat()
    job = None
    gc.collect()
    try:
        try:
            if tracer is not None:
                tracer.install()
            t0 = perf_counter()
            job = bw.build(name, seed, horizon)
            rep.setup_s = perf_counter() - t0
            if tracer is not None:
                tracer.attach_hooks(job.scenarios(), getattr(job, "fed", None))
            last_cal = 0.0
            for _ in range(job.n_slices):
                t0 = perf_counter()
                job.advance()
                t1 = perf_counter()
                rep.slice_s.append(t1 - t0)
                rep.heap_peak = max(rep.heap_peak, job.pending())
                if t1 - last_cal >= hostspeed.EVERY_S:
                    rep.cal_s.append(hostspeed.calibrate())
                    last_cal = perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        rep.sim_s = job.horizon
        rep.failures = job.check()
        rep.digest = bw.digest(job)
    except Exception:  # noqa: BLE001 - a failed repeat is counted, not fatal
        rep.failures.append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
        job = None
    return rep, job


def setup_sample(bw: Any, name: str, seed: int) -> float:
    """Host seconds of one set-up; the built job is discarded."""
    gc.collect()
    t0 = perf_counter()
    job = bw.build(name, seed)
    elapsed = perf_counter() - t0
    del job
    return elapsed


def timed_repeats(
    bw: Any, name: str, seed: int, seconds: float
) -> Tuple[List[Repeat], List[float]]:
    """Set-up samples plus full untraced repeats for about ``seconds``.

    A new repeat starts only while it is expected to end within
    ``seconds``; at least :data:`MIN_REPEATS` run.
    """
    setup_sample(bw, name, seed)  # warm-up: imports and first-use caches
    setups: List[float] = []
    start = perf_counter()
    while len(setups) < EXTRA_SETUPS or perf_counter() - start < SETUP_SECONDS:
        setups.append(setup_sample(bw, name, seed))
    repeats: List[Repeat] = []
    start = perf_counter()
    while True:
        rep = one_repeat(bw, name, seed)[0]  # drop the job before the next set-up
        repeats.append(rep)
        setups.append(rep.setup_s)
        elapsed = perf_counter() - start
        if len(repeats) >= MIN_REPEATS and elapsed * (1 + 1 / len(repeats)) > seconds:
            break
    return repeats, setups


def count_failures(repeats: List[Repeat]) -> Tuple[int, str]:
    """Failed repeats: raised, broke a check, or disagree with the majority
    digest.  Returns ``(failed, majority digest)``."""
    digests = Counter(r.digest for r in repeats if r.digest)
    majority = digests.most_common(1)[0][0] if digests else ""
    failed = sum(1 for r in repeats if r.failures or r.digest != majority)
    return failed, majority


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_factor(repeats: List[Repeat]) -> float:
    """One host-speed factor for a run, from all its calibration samples."""
    return hostspeed.factor([c for r in repeats for c in r.cal_s])


def end_to_end(repeats: List[Repeat], setups: List[float], k: float = 1.0) -> Dict[str, float]:
    """The end-to-end metrics, host times multiplied by ``k``."""
    good = [r for r in repeats if r.slice_s and r.run_s > 0]
    if not good:
        return {}
    slices = [s for r in good for s in r.slice_s]
    return {
        "sim_speed": statistics.median(r.sim_s / r.run_s for r in good) / k,
        "slice_ms.p50": quantile(slices, 0.5) * 1e3 * k,
        "slice_ms.p90": quantile(slices, 0.9) * 1e3 * k,
        "setup_s": statistics.median(setups) * k,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(tracer: Tracer, job: Any, rep: Repeat, untraced_s: float) -> Dict[str, float]:
    """Per-layer numbers of one traced repeat (see README's layer table)."""
    from repro.workloads import control_bytes

    scenarios = job.scenarios()
    links = [link for sc in scenarios for link in sc.network.links.values()]
    controllers = [c for sc in scenarios for c in sc.controllers.values()]
    fed = getattr(job, "fed", None)
    runner = getattr(job, "runner", None)
    dropped = sum(link.queue.stats.dropped for link in links)
    offered = sum(link.queue.stats.offered for link in links)
    run_ms = tracer.total_ms("simnet.engine.run")
    engine_self = tracer.self_ms("simnet.engine.run")
    m: Dict[str, float] = {
        "simnet.engine.events": job.events(),
        "simnet.engine.heap_peak": rep.heap_peak,
        "simnet.engine.run.ms": run_ms,
        "simnet.engine.self_ms": engine_self,
        "simnet.link.send.calls": tracer.calls("simnet.link.send"),
        "simnet.link.send.self_ms": tracer.self_ms("simnet.link.send"),
        "simnet.link.drops.queue_full": dropped,
        "simnet.link.drops.wireless": sum(getattr(link, "wireless_drops", 0) for link in links),
        "simnet.queues.offered": offered,
        "simnet.queues.drop_ratio": dropped / offered if offered else 0.0,
        "simnet.node.receive.calls": tracer.calls("simnet.node.receive"),
        "simnet.node.receive.self_ms": tracer.self_ms("simnet.node.receive"),
        "simnet.node.send.calls": tracer.calls("simnet.node.send"),
        "simnet.topology.shortest_path.calls": tracer.calls("simnet.topology.shortest_path"),
        "simnet.topology.shortest_path.ms": tracer.total_ms("simnet.topology.shortest_path"),
        "simnet.topology.build_routes.ms": tracer.total_ms("simnet.topology.build_routes"),
        "control.agent.tick.self_ms": tracer.self_ms("control.agent.tick"),
        "control.agent.suggestions": sum(c.suggestions_sent for c in controllers),
        "control.agent.bytes": sum(control_bytes(sc) for sc in scenarios),
        "federation.summary_bytes": (
            fed.control_bytes_by_tier()["summary"] if fed is not None else 0
        ),
        "workloads.runner.joins": runner.joins_fired if runner is not None else 0,
        "workloads.runner.leaves": runner.leaves_fired if runner is not None else 0,
        "trace.spans": tracer.n_spans,
        "trace.coverage": 1.0 - engine_self / run_ms if run_ms > 0 else 0.0,
        "trace.overhead": (
            rep.run_s * hostspeed.factor(rep.cal_s) / untraced_s if untraced_s > 0 else 0.0
        ),
    }
    for span in (
        "multicast.manager.join", "multicast.manager.leave", "multicast.builders.build",
        "control.agent.tick", "control.discovery.session_tree", "control.guard.admit_report",
        "core.toposense.update",
    ):
        m[span + ".calls"] = tracer.calls(span)
        m[span + ".ms"] = tracer.total_ms(span)
    for span in (
        "control.guard.audit", "federation.shard.run_to", "federation.shard.summaries",
        "federation.coordinator.merge", "experiments.scenario.reattach_receiver",
        "experiments.scenario.detach_receiver",
    ):
        m[span + ".ms"] = tracer.total_ms(span)
    for span in ("media.receiver.interval_stats", "media.receiver.set_level"):
        m[span + ".calls"] = tracer.calls(span)
    for span in (
        "simnet.link.tx_done", "media.source.slot", "media.source.emit",
        "media.receiver.on_packet", "control.agent.report", "control.agent.on_packet",
    ):
        m[span + ".self_ms"] = tracer.self_ms(span)
    for stage in ("stage1_congestion", "stage2_capacity", "stage3_bottleneck",
                  "stage4_fair_share", "stage5_demand", "stage6_supply"):
        m[f"core.toposense.{stage}.ms"] = tracer.total_ms(f"{HOOK_PREFIX}toposense.{stage}")
    m["federation.session.exchange.ms"] = tracer.total_ms(f"{HOOK_PREFIX}fed.exchange")
    return m


def span_table(tracer: Tracer) -> List[str]:
    """One line per span name: calls, total and self ms, share of sched.run."""
    run_ms = tracer.total_ms("simnet.engine.run") or 1.0
    lines = [f"  {'span':44s} {'calls':>9s} {'total_ms':>11s} {'self_ms':>11s} {'self%run':>8s}"]
    order = sorted(range(len(tracer.names)), key=lambda i: -tracer.stats[i].self_time)
    for i in order:
        name, st = tracer.names[i], tracer.stats[i]
        share = "" if name.startswith(HOOK_PREFIX) else f"{st.self_time * 1e3 / run_ms:8.1%}"
        lines.append(
            f"  {name:44s} {st.calls:9d} {st.total * 1e3:11.1f} "
            f"{st.self_time * 1e3:11.1f} {share:>8s}"
        )
    return lines


def format_metrics(catalogue: Tuple[Tuple[str, str, str], ...],
                   values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better in catalogue if name in values
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark run; prints the report and returns the result object."""
    bw = import_program()
    if bw is None:
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    if workload not in bw.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {workload!r} (choose from {sorted(bw.WORKLOADS)})"
        )
    repeats, setups = timed_repeats(bw, workload, seed, seconds)
    failed, digest = count_failures(repeats)
    k = host_factor(repeats)
    e2e = end_to_end(repeats, setups, k)
    raw = end_to_end(repeats, setups)
    n_slices = sum(len(r.slice_s) for r in repeats)
    n_cal = sum(len(r.cal_s) for r in repeats)
    print(f"workload {workload} seed={seed} repeats={len(repeats)} "
          f"slices={n_slices} setups={len(setups)} host factor {k:.4f} "
          f"({n_cal} calibrations)")
    for i, rep in enumerate(repeats):
        print(f"  repeat {i}: setup {rep.setup_s:.4f} s, {len(rep.slice_s)} slices "
              f"in {rep.run_s:.3f} s (host factor alone {hostspeed.factor(rep.cal_s):.3f}), "
              f"digest {rep.digest or '-'}")
        for failure in rep.failures:
            print(f"  FAIL: {failure}")
    for name, unit, better in END_TO_END:
        if name not in e2e:
            continue
        note = ""
        if name.startswith("slice_ms"):
            note = f"  (n={n_slices} slices)"
            if name == "slice_ms.p90" and n_slices < P90_MIN_SLICES:
                note += f" under-supported: fewer than {P90_MIN_SLICES} slices"
        print(f"  {name:14s} {e2e[name]:12.4f} {unit:8s} (raw {raw[name]:.4f}; "
              f"{better} is better){note}")
    print(f"  {'fail_ratio':14s} {failed / len(repeats):12.4f} {'ratio':8s} "
          f"({failed}/{len(repeats)} repeats)")
    print(f"digest {workload} seed={seed} {digest} "
          f"({'identical' if failed == 0 else 'NOT identical'} across {len(repeats)} repeats)")
    attempted = len(repeats)
    metrics = format_metrics(END_TO_END, e2e)

    if trace:
        untraced_s = statistics.median(r.run_s for r in repeats if r.slice_s) * k if e2e else 0.0
        run_id = f"{workload}/seed{seed}/traced"
        tracer = Tracer(run_id)
        rep, job = one_repeat(bw, workload, seed, tracer=tracer)
        attempted += 1
        if rep.failures or rep.digest != digest:
            failed += 1
            print(f"  FAIL: traced repeat digest {rep.digest or '-'} vs untraced {digest}")
        metrics = {}
        if job is not None:
            values = layer_metrics(tracer, job, rep, untraced_s)
            metrics = format_metrics(PER_LAYER, values)
            print(f"trace {run_id}: {tracer.n_spans} spans, coverage "
                  f"{values['trace.coverage']:.1%} of {values['simnet.engine.run.ms']:.0f} ms "
                  f"sched.run, overhead {values['trace.overhead']:.2f}x untraced median "
                  f"{untraced_s:.3f} s")
            for line in span_table(tracer):
                print(line)
            for where, what in UNWRAPPED_WORK:
                print(f"  unwrapped work in {where}: {what}")
            os.makedirs(OUT_DIR, exist_ok=True)
            stem = os.path.join(OUT_DIR, f"trace_{workload}_s{seed}")
            tracer.write(stem + ".npz", {"workload": workload, "seed": seed, "digest": digest})
            with open(stem + ".json", "w") as fh:
                json.dump({"run_id": run_id, "digest": digest, "metrics": metrics},
                          fh, indent=1, sort_keys=True)
            print(f"spans written to {os.path.relpath(stem, ROOT)}.npz")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload, each in its own process so that ``peak_rss_mb``
    is that workload's; the last line maps workload -> result object."""
    import subprocess

    bw = import_program()
    if bw is None:
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    results = {}
    for workload in bw.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="host seconds of timed repeats (at least two repeats run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

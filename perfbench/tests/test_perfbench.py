"""The benchmark's own tests: slicing, tracer hygiene, seeds, catalogue.

Run from the repository root with ``python -m pytest perfbench/tests``
(about a minute: the seed test runs every workload's full horizon).
"""

import json
import os

import bench_workloads as bw
import hostspeed
import pytest
import run as harness
from bench_trace import LAYER_SPANS, Tracer, layer_classes

#: Short horizons that still cross each workload's interesting events:
#: controller ticks, the crowd's flash at t=10 s, two federation rounds.
SHORT = {"paper_b_vbr": 20.0, "crowd_flash_4096": 12.0, "fed_8x32": 8.0}


def _unsliced(job):
    """Run the whole horizon in one call, as a user of the program would."""
    if isinstance(job, bw.FedJob):
        job.fed.run(job.horizon)
    else:
        job.sc.run(job.horizon)


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_sliced_and_unsliced_runs_give_the_same_digest(name):
    sliced = bw.build(name, 1, SHORT[name])
    sliced.run_all()
    whole = bw.build(name, 1, SHORT[name])
    _unsliced(whole)
    assert sliced.n_slices > 1
    assert sliced.events() == whole.events() > 0
    assert bw.digest(sliced) == bw.digest(whole)


def _class_methods():
    return {
        (cls, attr): cls.__dict__[attr]
        for (module, cls_name), cls in layer_classes().items()
        for _span, m, c, attr in LAYER_SPANS
        if (m, c) == (module, cls_name)
    }


def test_traced_repeat_removes_its_wrappers_and_keeps_outputs():
    before = _class_methods()
    name = "crowd_flash_4096"
    plain, _job = harness.one_repeat(bw, name, 1, SHORT[name])
    tracer = Tracer("test")
    traced, job = harness.one_repeat(bw, name, 1, SHORT[name], tracer=tracer)
    assert job is not None
    assert _class_methods() == before
    for fn in before.values():
        assert not hasattr(fn, "__wrapped__")
    # Tracing observes; it must not change what is simulated.
    assert traced.digest == plain.digest
    assert tracer.calls("simnet.engine.run") == job.n_slices
    assert tracer.calls("experiments.scenario.reattach_receiver") > 0
    assert tracer.total_ms("hook:ctrl.tick") > 0
    # Every span has a valid parent that opened before it and encloses it.
    for row in range(tracer.n_spans):
        parent = tracer.span_parent[row]
        assert -1 <= parent < tracer.n_spans
        if parent >= 0:
            assert tracer.span_start[parent] <= tracer.span_start[row]
            assert tracer.span_end[row] <= tracer.span_end[parent]
    # Self time never exceeds total time.
    for st in tracer.stats:
        assert st.self_time <= st.total + 1e-9


def test_uninstall_restores_even_when_the_run_raises(monkeypatch, capsys):
    before = _class_methods()

    def broken_build(name, seed, horizon=0.0):
        assert _class_methods() != before  # wrappers are in place here
        raise RuntimeError("set-up failed")

    monkeypatch.setattr(bw, "build", broken_build)
    rep, job = harness.one_repeat(bw, "paper_b_vbr", 1, tracer=Tracer("test"))
    assert job is None
    assert rep.failures == ["RuntimeError: set-up failed"]
    assert _class_methods() == before


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_a_different_seed_gives_a_different_digest_and_passes_checks(name):
    digests = []
    for seed in (1, 7):
        job = bw.build(name, seed)
        job.run_all()
        assert job.check() == [], (name, seed)
        digests.append(bw.digest(job))
    assert digests[0] != digests[1]


def test_failed_repeats_count_raises_checks_and_minority_digests():
    reps = [harness.Repeat() for _ in range(4)]
    for rep, digest in zip(reps, ("a", "a", "b", "a")):
        rep.digest = digest
    reps[1].failures.append("check broke")
    assert harness.count_failures(reps) == (2, "a")


def test_host_factor_is_one_at_nominal_speed_and_scales_slow_hosts_down():
    assert hostspeed.calibrate() > 0
    assert hostspeed.factor([]) == 1.0
    assert hostspeed.factor([hostspeed.NOMINAL_S] * 3) == 1.0
    slow = hostspeed.factor([2 * hostspeed.NOMINAL_S])
    assert slow == pytest.approx(0.5 ** hostspeed.EXPONENT)
    # The median makes one outlying sample harmless.
    assert hostspeed.factor([hostspeed.NOMINAL_S, hostspeed.NOMINAL_S, 1.0]) == 1.0


def test_end_to_end_scales_every_host_time_by_the_run_factor():
    rep = harness.Repeat()
    rep.sim_s = 10.0
    rep.slice_s = [0.5, 0.5]
    rep.cal_s = [2 * hostspeed.NOMINAL_S]
    k = harness.host_factor([rep])
    assert k == pytest.approx(0.5 ** hostspeed.EXPONENT)
    scaled = harness.end_to_end([rep], [0.2], k)
    raw = harness.end_to_end([rep], [0.2])
    assert raw["sim_speed"] == 10.0
    assert scaled["sim_speed"] == pytest.approx(10.0 / k)
    assert scaled["slice_ms.p50"] == pytest.approx(500.0 * k)
    assert scaled["setup_s"] == pytest.approx(0.2 * k)


def test_quantile_interpolates_linearly():
    xs = [float(x) for x in range(1, 11)]
    assert harness.quantile(xs, 0.5) == 5.5
    assert harness.quantile(xs, 0.9) == pytest.approx(9.1)
    assert harness.quantile([3.0], 0.9) == 3.0


def test_benchmark_json_declares_exactly_the_harness_metrics():
    path = os.path.join(os.path.dirname(harness.HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        harness.PER_LAYER
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bw.WORKLOADS)

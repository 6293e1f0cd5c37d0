"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from stats import covered_length, self_times, tail_percentile  # noqa: E402
from tracing import TARGETS, Patcher, Target, Tracer, layer_metrics  # noqa: E402
from workloads import OpLog, VerifyZoo  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 3.0, 6.0, 0, 0),   # overlaps b: the union is [1, 6]
        ("e", 2.0, 3.0, 1, 0),   # grandchild: only b loses it
        ("d", 20.0, 30.0, -1, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0, 10.0]
    assert covered_length(0.0, 10.0, [(-5.0, 1.0), (9.0, 15.0)]) == 2.0


def test_summary_counts_reentered_spans_once():
    tracer = Tracer(spans=[
        ("f", 0.0, 10.0, -1, 0),
        ("g", 1.0, 9.0, 0, 0),
        ("f", 2.0, 8.0, 1, 0),
        ("f", 11.0, 12.0, -1, 1),
    ])
    row = tracer.summary()["f"]
    assert row["calls"] == 3
    assert row["s"] == 11.0
    assert row["self_s"] == pytest.approx(2.0 + 6.0 + 1.0)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail_percentile(list(range(1, 101))) == (90, 90)
    assert tail_percentile(list(range(1, 12))) == (9, 1)
    assert tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)


def test_fail_frac_counts_raises_and_failing_checks():
    log = OpLog()
    log.run("ok", lambda: 1, check=lambda r: [])
    log.run("raises", lambda: 1 / 0)
    log.run("bad", lambda: 2, check=lambda r: ["too big"])
    log.run("untimed", lambda: 3, timed=False)
    assert (log.attempted, log.failed) == (4, 2)
    assert len(log.latencies) == 3
    assert [e.split(":")[0] for e in log.errors] == ["raises", "bad"]


def _bindings():
    mods = {k: dict(vars(m)) for k, m in sys.modules.items()
            if k == "reachsmooth" or k.startswith("reachsmooth.")}
    from reachsmooth import curves, partition, smoothing
    classes = [curves.ClosedCurve, curves.LocalGraph, partition.PlateauFunction,
               smoothing.BlendedMap]
    return mods, {c: dict(vars(c)) for c in classes}


def test_wrappers_reach_every_binding_and_restore():
    import reachsmooth
    from reachsmooth import _accel, checks, kernels, smoothing
    from reachsmooth.curves import CircleShape, ClosedCurve

    curve = ClosedCurve(CircleShape(1.0))
    holder = types.SimpleNamespace(f=curve.point_and_velocity)
    original_f = holder.f
    before = _bindings()
    tracer = Tracer()
    gone = (Target("gone.module", "reachsmooth.no_such_module", ("fn",)),
            Target("gone.attr", "reachsmooth.kernels", ("no_such_fn",)))
    patcher = Patcher(tracer, TARGETS + gone)
    patcher.install(holders=[holder])
    try:
        assert patcher.absent == ["gone.module", "gone.attr"]
        assert smoothing.convolve_grid is kernels.convolve_grid
        assert reachsmooth.convolve_grid is kernels.convolve_grid
        assert kernels.convolve_grid.__wrapped__ is before[0]["reachsmooth.kernels"]["convolve_grid"]
        assert _accel.federer_scan is _accel._slow.federer_scan
        assert checks.find_support_radius is kernels.find_support_radius
        holder.f(0.5)
        curve.point(0.5)
    finally:
        patcher.restore()
    assert [s[0] for s in tracer.spans] == ["curves.point_and_velocity"] * 2
    assert holder.f == original_f
    assert _bindings() == before
    values = layer_metrics(tracer)
    assert values["curves.point_and_velocity.calls"] == 2
    assert values["curves.point_and_velocity.depth_mean"] == 0


def test_digest_repeats_for_one_seed_and_differs_across_seeds():
    small = dict(conv_functions=2, c11_functions=1, corners=1, corner_rhos=(1e-2,))
    digests = []
    for seed in (5, 5, 6):
        workload = VerifyZoo(seed)
        vars(workload).update(small)
        state = workload.setup()
        passes = [run.one_pass(workload, state) for _ in range(2)]
        assert run.verdict(passes) == []
        digests.append(passes[0]["digest"])
    assert digests[0] == digests[1] != digests[2]


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names))
    expected = set(layer_metrics(Tracer())) | {
        "checks.rows", "checks.rows_failed", "trace_overhead_frac",
        "smooth_s.stadium", "smooth_s.circle", "smooth_s.ellipse",
        "smooth_s.rounded_rect"}
    assert set(names) == expected
    table = json.loads((HERE / "predictions.json").read_text())
    layers = {t.name for t in TARGETS}
    for kind in ("zero_calls", "nonzero_calls"):
        for workload, listed in table[kind].items():
            assert workload in {w["name"] for w in spec["workloads"]}
            assert set(listed) <= layers

"""The lemma checkers themselves: zoo validity, honest negatives, suites."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from reachsmooth import checks
from reachsmooth.checks import (CheckResult, check_angle_bound,
                                check_blend_lipschitz,
                                check_convolution_lipschitz,
                                check_far_point_distance,
                                check_hausdorff_bound, check_main_theorem,
                                check_tangent_distance_bound,
                                estimate_lipschitz, patch_graph_arrays,
                                random_c11,
                                random_piecewise_linear, run_suite,
                                write_checks_csv, write_failures_json)
from reachsmooth.curves import LocalGraph, sample_manifold
from reachsmooth.errors import InvalidInputError
from reachsmooth.kernels import BumpKernel, Interval, convolve
from reachsmooth.partition import make_reference_plateau, smoothing_window_radius
from reachsmooth.reach import estimate_reach_federer
from reachsmooth.smoothing import (_PROBE_RATIO_CAP, smooth_core_probe,
                                   smooth_manifold)


def test_result_slack_arithmetic():
    r = CheckResult(name="demo", passed=True, measured=0.4, bound=0.5,
                    tolerance=0.01, slack=0.11, grid=100, seed=1, instance="x")
    assert r.slack == pytest.approx(r.bound + r.tolerance - r.measured)


def test_estimate_lipschitz_on_known_slope():
    rng = np.random.default_rng(5)
    f, df, L = random_piecewise_linear(rng, Interval(-2, 2), 6, 3.0)
    xs = np.linspace(-2, 2, 4001)
    est = estimate_lipschitz(xs, f(xs))
    assert est <= L + 1e-12
    assert est >= 0.9 * L


def test_estimate_lipschitz_validation():
    with pytest.raises(InvalidInputError):
        estimate_lipschitz(np.zeros(3), np.zeros(4))
    with pytest.raises(InvalidInputError):
        estimate_lipschitz(np.zeros((2, 2)), np.zeros((2, 2)))


def test_piecewise_linear_zoo_is_valid():
    rng = np.random.default_rng(17)
    for _ in range(5):
        f, df, L = random_piecewise_linear(rng, Interval(-2, 2), 7, 4.0)
        xs = np.linspace(-2, 2, 2001)
        # continuity at the 1e-6 scale of the finest feature
        gaps = np.abs(np.diff(f(xs)))
        assert gaps.max() <= L * (xs[1] - xs[0]) * (1 + 1e-9)
        # stated constant is exact: slopes never exceed it, and some
        # stretch of the function realizes it
        assert np.abs(df(xs)).max() <= L * (1 + 1e-15)
        assert estimate_lipschitz(xs, f(xs)) >= (1 - 1e-6) * L


def test_c11_zoo_is_valid():
    rng = np.random.default_rng(23)
    for _ in range(5):
        f, df, L, Ld = random_c11(rng, Interval(-2, 2), 7, 3.0)
        xs = np.linspace(-2, 2, 2001)
        # df really is the derivative of f
        h = 1e-6
        fd = (f(xs[1:-1] + h) - f(xs[1:-1] - h)) / (2 * h)
        assert np.abs(fd - df(xs[1:-1])).max() <= 1e-6
        # slope of the slope stays inside the stated constant
        assert estimate_lipschitz(xs, df(xs)) <= Ld * (1 + 1e-12)
        assert np.abs(df(xs)).max() <= L * (1 + 1e-12)


def test_convolution_check_passes_and_reports():
    rng = np.random.default_rng(3)
    f, df, L = random_piecewise_linear(rng, Interval(-2, 2), 5, 2.0)
    row = check_convolution_lipschitz(f, df, L, BumpKernel(0.1),
                                      Interval(-2, 2), order=0, seed=3,
                                      instance="pw")
    assert row.passed and row.measured <= row.bound + row.tolerance
    assert row.name == "conv_lipschitz_order0"
    assert row.instance == "pw" and row.seed == 3


def test_convolution_check_detects_false_claim():
    # claiming half the true constant must fail: the checker is not a
    # tautology
    rng = np.random.default_rng(3)
    f, df, L = random_piecewise_linear(rng, Interval(-2, 2), 5, 2.0)
    xs = np.linspace(-2, 2, 2001)
    true_l = estimate_lipschitz(xs, f(xs))
    row = check_convolution_lipschitz(f, df, 0.5 * true_l, BumpKernel(0.05),
                                      Interval(-2, 2), order=0)
    assert not row.passed
    assert row.slack < 0


def test_blend_check_passes_both_orders():
    psi = make_reference_plateau()
    rng = np.random.default_rng(9)
    f, df, L, Ld = random_c11(rng, Interval(-4, 4), 6, 2.0)
    for order in (0, 1):
        row = check_blend_lipschitz(f, df, L, Ld, psi, 1e-3, Interval(-4, 4),
                                    order=order, sigma_max=0.25)
        assert row.passed, row


def test_blend_check_detects_false_claim():
    psi = make_reference_plateau()
    rng = np.random.default_rng(9)
    f, df, L, Ld = random_c11(rng, Interval(-4, 4), 6, 2.0)
    xs = np.linspace(-3, 3, 4001)
    true_l = estimate_lipschitz(xs, f(xs))
    row = check_blend_lipschitz(f, df, 0.4 * true_l, Ld, psi, 1e-6,
                                Interval(-4, 4), order=0, sigma_max=0.25)
    assert not row.passed


def test_patch_checkers_on_real_patch(stadium_run):
    result = stadium_run.result
    patch = result.curve.patches[0]
    R = result.report.R_input
    # every checker reads the same shared arrays, as the patches suite runs them
    arrays = patch_graph_arrays(patch)
    r1 = check_tangent_distance_bound(patch, seed=1, instance="p0",
                                      arrays=arrays)
    r2 = check_angle_bound(patch, seed=1, instance="p0", arrays=arrays)
    r3 = check_hausdorff_bound(patch, R, seed=1, instance="p0", arrays=arrays)
    sample = sample_manifold(result.curve, n=2000)
    r4 = check_far_point_distance(patch, result.curve, R, sample, seed=1,
                                  instance="p0", arrays=arrays)
    for row in (r1, r2, r3, r4):
        assert row.passed, row
        assert row.instance == "p0"
    # distinct lemmas, distinct row names
    assert len({r1.name, r2.name, r3.name, r4.name}) == 4
    # grid counts the pairs compared: core points times far samples
    core = int((np.abs(arrays[0]) <= patch.inner_radius).sum())
    L = result.curve.length
    gap = np.abs(np.mod(sample.params - patch.base_arc + 0.5 * L, L) - 0.5 * L)
    far = int((gap > 1.5 * patch.arc_window).sum())
    assert core > 96 and far > 0
    assert r4.grid == core * far
    # the shared arrays are the only route: a checker without them is an error
    with pytest.raises(TypeError):
        check_angle_bound(patch, seed=1, instance="p0")


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def test_patch_graph_arrays_share_one_tap_grid_solve(stadium_run,
                                                      monkeypatch):
    patch = stadium_run.result.curve.patches[2]
    batches = []
    solve = LocalGraph._solve

    def counted(self, y):
        batches.append(np.shape(y))
        return solve(self, y)

    monkeypatch.setattr(LocalGraph, "_solve", counted)
    arrays = patch_graph_arrays(patch)
    monkeypatch.undo()
    # the tap grid is the only 2-D batch: (hot points, taps)
    assert sum(len(b) == 2 for b in batches) == 1
    # the read on ys is the blend's base and fv/dfv at once
    assert len(batches) <= 2

    # reference: separate value and slope reads, separate convolutions
    b = patch.blend
    g = b.graph
    ys = np.linspace(-patch.transition_radius, patch.transition_radius,
                     checks._PATCH_GRID)
    base, dbase = g.value(ys), g.slope(ys)
    w, dw = b.psi(ys), b.psi.derivative(ys)
    hot = (w > 0.0) | (dw != 0.0)
    conv = convolve(g.value, b.kernel, ys[hot], taps=checks._PATCH_TAPS)
    dconv = convolve(g.slope, b.kernel, ys[hot], taps=checks._PATCH_TAPS)
    F, DF = base.copy(), dbase.copy()
    diff = conv - base[hot]
    F[hot] = base[hot] + w[hot] * diff
    DF[hot] = dbase[hot] + dw[hot] * diff + w[hot] * (dconv - dbase[hot])
    expected = (ys, F, DF, g.value(ys), g.slope(ys))
    assert _bits(*arrays) == _bits(*expected)


def _dense_far_point(patch, curve, R, sample, arrays):
    """The far-point maximum as one (core x far x 2) broadcast."""
    ay, aF, aDF, _, _ = arrays
    core = np.abs(ay) <= patch.inner_radius
    ys, F, DF = ay[core], aF[core], aDF[core]
    P = (patch.center[None, :] + ys[:, None] * patch.tangent[None, :]
         + F[:, None] * patch.normal[None, :])
    tang = (patch.tangent[None, :] + DF[:, None] * patch.normal[None, :])
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    L_total = curve.length
    gap = np.abs(np.mod(sample.params - patch.base_arc + 0.5 * L_total,
                        L_total) - 0.5 * L_total)
    far = sample.points[gap > 1.5 * patch.arc_window]
    D = far[None, :, :] - P[:, None, :]
    cross = np.abs(D[:, :, 0] * tang[:, None, 1] - D[:, :, 1] * tang[:, None, 0])
    d2 = (D * D).sum(-1)
    excess = cross - d2 / (2.0 * R)
    return excess, ys.size * far.shape[0]


def test_far_point_blocks_match_dense_broadcast_on_real_patch(stadium_run):
    result = stadium_run.result
    R = result.report.R_input
    sample = sample_manifold(result.curve, n=2000)
    for patch in result.curve.patches[:3]:
        arrays = patch_graph_arrays(patch)
        row = check_far_point_distance(patch, result.curve, R, sample,
                                       arrays=arrays)
        excess, grid = _dense_far_point(patch, result.curve, R, sample,
                                        arrays)
        assert _bits(row.measured) == _bits(excess.max())
        assert row.grid == grid


@pytest.fixture(scope="module")
def rounded_rect_run():
    return smooth_manifold({"kind": "cad_profile", "preset": "rounded_rect",
                            "width": 2.0, "height": 1.0,
                            "corner_radius": 0.2}, 0.05)


def test_far_point_matches_dense_broadcast_on_every_rounded_rect_patch(
        rounded_rect_run):
    result = rounded_rect_run
    R = result.report.R_input
    sample = sample_manifold(result.curve, n=2000)
    assert len(result.curve.patches) == 8
    for patch in result.curve.patches:
        arrays = patch_graph_arrays(patch)
        row = check_far_point_distance(patch, result.curve, R, sample,
                                       arrays=arrays)
        excess, grid = _dense_far_point(patch, result.curve, R, sample,
                                        arrays)
        assert _bits(row.measured) == _bits(excess.max())
        assert row.grid == grid


def _synthetic_far_case(n_grid, n_core_target):
    """A flat core on the x-axis, far samples on the same line beyond it;
    only the last core point's tangent tilts, so it holds the maximum."""
    rng = np.random.default_rng(11)
    ys = np.linspace(-1.0, 1.0, n_grid)
    inner = np.sort(np.abs(ys))[n_core_target - 1]
    core = np.abs(ys) <= inner
    F = 1e-3 * rng.standard_normal(n_grid)
    DF = 1e-3 * rng.standard_normal(n_grid)
    DF[np.flatnonzero(core)[-1]] = 1.0
    arrays = (ys, F, DF, np.zeros(n_grid), np.zeros(n_grid))
    patch = SimpleNamespace(
        inner_radius=inner, center=np.zeros(2), tangent=np.array([1.0, 0.0]),
        normal=np.array([0.0, 1.0]), base_arc=0.0, arc_window=1.0,
        rho_target=1e-3, lip_graph=0.0)
    params = np.linspace(10.0, 20.0, 301)
    sample = SimpleNamespace(params=params,
                             points=np.stack([params, np.zeros_like(params)], 1))
    return patch, SimpleNamespace(length=100.0), sample, arrays


def test_far_point_blocks_match_dense_broadcast_on_ragged_core():
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    excess, grid = _dense_far_point(patch, curve, 10.0, sample, arrays)
    n_core = excess.shape[0]
    assert n_core == 71 and n_core % checks._FAR_BLOCK != 0
    # the maximum sits in the last, partial block
    row_of_max = int(np.argmax(excess.max(axis=1)))
    assert row_of_max >= (n_core // checks._FAR_BLOCK) * checks._FAR_BLOCK
    row = check_far_point_distance(patch, curve, 10.0, sample, arrays=arrays)
    assert _bits(row.measured) == _bits(excess.max())
    assert row.grid == grid


def test_far_point_nan_reaches_the_row():
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    arrays[2][np.flatnonzero(np.abs(arrays[0]) <= patch.inner_radius)[3]] = np.nan
    row = check_far_point_distance(patch, curve, 10.0, sample, arrays=arrays)
    assert math.isnan(row.measured) and not row.passed


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("where", ["F", "DF", "far"])
def test_far_point_infinities_reach_the_row(bad, where):
    # the dense broadcast reads inf - inf or 0 * inf: NaN, as a NaN does
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    row_3 = np.flatnonzero(np.abs(arrays[0]) <= patch.inner_radius)[3]
    if where == "far":
        sample.points[40, 0] = bad
    else:
        arrays[1 if where == "F" else 2][row_3] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        excess, _ = _dense_far_point(patch, curve, 10.0, sample, arrays)
        row = check_far_point_distance(patch, curve, 10.0, sample,
                                       arrays=arrays)
    assert math.isnan(excess.max())
    assert math.isnan(row.measured) and not row.passed


def test_far_point_negative_maximum_matches_dense_broadcast():
    # R = 1 and every far sample at least 9 away: |q - p|^2 / 2 outweighs
    # every tangent distance
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    excess, grid = _dense_far_point(patch, curve, 1.0, sample, arrays)
    row = check_far_point_distance(patch, curve, 1.0, sample, arrays=arrays)
    assert excess.max() < 0.0
    assert _bits(row.measured) == _bits(excess.max())
    assert row.grid == grid


def _circle_far_case(R, n_grid, n_far):
    """A plateau core on the circle of radius R about the origin and far
    samples on the same circle: every tangent ball at the core is the
    disc itself, so every pair's excess is zero up to rounding."""
    ys = np.linspace(-0.5 * R, 0.5 * R, n_grid)
    F = R - np.sqrt(R * R - ys * ys)
    DF = ys / np.sqrt(R * R - ys * ys)
    arrays = (ys, F, DF, F.copy(), DF.copy())
    patch = SimpleNamespace(
        inner_radius=0.5 * R, center=np.array([0.0, -R]),
        tangent=np.array([1.0, 0.0]), normal=np.array([0.0, 1.0]),
        base_arc=0.0, arc_window=0.6 * R, rho_target=1e-3, lip_graph=0.0)
    params = np.linspace(0.0, 2 * np.pi * R, n_far, endpoint=False)
    angles = params / R - 0.5 * np.pi
    sample = SimpleNamespace(
        params=params, points=R * np.stack([np.cos(angles), np.sin(angles)], 1))
    return patch, SimpleNamespace(length=2 * np.pi * R), sample, arrays


def test_far_point_all_ties_compare_every_row_in_blocks(monkeypatch):
    R = 1.5
    patch, curve, sample, arrays = _circle_far_case(R, 800, 1500)
    excess, grid = _dense_far_point(patch, curve, R, sample, arrays)
    assert np.abs(excess).max() < 1e-14
    candidates = checks._far_candidate_rows
    seen = []

    def spy(*args):
        seen.append(candidates(*args))
        return seen[-1]

    monkeypatch.setattr(checks, "_far_candidate_rows", spy)
    tracemalloc.start()
    row = check_far_point_distance(patch, curve, R, sample, arrays=arrays)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # every row is a candidate, and the maximum is the dense one
    assert seen[0].size == 800 and seen[0].all()
    assert _bits(row.measured) == _bits(excess.max())
    assert row.grid == grid
    # compared _FAR_BLOCK rows at a time, not as one (core x far) array
    assert peak < excess.nbytes // 2


def test_far_point_empty_core_is_refused():
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    outside = (arrays[0][np.abs(arrays[0]) > patch.inner_radius],)
    outside = outside + tuple(np.zeros_like(outside[0]) for _ in range(4))
    with pytest.raises(InvalidInputError, match="plateau core"):
        check_far_point_distance(patch, curve, 10.0, sample, arrays=outside)


def test_main_theorem_rows(stadium_run):
    rows = check_main_theorem(stadium_run.result, seed=0)
    names = [r.name for r in rows]
    assert names[0] == "reach_drop"
    assert "c1_distance" in names
    assert "center_shift" in names
    n_junctions = len(stadium_run.result.curve.shape.junction_arcs())
    assert names.count("junction_probe_control") == n_junctions == 4
    probe_rows = [n for n in names if n == "smooth_probe"]
    assert len(probe_rows) == stadium_run.result.report.patches_applied
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]
    # the micro pair scan: one row per junction, a lower bound R - epsilon
    rep = stadium_run.result.report
    pairs = [r for r in rows if r.name == "junction_pair_ratio"]
    assert len(pairs) == n_junctions
    for r in pairs:
        assert r.bound == rep.R_input - rep.epsilon and r.tolerance == 0.0
        assert r.measured >= r.bound and r.grid > 0
    # the shift budget smooth_patch enforces
    shift = rows[names.index("center_shift")]
    assert shift.bound == smoothing_window_radius(rep.delta, rep.R_input) / 16
    # a probe that passes on the floor alone measures 0.0, not its noise
    over = [r for r in rows if r.name in ("smooth_probe", "smooth_probe_junction")
            and not r.measured <= r.bound]
    assert not over, over


def test_main_theorem_matches_per_probe_reference(stadium_run):
    # the probe rows read the final curve, whose patches are cubic-Hermite
    # tabulations; the reference probes each patch's live blend instead,
    # fresh quadrature of the graph before the patch, in the patch's own
    # frame, and the control probes that graph itself.  Verdicts must
    # agree row by row; the last ratios differ by the tabulation and the
    # frame: at most 6.8e-5 measured on the stadium, 1e-4 allowed
    result = stadium_run.result
    rows = check_main_theorem(result, seed=3)
    final = result.curve
    sig = min(p.sigma for p in final.patches)
    by_arc = {p.base_arc: p for p in final.patches}
    expected = []  # (name, instance, probed graph, step, expected verdict)
    for p in final.patches:
        expected.append(("smooth_probe", f"patch-{p.index:04d}-arc={p.base_arc:.6f}",
                         p.blend.value, p.sigma, True))
    for a in final.shape.junction_arcs():
        tag = f"junction-arc={a:.6f}"
        blend = by_arc[a].blend  # each junction is its patch's center
        expected.append(("smooth_probe_junction", tag, blend.value, sig, True))
        expected.append(("junction_probe_control", tag, blend.graph.value, sig,
                         False))
    probe_rows = rows[3:3 + len(expected)]
    assert [(r.name, r.instance) for r in probe_rows] == \
        [(name, tag) for name, tag, _, _, _ in expected]
    for row, (_, _, graph, step, verdict) in zip(probe_rows, expected):
        pr = smooth_core_probe(graph, 0.0, step)
        assert not pr.limited_by_floor
        assert row.passed == (pr.passed == verdict)
        assert row.passed
        assert row.measured == pytest.approx(pr.ratios[-1], abs=1e-4)
        assert row.bound == _PROBE_RATIO_CAP and row.grid == 5 * len(pr.steps)

    # each junction's scan on its own evaluation of the final curve
    expected = []
    rep = result.report
    for a in final.shape.junction_arcs():
        pts, vel = final.point_and_velocity(
            a + np.linspace(-0.25 * sig, 0.25 * sig, 401))
        est = estimate_reach_federer(
            pts, vel / np.linalg.norm(vel, axis=-1, keepdims=True), sig / 160)
        bound = rep.R_input - rep.epsilon
        expected.append(checks._result(
            "junction_pair_ratio", est.value, bound, 0.0, est.pairs_scanned, 3,
            f"junction-arc={a:.6f}", passed=est.value >= bound))
    assert [r.name for r in rows[:3]] == ["reach_drop", "c1_distance", "center_shift"]
    assert len(rows) == 3 + len(probe_rows) + len(expected) == 19
    assert repr([dataclasses.astuple(r) for r in rows[3 + len(probe_rows):]]) == \
        repr([dataclasses.astuple(r) for r in expected])


def test_run_suite_formulas_green():
    suite = run_suite("formulas", seed=7)
    assert suite.passed and suite.n_failed == 0
    assert suite.suite == "formulas" and suite.seed == 7
    assert suite.elapsed > 0
    assert len(suite.results) >= 4


def test_run_suite_times_each_suite(monkeypatch):
    for name in ("_formula_rows", "_convolution_rows", "_blend_rows"):
        monkeypatch.setattr(checks, name, lambda seed: [])
    monkeypatch.setattr(checks, "_patch_rows", lambda fixture, seed: [])
    monkeypatch.setattr(checks, "check_main_theorem",
                        lambda fixture, seed: [])
    monkeypatch.setattr(checks, "_stadium_fixture", lambda: "built")
    suite = run_suite("all", seed=7)
    assert [n for n, _ in suite.timings] == [
        "formulas", "convolution", "blend", "fixture", "patches", "main"]
    assert all(s >= 0.0 for _, s in suite.timings)


def test_run_suite_rejects_unknown():
    with pytest.raises(InvalidInputError):
        run_suite("everything")


def test_checks_csv_deterministic(tmp_path):
    suite = run_suite("formulas", seed=7)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    d1 = write_checks_csv(suite.results, p1)
    d2 = write_checks_csv(suite.results, p2)
    assert d1 == d2
    assert p1.read_bytes() == p2.read_bytes()
    header = d1.splitlines()[0]
    assert header == "name,instance,seed,grid,passed,measured,bound,tolerance,slack"
    assert len(d1.splitlines()) == len(suite.results) + 1


def test_failures_json(tmp_path):
    good = CheckResult(name="ok", passed=True, measured=0.0, bound=1.0,
                       tolerance=0.0, slack=1.0, grid=1, seed=0, instance="")
    bad = CheckResult(name="broken", passed=False, measured=2.0, bound=1.0,
                      tolerance=0.0, slack=-1.0, grid=1, seed=0, instance="i")
    path = tmp_path / "fail.json"
    data = write_failures_json([good, bad], path)
    assert path.read_text() == data
    import json
    doc = json.loads(data)
    assert doc["count"] == 1
    assert doc["failures"][0]["name"] == "broken"

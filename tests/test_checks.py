"""The lemma checkers themselves: zoo validity, honest negatives, suites."""

import numpy as np
import pytest

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
from reachsmooth.curves import sample_manifold
from reachsmooth.errors import InvalidInputError
from reachsmooth.kernels import BumpKernel, Interval
from reachsmooth.partition import make_reference_plateau


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
    r1 = check_tangent_distance_bound(patch, seed=1, instance="p0")
    r2 = check_angle_bound(patch, seed=1, instance="p0")
    r3 = check_hausdorff_bound(patch, R, seed=1, instance="p0")
    # the far-point row on shared arrays, as the patches suite runs it
    arrays = patch_graph_arrays(patch)
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


def test_run_suite_formulas_green():
    suite = run_suite("formulas", seed=7)
    assert suite.passed and suite.n_failed == 0
    assert suite.suite == "formulas" and suite.seed == 7
    assert suite.elapsed > 0
    assert len(suite.results) >= 4


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

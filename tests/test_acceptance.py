"""Top-level acceptance gate.

Eight criteria, one test each; the terminal summary prints a PASS/FAIL
line per criterion (see conftest).  Budgets and tolerances are pinned
here on purpose: loosening them is a release decision, not a refactor.
"""

import math
import time

import numpy as np
import pytest

from reachsmooth.checks import (_blend_rows, _convolution_rows, _formula_rows,
                                _patch_rows, run_suite, write_checks_csv)
from reachsmooth.curves import make_shape
from reachsmooth.reach import analytic_reach, scan_curve_reach

CATALOG = [
    ({"kind": "circle", "r": 1.0}, "circle-1"),
    ({"kind": "circle", "r": 2.0}, "circle-2"),
    ({"kind": "ellipse", "a": 2.0, "b": 1.0}, "ellipse-2-1"),
    ({"kind": "stadium", "r": 1.0, "l": 2.0}, "stadium-1-2"),
]


def test_criterion_1_reach_oracle_agreement():
    for spec, tag in CATALOG:
        shape = make_shape(spec)
        truth = analytic_reach(shape)
        t0 = time.perf_counter()
        est, _ = scan_curve_reach(shape, n=2000)
        elapsed = time.perf_counter() - t0
        rel = abs(est.value - truth) / truth
        assert rel <= 0.02, (tag, est.value, truth)
        assert elapsed < 10.0, (tag, elapsed)


def test_criterion_2_circle_ratio_identity():
    t0 = time.perf_counter()
    est, sample = scan_curve_reach(make_shape({"kind": "circle", "r": 1.0}),
                                   n=450)
    # every admissible ordered pair, not just the minimizing one
    pts, tans = sample.points, sample.tangents
    D = pts[None, :, :] - pts[:, None, :]
    d2 = (D * D).sum(-1)
    cross = np.abs(D[:, :, 0] * tans[:, None, 1]
                   - D[:, :, 1] * tans[:, None, 0])
    admissible = d2 >= est.min_sep ** 2
    ratios = d2[admissible] / (2.0 * cross[admissible])
    elapsed = time.perf_counter() - t0
    assert ratios.size >= 100_000
    assert np.abs(ratios - 1.0).max() <= 1e-9
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert elapsed < 5.0


def test_criterion_3_convolution_lipschitz_suite():
    t0 = time.perf_counter()
    rows = _convolution_rows(7)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 200  # 100 seeded functions, both orders
    for row in rows:
        assert row.passed, row
        assert row.measured <= row.bound + 1e-6, row
    assert elapsed < 60.0


def test_criterion_4_blend_lipschitz_suite():
    t0 = time.perf_counter()
    rows = _blend_rows(7)
    elapsed = time.perf_counter() - t0
    # the corner function plus 20 random instances at three budgets,
    # value and slope bounds
    assert len(rows) == 3 + 20 * 3 * 2
    assert {r.name for r in rows} == {"blend_lipschitz_order0",
                                      "blend_lipschitz_order1"}
    for row in rows:
        assert row.passed, row
    assert elapsed < 120.0


def test_criterion_5_patch_checkers(stadium_run):
    t0 = time.perf_counter()
    rows = _patch_rows(stadium_run.result, 7)
    elapsed = time.perf_counter() - t0
    n_patches = stadium_run.result.report.patches_applied
    assert len(rows) == 4 * n_patches
    for row in rows:
        assert row.passed, row
    # dense per-patch evaluation grids sit in the thousand-point band
    grids = {r.grid for r in rows if r.name in ("tangent_angle",
                                                "patch_hausdorff")}
    assert grids and all(1000 <= g <= 10000 for g in grids)
    assert stadium_run.build_seconds + elapsed < 300.0


def test_criterion_6_main_theorem(stadium_run):
    rep = stadium_run.result.report
    assert rep.epsilon == 0.05 and rep.R_input == 1.0
    assert rep.R_hat_measured >= 0.95 - 0.02
    assert rep.c1_distance <= 0.05
    t0 = time.perf_counter()
    suite = run_suite("main", seed=7)
    elapsed = time.perf_counter() - t0
    probes = [r for r in suite.results if r.name == "smooth_probe"]
    assert len(probes) == rep.patches_applied
    assert all(r.passed for r in probes)
    # positive control: the probe must still see the kinks of the raw
    # input at its junctions
    controls = [r for r in suite.results
                if r.name == "junction_probe_control"]
    assert len(controls) == 4
    assert all(r.passed for r in controls)
    assert suite.passed
    assert stadium_run.build_seconds + elapsed < 300.0


def test_criterion_7_formula_identities():
    t0 = time.perf_counter()
    rows = _formula_rows(7)
    elapsed = time.perf_counter() - t0
    by_name = {r.name: r for r in rows}
    drop = by_name["radius_drop_identity"]
    assert drop.passed and drop.grid == 10000 and drop.tolerance == 1e-12
    exact0 = by_name["reach_bound_zero_budget"]
    assert exact0.passed and exact0.tolerance == 0.0 and exact0.measured == 0.0
    exact1 = by_name["far_bound_zero_deviation"]
    assert exact1.passed and exact1.tolerance == 0.0 and exact1.measured == 0.0
    assert by_name["reach_bound_monotone"].passed
    assert elapsed < 1.0


def test_criterion_8_deterministic_verification(tmp_path):
    # each suite builds its own pipeline run
    first = run_suite("all", seed=7)
    second = run_suite("all", seed=7)
    csv_a = write_checks_csv(first.results, tmp_path / "a.csv")
    csv_b = write_checks_csv(second.results, tmp_path / "b.csv")
    assert csv_a == csv_b
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert first.passed and second.passed

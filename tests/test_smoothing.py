"""Surgery pipeline: nets, blends, patches, reports, probe."""

import json
import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from reachsmooth import smoothing
from reachsmooth.checks import _searched_blend, random_c11
from reachsmooth.curves import AppliedPatch, ClosedCurve, make_shape
from reachsmooth.errors import (ConvergenceError, GeometryError,
                                InvalidInputError)
from reachsmooth.kernels import Interval
from reachsmooth.partition import (make_reference_plateau, rescale_plateau,
                                   smoothing_window_radius)
from reachsmooth.smoothing import (build_net, effective_radius_drop,
                                   far_away_reach_bound,
                                   predicted_reach_bound, smooth_core_probe,
                                   smooth_manifold, smooth_patch)


def circle(r=1.0):
    return ClosedCurve(make_shape({"kind": "circle", "r": r}))


# ------------------------------------------------------------------- nets

def test_net_covering_and_separation():
    net = build_net(circle(), 0.1, 1.0)
    assert net.arcs[0] == 0.0
    assert net.spacing == pytest.approx(math.sqrt(0.1) / 16)
    # farthest-point insertion: everything covered, nothing crowded
    assert net.covering_radius <= net.spacing
    assert net.min_separation >= net.spacing * (1 - 1e-12)
    assert net.count == len(net.arcs) == len(net.points)
    assert 1 <= net.overlap_count <= net.count


def test_net_deterministic():
    a = build_net(circle(), 0.1, 1.0)
    b = build_net(circle(), 0.1, 1.0)
    assert np.array_equal(a.arcs, b.arcs)
    assert np.array_equal(a.points, b.points)


def test_net_accepts_bare_shape():
    shape = make_shape({"kind": "circle", "r": 1.0})
    net = build_net(shape, 0.1, 1.0)
    assert net.count == build_net(ClosedCurve(shape), 0.1, 1.0).count


# ----------------------------------------------------------------- blends

def test_blend_rejects_rho_over_precondition():
    # the tangent-angle estimate needs rho < 1/(1 + combined plateau
    # constant); the pipeline refuses a budget over it before any work
    with pytest.raises(InvalidInputError,
                       match=r"violates rho < 1/\(1 \+ combined plateau constant\)"):
        smooth_manifold({"kind": "circle", "r": 1.0}, 0.3, rho=1.0)


def test_run_rejects_delta_over_half_reach():
    with pytest.raises(InvalidInputError, match="exceeds half the reach"):
        smooth_manifold({"kind": "circle", "r": 1.0}, 0.3, delta=0.6)


def test_blend_of_affine_is_affine():
    psi = make_reference_plateau()
    f = lambda x: 0.7 * np.asarray(x, dtype=float) - 0.2
    df = lambda x: np.full_like(np.asarray(x, dtype=float), 0.7)
    blend = _searched_blend(f, df, psi, 0.05, Interval(-4, 4), 1, sigma_max=0.3)
    # an affine input passes at the first radius: the cap
    assert blend.kernel.sigma == 0.3
    assert blend.deviation <= 1e-12
    ys = np.linspace(-3.5, 3.5, 101)
    assert np.allclose(blend.value(ys), f(ys), atol=1e-12)
    assert np.allclose(blend.derivative(ys), 0.7, atol=1e-11)


def test_blend_exact_outside_support():
    psi = make_reference_plateau()
    rng = np.random.default_rng(3)
    f, df, L, Ld = random_c11(rng, Interval(-4, 4), 6, 2.0)
    blend = _searched_blend(f, df, psi, 0.05, Interval(-4, 4), 1, sigma_max=0.25)
    ys = np.array([-3.5, -2.0, 2.0, 3.1])
    assert np.array_equal(blend.value(ys), np.asarray(f(ys), dtype=float))


def test_blend_stays_inside_budget():
    psi = make_reference_plateau()
    rng = np.random.default_rng(11)
    f, df, L, Ld = random_c11(rng, Interval(-4, 4), 8, 2.0)
    rho = 0.05
    blend = _searched_blend(f, df, psi, rho, Interval(-4, 4), 1, sigma_max=0.25)
    ys = np.linspace(-2.5, 2.5, 401)
    assert np.abs(blend.value(ys) - f(ys)).max() <= rho
    assert np.abs(blend.derivative(ys) - df(ys)).max() <= rho * (
        1 + psi.combined_lipschitz)


def test_blend_combined_pass_is_bit_identical():
    psi = make_reference_plateau()
    rng = np.random.default_rng(29)
    f, df, L, Ld = random_c11(rng, Interval(-4, 4), 6, 2.0)
    blend = _searched_blend(f, df, psi, 0.05, Interval(-4, 4), 1, sigma_max=0.25)
    ys = np.linspace(-2.2, 2.2, 113)
    val, der = blend.value_and_derivative(ys)
    assert np.array_equal(val, blend.value(ys))
    assert np.array_equal(der, blend.derivative(ys))
    v0, d0 = blend.value_and_derivative(0.3)
    assert isinstance(v0, float) and v0 == blend.value(0.3)
    assert d0 == blend.derivative(0.3)


# ---------------------------------------------------------------- patches

def patch_params(delta=0.1, R=1.0):
    psi = rescale_plateau(make_reference_plateau(), delta, R)
    w = smoothing_window_radius(delta, R)
    return dict(delta=delta, R=R, rho=0.01, psi=psi, sigma_max=w / 128.0)


def test_patch_applies_on_circle():
    curve = circle()
    new, patch, rec = smooth_patch(curve, 0.5, **patch_params())
    assert rec.applied and patch is not None
    assert patch.index == 0 and len(new.patches) == 1
    assert rec.sigma <= patch_params()["sigma_max"]
    assert rec.deviation <= 0.01
    # the spline vanishes exactly where the plateau support ends
    tr = patch.transition_radius
    assert patch.displacement(tr) == 0.0
    assert patch.displacement(-tr) == 0.0
    assert patch.slope_displacement(tr) == 0.0
    # the curve actually moved at the center
    assert np.linalg.norm(new.point(0.5) - curve.point(0.5)) > 1e-10


def test_patch_leaves_far_points_untouched():
    curve = circle()
    new, patch, _ = smooth_patch(curve, 0.0, **patch_params())
    s = np.linspace(1.0, 5.0, 300)
    p0, v0 = curve.point_and_velocity(s)
    p1, v1 = new.point_and_velocity(s)
    assert np.array_equal(p0, p1)
    assert np.array_equal(v0, v1)


def test_patch_identity_on_straight_stretch():
    curve = ClosedCurve(make_shape({"kind": "stadium", "r": 1.0, "l": 2.0}))
    new, patch, rec = smooth_patch(curve, 1.0, **patch_params())
    assert patch is None and not rec.applied
    assert new is curve
    assert rec.deviation <= 1e-13


def test_patch_shift_budget_enforced():
    # a foreign bump of 0.05 at the net center moves it past the budget
    # sqrt(delta R)/32 ~ 9.9e-3 before any smoothing happens
    curve = circle()
    center, vel = curve.point_and_velocity(0.0)
    t = vel / np.linalg.norm(vel)
    disp = CubicHermiteSpline(np.array([-0.2, 0.0, 0.2]),
                              np.array([0.0, 0.05, 0.0]), np.zeros(3))
    moved = curve.with_patch(AppliedPatch(
        index=0, base_arc=0.0, center=center, tangent=t,
        normal=np.array([-t[1], t[0]]), inner_radius=0.1,
        transition_radius=0.2, window_radius=0.4, sigma=0.01, rho_target=0.02,
        deviation=1e-3, lip_graph=0.1, lip_slope=1.0, displacement=disp,
        slope_displacement=disp.derivative()))
    with pytest.raises(GeometryError, match="drifted 5.000e-02, over the budget 9.882e-03"):
        smooth_patch(moved, 0.0, **patch_params())


def test_patch_deviation_budget_can_fail(monkeypatch):
    # every attempt convolves values and slopes once: three attempts
    # (start, start/2, start/4) for max_halvings=2, then the search stops
    radii = []
    real = smoothing.convolve_grid

    def spy(values, kernel, step):
        radii.append(kernel.sigma)
        return real(values, kernel, step)

    monkeypatch.setattr(smoothing, "convolve_grid", spy)
    params = {**patch_params(), "rho": 1e-16}
    with pytest.raises(ConvergenceError, match="after 2 halvings"):
        smooth_patch(circle(), 0.0, **params, max_halvings=2)
    start = params["sigma_max"]
    assert radii == [start, start, start / 2, start / 2, start / 4, start / 4]


def test_patch_needs_plateau_inside_window():
    params = patch_params()
    params["psi"] = make_reference_plateau()  # support 2 >> window
    with pytest.raises(InvalidInputError):
        smooth_patch(circle(), 0.0, **params)


# ------------------------------------------------------------ full runs

@pytest.fixture(scope="module")
def circle_run():
    return smooth_manifold({"kind": "circle", "r": 1.0}, 0.3)


def test_run_report_consistency(circle_run):
    rep = circle_run.report
    assert rep.shape == {"kind": "circle", "r": 1.0}
    assert rep.R_input == 1.0 and rep.epsilon == 0.3
    assert rep.patches_applied + rep.patches_identity == rep.net_size
    assert len(rep.sigma_per_patch) == rep.net_size
    assert len(circle_run.records) == rep.net_size
    assert len(circle_run.curve.patches) == rep.patches_applied
    assert rep.scan_pairs == circle_run.scan.pairs_scanned
    assert rep.R_hat_measured == circle_run.scan.value
    assert rep.R_prime_predicted == predicted_reach_bound(
        rep.R_input, rep.delta, rep.rho)
    assert rep.backend == "python"


def test_run_meets_reach_and_distance_budgets(circle_run):
    rep = circle_run.report
    assert rep.R_hat_measured >= rep.R_input - rep.epsilon - 0.02
    assert 0.0 < rep.c1_distance <= rep.epsilon
    assert rep.shift_max <= smoothing_window_radius(rep.delta, rep.R_input) / 16


def test_run_report_json_roundtrip(circle_run):
    d = circle_run.report.to_dict()
    back = json.loads(json.dumps(d, sort_keys=True))
    assert back == d
    assert isinstance(d["sigma_per_patch"], list)


def test_run_is_deterministic(circle_run):
    again = smooth_manifold({"kind": "circle", "r": 1.0}, 0.3)
    assert again.report.R_hat_measured == circle_run.report.R_hat_measured
    assert again.report.sigma_per_patch == circle_run.report.sigma_per_patch
    assert np.array_equal(again.net.arcs, circle_run.net.arcs)


def test_run_rejects_epsilon_near_reach():
    with pytest.raises(InvalidInputError):
        smooth_manifold({"kind": "circle", "r": 1.0}, 0.95)


def test_run_accepts_reach_override():
    res = smooth_manifold({"kind": "circle", "r": 1.0}, 0.3, reach=0.8)
    assert res.report.R_input == 0.8


def test_run_rejects_bad_shape_argument():
    with pytest.raises(InvalidInputError):
        smooth_manifold(42, 0.1)


# --------------------------------------------------------- bound formulas

def test_reach_bound_zero_rho_exact():
    assert predicted_reach_bound(1.3, 0.2, 0.0) == 1.3 * (1.0 - 0.2 / 1.3)
    assert predicted_reach_bound(1.0, 0.4, 0.0) == 1.0 - 0.4


def test_reach_bound_monotone_in_rho():
    vals = [predicted_reach_bound(1.0, 0.1, r)
            for r in (0.0, 1e-8, 1e-6, 1e-4, 1e-2)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0 < v <= 1.0 - 0.1 for v in vals)


def test_reach_bound_validation():
    with pytest.raises(InvalidInputError):
        predicted_reach_bound(1.0, 0.6, 0.0)
    with pytest.raises(InvalidInputError):
        predicted_reach_bound(1.0, 0.1, -1e-3)
    with pytest.raises(InvalidInputError):
        predicted_reach_bound(1.0, 0.1, math.nan)


def test_far_bound_zero_deviation_exact():
    assert far_away_reach_bound(2.0, 0.0, 0.5, 3.0) == 2.0
    a = far_away_reach_bound(1.0, 1e-4, 0.5, 3.0)
    b = far_away_reach_bound(1.0, 1e-3, 0.5, 3.0)
    assert b < a < 1.0
    with pytest.raises(InvalidInputError):
        far_away_reach_bound(1.0, -1e-4, 0.5, 3.0)
    with pytest.raises(InvalidInputError):
        far_away_reach_bound(1.0, 1e-4, 0.0, 3.0)


def test_radius_drop_identity():
    assert effective_radius_drop(1.0, 0.0) == 0.0
    for R in (0.5, 1.0, 3.0):
        for xi in (1e-6, 1e-2, 1.0, 100.0):
            z = effective_radius_drop(R, xi)
            assert 0 < z < 2 * R
            assert 1.0 / (2 * R) + xi == pytest.approx(1.0 / (2 * R - z),
                                                       rel=1e-12)
    with pytest.raises(InvalidInputError):
        effective_radius_drop(1.0, -1.0)


# ------------------------------------------------------ smoothness probe

def test_probe_passes_smooth_function():
    pr = smooth_core_probe(np.sin, 0.7, 0.05)
    assert pr.passed and not pr.limited_by_floor
    assert pr.ratios[-1] == pytest.approx(1.0, abs=0.1)
    assert len(pr.steps) == 4 and len(pr.ratios) == 3


def test_probe_flags_curvature_jump():
    f = lambda x: np.asarray(x) * np.abs(x)
    pr = smooth_core_probe(f, 0.0, 0.05)
    assert not pr.passed
    # degree-2 homogeneity makes every halving exactly quadruple the
    # normalized difference
    assert pr.ratios[-1] == pytest.approx(4.0, rel=1e-8)


def test_probe_flags_corner():
    pr = smooth_core_probe(np.abs, 0.0, 0.05)
    assert not pr.passed
    assert pr.ratios[-1] == pytest.approx(8.0, rel=1e-6)


def test_probe_floor_on_flat_input():
    f = lambda x: np.full_like(np.asarray(x, dtype=float), 2.5)
    pr = smooth_core_probe(f, 0.0, 0.05)
    assert pr.passed and pr.limited_by_floor


def test_probe_needs_two_levels():
    with pytest.raises(InvalidInputError):
        smooth_core_probe(np.sin, 0.0, 0.05, levels=1)


def test_probe_misses_jump_below_its_resolution():
    # a kink weaker than the floor at the chosen base step goes unseen;
    # the result must say the floor was the limit
    f = lambda x: 1e-16 * np.asarray(x) * np.abs(x)
    pr = smooth_core_probe(f, 0.0, 1.0)
    assert pr.passed and pr.limited_by_floor

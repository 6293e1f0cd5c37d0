"""Surgery pipeline: blends, patches, runs, reports, probe, and the
paper's full-net construction as the reference run."""

import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from reachsmooth import smoothing
from reachsmooth.checks import _searched_blend, check_main_theorem, random_c11
from reachsmooth.curves import (AppliedPatch, ArcChainShape, ClosedCurve,
                                make_shape, stadium_segments)
from reachsmooth.errors import (ConvergenceError, GeometryError,
                                InvalidInputError)
from reachsmooth.kernels import Interval, find_support_radius
from reachsmooth.partition import (make_reference_plateau, rescale_plateau,
                                   smoothing_window_radius)
from reachsmooth.smoothing import (build_net, effective_radius_drop,
                                   far_away_reach_bound,
                                   predicted_reach_bound, smooth_core_probe,
                                   smooth_manifold, smooth_patch)


def circle(r=1.0):
    return ClosedCurve(make_shape({"kind": "circle", "r": r}))


# ------------------------------------------- the paper's construction
#
# The paper covers the whole curve with a partition of unity: a
# farthest-point net, one patch per center.  The pipeline patches only
# at the junctions; this is the reference run of the full construction.


@dataclass(frozen=True)
class Net:
    """Farthest-point net on a curve, with measured quality numbers."""

    arcs: np.ndarray = field(repr=False)    # insertion order
    points: np.ndarray = field(repr=False)
    spacing: float
    covering_radius: float
    min_separation: float
    overlap_count: int
    dense_count: int

    @property
    def count(self):
        return self.arcs.shape[0]


def farthest_point_net(curve, delta, R):
    """Deterministic farthest-point net on a ClosedCurve, spacing sqrt(delta R)/16.

    Seeded at parameter 0 on a dense uniform sample (1/8 of the net
    spacing), inserting the farthest remaining sample until everything
    is covered within the spacing.  Farthest-point insertion keeps every
    pair at least one spacing apart, so the result is simultaneously a
    covering and a separated set; both radii are measured and stored.
    ``overlap_count`` is the largest number of net balls of radius
    sqrt(delta R)/2 that meet any single one (itself included).
    """
    w2 = smoothing_window_radius(delta, R)          # sqrt(delta R)/2
    spacing = w2 / 8.0                              # sqrt(delta R)/16
    n_dense = int(math.ceil(curve.length / (spacing / 8.0)))
    params = np.arange(n_dense) * (curve.length / n_dense)
    pts = curve.point(params)

    chosen = [0]
    dist = np.linalg.norm(pts - pts[0], axis=1)
    while True:
        nxt = int(np.argmax(dist))
        if dist[nxt] <= spacing:
            break
        chosen.append(nxt)
        np.minimum(dist, np.linalg.norm(pts - pts[nxt], axis=1), out=dist)
    idx = np.array(chosen)
    net_pts = pts[idx]
    covering = float(dist.max())
    d2 = ((net_pts[:, None, :] - net_pts[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    separation = float(np.sqrt(d2.min()))
    overlap = int((np.sqrt(np.where(np.isinf(d2), 0.0, d2)) <= 2.0 * w2).sum(axis=1).max())
    return Net(arcs=params[idx], points=net_pts, spacing=spacing,
               covering_radius=covering, min_separation=separation,
               overlap_count=overlap, dense_count=n_dense)


def full_net_run(spec, epsilon):
    """The paper's construction on the schedule the pipeline picks: one
    patch per net center, in insertion order, straight stretches
    becoming identity patches.  Returns the run and its net."""
    shipped = smooth_manifold(spec, epsilon)
    rep = shipped.report
    shape = shipped.curve.shape
    net = farthest_point_net(ClosedCurve(shape), rep.delta, rep.R_input)
    run = smoothing._smooth_at(shape, net.arcs, rep.epsilon, rep.R_input,
                               rep.delta, rep.rho, shipped.psi, rep.sigma_max)
    return run, net


def test_net_covering_and_separation():
    net = farthest_point_net(circle(), 0.1, 1.0)
    assert net.arcs[0] == 0.0
    assert net.spacing == pytest.approx(math.sqrt(0.1) / 16)
    # farthest-point insertion: everything covered, nothing crowded
    assert net.covering_radius <= net.spacing
    assert net.min_separation >= net.spacing * (1 - 1e-12)
    assert net.count == len(net.arcs) == len(net.points)
    assert 1 <= net.overlap_count <= net.count


def test_net_deterministic():
    a = farthest_point_net(circle(), 0.1, 1.0)
    b = farthest_point_net(circle(), 0.1, 1.0)
    assert np.array_equal(a.arcs, b.arcs)
    assert np.array_equal(a.points, b.points)


def test_full_net_reference_keeps_the_theorem(stadium_run):
    # the paper's construction on the stadium keeps every guarantee the
    # theorem states: reach drop, C^1 distance, center shift, a probe at
    # every patch center and at every junction, the raw controls
    run, net = full_net_run({"kind": "stadium", "r": 1.0, "l": 2.0}, 0.05)
    rep = run.report
    assert rep.net_size == net.count == len(run.records)
    assert rep.patches_applied + rep.patches_identity == net.count
    assert rep.patches_applied > 50 * stadium_run.result.report.patches_applied
    rows = check_main_theorem(run)
    theorem = [r for r in rows if r.name != "junction_pair_ratio"]
    assert len(theorem) == 3 + rep.patches_applied + 2 * 4
    assert all(r.passed for r in theorem), [r for r in theorem if not r.passed]
    # positive control of the micro pair scan: the reference's
    # cubic-Hermite tabulations keep most of a curvature jump where no
    # knot falls on a junction, and the scan reads 0.895 at arc 7.1416,
    # below R - epsilon; the junction patches of the pipeline pass it
    pairs = [r for r in rows if r.name == "junction_pair_ratio"]
    assert [r.instance for r in pairs if not r.passed] == ["junction-arc=7.141593"]
    shipped = [r for r in check_main_theorem(stadium_run.result)
               if r.name == "junction_pair_ratio"]
    assert len(shipped) == len(pairs) == 4 and all(r.passed for r in shipped)
    assert min(r.measured for r in shipped) > min(r.measured for r in pairs)


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
    # an affine input passes at the first radius, the cap, with no deviation
    assert blend.kernel.sigma == 0.3
    window = Interval(-psi.support_radius, psi.support_radius)
    sigma, dev = find_support_radius(f, df, window, Interval(-4, 4), 0.05,
                                     k=1, sigma_max=0.3)
    assert sigma == 0.3 and dev <= 1e-12
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
    assert patch.displacement(tr, 1) == 0.0
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
        deviation=1e-3, lip_graph=0.1, lip_slope=1.0, displacement=disp))
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


def test_run_meets_reach_and_distance_budgets(circle_run, stadium_run):
    rep = circle_run.report
    assert rep.R_hat_measured >= rep.R_input - rep.epsilon - 0.02
    # no junction, no patch: the circle comes back exactly
    assert rep.c1_distance == 0.0
    assert rep.shift_max <= smoothing_window_radius(rep.delta, rep.R_input) / 16
    rep = stadium_run.result.report
    assert rep.R_hat_measured >= rep.R_input - rep.epsilon - 0.02
    assert 0.0 < rep.c1_distance <= rep.epsilon
    assert rep.shift_max <= smoothing_window_radius(rep.delta, rep.R_input) / 16


@pytest.mark.parametrize("spec", [{"kind": "circle", "r": 1.0},
                                  {"kind": "ellipse", "a": 2.0, "b": 1.0}],
                         ids=["circle", "ellipse"])
def test_smooth_shape_comes_back_exactly(spec):
    res = smooth_manifold(spec, 0.05)
    rep = res.report
    assert res.curve.patches == () and res.records == ()
    assert (rep.net_size, rep.patches_applied, rep.patches_identity) == (0, 0, 0)
    assert rep.c1_distance == 0.0 and rep.sigma_per_patch == ()
    s = np.linspace(-1.0, 2.0 * res.curve.length, 1001)
    got = res.curve.point_and_velocity(s)
    raw = ClosedCurve(res.curve.shape).point_and_velocity(s)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in raw]


def test_run_patches_each_junction_once(stadium_run):
    result = stadium_run.result
    junctions = result.curve.shape.junction_arcs()
    assert build_net(result.curve.shape) == junctions == tuple(sorted(junctions))
    assert [p.base_arc for p in result.curve.patches] == list(junctions)
    assert [r.base_arc for r in result.records] == list(junctions)
    assert result.report.net_size == result.report.patches_applied == 4
    assert result.report.patches_identity == 0


@pytest.mark.parametrize("spec", [
    {"kind": "cad_profile", "preset": "rounded_rect",
     "width": 2.0, "height": 1.0, "corner_radius": 0.2},
    # a straight of length 1e-3 between two corners: its two junctions
    # sit inside one plateau core and get one patch each, stacked
    {"kind": "cad_profile", "preset": "rounded_rect",
     "width": 0.401, "height": 1.0, "corner_radius": 0.2},
], ids=["rounded_rect", "close_junctions"])
def test_junction_patches_keep_the_theorem(spec):
    res = smooth_manifold(spec, 0.05)
    rep = res.report
    junctions = res.curve.shape.junction_arcs()
    assert rep.patches_applied == rep.net_size == len(junctions) == 8
    gaps = np.diff(junctions)
    if spec["width"] < 1.0:
        assert gaps.min() == pytest.approx(1e-3, rel=1e-9)
        assert gaps.min() < res.curve.patches[0].inner_radius
    rows = check_main_theorem(res)
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]
    assert sum(r.name == "junction_pair_ratio" for r in rows) == 8
    assert rep.R_hat_measured >= rep.R_input - rep.epsilon
    assert 0.0 < rep.c1_distance <= rep.epsilon


def test_run_report_json_roundtrip(circle_run):
    d = circle_run.report.to_dict()
    back = json.loads(json.dumps(d, sort_keys=True))
    assert back == d
    assert isinstance(d["sigma_per_patch"], list)


def test_run_is_deterministic(circle_run, stadium_run):
    again = smooth_manifold({"kind": "circle", "r": 1.0}, 0.3)
    assert again.report == circle_run.report
    ref = stadium_run.result
    again = smooth_manifold({"kind": "stadium", "r": 1.0, "l": 2.0}, 0.05)
    assert again.report == ref.report
    assert again.records == ref.records


def rotated_stadium_spec(angle, r=1.0, l=2.0):
    """The catalog stadium as a cad_profile, turned about the origin."""
    c, s = math.cos(angle), math.sin(angle)

    def turn(p):
        return [c * p[0] - s * p[1], s * p[0] + c * p[1]]

    hl = 0.5 * l
    segments = [
        {"type": "line", "start": turn((-hl, -r)), "end": turn((hl, -r))},
        {"type": "arc", "center": turn((hl, 0.0)), "radius": r,
         "start_angle": angle - 0.5 * math.pi, "end_angle": angle + 0.5 * math.pi},
        {"type": "line", "start": turn((hl, r)), "end": turn((-hl, r))},
        {"type": "arc", "center": turn((-hl, 0.0)), "radius": r,
         "start_angle": angle + 0.5 * math.pi, "end_angle": angle + 1.5 * math.pi},
    ]
    return {"kind": "cad_profile", "segments": segments}


def _same_run(rep, ref):
    """Two runs of one curve in different coordinates or parametrizations:
    the same patch decisions, the certificate equal to float accuracy."""
    assert rep.R_input - rep.R_hat_measured <= rep.epsilon
    assert rep.c1_distance <= rep.epsilon
    assert rep.net_size == ref.net_size
    assert rep.patches_applied == ref.patches_applied
    assert rep.sigma_per_patch == ref.sigma_per_patch
    assert rep.R_hat_measured == pytest.approx(ref.R_hat_measured, rel=1e-9)
    assert rep.c1_distance == pytest.approx(ref.c1_distance, rel=1e-9)


def test_run_is_rotation_invariant(stadium_run):
    # a rigid turn of the input changes only rounding: the same junction
    # patches, and the certificate numbers of the catalog stadium to
    # float accuracy
    ref = stadium_run.result.report
    rep = smooth_manifold(rotated_stadium_spec(0.3), 0.05).report
    assert rep.R_input == pytest.approx(ref.R_input, rel=1e-12)
    _same_run(rep, ref)


def test_run_is_start_point_invariant(stadium_run):
    # the same stadium with its segment list starting at the right-hand
    # cap: arc 0 moves to the start of the cap, and the junctions are
    # patched in another order
    ref = stadium_run.result.report
    segments = stadium_segments(1.0, 2.0)
    rep = smooth_manifold(ArcChainShape(segments[1:] + segments[:1]), 0.05).report
    assert rep.R_input == ref.R_input
    _same_run(rep, ref)


def test_run_rejects_epsilon_near_reach():
    with pytest.raises(InvalidInputError):
        smooth_manifold({"kind": "circle", "r": 1.0}, 0.95)


def test_run_accepts_reach_override():
    res = smooth_manifold({"kind": "circle", "r": 1.0}, 0.3, reach=0.8)
    assert res.report.R_input == 0.8


def test_run_rejects_bad_shape_argument():
    with pytest.raises(InvalidInputError):
        smooth_manifold(42, 0.1)
    # a patched curve is not an input: its reach is not the base shape's
    with pytest.raises(InvalidInputError):
        smooth_manifold(ClosedCurve(make_shape({"kind": "circle", "r": 1.0})), 0.1)


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


def test_probe_misses_jump_below_its_resolution():
    # a kink weaker than the floor at the chosen base step goes unseen;
    # the result must say the floor was the limit
    f = lambda x: 1e-16 * np.asarray(x) * np.abs(x)
    pr = smooth_core_probe(f, 0.0, 1.0)
    assert pr.passed and pr.limited_by_floor

"""Surgery pipeline: blends, patches, runs, reports, probe, and the
paper's full-net construction as the reference run."""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsmooth import kernels, smoothing
from reachsmooth.checks import (_junction_pair_rows, _patch_rows,
                                _proven_blend, check_main_theorem, random_c11)
from reachsmooth.curves import (AppliedPatch, ArcChainShape, ClosedCurve,
                                make_shape, sample_manifold, stadium_segments)
from reachsmooth.errors import (ConvergenceError, GeometryError,
                                InvalidInputError)
from reachsmooth.kernels import Interval, find_support_radius
from reachsmooth.partition import (make_reference_plateau, rescale_plateau,
                                   smoothing_window_radius)
from reachsmooth.ppoly import HermiteTable
from reachsmooth.reach import analytic_reach, estimate_reach_federer
from reachsmooth.smoothing import (build_net, effective_radius_drop,
                                   far_away_reach_bound,
                                   predicted_reach_bound, smooth_core_probe,
                                   smooth_manifold, smooth_patch)
from tests.test_reach import (dogbone_shape, filleted_polygon,
                              jittered_offset_polygon)


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
    # theorem states: reach drop (with the scan tolerance and without),
    # C^1 distance, center shift, a probe at
    # every patch center and at every junction, the raw controls
    run, net = full_net_run({"kind": "stadium", "r": 1.0, "l": 2.0}, 0.05)
    rep = run.report
    assert rep.net_size == net.count == len(run.records)
    assert rep.patches_applied + rep.patches_identity == net.count
    assert rep.patches_applied > 50 * stadium_run.result.report.patches_applied
    rows = check_main_theorem(run)
    theorem = [r for r in rows if r.name != "junction_pair_ratio"]
    assert len(theorem) == 4 + rep.patches_applied + 2 * 4
    assert all(r.passed for r in theorem), [r for r in theorem if not r.passed]
    # the reference's windows overlap, so its radii rest on the measured
    # constants, and each witness holds the budget
    assert all(0.0 <= r.deviation <= rep.rho and r.halvings == 0
               for r in run.records)
    # one micro pair scan a junction; whether a reference row passes
    # depends on where its tables' knots fall (the positive control is
    # test_junction_pair_scan_reads_a_bend_at_a_junction)
    pairs = [r for r in rows if r.name == "junction_pair_ratio"]
    assert len(pairs) == 4


def test_junction_pair_scan_reads_a_bend_at_a_junction(stadium_run):
    # positive control of the micro pair scan: a hand-built patch whose
    # table lifts the raw stadium by a cubic bump of height h = 1e-4 over
    # +-a, a = 0.01, centered on a junction, bends it there with
    # curvature 6 h/a^2 = 6, and the scan reads below R - epsilon; the
    # raw stadium and the pipeline's junction patches pass it
    result = stadium_run.result
    rep = result.report
    sigma = min(rep.sigma_per_patch)
    raw = ClosedCurve(result.curve.shape)
    arc = raw.shape.junction_arcs()[0]
    center, vel = raw.point_and_velocity(arc)
    t = vel / np.linalg.norm(vel)
    a, h = 0.01, 1e-4
    bump = HermiteTable(np.array([-a, 0.0, a]), np.array([0.0, h, 0.0]),
                        np.zeros(3))
    bent = raw.with_patch(AppliedPatch(
        index=0, base_arc=arc, center=center, tangent=t,
        normal=np.array([-t[1], t[0]]), inner_radius=0.5 * a,
        transition_radius=a, sigma=sigma, rho_target=rep.rho,
        lip_graph=0.0, lip_slope=6.0 * h / a ** 2, reach=rep.R_input,
        displacement=bump, blend=None))
    bound = rep.R_input - rep.epsilon
    rows = {name: _junction_pair_rows(curve, [arc], sigma, bound, 0)[0]
            for name, curve in (("bent", bent), ("raw", raw),
                                ("shipped", result.curve))}
    assert not rows["bent"].passed
    assert rows["bent"].measured < 0.25 < bound
    assert rows["raw"].passed and rows["shipped"].passed


# ----------------------------------------------------------------- blends

def _lattice_indices(blend, lo, hi):
    """The sorted indices of the points of ``blend``'s lattice in [lo,
    hi], and their spacing."""
    step = blend.kernel.sigma / blend.taps
    return np.arange(math.ceil(lo / step), math.floor(hi / step) + 1), step


def test_blend_of_affine_is_affine():
    psi = make_reference_plateau()
    f = lambda x: 0.7 * np.asarray(x, dtype=float) - 0.2
    df = lambda x: np.full_like(np.asarray(x, dtype=float), 0.7)
    blend = _proven_blend(f, df, psi, 0.05, Interval(-4, 4), 1,
                          sigma_max=0.3, lip=0.7, lip_d=0.0)
    # an affine input proves every radius, so it gets the cap, with no
    # deviation, and the blend keeps the witness's lattice sigma/50
    assert blend.kernel.sigma == 0.3 and blend.taps == kernels._GRID_PER_SIGMA
    window = Interval(-psi.support_radius, psi.support_radius)
    sigma, dev = find_support_radius(f, df, window, Interval(-4, 4), 0.05,
                                     k=1, sigma_max=0.3, lip=0.7, lip_d=0.0)
    assert sigma == 0.3 and dev <= 1e-12
    k, step = _lattice_indices(blend, -3.5, 3.5)
    k = k[::7]
    assert np.allclose(blend.value(k, 1), f(k * step), atol=1e-12)
    assert np.allclose(blend.derivative(k, 1), 0.7, atol=1e-11)


def test_blend_exact_outside_support():
    psi = make_reference_plateau()
    rng = np.random.default_rng(3)
    f, df, L, Ld = random_c11(rng, Interval(-4, 4), 6, 2.0)
    blend = _proven_blend(f, df, psi, 0.05, Interval(-4, 4), 1,
                          sigma_max=0.25, lip=L, lip_d=Ld)
    step = blend.kernel.sigma / blend.taps
    k = np.rint(np.array([-3.5, -2.0, 2.0, 3.1]) / step).astype(np.int64)
    assert np.array_equal(blend.value(k, 1), np.asarray(f(k * step), dtype=float))


def test_blend_stays_inside_budget():
    psi = make_reference_plateau()
    rng = np.random.default_rng(11)
    f, df, L, Ld = random_c11(rng, Interval(-4, 4), 8, 2.0)
    rho = 0.05
    blend = _proven_blend(f, df, psi, rho, Interval(-4, 4), 1,
                          sigma_max=0.25, lip=L, lip_d=Ld)
    k, step = _lattice_indices(blend, -2.5, 2.5)
    ys = k * step
    assert ys.size >= 401
    assert np.abs(blend.value(k, 1) - f(ys)).max() <= rho
    assert np.abs(blend.derivative(k, 1) - df(ys)).max() <= rho * (
        1 + psi.combined_lipschitz(1.0))


def test_blend_combined_pass_is_bit_identical():
    psi = make_reference_plateau()
    rng = np.random.default_rng(29)
    f, df, L, Ld = random_c11(rng, Interval(-4, 4), 6, 2.0)
    blend = _proven_blend(f, df, psi, 0.05, Interval(-4, 4), 1,
                          sigma_max=0.25, lip=L, lip_d=Ld)
    k, _ = _lattice_indices(blend, -2.2, 2.2)
    val, der, fv, dfv = blend.value_and_derivative(k, 1)
    assert np.array_equal(val, blend.value(k, 1))
    assert np.array_equal(der, blend.derivative(k, 1))
    # the graph's values come from the same read
    assert np.array_equal(fv, f(k * (blend.kernel.sigma / blend.taps)))
    assert np.array_equal(dfv, df(k * (blend.kernel.sigma / blend.taps)))
    # every third point of the 3-fold lattice is a point of the lattice,
    # up to the rounding of its coordinate
    v3, d3, _, _ = blend.value_and_derivative(3 * k, 3)
    assert np.allclose(v3, val, rtol=0.0, atol=1e-13)
    assert np.allclose(d3, der, rtol=0.0, atol=1e-12)


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
    assert patch.displacement.value_and_slope(tr)[1] == 0.0
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
    disp = HermiteTable(np.array([-0.2, 0.0, 0.2]), np.array([0.0, 0.05, 0.0]),
                        np.zeros(3))
    moved = curve.with_patch(AppliedPatch(
        index=0, base_arc=0.0, center=center, tangent=t,
        normal=np.array([-t[1], t[0]]), inner_radius=0.1,
        transition_radius=0.2, sigma=0.01, rho_target=0.02,
        lip_graph=0.1, lip_slope=1.0, reach=1.0,
        displacement=disp, blend=None))
    with pytest.raises(GeometryError, match="drifted 5.000e-02, over the budget 9.882e-03"):
        smooth_patch(moved, 0.0, **patch_params())


def test_patch_deviation_budget_can_fail(monkeypatch):
    # rho = 1e-16 proves a radius near 3e-16, which would resolve the
    # plateau support into about 1e16 grid points: refused before any
    # read of the graph or any convolution
    convolved = []
    real = kernels.convolve_grid

    def spy(values, kernel, step):
        convolved.append(kernel.sigma)
        return real(values, kernel, step)

    monkeypatch.setattr(kernels, "convolve_grid", spy)
    params = {**patch_params(), "rho": 1e-16}
    with pytest.raises(ConvergenceError, match="more than 4000000 points"):
        smooth_patch(circle(), 0.0, **params)
    assert convolved == []


def test_patch_witness_over_budget_raises(monkeypatch):
    # a wrong proof: at a line-arc junction the witness reads half the
    # slope bound, so a radius 2.5 times the proven one reads 1.2 rho,
    # and the patch raises instead of trying another radius
    real = smoothing._proven_radius
    monkeypatch.setattr(smoothing, "_proven_radius",
                        lambda *args: 2.5 * real(*args))
    curve = ClosedCurve(make_shape({"kind": "stadium", "r": 1.0, "l": 2.0}))
    params = {**patch_params(), "rho": 1e-4}
    with pytest.raises(ConvergenceError, match="witness deviation 1.2"):
        smooth_patch(curve, curve.shape.junction_arcs()[0], **params)
    monkeypatch.undo()
    _, _, rec = smooth_patch(curve, curve.shape.junction_arcs()[0], **params)
    assert 0.45e-4 < rec.deviation <= 1e-4 and rec.halvings == 0


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
    assert "backend" not in rep.to_dict()


def test_report_records_the_scan_argmin(circle_run, stadium_run):
    res = stadium_run.result
    rep, scan = res.report, res.scan
    i, j = scan.argmin_indices
    assert rep.reach_argmin["indices"] == [i, j]
    assert rep.reach_argmin["points"] == [scan.argmin_base.tolist(),
                                          scan.argmin_other.tolist()]
    step = res.curve.length / rep.scan_samples
    assert rep.reach_argmin["params"] == [i * step, j * step]
    pts, _ = res.curve.point_and_velocity(np.array([i * step, j * step]))
    assert np.allclose(pts, rep.reach_argmin["points"], rtol=0, atol=1e-12)
    # the circle has no patch window: nothing is scanned, R_input stands
    rep, scan = circle_run.report, circle_run.scan
    assert rep.reach_argmin is None and scan.argmin_indices == (-1, -1)
    assert rep.R_hat_measured == rep.R_input == 1.0
    assert rep.scan_pairs == scan.pairs_scanned == 0


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


def test_concave_profile_runs_on_its_closed_form_reach():
    # the input reach is the closed form: the dogbone's waist, a double
    # normal between its concave fillets
    res = smooth_manifold(dogbone_shape(), 0.05)
    assert res.report.R_input == math.sqrt(1.75) - 1.0
    assert res.report.patches_applied == 4
    rows = check_main_theorem(res)
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]


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


def rotated_stadium_spec(angle, r=1.0, l=2.0, shift=0.0):
    """The catalog stadium as a cad_profile, turned about the origin,
    then moved by (shift, shift)."""
    c, s = math.cos(angle), math.sin(angle)

    def turn(p):
        return [c * p[0] - s * p[1] + shift, s * p[0] + c * p[1] + shift]

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
    the same patch decisions, the certificate equal to float accuracy.
    A proven radius is a continuous function of R, so it follows R's
    last-ulp rounding."""
    assert rep.R_input - rep.R_hat_measured <= rep.epsilon
    assert rep.c1_distance <= rep.epsilon
    assert rep.net_size == ref.net_size
    assert rep.patches_applied == ref.patches_applied
    assert rep.sigma_per_patch == pytest.approx(ref.sigma_per_patch, rel=1e-12)
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


@functools.lru_cache(maxsize=None)
def shifted_run(t):
    """The stadium moved by (t, t) at epsilon 0.05, its patch rows and
    its theorem rows."""
    result = smooth_manifold(rotated_stadium_spec(0.0, shift=t), 0.05)
    return result, _patch_rows(result, 0), check_main_theorem(result)


def _far_from_origin(t, ratio, drift):
    return pytest.param(t, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            f"at t = {t:.0e} the four junction_pair_ratio rows read {ratio} "
            f"against R - epsilon = 0.95, and R_hat_measured moves by "
            f"{drift} of itself: the micro scans and the final scan read "
            "absolute coordinates, whose rounding grows with |t| (ROADMAP "
            "item 16)")))


@pytest.mark.parametrize("t", [1e2, _far_from_origin(1e4, 0.156, 3.3e-6),
                               _far_from_origin(1e6, 0.0022, 1.1e-3)])
def test_run_is_translation_invariant(t):
    # a moved input changes only rounding: the same junction patches and
    # radii, the certificate numbers of the stadium at the origin to
    # float accuracy, and every patch and theorem row passes
    ref, _, _ = shifted_run(0.0)
    result, patch_rows, main_rows = shifted_run(t)
    rep = result.report
    assert rep.R_input == pytest.approx(ref.report.R_input, rel=1e-12)
    assert rep.sigma_per_patch == ref.report.sigma_per_patch
    assert [(r.name, r.instance) for r in main_rows + patch_rows
            if not r.passed] == []
    _same_run(rep, ref.report)


def scaled_spec(kind, lam):
    """A catalog shape scaled by ``lam``."""
    if kind == "stadium":
        return {"kind": "stadium", "r": lam, "l": 2.0 * lam}
    return {"kind": "cad_profile", "preset": "rounded_rect", "width": 2.0 * lam,
            "height": lam, "corner_radius": 0.2 * lam}


@functools.lru_cache(maxsize=None)
def scaled_run(kind, lam):
    """The run of ``scaled_spec(kind, lam)`` at epsilon 0.05 lam, its
    patch rows and its theorem rows."""
    result = smooth_manifold(scaled_spec(kind, lam), 0.05 * lam)
    return result, _patch_rows(result, 0), check_main_theorem(result)


# the measured/bound ratio of a patch row moves with the scale only by
# rounding in the measured value: at most 1.9e-7 (far_point_distance,
# the difference of two nearly equal lengths), 2.9e-8 patch_hausdorff,
# 6.7e-10 tangent_distance, 2e-11 tangent_angle over these runs
_RATIO_REL = 1e-6


@pytest.mark.parametrize("kind, lam", [
    ("stadium", 1e-2), ("stadium", 1e-1), ("stadium", 1e2),
    ("rounded_rect", 1e2)])
def test_run_is_scale_equivariant(kind, lam):
    # the shape and epsilon scaled by lam: every length in the report
    # scales by lam, the dimensionless budget rho and every patch
    # decision stay, and every check holds with the same slack
    ref, ref_patch_rows, _ = scaled_run(kind, 1.0)
    result, patch_rows, main_rows = scaled_run(kind, lam)
    rep, unit = result.report, ref.report
    assert rep.R_input == pytest.approx(lam * unit.R_input, rel=1e-12)
    assert rep.R_hat_measured == pytest.approx(lam * unit.R_hat_measured,
                                               rel=1e-9)
    assert rep.sigma_per_patch == pytest.approx(
        [lam * s for s in unit.sigma_per_patch], rel=1e-12)
    assert rep.patches_applied == unit.patches_applied
    assert ([r.halvings for r in result.records]
            == [r.halvings for r in ref.records])
    # equal up to rounding: one ulp apart on the rounded rectangle
    assert rep.rho == pytest.approx(unit.rho, rel=1e-15)
    assert [r.name for r in main_rows if not r.passed] == []
    assert [r.name for r in patch_rows if not r.passed] == []
    for row, unit_row in zip(patch_rows, ref_patch_rows, strict=True):
        assert (row.name, row.instance) == (unit_row.name, unit_row.instance)
        assert row.measured / row.bound == pytest.approx(
            unit_row.measured / unit_row.bound, rel=_RATIO_REL)


@pytest.mark.parametrize("lam, row_name", [
    pytest.param(1e-3, "junction_probe_control", marks=pytest.mark.xfail(
        strict=True, reason="smooth_core_probe's _PROBE_NOISE floor is "
        "absolute, so below r = 1e-2 the raw kink reads as flat and the "
        "control probe passes (ROADMAP item 12 deletes the probe)")),
    pytest.param(1e-4, "c1_distance", marks=pytest.mark.xfail(
        strict=True, reason="c1_distance mixes the displacement with its "
        "slope: the slope part, 2.578e-5 at every scale, is compared with "
        "epsilon = 5e-6 (ROADMAP item 4's split)")),
])
def test_tiny_stadium_keeps_the_theorem_rows(lam, row_name):
    # below r = 1e-2 the run still scales (rho and sigma/r as at r = 1);
    # what breaks is a check that is not scale-free
    _, _, main_rows = scaled_run("stadium", lam)
    rows = [r for r in main_rows if r.name == row_name]
    assert rows and all(r.passed for r in rows)


def test_tiny_stadium_length_tolerances_scale_with_the_shape():
    # the float slack of a length row follows R, so at r = 1e-4 it stays
    # far below the bound instead of an absolute 1e-9 floor
    _, patch_rows, _ = scaled_run("stadium", 1e-4)
    rows = [r for r in patch_rows
            if r.name in ("patch_hausdorff", "far_point_distance")]
    assert len(rows) == 8
    assert all(r.tolerance <= 1e-3 * r.bound for r in rows)


# ------------------------------------------------ the windowed final scan
#
# The final scan reads only the pairs with an end in a patch window and
# takes R_input for the rest; the full scan of the same sample is its
# oracle.

ROUNDED_RECT = {"kind": "cad_profile", "preset": "rounded_rect",
                "width": 2.0, "height": 1.0, "corner_radius": 0.2}


def _assert_windowed_scan_is_the_full_one(result):
    """Never above the full scan, past rounding; the full scan itself,
    argmin included, wherever it reads below R_input."""
    rep = result.report
    sample = sample_manifold(result.curve, rep.scan_samples)
    full = estimate_reach_federer(sample.points, sample.tangents,
                                  rep.scan_min_sep, None)
    assert rep.R_hat_measured <= full.value * (1.0 + 1e-9)
    if rep.R_hat_measured < rep.R_input:
        assert rep.R_hat_measured == full.value
        assert result.scan.argmin_indices == full.argmin_indices
        assert rep.reach_argmin["indices"] == list(full.argmin_indices)
        assert 0 < rep.scan_pairs < full.pairs_scanned
    else:
        assert rep.R_hat_measured == rep.R_input
        assert rep.reach_argmin is None
        assert result.scan.argmin_indices == (-1, -1)
        assert result.scan.argmin_base.shape == (0, 2)
        assert result.scan.argmin_other.shape == (0, 2)


@pytest.mark.parametrize("spec", [
    {"kind": "stadium", "r": 1.0, "l": 2.0}, {"kind": "circle", "r": 1.0},
    {"kind": "ellipse", "a": 2.0, "b": 1.0}, ROUNDED_RECT],
    ids=["stadium", "circle", "ellipse", "rounded_rect"])
def test_windowed_scan_matches_the_full_scan_on_the_catalog(spec):
    result = smooth_manifold(spec, 0.05)
    _assert_windowed_scan_is_the_full_one(result)
    if not result.curve.patches:
        # no window, nothing scanned: the input's reach, exactly
        assert result.report.scan_pairs == 0
        assert result.report.R_hat_measured == result.report.R_input
    else:
        # both ends of the minimizing pair lie in a window
        assert result.report.R_hat_measured < result.report.R_input


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=6),
       st.floats(0.5, 1.5), st.floats(0.5, 1.0))
def test_windowed_scan_matches_the_full_scan_on_offset_polygons(jitter, size,
                                                                r):
    shape = jittered_offset_polygon(jitter, size, r)
    _assert_windowed_scan_is_the_full_one(smooth_manifold(shape, 0.8 * r))


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.floats(1.5, 2.5), st.floats(0.5, 1.0), st.floats(0.3, 0.7),
       st.floats(0.5, 1.0), st.floats(0.15, 0.25))
def test_windowed_scan_matches_the_full_scan_on_filleted_polygons(
        a, b, step, rise, radius):
    # an L-shaped step, its reflex corner filleted clockwise; every side
    # is at least 0.5 long, so the fillets (cut back by their radius)
    # never meet
    c = 0.5 + step * (a - 1.0)
    shape = filleted_polygon([[0.0, 0.0], [a, 0.0], [a, b], [c, b],
                              [c, b + rise], [0.0, b + rise]], radius)
    R = analytic_reach(shape)
    _assert_windowed_scan_is_the_full_one(smooth_manifold(shape, 0.8 * R))


@pytest.mark.parametrize("spec, eps", [
    (rotated_stadium_spec(0.3, r=1e-2, l=2e-2), 5e-4),
    (rotated_stadium_spec(0.3), 0.05),
    (rotated_stadium_spec(0.3, r=100.0, l=200.0), 5.0),
    (ROUNDED_RECT, 0.05), ({"kind": "circle", "r": 1.0}, 0.05)],
    ids=["stadium-1e-2", "stadium-1", "stadium-100", "rounded_rect", "circle"])
def test_cold_samples_are_the_input_curve(spec, eps):
    # outside every patch window the final sample is the input curve
    # bit for bit, which is what lets the scan skip pairs of two of them
    result = smooth_manifold(spec, eps)
    curve = result.curve
    params = sample_manifold(curve, result.report.scan_samples).params
    hot = curve.in_patch_windows(params)
    pts, vel = curve.point_and_velocity(params)
    base_pts, base_vel = ClosedCurve(curve.shape).point_and_velocity(params)
    assert pts[~hot].tobytes() == base_pts[~hot].tobytes()
    assert vel[~hot].tobytes() == base_vel[~hot].tobytes()
    assert hot.any() == bool(curve.patches)
    if curve.patches:
        # the windows are narrow, and the patches did move samples
        assert np.count_nonzero(hot) < 0.2 * hot.size
        assert np.any(pts[hot] != base_pts[hot])


def test_run_rejects_epsilon_near_reach():
    with pytest.raises(InvalidInputError):
        smooth_manifold({"kind": "circle", "r": 1.0}, 0.95)


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


# each bound formula with valid numbers, argument by argument
BOUND_CALLS = {
    predicted_reach_bound: {"R": 1.0, "delta": 0.1, "rho": 1e-3},
    far_away_reach_bound: {"R": 1.0, "epsilon": 1e-4, "beta": 0.5,
                           "graph_lip": 3.0},
    effective_radius_drop: {"R": 1.0, "xi": 0.5},
}


@pytest.mark.parametrize("fn, arg", [
    (fn, arg) for fn, args in BOUND_CALLS.items() for arg in args],
    ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf, "0.5", True, -1.0,
    lambda v: np.array([v, -1.0, v]),
], ids=["nan", "inf", "-inf", "string", "bool", "negative", "array_entry"])
def test_bound_formulas_refuse_malformed_numbers(fn, arg, bad):
    args = dict(BOUND_CALLS[fn])
    fn(**args)
    args[arg] = bad(args[arg]) if callable(bad) else bad
    with pytest.raises(InvalidInputError, match=arg):
        fn(**args)


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

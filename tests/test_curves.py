"""Shape catalog, patched-curve evaluation, and local graph windows."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline
from scipy.special import ellipe

from reachsmooth.curves import (AppliedPatch, ArcChainShape, ArcSegment,
                                ClosedCurve, LineSegment, _solve_reads,
                                graph_values, local_graph_at, make_shape,
                                sample_manifold)
from reachsmooth.errors import GeometryError, InvalidInputError
from reachsmooth.kernels import BumpKernel, convolve
from reachsmooth.partition import smoothing_window_radius


def circle_curve(r=1.0):
    return ClosedCurve(make_shape({"kind": "circle", "r": r}))


# ---------------------------------------------------------------- catalog

def test_circle_identities():
    shape = make_shape({"kind": "circle", "r": 1.7})
    assert shape.length == pytest.approx(2 * math.pi * 1.7, rel=1e-15)
    s = np.linspace(0, shape.length, 33)
    pts, tans = shape.point_and_tangent(s)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.7, atol=1e-12)
    assert np.allclose(np.linalg.norm(tans, axis=1), 1.0, atol=1e-12)
    assert np.allclose((pts * tans).sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(shape.curvature(s), 1 / 1.7)
    assert shape.junction_arcs() == ()
    assert shape.describe() == {"kind": "circle", "r": 1.7}


def test_ellipse_unit_speed():
    shape = make_shape({"kind": "ellipse", "a": 2.0, "b": 1.0})
    s = np.linspace(0, shape.length, 200, endpoint=False)
    h = 1e-6
    speed = np.linalg.norm(shape.point(s + h) - shape.point(s - h), axis=1) / (2 * h)
    assert np.allclose(speed, 1.0, atol=1e-6)


def test_ellipse_length_against_elliptic_integral():
    a, b = 2.0, 1.0
    shape = make_shape({"kind": "ellipse", "a": a, "b": b})
    # circumference = 4 a E(e^2), complete elliptic integral convention
    expected = 4 * a * ellipe(1 - (b / a) ** 2)
    assert shape.length == pytest.approx(expected, rel=1e-9)


def test_ellipse_vertex_geometry():
    a, b = 2.0, 1.0
    shape = make_shape({"kind": "ellipse", "a": a, "b": b})
    assert np.allclose(shape.point(0.0), [a, 0.0], atol=1e-12)
    # quarter arc lands on the minor vertex by symmetry
    quarter = shape.length / 4
    assert np.allclose(shape.point(np.array(quarter)), [0.0, b], atol=1e-9)
    assert shape.curvature(np.array(0.0)) == pytest.approx(a / b ** 2, rel=1e-9)
    assert shape.curvature(np.array(quarter)) == pytest.approx(b / a ** 2, rel=1e-9)


@pytest.mark.parametrize("a", [2.0, 50.0])
def test_ellipse_inverts_arc_length(a):
    # theta(s) comes from the Hermite inverse of the length table and one
    # Newton step; the length from 0 to theta(s), by adaptive quadrature
    # of the speed over eighth turns, must be s
    b = 1.0
    shape = make_shape({"kind": "ellipse", "a": a, "b": b})
    L = shape.length
    s = np.random.default_rng(11).uniform(0.0, L, 40)
    theta = shape._theta_of(s)

    def speed(t):
        return math.hypot(a * math.sin(t), b * math.cos(t))

    for si, ti in zip(s, theta):
        knots = np.append(np.arange(0.0, ti, 0.25 * math.pi), ti)
        arc = sum(quad(speed, lo, hi, epsabs=1e-14 * L, epsrel=0.0, limit=200)[0]
                  for lo, hi in zip(knots[:-1], knots[1:]))
        assert abs(arc - si) <= 1e-13 * L, (si, arc - si)


def test_ellipse_axis_order_enforced():
    with pytest.raises(InvalidInputError):
        make_shape({"kind": "ellipse", "a": 1.0, "b": 2.0})


def test_stadium_structure():
    r, l = 1.0, 2.0
    shape = make_shape({"kind": "stadium", "r": r, "l": l})
    assert shape.length == pytest.approx(2 * l + 2 * math.pi * r, rel=1e-15)
    expected = (0.0, l, l + math.pi * r, 2 * l + math.pi * r)
    assert np.allclose(shape.junction_arcs(), expected, atol=1e-12)
    # straight runs are flat, caps turn at 1/r
    assert shape.curvature(np.array(0.5 * l)) == 0.0
    assert shape.curvature(np.array(l + 0.5)) == pytest.approx(1 / r)
    assert shape.min_arc_radius() == r
    assert shape.describe() == {"kind": "stadium", "r": r, "l": l}


def test_stadium_closure_and_continuity():
    shape = make_shape({"kind": "stadium", "r": 0.5, "l": 3.0})
    s = np.linspace(0, shape.length, 1000, endpoint=False)
    eps = 1e-9
    gap = np.linalg.norm(shape.point(s + eps) - shape.point(s), axis=1)
    assert gap.max() < 1e-8
    tjump = np.linalg.norm(shape.point_and_tangent(s + eps)[1]
                           - shape.point_and_tangent(s)[1], axis=1)
    assert tjump.max() < 1e-7


def test_rounded_rect_structure():
    shape = make_shape({"kind": "cad_profile", "preset": "rounded_rect",
                        "width": 2.0, "height": 1.0, "corner_radius": 0.2})
    straight = 2 * (2.0 - 0.4) + 2 * (1.0 - 0.4)
    assert shape.length == pytest.approx(straight + 2 * math.pi * 0.2, rel=1e-12)
    assert len(shape.junction_arcs()) == 8
    assert shape.min_arc_radius() == 0.2
    assert shape.describe()["preset"] == "rounded_rect"


def test_rounded_rect_corner_radius_limit():
    with pytest.raises(InvalidInputError):
        make_shape({"kind": "cad_profile", "preset": "rounded_rect",
                    "width": 2.0, "height": 1.0, "corner_radius": 0.5})


def test_chain_rejects_gap():
    segs = [LineSegment(np.array([0.0, 0.0]), np.array([1.0, 0.0])),
            LineSegment(np.array([1.0, 0.5]), np.array([0.0, 0.5]))]
    with pytest.raises(InvalidInputError, match="gap|breaks"):
        ArcChainShape(segs)


def test_chain_rejects_tangent_jump():
    # a plain square closes up but corners break C^1
    p = [np.array([0.0, 0.0]), np.array([1.0, 0.0]),
         np.array([1.0, 1.0]), np.array([0.0, 1.0])]
    segs = [LineSegment(p[i], p[(i + 1) % 4]) for i in range(4)]
    with pytest.raises(InvalidInputError, match="tangent"):
        ArcChainShape(segs)


def test_chain_rejects_single_segment():
    with pytest.raises(InvalidInputError):
        ArcChainShape([LineSegment(np.array([0.0, 0.0]), np.array([1.0, 0.0]))])


@pytest.mark.parametrize("spec", [
    {"kind": "stadium", "r": 1.0, "l": 2.0},
    {"kind": "cad_profile", "preset": "rounded_rect",
     "width": 2.0, "height": 1.0, "corner_radius": 0.2}],
    ids=["stadium", "rounded_rect"])
def test_chain_sorted_batch_matches_permuted(spec):
    # a sorted batch is evaluated segment by segment on slices, any other
    # batch through segment masks; both give the same bytes
    shape = make_shape(spec)
    rng = np.random.default_rng(5)
    for n in (2, 2053, 33000):
        s = np.sort(np.concatenate([rng.uniform(0.0, shape.length, n - 2),
                                    [0.0, shape.junction_arcs()[-1]]]))
        perm = rng.permutation(n)
        pts, tans = shape.point_and_tangent(s)
        p_pts, p_tans = shape.point_and_tangent(s[perm])
        assert pts[perm].tobytes() == p_pts.tobytes()
        assert tans[perm].tobytes() == p_tans.tobytes()


def test_make_shape_errors():
    with pytest.raises(InvalidInputError):
        make_shape({"kind": "pentagon"})
    with pytest.raises(InvalidInputError):
        make_shape({"kind": "circle"})  # missing r
    with pytest.raises(InvalidInputError):
        make_shape({"kind": "circle", "r": 1.0, "extra": 2})
    with pytest.raises(InvalidInputError):
        make_shape({"kind": "cad_profile", "preset": "oval"})
    with pytest.raises(InvalidInputError):
        make_shape({"kind": "cad_profile", "segments": []})
    with pytest.raises(InvalidInputError):
        make_shape("circle")


def test_make_shape_segments_route():
    hp = 0.5 * math.pi
    spec = {"kind": "cad_profile", "segments": [
        {"type": "line", "start": [-1.0, -1.0], "end": [1.0, -1.0]},
        {"type": "arc", "center": [1.0, 0.0], "radius": 1.0,
         "start_angle": -hp, "end_angle": hp},
        {"type": "line", "start": [1.0, 1.0], "end": [-1.0, 1.0]},
        {"type": "arc", "center": [-1.0, 0.0], "radius": 1.0,
         "start_angle": hp, "end_angle": 3 * hp},
    ]}
    shape = make_shape(spec)
    assert shape.length == pytest.approx(4 + 2 * math.pi, rel=1e-12)
    with pytest.raises(InvalidInputError, match="orientation"):
        make_shape({"kind": "cad_profile", "segments": [
            {"type": "arc", "center": [0.0, 0.0], "radius": 1.0,
             "start_angle": 0.0, "end_angle": hp, "orientation": "up"},
            {"type": "line", "start": [0.0, 1.0], "end": [1.0, 0.0]}]})


# ------------------------------------------------------- sampling / graphs

def test_sample_manifold_circle():
    curve = circle_curve(1.0)
    sample = sample_manifold(curve, n=64)
    assert sample.count == 64
    assert sample.spacing == pytest.approx(curve.length / 64)
    chord = 2 * math.sin(math.pi / 64)
    assert sample.max_gap == pytest.approx(chord, rel=1e-12)
    assert np.allclose(np.linalg.norm(sample.tangents, axis=1), 1.0)


def test_sample_manifold_validation():
    curve = circle_curve()
    # the sample count is the one way in
    with pytest.raises(TypeError):
        sample_manifold(curve, spacing=0.1)
    with pytest.raises(InvalidInputError):
        sample_manifold(curve, n=4)


def test_circle_local_graph_closed_form():
    R = 1.3
    curve = circle_curve(R)
    lg = local_graph_at(curve, 0.4, smoothing_window_radius(0.1 * R, R))
    ys = np.linspace(lg.window.lo, lg.window.hi, 41)
    expected = R - np.sqrt(R * R - ys * ys)
    vals = lg.value(ys)
    assert np.allclose(vals, expected, atol=1e-12)
    # inward normal makes the graph bend upward
    assert np.all(vals >= 0.0)
    slopes = lg.slope(ys)
    assert np.allclose(slopes, ys / np.sqrt(R * R - ys * ys), atol=1e-12)
    f0, df0 = lg.value_and_slope(0.0)
    assert f0 == 0.0 and abs(df0) < 1e-13


def test_local_graph_point_roundtrip():
    # the ambient point above y, center + y tangent + f(y) normal, lies
    # on the curve, and above 0 it is the curve point at the base arc
    R = 2.0
    curve = circle_curve(R)
    lg = local_graph_at(curve, 1.0, smoothing_window_radius(0.2, R))
    ys = np.linspace(-0.2, 0.2, 9)
    pts = (lg.center + ys[:, None] * lg.tangent
           + lg.value(ys)[:, None] * lg.normal)
    assert np.allclose(np.linalg.norm(pts, axis=1), R, atol=1e-12)
    p = lg.center + lg.value(0.0) * lg.normal
    assert np.allclose(p, curve.point(1.0), atol=1e-13)


@pytest.mark.parametrize("spec", [{"kind": "circle", "r": 1.0},
                                  {"kind": "ellipse", "a": 2.0, "b": 1.0}],
                         ids=["circle", "ellipse"])
def test_local_graph_warm_start_matches_cold_solve(spec, monkeypatch):
    # the first sorted solve (257 points over half the window) becomes
    # the warm-start table; later solves inside its span start from it
    # and need fewer curve evaluations, points beyond it start cold, and
    # both agree with a fresh window's cold solve
    curve = ClosedCurve(make_shape(spec))
    w = 0.08
    warm = local_graph_at(curve, 1.1, w)
    warm.slope(np.linspace(-0.5 * w, 0.5 * w, 257))
    table = warm._table
    inside = np.linspace(-0.4 * w, 0.4 * w, 63)[:, None] + np.linspace(-0.05 * w, 0.05 * w, 17)
    straddle = np.linspace(-w, w, 41)
    evaluations = []
    real = ClosedCurve.point_and_velocity

    def counted(self, s):
        evaluations.append(np.size(s))
        return real(self, s)

    monkeypatch.setattr(ClosedCurve, "point_and_velocity", counted)
    for ys in (inside, straddle):
        cold = local_graph_at(curve, 1.1, w)
        evaluations.clear()
        f_cold, df_cold = cold.value_and_slope(ys)
        cold_evaluations = len(evaluations)
        evaluations.clear()
        f, df = warm.value_and_slope(ys)
        if ys is inside:
            assert len(evaluations) < cold_evaluations
        assert np.abs(f - f_cold).max() <= 1e-13
        assert np.abs(df - df_cold).max() <= 1e-13
        f2, df2 = warm.value_and_slope(ys)
        assert f2.tobytes() == f.tobytes() and df2.tobytes() == df.tobytes()
    # the sorted straddling read did not replace the table
    assert warm._table is table


def test_local_graph_window_guard():
    curve = circle_curve()
    lg = local_graph_at(curve, 0.0, smoothing_window_radius(0.1, 1.0))
    with pytest.raises(InvalidInputError):
        lg.value(10 * lg.window.hi)
    # the half-width is the one way to size a window
    with pytest.raises(TypeError):
        local_graph_at(curve, 0.0, delta=0.1, reach=1.0)
    with pytest.raises(InvalidInputError):
        local_graph_at(curve, 0.0, -0.1)


def test_local_graph_empty_batch():
    # convolve evaluates its f on an empty tap batch when x is empty
    lg = local_graph_at(circle_curve(), 0.0, 0.3)
    empty = np.empty((0, 5))
    assert lg.value(empty).shape == (0, 5)
    f, df = lg.value_and_slope(empty)
    assert f.shape == df.shape == (0, 5)
    out = convolve(lg.value_and_slope, BumpKernel(0.1), [])
    assert isinstance(out, tuple) and [o.shape for o in out] == [(0,), (0,)]


def test_local_graph_folds_beyond_reach():
    # a window wider than the circle radius cannot stay a graph; opening
    # it evaluates nothing, so the fold shows when it is read
    curve = circle_curve(1.0)
    lg = local_graph_at(curve, 0.0, 1.2)
    assert lg.value(0.0) == 0.0
    with pytest.raises(GeometryError):
        lg.slope(np.linspace(-1.2, 1.2, 257))


def test_window_opens_without_evaluating(monkeypatch):
    # the frame rides in the first solve's evaluation; read before any
    # solve, it costs one evaluation of the base arc, the same bytes
    curve = circle_curve(1.3)
    evaluations = []
    real = ClosedCurve.point_and_velocity

    def counted(self, s):
        evaluations.append(np.size(s))
        return real(self, s)

    monkeypatch.setattr(ClosedCurve, "point_and_velocity", counted)
    lg = local_graph_at(curve, 0.4, 0.2)
    assert evaluations == []
    lg.value(np.linspace(-0.1, 0.1, 5))
    assert evaluations[0] == 6
    first = local_graph_at(curve, 0.4, 0.2)
    center = first.center
    assert evaluations[-1] == 1
    monkeypatch.undo()
    center_alone, vel = curve.point_and_velocity(0.4)
    assert center.tobytes() == center_alone.tobytes() == lg.center.tobytes()
    assert first.tangent.tobytes() == lg.tangent.tobytes()
    assert first.normal.tobytes() == lg.normal.tobytes()


def _ellipse_with_patches():
    curve = ClosedCurve(make_shape({"kind": "ellipse", "a": 2.0, "b": 1.0}))
    for i, arc in enumerate((0.5, 0.62, 2.0)):
        curve = curve.with_patch(synthetic_patch(curve, base_arc=arc, index=i))
    return curve


def _joint_cases(curve, arcs, w):
    """Windows and reads of one curve: two fresh windows (one read by a
    sorted batch that sets its table, one by a single point), one tabled
    window read three times (inside its table, straddling it, 2-D), and
    a fresh window read by an unsorted batch."""
    g = [local_graph_at(curve, a, w) for a in arcs]
    g[1].slope(np.linspace(-0.6 * w, 0.6 * w, 257))
    inside = np.linspace(-0.5 * w, 0.5 * w, 9)
    reads = [(g[0], np.linspace(-w, w, 33)),
             (g[1], inside),
             (g[2], 0.3 * w),
             (g[1], np.linspace(-w, w, 17)),
             (g[3], np.array([0.2, -0.7, 0.5]) * w),
             (g[1], inside.reshape(3, 3))]
    return g, reads


@pytest.mark.parametrize("which", ["stadium", "ellipse"])
def test_joint_solve_matches_reads_made_alone(which, stadium_run, monkeypatch):
    if which == "stadium":
        curve = stadium_run.result.curve
        arcs, w = (0.3, 2.0, 3.6, 7.1), 0.05
    else:
        curve = _ellipse_with_patches()
        arcs, w = (0.55, 0.6, 2.05, 4.0), 0.08
    real = ClosedCurve.point_and_velocity
    evaluations = []

    def counted(self, s):
        evaluations.append(np.size(s))
        return real(self, s)

    monkeypatch.setattr(ClosedCurve, "point_and_velocity", counted)
    alone_g, alone_reads = _joint_cases(curve, arcs, w)
    alone, iterations = [], []
    for graph, y in alone_reads:
        evaluations.clear()
        alone.append(graph._solve(y))
        iterations.append(len(evaluations))
    joint_g, joint_reads = _joint_cases(curve, arcs, w)
    evaluations.clear()
    joint = _solve_reads(joint_reads)
    assert len(evaluations) == max(iterations)
    monkeypatch.undo()
    # cold, warm and single-point reads converge after different counts
    assert len(set(iterations)) > 1
    for a, b in zip(alone, joint):
        assert a[3] == b[3]
        assert [np.asarray(x).tobytes() for x in a[:3]] == \
            [np.asarray(x).tobytes() for x in b[:3]]
    # frames and the set-once tables come out the same
    for ga, gb in zip(alone_g, joint_g):
        assert [x.tobytes() for x in ga._frame] == [x.tobytes() for x in gb._frame]
        assert (ga._table is None) == (gb._table is None)
        if ga._table is not None:
            assert [x.tobytes() for x in ga._table] == [x.tobytes() for x in gb._table]
    # values read jointly are the values read alone
    value_g, value_reads = _joint_cases(curve, arcs, w)
    values = graph_values(value_reads)
    expected = [g.value(y) for g, y in _joint_cases(curve, arcs, w)[1]]
    assert [np.asarray(v).tobytes() for v in values] == \
        [np.asarray(v).tobytes() for v in expected]
    assert isinstance(values[2], float)


def test_joint_solve_refuses_what_it_cannot_match():
    curve = _ellipse_with_patches()
    w = 0.08
    # a window without a table read twice: alone, the first read would
    # set the table the second starts from
    fresh = local_graph_at(curve, 0.6, w)
    with pytest.raises(InvalidInputError, match="once"):
        graph_values([(fresh, np.linspace(-w, w, 9)), (fresh, 0.1 * w)])
    # windows of two curves
    other = local_graph_at(circle_curve(), 0.0, w)
    with pytest.raises(InvalidInputError, match="one curve"):
        graph_values([(local_graph_at(curve, 0.6, w), 0.0), (other, 0.0)])
    # a tangent coordinate outside its window, beside reads that are fine
    with pytest.raises(InvalidInputError, match="outside"):
        graph_values([(local_graph_at(curve, 0.6, w), 0.0),
                      (local_graph_at(curve, 2.0, w), np.array([0.0, 2.0 * w]))])
    # a folding window raises the error it raises alone
    circle = circle_curve(1.0)
    wide = np.linspace(-1.2, 1.2, 257)
    with pytest.raises(GeometryError) as alone:
        local_graph_at(circle, 0.0, 1.2).value(wide)
    with pytest.raises(GeometryError) as joint:
        graph_values([(local_graph_at(circle, 2.0, 0.3), np.linspace(-0.3, 0.3, 5)),
                      (local_graph_at(circle, 0.0, 1.2), wide)])
    assert str(joint.value) == str(alone.value)
    assert graph_values([]) == []


def test_graph_slope_lipschitz_bound():
    # measured slope variation (the largest difference quotient of 257
    # slopes across the window) stays below 1/(R - 2 delta) across the
    # catalog; the margin is real but thin (worst ratio ~0.98)
    catalog = [({"kind": "circle", "r": 1.0}, 1.0),
               ({"kind": "ellipse", "a": 2.0, "b": 1.0}, 0.5),
               ({"kind": "stadium", "r": 1.0, "l": 2.0}, 1.0),
               ({"kind": "cad_profile", "preset": "rounded_rect",
                 "width": 2.0, "height": 1.0, "corner_radius": 0.2}, 0.2)]
    for spec, R in catalog:
        shape = make_shape(spec)
        curve = ClosedCurve(shape)
        arcs = list(np.linspace(0, shape.length, 8, endpoint=False))
        arcs += list(shape.junction_arcs())
        for frac in (0.01, 0.1, 0.3):
            delta = frac * R
            bound = 1.0 / (R - 2 * delta)
            for a in arcs:
                lg = local_graph_at(curve, float(a),
                                    smoothing_window_radius(delta, R))
                ys = np.linspace(lg.window.lo, lg.window.hi, 257)
                slopes = lg.slope(ys)
                lip_slope = np.abs(np.diff(slopes) / np.diff(ys)).max()
                assert lip_slope <= bound * (1 + 1e-9), (spec, frac, a)


# ------------------------------------------------------------ patch stack

def synthetic_patch(curve, base_arc=0.0, amp=0.01, index=0):
    center, vel = curve.point_and_velocity(base_arc)
    t = vel / np.linalg.norm(vel)
    normal = np.array([-t[1], t[0]])
    tr = 0.2
    disp = CubicHermiteSpline(np.array([-tr, 0.0, tr]),
                              np.array([0.0, amp, 0.0]),
                              np.array([0.0, 0.0, 0.0]))
    return AppliedPatch(
        index=index, base_arc=float(base_arc), center=center, tangent=t,
        normal=normal, inner_radius=0.1, transition_radius=tr,
        window_radius=0.4, sigma=0.01, rho_target=0.02, deviation=1e-3,
        lip_graph=0.1, lip_slope=1.0, displacement=disp)


def test_patch_moves_center_along_normal():
    base = circle_curve(1.0)
    patch = synthetic_patch(base, base_arc=0.3)
    patched = base.with_patch(patch)
    p = patched.point(0.3)
    assert np.allclose(p, patch.center + 0.01 * patch.normal, atol=1e-15)


def test_patch_locality_is_bit_exact():
    base = circle_curve(1.0)
    patched = base.with_patch(synthetic_patch(base, base_arc=0.0))
    arc_window = patched.patches[0].arc_window
    s = np.linspace(arc_window + 0.05, base.length - arc_window - 0.05, 200)
    p0, v0 = base.point_and_velocity(s)
    p1, v1 = patched.point_and_velocity(s)
    assert np.array_equal(p0, p1)
    assert np.array_equal(v0, v1)


def stacked_circle():
    curve = circle_curve(1.0)
    for i, arc in enumerate((0.0, 1.3, 2.9, 4.4)):
        curve = curve.with_patch(synthetic_patch(curve, base_arc=arc, index=i))
    return curve


def wide_window_circle():
    # the synthetic patch window (arc_window 0.4) covers more than half
    # of this circle's period
    curve = circle_curve(0.1)
    return curve.with_patch(synthetic_patch(curve, base_arc=0.2))


def masked_oracle(curve, s):
    # the base shape, then every patch in stack order on the rows of the
    # batch, in its own order, picked by boolean masks; per-row products
    s = np.asarray(s, dtype=float)
    sv = s.ravel()
    L = curve.length
    pts, vel = curve.shape.point_and_tangent(sv)
    for patch in curve.patches:
        t = patch.tangent
        gap = np.abs(np.mod(sv - patch.base_arc + 0.5 * L, L) - 0.5 * L)
        d = pts - patch.center
        y = d[:, 0] * t[0] + d[:, 1] * t[1]
        sel = (gap <= patch.arc_window) & (np.abs(y) < patch.transition_radius)
        pts[sel] += patch.displacement(y[sel])[:, None] * patch.normal
        dy = vel[sel, 0] * t[0] + vel[sel, 1] * t[1]
        vel[sel] += (patch.displacement(y[sel], 1) * dy)[:, None] * patch.normal
    return pts.reshape(s.shape + (2,)), vel.reshape(s.shape + (2,))


_L = 2 * math.pi
ORACLE_BATCHES = {
    "sorted": np.linspace(1.25, 1.45, 64),  # span well under a quarter turn
    "unsorted": np.random.default_rng(3).permutation(np.linspace(1.0, 1.7, 50)),
    # kernels.convolve's (point, tap) grid: unsorted once flattened
    "convolve": np.linspace(1.2, 1.4, 9)[:, None] + np.linspace(-0.03, 0.03, 5)[None, :],
    "wrap_below": np.linspace(-0.3, 0.25, 57),
    "wrap_past": np.linspace(_L - 0.25, _L + 0.3, 57),
    "whole": np.arange(400) * (_L / 400),
    "two_periods": np.linspace(-0.7 * _L, 1.6 * _L, 333),
    "duplicates": np.repeat(np.linspace(2.7, 3.1, 15), 3),
    "scalar": np.array(1.3),
    "nan": np.array([1.3, np.nan, 1.2, 1.35]),
    "inf": np.array([1.3, np.inf, 1.2, -np.inf, 1.35]),
    "wide_window": np.linspace(-0.1, 0.7, 41),
}
ORACLE_CURVES = {"wide_window": wide_window_circle}


@pytest.mark.parametrize("batch", list(ORACLE_BATCHES))
def test_patch_prefilter_matches_full_scan(batch):
    # sorting, the distance prefilter and the bisected slices must agree
    # with nudging every patch in order through masks, bit for bit
    curve = ORACLE_CURVES.get(batch, stacked_circle)()
    s = ORACLE_BATCHES[batch]
    with np.errstate(invalid="ignore"):  # sin and cos of +-inf
        pts, vel = curve.point_and_velocity(s)
        ref_pts, ref_vel = masked_oracle(curve, s)
        assert np.array_equal(curve.point(s), pts, equal_nan=True)
    assert pts.shape == vel.shape == s.shape + (2,)
    assert np.array_equal(pts, ref_pts, equal_nan=True)
    assert np.array_equal(vel, ref_vel, equal_nan=True)
    if batch in ("nan", "inf"):
        bad = ~np.isfinite(s)
        assert np.isnan(pts[bad]).all() and np.isfinite(pts[~bad]).all()
    if batch == "wide_window":
        assert np.all(np.linalg.norm(pts - curve.shape.point(s), axis=1) > 0.0)


def patched_stadium():
    curve = ClosedCurve(make_shape({"kind": "stadium", "r": 1.0, "l": 2.0}))
    arcs = curve.shape.junction_arcs()
    for i, arc in enumerate((arcs[0] - 0.05, arcs[0] + 0.1, arcs[2], 0.0)):
        curve = curve.with_patch(synthetic_patch(curve, base_arc=arc, index=i))
    return curve


@pytest.mark.parametrize("make_curve", [stacked_circle, patched_stadium])
def test_row_bytes_do_not_depend_on_the_batch(make_curve):
    # an arc evaluated alone gives the bytes it gets inside any batch
    curve = make_curve()
    L = curve.length
    s = np.random.default_rng(11).uniform(-0.4 * L, 1.3 * L, 400)
    pts, vel = curve.point_and_velocity(s)
    for i in range(s.size):
        p1, v1 = curve.point_and_velocity(s[i:i + 1])
        assert np.array_equal(pts[i], p1[0]) and np.array_equal(vel[i], v1[0]), i


def test_with_patch_extends_the_patch_arrays():
    curve = stacked_circle()
    rebuilt = ClosedCurve(curve.shape, curve.patches)
    assert np.array_equal(curve._patch_arcs, rebuilt._patch_arcs)
    assert np.array_equal(curve._patch_spans, rebuilt._patch_spans)
    assert curve._patch_arcs.dtype == rebuilt._patch_arcs.dtype == np.float64


CATALOG = [{"kind": "circle", "r": 1.3},
           {"kind": "ellipse", "a": 2.0, "b": 1.0},
           {"kind": "stadium", "r": 1.0, "l": 2.0},
           {"kind": "cad_profile", "preset": "rounded_rect",
            "width": 2.0, "height": 1.0, "corner_radius": 0.2}]


@pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.get("preset", spec["kind"]))
def test_point_and_tangent_matches_separate_calls(spec):
    # the one evaluator of a base shape: ``point`` is its first half, for
    # any argument shape and for arcs on either side of the period; the
    # tangent is the unit derivative of the points
    shape = make_shape(spec)
    L = shape.length
    s = np.concatenate([np.linspace(-1.5 * L, 2.5 * L, 301),
                        [0.0, L, -L, 1e-12, L - 1e-12]])
    for arg in (s, s[:9].reshape(3, 3), np.float64(0.7 * L)):
        pts, tans = shape.point_and_tangent(arg)
        assert pts.shape == tans.shape == np.shape(arg) + (2,)
        assert np.array_equal(pts, shape.point(arg))
    pts, tans = shape.point_and_tangent(s)
    wrapped_pts, wrapped_tans = shape.point_and_tangent(np.mod(s, L))
    assert np.allclose(pts, wrapped_pts, rtol=0.0, atol=1e-12 * L)
    assert np.allclose(tans, wrapped_tans, rtol=0.0, atol=1e-12 * L)
    h = 1e-6
    fd = (shape.point(s + h) - shape.point(s - h)) / (2 * h)
    assert np.allclose(np.linalg.norm(tans, axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(tans, fd, rtol=0.0, atol=1e-5)  # h times curvature jump


def test_point_and_velocity_takes_only_s():
    # a second positional argument would be read as the depth ``upto``
    # by the benchmark's call counter; there is none to pass
    curve = circle_curve(1.0)
    with pytest.raises(TypeError):
        curve.point_and_velocity(np.array([0.1]), False)
    with pytest.raises(TypeError):
        curve.point_and_velocity(np.array([0.1]), velocity=False)
    pts, vel = curve.point_and_velocity(np.array([0.1]))
    assert np.array_equal(pts, curve.point(np.array([0.1])))
    assert vel.shape == (1, 2)


def test_patch_index_must_extend_stack():
    base = circle_curve(1.0)
    with pytest.raises(InvalidInputError):
        base.with_patch(synthetic_patch(base, index=3))


def test_closed_curve_requires_shape():
    with pytest.raises(InvalidInputError):
        ClosedCurve("circle")

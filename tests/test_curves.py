"""Shape catalog, patched-curve evaluation, and local graph windows."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline
from scipy.special import ellipe

from reachsmooth.curves import (AppliedPatch, ArcChainShape, ArcSegment,
                                ClosedCurve, LineSegment, local_graph_at,
                                make_shape, sample_manifold)
from reachsmooth.errors import GeometryError, InvalidInputError


def circle_curve(r=1.0):
    return ClosedCurve(make_shape({"kind": "circle", "r": r}))


# ---------------------------------------------------------------- catalog

def test_circle_identities():
    shape = make_shape({"kind": "circle", "r": 1.7})
    assert shape.length == pytest.approx(2 * math.pi * 1.7, rel=1e-15)
    s = np.linspace(0, shape.length, 33)
    pts = shape.point(s)
    tans = shape.tangent(s)
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
    tjump = np.linalg.norm(shape.tangent(s + eps) - shape.tangent(s), axis=1)
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
    with pytest.raises(InvalidInputError):
        sample_manifold(curve)
    with pytest.raises(InvalidInputError):
        sample_manifold(curve, n=32, spacing=0.1)
    with pytest.raises(InvalidInputError):
        sample_manifold(curve, n=4)


def test_circle_local_graph_closed_form():
    R = 1.3
    curve = circle_curve(R)
    lg = local_graph_at(curve, arc=0.4, delta=0.1 * R, reach=R)
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
    lg = local_graph_at(curve, arc=1.0, delta=0.2, reach=R)
    ys = np.linspace(-0.2, 0.2, 9)
    pts = (lg.center + ys[:, None] * lg.tangent
           + lg.value(ys)[:, None] * lg.normal)
    assert np.allclose(np.linalg.norm(pts, axis=1), R, atol=1e-12)
    p = lg.center + lg.value(0.0) * lg.normal
    assert np.allclose(p, curve.point(1.0), atol=1e-13)


def test_local_graph_window_guard():
    curve = circle_curve()
    lg = local_graph_at(curve, arc=0.0, delta=0.1, reach=1.0)
    with pytest.raises(InvalidInputError):
        lg.value(10 * lg.window.hi)


def test_local_graph_folds_beyond_reach():
    # a window wider than the circle radius cannot stay a graph
    curve = circle_curve(1.0)
    with pytest.raises(GeometryError):
        local_graph_at(curve, arc=0.0, window_radius=1.2)


def test_graph_slope_lipschitz_bound():
    # measured slope variation stays below 1/(R - 2 delta) across the
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
                lg = local_graph_at(curve, arc=float(a), delta=delta, reach=R)
                assert lg.lip_slope <= bound * (1 + 1e-9), (spec, frac, a)


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
        lip_graph=0.1, lip_slope=1.0,
        displacement=disp, slope_displacement=disp.derivative())


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


def test_patch_prefilter_matches_full_scan():
    # narrow batches take the distance-prefiltered path; it must agree
    # with nudging every patch in order, bit for bit
    base = circle_curve(1.0)
    curve = base
    for i, arc in enumerate((0.0, 1.3, 2.9, 4.4)):
        curve = curve.with_patch(synthetic_patch(curve, base_arc=arc, index=i))
    s = np.linspace(1.25, 1.45, 64)  # span well under a quarter turn
    pts, vel = curve.point_and_velocity(s)
    ref_pts = base.shape.point(s)
    ref_vel = base.shape.tangent(s)
    for patch in curve.patches:
        curve._nudge(np.mod(s, curve.length), ref_pts, ref_vel, patch)
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(vel, ref_vel)


def test_velocity_flag_is_keyword_only():
    curve = circle_curve(1.0)
    with pytest.raises(TypeError):
        curve.point_and_velocity(np.array([0.1]), False)
    pts, vel = curve.point_and_velocity(np.array([0.1]), velocity=False)
    assert vel is None and np.array_equal(pts, curve.point(np.array([0.1])))


def test_patch_index_must_extend_stack():
    base = circle_curve(1.0)
    with pytest.raises(InvalidInputError):
        base.with_patch(synthetic_patch(base, index=3))


def test_closed_curve_requires_shape():
    with pytest.raises(InvalidInputError):
        ClosedCurve("circle")

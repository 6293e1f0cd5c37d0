"""Shape catalog, patched-curve evaluation, and local graph windows."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from reachsmooth import curves
from reachsmooth.curves import (AppliedPatch, ArcChainShape, ArcSegment,
                                ClosedCurve, LineSegment, LocalGraph,
                                local_graph_at, make_shape, sample_manifold,
                                stadium_segments)
from reachsmooth.errors import GeometryError, InvalidInputError
from reachsmooth.kernels import _lattice_convolve
from reachsmooth.partition import smoothing_window_radius
from reachsmooth.ppoly import HermiteTable
from reachsmooth.reach import scan_curve_reach
from reachsmooth.smoothing import smooth_manifold


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


def _junction_jumps(curve):
    """At each segment bound b of the curve's chain: the distance between
    the points at b and at the arc just below it, less that step of arc,
    in ulps of the largest coordinate."""
    bounds = curve.shape._bounds[:-1]
    s = np.stack([np.nextafter(bounds, -np.inf), bounds], axis=1)
    s[0, 0] = np.nextafter(curve.length, -np.inf)
    step = np.where(bounds == 0.0, curve.length - s[:, 0], bounds - s[:, 0])
    pts = curve.point(s)
    jump = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1) - step
    return jump / np.spacing(np.abs(pts).max())


def test_chain_snaps_lines_onto_their_neighbours():
    # a stadium whose first line overshoots the cap by 5e-10, within the
    # chain's gap tolerance: the line is moved onto the arc, so the
    # chain, and the curve a run returns, is continuous at every
    # junction, as the catalog's are
    segs = stadium_segments(1.0, 2.0)
    segs[0] = LineSegment(segs[0].start, segs[0].end + np.array([5e-10, 0.0]))
    over = ArcChainShape(segs)
    assert over.segments[0].end.tobytes() == segs[1].point_and_tangent(0.0)[0].tobytes()
    assert over.segments[1] is segs[1]
    for shape in [over] + [make_shape(spec) for spec in CATALOG[2:] + [CLOSE_JUNCTIONS]]:
        result = smooth_manifold(shape, 0.05)
        for curve in (ClosedCurve(shape), result.curve):
            assert _junction_jumps(curve).max() <= 4.0, shape.describe()
    # two arcs cannot move: where they meet, a gap of more than a few
    # ulps is refused
    halves = [ArcSegment(np.zeros(2), 1.0, 0.0, math.pi),
              ArcSegment(np.zeros(2), 1.0, math.pi, math.pi)]
    ArcChainShape(halves)
    with pytest.raises(InvalidInputError, match="breaks"):
        ArcChainShape([halves[0], ArcSegment(np.array([0.0, 1e-12]), 1.0,
                                             math.pi, math.pi)])


def test_line_segment_reads_its_length_once():
    # length and unit direction are computed when the segment is made,
    # with the bytes a norm taken on every read would give
    seg = LineSegment(np.array([0.1, -0.3]), np.array([2.7, 1.9]))
    delta = seg.end - seg.start
    assert seg.length == float(np.linalg.norm(delta))
    assert seg.direction.tobytes() == (delta / np.linalg.norm(delta)).tobytes()
    pts, tans = seg.point_and_tangent(np.array([0.0, 1.0]))
    assert tans[0].tobytes() == seg.direction.tobytes()
    with pytest.raises(InvalidInputError):
        LineSegment(np.array([1.0, 1.0]), np.array([1.0, 1.0]))


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


CHAINS = pytest.mark.parametrize("spec", [
    {"kind": "stadium", "r": 1.0, "l": 2.0},
    {"kind": "cad_profile", "preset": "rounded_rect",
     "width": 2.0, "height": 1.0, "corner_radius": 0.2}],
    ids=["stadium", "rounded_rect"])


@CHAINS
def test_chain_sorted_batch_matches_permuted(spec):
    # each run of one segment index is one segment call: a sorted batch
    # inside one period has one run a segment, one that wraps arc 0 (a
    # junction of both shapes) one more, and a permuted one is sorted by
    # segment first; every batch, a lone arc and a 0-d one give each arc
    # the same bytes
    shape = make_shape(spec)
    L = shape.length
    rng = np.random.default_rng(5)
    wrap = np.linspace(-0.01 * L, 0.01 * L, 10_001)
    batches = [np.sort(np.concatenate([rng.uniform(0.0, L, n - 2),
                                       [0.0, shape.junction_arcs()[-1]]]))
               for n in (2, 2053, 33000)] + [wrap]
    for s in batches:
        perm = rng.permutation(s.size)
        pts, tans = shape.point_and_tangent(s)
        p_pts, p_tans = shape.point_and_tangent(s[perm])
        assert pts[perm].tobytes() == p_pts.tobytes()
        assert tans[perm].tobytes() == p_tans.tobytes()
        for i in rng.choice(s.size, 2):
            one = shape.point_and_tangent(s[i:i + 1])
            lone = shape.point_and_tangent(s[i])
            assert lone[0].shape == lone[1].shape == (2,)
            for got in (one, lone):
                assert got[0].tobytes() == pts[i].tobytes()
                assert got[1].tobytes() == tans[i].tobytes()
    assert np.any(wrap < 0.0) and np.any(wrap > 0.0)
    none = shape.point_and_tangent(np.empty((0, 3)))
    assert none[0].shape == none[1].shape == (0, 3, 2)


@CHAINS
def test_unsorted_chain_read_calls_each_segment_once(spec, monkeypatch):
    # a permuted batch is put in segment order once, so it pays one
    # segment call a segment, as the sorted batch does, not one a run
    shape = make_shape(spec)
    s = np.linspace(0.0, shape.length, 10_001, endpoint=False)
    perm = np.random.default_rng(8).permutation(s.size)
    pts, tans = shape.point_and_tangent(s)
    calls = []
    for cls in (LineSegment, ArcSegment):
        def counted(seg, t, read=cls.point_and_tangent):
            calls.append(id(seg))
            return read(seg, t)
        monkeypatch.setattr(cls, "point_and_tangent", counted)
    p_pts, p_tans = shape.point_and_tangent(s[perm])
    assert sorted(calls) == sorted(map(id, shape.segments))
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



HP = 0.5 * math.pi
# the stadium r = 1, l = 2 as a chain: segment 0 a line, segment 1 an arc
STADIUM_CHAIN = [
    {"type": "line", "start": [-1.0, -1.0], "end": [1.0, -1.0]},
    {"type": "arc", "center": [1.0, 0.0], "radius": 1.0,
     "start_angle": -HP, "end_angle": HP},
    {"type": "line", "start": [1.0, 1.0], "end": [-1.0, 1.0]},
    {"type": "arc", "center": [-1.0, 0.0], "radius": 1.0,
     "start_angle": HP, "end_angle": 3 * HP},
]

# each shape form and segment type: (an unknown field, a required field)
FIELD_RULE = {
    "circle": ("radius", "r"),
    "ellipse": ("c", "b"),
    "stadium": ("length", "l"),
    "rounded_rect": ("corner", "corner_radius"),
    "profile": ("width", "segments"),
    "line": ("radius", "end"),
    "arc": ("orientaton", "center"),
}


def _form(name):
    """A valid spec of the form ``name`` and the object holding its
    fields: the spec itself, or the segment of that type."""
    catalog = {
        "circle": {"kind": "circle", "r": 1.0},
        "ellipse": {"kind": "ellipse", "a": 2.0, "b": 1.0},
        "stadium": {"kind": "stadium", "r": 1.0, "l": 2.0},
        "rounded_rect": {"kind": "cad_profile", "preset": "rounded_rect",
                         "width": 2.0, "height": 1.0, "corner_radius": 0.2},
    }
    if name in catalog:
        return catalog[name], catalog[name]
    spec = {"kind": "cad_profile", "segments": [dict(s) for s in STADIUM_CHAIN]}
    return spec, {"line": spec["segments"][0], "arc": spec["segments"][1]}.get(name, spec)


@pytest.mark.parametrize("fault", ["unknown", "missing"])
@pytest.mark.parametrize("name", list(FIELD_RULE))
def test_every_form_takes_exactly_its_fields(name, fault):
    spec, fields = _form(name)
    make_shape(spec)
    unknown, required = FIELD_RULE[name]
    if fault == "unknown":
        fields[unknown] = 1.0
    else:
        del fields[required]
    field = unknown if fault == "unknown" else required
    with pytest.raises(InvalidInputError, match=f"{fault} fields \\['{field}'\\]"):
        make_shape(spec)


def test_one_error_names_every_unknown_and_missing_field():
    with pytest.raises(InvalidInputError) as exc:
        make_shape({"kind": "ellipse", "A": 2.0, "B": 1.0})
    assert "unknown fields ['A', 'B'] and missing fields ['a', 'b']" in str(exc.value)


def test_misspelt_orientation_is_named():
    # the clockwise stadium: its caps are clockwise arcs
    segments = [
        {"type": "line", "start": [1.0, -1.0], "end": [-1.0, -1.0]},
        {"type": "arc", "center": [-1.0, 0.0], "radius": 1.0,
         "start_angle": 3 * HP, "end_angle": HP, "orientation": "cw"},
        {"type": "line", "start": [-1.0, 1.0], "end": [1.0, 1.0]},
        {"type": "arc", "center": [1.0, 0.0], "radius": 1.0,
         "start_angle": HP, "end_angle": -HP, "orientation": "cw"},
    ]
    spec = {"kind": "cad_profile", "segments": segments}
    assert make_shape(spec).length == pytest.approx(4 + 2 * math.pi, rel=1e-12)
    segments[1]["orientaton"] = segments[1].pop("orientation")
    with pytest.raises(InvalidInputError, match="segment 1: unknown fields \\['orientaton'\\]"):
        make_shape(spec)


@pytest.mark.parametrize("segment", [5, None, [], {"type": "curve"},
                                     {"start": [0.0, 0.0]}],
                         ids=["number", "null", "list", "unknown_type", "no_type"])
def test_segment_needs_an_object_of_a_known_type(segment):
    spec = {"kind": "cad_profile", "segments": [segment] + STADIUM_CHAIN[1:]}
    with pytest.raises(InvalidInputError, match="segment 0 must be an object"):
        make_shape(spec)

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
    # the count is a whole number, not text, a flag or a truncated float
    for bad in ("100", True, 99.9, np.float64(12.5)):
        with pytest.raises(InvalidInputError):
            sample_manifold(curve, n=bad)
    with pytest.raises(InvalidInputError):
        scan_curve_reach(curve, "64")
    assert sample_manifold(curve, n=np.float64(64.0)).count == 64


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
    # a lattice convolution of no index reads an empty batch
    lg = local_graph_at(circle_curve(), 0.0, 0.3)
    empty = np.empty((0, 5))
    assert lg.value(empty).shape == (0, 5)
    f, df = lg.value_and_slope(empty)
    assert f.shape == df.shape == (0, 5)
    none = np.empty(0, dtype=np.int64)
    outs, convs = _lattice_convolve(lg.value_and_slope, 0.1, 16, none, 1,
                                    none.astype(bool))
    assert [o.shape for o in outs + convs] == [(0,)] * 4


def _assert_reads_pointwise(graph, ys, what):
    """``graph`` read at ``ys`` in 4096-point batches, reversed, and at
    200 of its points one at a time, gives one whole read's bits.  The
    whole read comes first, so a window's warm-start table is the same
    for all."""
    whole = graph.value_and_slope(ys)
    parts = [graph.value_and_slope(ys[i:i + 4096])
             for i in range(0, ys.size, 4096)]
    for got, want in zip(map(np.concatenate, zip(*parts)), whole):
        assert got.tobytes() == want.tobytes(), what
    for got, want in zip(graph.value_and_slope(ys[::-1]), whole):
        assert got[::-1].tobytes() == want.tobytes(), what
    for i in np.linspace(0, ys.size - 1, 200).astype(np.int64):
        one = graph.value_and_slope(ys[i:i + 1])
        assert [v.tobytes() for v in one] == [v[i:i + 1].tobytes() for v in whole], (what, i)


# two corners joined by a straight of length 1e-3: their patches stack
CLOSE_JUNCTIONS = {"kind": "cad_profile", "preset": "rounded_rect",
                   "width": 0.401, "height": 1.0, "corner_radius": 0.2}


@pytest.mark.parametrize("eps", [0.05, 5e-3, 5e-4])
def test_local_graph_reads_are_pointwise(eps):
    # a lattice convolution reads its graph in batches of at most
    # kernels._READ_POINTS points, which must give each point what one
    # whole read gives it: on every catalog and close-junction patch, the
    # lattice its arrays read, and on a window of the finished stadium
    # at its arc-0 junction, opened as a theorem probe opens one, reads
    # in 4096-point batches, reversed or of one point are the whole
    # read's bits.  The patches' windows read in closed form, but for the
    # two close-junction windows stacked on a patch and the probe's,
    # which read by Newton
    routes = []
    for spec in CATALOG + [CLOSE_JUNCTIONS]:
        result = smooth_manifold(spec, eps)
        for patch in result.curve.patches:
            b = patch.blend
            h = b.kernel.sigma / b.taps
            edge = math.floor(patch.transition_radius / h) + b.taps
            ys = np.arange(-edge, edge + 1) * h
            _assert_reads_pointwise(b.graph, ys, (spec, patch.index))
            routes.append(b.graph._pieces is not None)
        if spec["kind"] == "stadium":
            final = result.curve
            w = 12.0 * min(p.sigma for p in final.patches)
            g = local_graph_at(final, 0.0, w)
            assert g._pieces is None
            _assert_reads_pointwise(g, np.linspace(-w, w, 16001), "stadium window")
    assert len(routes) == 20 and routes.count(False) == 2


def _newton(graph):
    """The window of ``graph`` read by Newton's method through the
    curve, the closed form's oracle."""
    oracle = LocalGraph(graph.curve, graph.base_arc, graph.window)
    oracle._pieces = None
    return oracle


def _assert_matches_newton(graph, ys, what):
    """Closed-form values within 8 ulps of the window's largest
    coordinate of Newton's, and slopes within 1e-13."""
    assert graph._pieces is not None, what
    f, df = graph.value_and_slope(ys)
    fn, dfn = _newton(graph).value_and_slope(ys)
    p = float(np.abs(graph.center).max()) + graph.window.hi
    assert np.abs(f - fn).max() <= 8 * np.spacing(p), what
    assert np.abs(df - dfn).max() <= 1e-13, what


def test_closed_form_reads_match_newton():
    # every window the pipeline opens on the catalog and every unstacked
    # close-junction window read in closed form, and so does a window of
    # half-width 12 sigma at each junction of the raw stadium, as a
    # control probe opens it; Newton through the same curve is the oracle
    seen = 0
    for spec in CATALOG + [CLOSE_JUNCTIONS]:
        result = smooth_manifold(spec, 0.05)
        for patch in result.curve.patches:
            graph = patch.blend.graph
            if spec is CLOSE_JUNCTIONS and graph._pieces is None:
                continue
            w = graph.window.hi
            _assert_matches_newton(graph, np.linspace(-w, w, 4001), (spec, patch.index))
            seen += 1
        if spec["kind"] == "stadium":
            raw = ClosedCurve(result.curve.shape)
            w = 12.0 * min(p.sigma for p in result.curve.patches)
            for arc in raw.shape.junction_arcs():
                _assert_matches_newton(local_graph_at(raw, arc, w),
                                       np.linspace(-w, w, 4001), arc)
    assert seen == 4 + 8 + 6


def test_stacked_window_reads_by_newton(monkeypatch):
    # the second of two junctions 1e-3 apart opens its window on the
    # first one's patch, so it reads by Newton, each read evaluating the
    # curve; the same window of the raw chain reads in closed form and
    # evaluates no curve point
    result = smooth_manifold(CLOSE_JUNCTIONS, 0.05)
    patches = result.curve.patches
    assert [p.index for p in patches if p.blend.graph._pieces is None] == [1, 5]
    stacked = patches[1].blend.graph
    raw = local_graph_at(ClosedCurve(result.curve.shape), stacked.base_arc,
                         stacked.window.hi)
    evaluations = []
    real = ClosedCurve.point_and_velocity

    def counted(self, s):
        evaluations.append(np.size(s))
        return real(self, s)

    monkeypatch.setattr(ClosedCurve, "point_and_velocity", counted)
    ys = np.linspace(-0.5, 0.5, 101) * stacked.window.hi
    raw.value_and_slope(ys)
    assert evaluations == []
    stacked.value_and_slope(ys)
    assert evaluations and set(evaluations) == {ys.size}


def test_closed_form_window_folds():
    # a window wider than the stadium's cap folds on the cap, and one
    # across a rounded rectangle's corner folds where the corner turns a
    # right angle: a read past the fold raises GeometryError, as Newton's
    # does, and so do the window's slope bounds; reads short of it pass
    stadium = ClosedCurve(make_shape({"kind": "stadium", "r": 1.0, "l": 2.0}))
    rect = ClosedCurve(make_shape(CATALOG[3]))
    for curve, arc, w, inside in ((stadium, 2.0 + 0.5 * math.pi, 1.2, 0.99),
                                  (rect, 0.8, 1.2, 0.99)):
        graph = local_graph_at(curve, arc, w)
        assert graph._pieces is not None
        assert np.isfinite(graph.value_and_slope(np.array([-inside, inside]))).all()
        for y in (-w, w):
            with pytest.raises(GeometryError):
                graph.value(y)
            with pytest.raises(GeometryError):
                _newton(graph).value(y)
        with pytest.raises(GeometryError):
            graph.slope_bounds()


def test_slope_bounds_are_the_window_maxima():
    # the pieces' bounds are the largest |f'| and |f''| over the window:
    # at least what 257 Newton slopes and their difference quotients read
    # (which can under-read), and within 1% of them
    for spec in CATALOG[2:]:
        curve = ClosedCurve(make_shape(spec))
        for arc in list(curve.shape.junction_arcs()) + [0.3, 1.0]:
            graph = local_graph_at(curve, arc, 0.08)
            lip_graph, lip_slope = graph.slope_bounds()
            newton_graph, newton_slope = _newton(graph).slope_bounds()
            assert newton_graph <= lip_graph * (1 + 1e-12) + 1e-15
            assert newton_slope <= lip_slope * (1 + 1e-9) + 1e-9
            assert lip_graph - newton_graph <= 1e-2 * max(1.0, lip_graph)
            assert lip_slope - newton_slope <= 1e-2 * max(1.0, lip_slope)


def test_local_graph_folds_beyond_reach():
    # a window wider than the circle radius cannot stay a graph; opening
    # it reads only the frame at its base arc, so the fold shows when the
    # window is read
    curve = circle_curve(1.0)
    lg = local_graph_at(curve, 0.0, 1.2)
    assert lg.value(0.0) == 0.0
    with pytest.raises(GeometryError):
        lg.slope(np.linspace(-1.2, 1.2, 257))


def test_window_opens_with_one_evaluation(monkeypatch):
    # opening a window evaluates its base arc alone, and the frame has
    # the bytes of that lone evaluation
    curve = circle_curve(1.3)
    evaluations = []
    real = ClosedCurve.point_and_velocity

    def counted(self, s):
        evaluations.append(np.size(s))
        return real(self, s)

    monkeypatch.setattr(ClosedCurve, "point_and_velocity", counted)
    lg = local_graph_at(curve, 0.4, 0.2)
    assert evaluations == [1]
    monkeypatch.undo()
    center, vel = curve.point_and_velocity(0.4)
    tangent = vel / np.linalg.norm(vel)
    assert lg.center.tobytes() == center.tobytes()
    assert lg.tangent.tobytes() == tangent.tobytes()
    assert lg.normal.tobytes() == np.array([-tangent[1], tangent[0]]).tobytes()


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
    disp = HermiteTable(np.array([-tr, 0.0, tr]), np.array([0.0, amp, 0.0]),
                        np.array([0.0, 0.0, 0.0]))
    return AppliedPatch(
        index=index, base_arc=float(base_arc), center=center, tangent=t,
        normal=normal, inner_radius=0.1, transition_radius=tr,
        sigma=0.01, rho_target=0.02, lip_graph=0.1, lip_slope=1.0,
        reach=1.0, displacement=disp, blend=None)


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
        slope = patch.displacement.value_and_slope(y[sel])[1]
        vel[sel] += (slope * dy)[:, None] * patch.normal
    return pts.reshape(s.shape + (2,)), vel.reshape(s.shape + (2,))


_L = 2 * math.pi
ORACLE_BATCHES = {
    "sorted": np.linspace(1.25, 1.45, 64),  # span well under a quarter turn
    "unsorted": np.random.default_rng(3).permutation(np.linspace(1.0, 1.7, 50)),
    # a (point, tap) grid, as the tests' convolution oracle reads it:
    # unsorted once flattened
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
    # the distance prefilter, taken from the batch's least and largest
    # arcs, must agree with nudging every patch in order through masks,
    # bit for bit, in any batch order
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
    for got, want in zip(curve._patch_constants, rebuilt._patch_constants):
        assert got[:4] == want[:4] and got[4] is want[4]


def test_with_patch_reads_each_patch_once(monkeypatch):
    # a run of n patches reads the constants of each patch once, when it
    # joins the stack, not once per later stack
    calls = []
    real = curves._nudge_constants

    def counted(patch):
        calls.append(patch.index)
        return real(patch)

    monkeypatch.setattr(curves, "_nudge_constants", counted)
    result = smooth_manifold(CATALOG[3], 0.05)
    assert calls == list(range(8)) == [p.index for p in result.curve.patches]


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

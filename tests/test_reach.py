"""Reach estimation: pair ratios, curve scans, closed-form references.

``federer_ratio`` here is one pair's ratio in scalar arithmetic, the
oracle of the scan's per-pair arithmetic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.workloads import catalog
from reachsmooth import _accel
from reachsmooth.curves import (ArcChainShape, ArcSegment, ClosedCurve,
                                LineSegment, make_shape, sample_manifold)
from reachsmooth.errors import InvalidInputError
from reachsmooth.reach import (_arc_arc_chords, _double_normal_chords,
                               analytic_reach, estimate_reach_federer,
                               scan_curve_reach)
from tests.test_curves import synthetic_patch


def federer_ratio(p, tangent, q):
    """|q - p|^2 / (2 dist(q, tangent line at p)) of distinct points p, q
    and a nonzero tangent at p; +inf for flat pairs, those whose tangent
    distance is at most ``DEGENERATE_REL`` |q - p|, as in the scan."""
    t = np.asarray(tangent, dtype=float)
    t = t / np.linalg.norm(t)
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    dist = float(np.linalg.norm(d))
    cross = abs(d[0] * t[1] - d[1] * t[0])
    if cross <= _accel.DEGENERATE_REL * dist:
        return math.inf
    return dist * dist / (2.0 * cross)


def test_ratio_hand_computed():
    # d = (1, 1): squared length 2, offset from the tangent line 1
    one = pytest.approx(1.0, rel=1e-15)
    assert federer_ratio([0.0, 0.0], [1.0, 0.0], [1.0, 1.0]) == one
    # scaling the pair by 3 scales the ratio by 3
    assert federer_ratio([0.0, 0.0], [1.0, 0.0], [3.0, 3.0]) == pytest.approx(3.0, rel=1e-15)
    # tangent direction is normalized internally
    assert federer_ratio([0.0, 0.0], [7.0, 0.0], [1.0, 1.0]) == one


def test_ratio_flat_pair_is_infinite():
    t = [1.0, 1.0]
    assert federer_ratio([0.0, 0.0], t, [-1.0, -1.0]) == math.inf
    assert federer_ratio([0.0, 0.0], [1.0, 0.0], [2.0, 0.0]) == math.inf


def test_circle_scan_recovers_radius():
    est, sample = scan_curve_reach(make_shape({"kind": "circle", "r": 1.0}),
                                   n=450)
    assert est.value == pytest.approx(1.0, rel=1e-9)
    assert est.pairs_scanned >= 100_000
    assert sample.count == 450


def test_estimate_fields_consistent():
    est, sample = scan_curve_reach(make_shape({"kind": "circle", "r": 2.0}),
                                   n=100)
    i, j = est.argmin_indices
    assert np.array_equal(est.argmin_base, sample.points[i])
    assert np.array_equal(est.argmin_other, sample.points[j])
    direct = federer_ratio(sample.points[i], sample.tangents[i],
                           sample.points[j])
    assert direct == pytest.approx(est.value, rel=1e-12)


def test_straight_samples_scan_to_infinity():
    pts = np.stack([np.linspace(0, 9, 10), np.zeros(10)], axis=-1)
    tans = np.tile([1.0, 0.0], (10, 1))
    est = estimate_reach_federer(pts, tans, 0.5, None)
    assert est.value == math.inf
    # base/other roles differ, so pairs are ordered: n(n-1) of them
    assert est.pairs_scanned == 90
    assert est.argmin_indices == (-1, -1)
    assert est.argmin_base.shape == est.argmin_other.shape == (0, 2)


def test_min_sep_excluding_everything():
    pts = np.stack([np.cos(np.linspace(0, 2 * math.pi, 12, endpoint=False)),
                    np.sin(np.linspace(0, 2 * math.pi, 12, endpoint=False))],
                   axis=-1)
    tans = np.stack([-pts[:, 1], pts[:, 0]], axis=-1)
    with pytest.raises(InvalidInputError):
        estimate_reach_federer(pts, tans, 10.0, None)


def test_estimate_input_validation():
    with pytest.raises(InvalidInputError):
        estimate_reach_federer(np.zeros((5, 3)), np.zeros((5, 3)), 0.1, None)
    with pytest.raises(InvalidInputError):
        estimate_reach_federer(np.zeros((5, 2)), np.zeros((4, 2)), 0.1, None)
    bad = np.zeros((5, 2))
    bad[2, 0] = np.nan
    with pytest.raises(InvalidInputError):
        estimate_reach_federer(bad, np.zeros((5, 2)), 0.1, None)


def test_estimate_rejects_a_bad_mask():
    pts, tans = np.zeros((5, 2)), np.tile([1.0, 0.0], (5, 1))
    pts[:, 0] = np.arange(5.0)
    for hot in (np.ones(4, dtype=bool), np.ones(5), [[True] * 5]):
        with pytest.raises(InvalidInputError, match="mask"):
            estimate_reach_federer(pts, tans, 0.5, hot)
    # no hot point, no pair scanned
    with pytest.raises(InvalidInputError, match="every scanned pair"):
        estimate_reach_federer(pts, tans, 0.5, np.zeros(5, dtype=bool))
    est = estimate_reach_federer(pts, tans, 0.5, np.arange(5) == 4)
    assert est.pairs_scanned == 8 and est.value == math.inf


def test_ellipse_scan_converges_to_vertex_curvature():
    shape = make_shape({"kind": "ellipse", "a": 2.0, "b": 1.0})
    est, _ = scan_curve_reach(shape, n=2000)
    assert est.value == pytest.approx(0.5, rel=5e-4)
    # the minimizing pair hugs the high-curvature vertex (+-a, 0)
    assert abs(abs(est.argmin_base[0]) - 2.0) < 0.1


def test_scan_refinement_decreases():
    shape = make_shape({"kind": "ellipse", "a": 2.0, "b": 1.0})
    prev = math.inf
    for n in (500, 1000, 2000):
        est, _ = scan_curve_reach(shape, n=n)
        assert est.value <= prev + 1e-12
        prev = est.value


def test_scan_scale_equivariance():
    e1, _ = scan_curve_reach(make_shape({"kind": "circle", "r": 1.0}), n=300)
    e2, _ = scan_curve_reach(make_shape({"kind": "circle", "r": 2.0}), n=300)
    assert e2.value == pytest.approx(2.0 * e1.value, rel=1e-9)


ANALYTIC_CASES = [
    ({"kind": "circle", "r": 1.0}, 1.0),
    ({"kind": "circle", "r": 0.3}, 0.3),
    ({"kind": "ellipse", "a": 2.0, "b": 1.0}, 0.5),
    ({"kind": "ellipse", "a": 3.0, "b": 1.5}, 0.75),
    ({"kind": "stadium", "r": 1.0, "l": 2.0}, 1.0),
    ({"kind": "stadium", "r": 0.5, "l": 3.0}, 0.5),
    ({"kind": "cad_profile", "preset": "rounded_rect",
      "width": 2.0, "height": 1.0, "corner_radius": 0.2}, 0.2),
]


@pytest.mark.parametrize("spec,expected", ANALYTIC_CASES)
def test_analytic_reach_catalog(spec, expected):
    assert analytic_reach(make_shape(spec)) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_catalog_chains_reach_their_least_arc_radius(seed):
    # convex chains: the least arc radius wins bit for bit, so the
    # pipeline's input reach is the arc radius itself
    for _, spec in catalog(seed):
        shape = make_shape(spec)
        if isinstance(shape, ArcChainShape):
            assert analytic_reach(shape) == shape.min_arc_radius()


def dense_double_normal(shape, n=2000):
    """Shortest double normal of a dense sample, by brute force.

    From every sample p, the perpendicular feet q, where q - p turns
    normal to the curve at q, are the sign changes of (q - p) . t_q along
    the sample; a foot whose chord is normal at p too, to within the
    sample's angle step, closes a double normal.  Chords of a few sample
    steps are the trivial feet next to p.
    """
    sample = sample_manifold(ClosedCurve(shape), n)
    pts, tans, h = sample.points, sample.tangents, sample.spacing
    nxt = np.roll(pts, -1, axis=0)
    best = math.inf
    for p, t in zip(pts, tans):
        g = np.einsum("ij,ij->i", pts - p, tans)
        g_next = np.roll(g, -1)
        js = np.nonzero(np.signbit(g) != np.signbit(g_next))[0]
        w = g[js] / (g[js] - g_next[js])
        chord = pts[js] + w[:, None] * (nxt[js] - pts[js]) - p
        length = np.hypot(chord[:, 0], chord[:, 1])
        far = length > 8 * h
        cos = np.abs(chord[far] @ t) / length[far]
        normal = cos <= h * (1.0 + 2.0 / length[far])
        if normal.any():
            best = min(best, float(length[far][normal].min()))
    return best


def offset_polygon(vertices, r):
    """A counterclockwise convex polygon grown by r: its edges pushed out
    by r, joined by radius-r arcs about the vertices."""
    v = np.asarray(vertices, dtype=float)
    k = len(v)
    segs = []
    for i in range(k):
        a, b = v[i], v[(i + 1) % k]
        e = (b - a) / np.linalg.norm(b - a)
        n = np.array([e[1], -e[0]])
        c = v[(i + 2) % k]
        e2 = (c - b) / np.linalg.norm(c - b)
        start = math.atan2(n[1], n[0])
        sweep = (math.atan2(-e2[0], e2[1]) - start) % (2 * math.pi)
        segs.append(LineSegment(a + r * n, b + r * n))
        segs.append(ArcSegment(b, r, start, sweep))
    return ArcChainShape(segs)


def jittered_offset_polygon(jitter, size, r):
    """k = len(jitter) vertices on a circle of radius ``size``, each
    angular gap within ``margin`` of 2 pi / k, which keeps it in
    [0.3, pi - 0.3]: a convex polygon whose exterior angles are all at
    least 0.3, so each radius-r arc spans a few scan samples, grown by r."""
    mean = 2 * math.pi / len(jitter)
    margin = min(mean - 0.3, math.pi - 0.3 - mean)
    gaps = mean + margin * (np.asarray(jitter) - np.mean(jitter))
    angles = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    return offset_polygon(size * np.stack([np.cos(angles), np.sin(angles)], axis=1), r)


def filleted_polygon(vertices, radius):
    """A counterclockwise polygon with each corner replaced by a
    radius-``radius`` arc tangent to both edges, clockwise at reflex
    corners."""
    v = np.asarray(vertices, dtype=float)
    k = len(v)
    corners = []
    for i in range(k):
        a, b, c = v[i - 1], v[i], v[(i + 1) % k]
        e1 = (b - a) / np.linalg.norm(b - a)
        e2 = (c - b) / np.linalg.norm(c - b)
        turn = math.atan2(e1[0] * e2[1] - e1[1] * e2[0], e1 @ e2)
        cut = radius * math.tan(0.5 * abs(turn))
        center = (b - cut * e1
                  + math.copysign(radius, turn) * np.array([-e1[1], e1[0]]))
        start = math.atan2(*(b - cut * e1 - center)[::-1])
        corners.append((ArcSegment(center, radius, start, turn), b + cut * e2))
    segs = []
    for i, (arc, leave) in enumerate(corners):
        nxt = corners[(i + 1) % k][0]
        segs += [arc, LineSegment(leave, nxt.point_and_tangent(0.0)[0])]
    return ArcChainShape(segs)


def horseshoe_shape(opening=1.0):
    """Annulus 1 < |x| < 2 cut open by ``opening`` radians at angle 0,
    the cut ends capped by half circles of radius 0.5.

    The inner arc is concave and concentric with the outer one; the reach
    is the neck across the cut between the two caps,
    (3 sin(opening / 2) - 1) / 2.
    """
    a0, a1 = 0.5 * opening, 2 * math.pi - 0.5 * opening

    def ray(a, rad):
        return rad * np.array([math.cos(a), math.sin(a)])

    return ArcChainShape([
        ArcSegment(np.zeros(2), 2.0, a0, a1 - a0),
        ArcSegment(ray(a1, 1.5), 0.5, a1, math.pi),
        ArcSegment(np.zeros(2), 1.0, a1, a0 - a1),
        ArcSegment(ray(a0, 1.5), 0.5, a0 + math.pi, math.pi),
    ])


def test_double_normals_match_dense_oracle():
    # exact, not approximate, where the least arc radius wins
    assert analytic_reach(make_shape({"kind": "stadium", "r": 1.0, "l": 2.0})) == 1.0
    rect = make_shape({"kind": "cad_profile", "preset": "rounded_rect",
                       "width": 2.0, "height": 1.0, "corner_radius": 0.2})
    assert analytic_reach(rect) == 0.2
    # line/line (stadium sides, rectangle height), line/arc (a corner
    # facing an edge of the triangle), arc/arc (the dogbone's waist, the
    # horseshoe's caps); the staircase's treads, 0.2 apart, do not face
    # each other, nor does its concave fillet the upper tread
    stairs = filleted_polygon([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [2.0, 1.0],
                               [2.0, 1.2], [0.0, 1.2]], 0.05)
    shapes = [make_shape({"kind": "stadium", "r": 1.0, "l": 2.0}), rect,
              offset_polygon([[0.0, 0.0], [3.0, 0.0], [1.0, 1.0]], 0.1),
              dogbone_shape(), horseshoe_shape(), stairs]
    for shape in shapes:
        exact = min(_double_normal_chords(shape))
        assert dense_double_normal(shape) == pytest.approx(exact, rel=1e-4)
    # the horseshoe's concentric rings: the radial chords of length 1
    outer, _, inner, _ = horseshoe_shape().segments
    assert _arc_arc_chords(outer, inner, 1e-9) == (1.0,)
    assert analytic_reach(horseshoe_shape()) == pytest.approx(
        0.5 * (3 * math.sin(0.5) - 1), rel=1e-14)


def test_analytic_reach_rejects_patched_curves():
    # the closed forms are for base shapes; any ClosedCurve is refused,
    # with or without patches
    base = ClosedCurve(make_shape({"kind": "circle", "r": 1.0}))
    patched = base.with_patch(synthetic_patch(base))
    for curve in (base, patched):
        with pytest.raises(InvalidInputError):
            analytic_reach(curve)
    assert analytic_reach(base.shape) == 1.0


def dogbone_shape():
    """Two unit-circle lobes briged by concave unit fillets.

    Lobe centers (+-1.5, 0) and fillet centers (0, +-h) with
    h = sqrt(1.75) put all four circles mutually tangent, so the chain
    is C^1; the waist half-gap h - 1 governs the reach.
    """
    h = math.sqrt(1.75)
    phi_b = math.atan2(0.5 * h, -0.75)
    phi_f = math.atan2(0.5 * h, 0.75)
    concave = -(math.pi - 2 * phi_f)
    return ArcChainShape([
        ArcSegment(np.array([1.5, 0.0]), 1.0, -phi_b, 2 * phi_b),
        ArcSegment(np.array([0.0, h]), 1.0, -phi_f, concave),
        ArcSegment(np.array([-1.5, 0.0]), 1.0, phi_f, 2 * phi_b),
        ArcSegment(np.array([0.0, -h]), 1.0, phi_b, concave),
    ])


def test_nonconvex_chain_scan_finds_neck():
    shape = dogbone_shape()
    est, _ = scan_curve_reach(shape, n=2000)
    neck = math.sqrt(1.75) - 1.0
    assert est.value == pytest.approx(neck, rel=1e-3)
    # the minimizing pair straddles the waist near the origin
    assert abs(est.argmin_base[0]) < 0.1
    assert abs(abs(est.argmin_base[1]) - neck) < 0.05


def test_nonconvex_chain_reach_is_the_waist():
    # the arc/arc double normal across the waist, half of 2h - 2
    assert analytic_reach(dogbone_shape()) == math.sqrt(1.75) - 1.0


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=7),
       st.floats(0.5, 2.0), st.floats(0.2, 1.0))
def test_offset_polygon_reach_is_its_offset(jitter, size, r):
    shape = jittered_offset_polygon(jitter, size, r)
    assert analytic_reach(shape) == r
    est, _ = scan_curve_reach(shape, n=2000)
    assert est.value == pytest.approx(r, rel=0.02)


def test_scan_accepts_shape_or_curve():
    shape = make_shape({"kind": "circle", "r": 1.0})
    e1, _ = scan_curve_reach(shape, n=200)
    e2, _ = scan_curve_reach(ClosedCurve(shape), n=200)
    assert e1.value == e2.value
    with pytest.raises(InvalidInputError):
        scan_curve_reach("circle", n=200)

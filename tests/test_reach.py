"""Reach estimation: pair ratios, curve scans, closed-form references."""

import math

import numpy as np
import pytest

from reachsmooth.curves import (ArcChainShape, ArcSegment, ClosedCurve,
                                make_shape, sample_manifold)
from reachsmooth.errors import InvalidInputError
from reachsmooth.reach import (_widths, analytic_reach, estimate_reach_federer,
                               federer_ratio, scan_curve_reach)
from tests.test_curves import synthetic_patch


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


def test_ratio_validation():
    with pytest.raises(InvalidInputError):
        federer_ratio([0.0, 0.0], [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        federer_ratio([0.0, 0.0], [0.0, 0.0], [1.0, 1.0])


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
    est = estimate_reach_federer(pts, tans, 0.5)
    assert est.value == math.inf
    # base/other roles differ, so pairs are ordered: n(n-1) of them
    assert est.pairs_scanned == 90
    assert est.argmin_indices == (-1, -1)


def test_min_sep_excluding_everything():
    pts = np.stack([np.cos(np.linspace(0, 2 * math.pi, 12, endpoint=False)),
                    np.sin(np.linspace(0, 2 * math.pi, 12, endpoint=False))],
                   axis=-1)
    tans = np.stack([-pts[:, 1], pts[:, 0]], axis=-1)
    with pytest.raises(InvalidInputError):
        estimate_reach_federer(pts, tans, 10.0)


def test_estimate_input_validation():
    with pytest.raises(InvalidInputError):
        estimate_reach_federer(np.zeros((5, 3)), np.zeros((5, 3)), 0.1)
    with pytest.raises(InvalidInputError):
        estimate_reach_federer(np.zeros((5, 2)), np.zeros((4, 2)), 0.1)
    bad = np.zeros((5, 2))
    bad[2, 0] = np.nan
    with pytest.raises(InvalidInputError):
        estimate_reach_federer(bad, np.zeros((5, 2)), 0.1)


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


def test_blocked_width_scan_is_exact():
    # exact, not approximate: the blocked scan sees the same projections
    # as the full n x n_dirs matrix
    assert analytic_reach(make_shape({"kind": "stadium", "r": 1.0, "l": 2.0})) == 1.0
    rect = make_shape({"kind": "cad_profile", "preset": "rounded_rect",
                       "width": 2.0, "height": 1.0, "corner_radius": 0.2})
    assert analytic_reach(rect) == 0.2
    pts = sample_manifold(ClosedCurve(rect), n=1000).points
    theta = np.linspace(0.0, math.pi, 1300, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    proj = pts @ dirs.T
    assert np.array_equal(_widths(pts, dirs), proj.max(axis=0) - proj.min(axis=0))


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


def test_nonconvex_chain_has_no_analytic_route():
    with pytest.raises(InvalidInputError):
        analytic_reach(dogbone_shape())


def test_scan_accepts_shape_or_curve():
    shape = make_shape({"kind": "circle", "r": 1.0})
    e1, _ = scan_curve_reach(shape, n=200)
    e2, _ = scan_curve_reach(ClosedCurve(shape), n=200)
    assert e1.value == e2.value
    with pytest.raises(InvalidInputError):
        scan_curve_reach("circle")

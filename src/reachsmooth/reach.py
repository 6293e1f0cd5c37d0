"""Reach estimation via the second-order tangent comparison.

A set has reach at least R exactly when every pair of its points p, q
satisfies dist(q, tangent at p) <= |q - p|^2 / (2 R); minimizing the
ratio |q - p|^2 / (2 dist(q, tangent at p)) over sampled pairs therefore
estimates the reach from a finite sample.  The scan is an estimate, not
a certificate: it can only overestimate (pairs are missing, tangent
distances are exact), and the acceptance tolerances account for that.

Pairs closer than ``min_sep`` are excluded: for nearby samples on a
smooth curve the ratio degenerates to the osculating radius at chord
scale and sampling noise dominates below that.

``analytic_reach`` is the closed-form reference of every base shape:
the circle's radius, the ellipse's least curvature radius, and for an
arc chain, convex or not, the smaller of its least arc radius and half
its shortest double normal, solved segment pair by segment pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from ._util import as_positive_float, as_vector
from .curves import (ArcChainShape, BaseShape, CircleShape, ClosedCurve,
                     EllipseShape, LineSegment, sample_manifold)
from .errors import InvalidInputError

__all__ = [
    "federer_ratio",
    "ReachEstimate",
    "estimate_reach_federer",
    "scan_curve_reach",
    "analytic_reach",
]


def federer_ratio(p, tangent, q):
    """Curvature-comparison ratio of an ordered point pair.

    Parameters
    ----------
    p, q : array_like, shape (2,)
        Base point and compared point; must be distinct.
    tangent : array_like, shape (2,)
        Tangent direction at p (normalized internally).

    Returns
    -------
    float
        |q - p|^2 / (2 dist(q, tangent line at p)); +inf for flat pairs,
        those whose tangent distance is at most 1e-14 |q - p|, the same
        threshold as the scan's.
    """
    pv = as_vector(p, "p")
    qv = as_vector(q, "q")
    tv = as_vector(tangent, "tangent")
    nrm = np.linalg.norm(tv)
    if nrm == 0:
        raise InvalidInputError("tangent must be nonzero")
    tv = tv / nrm
    d = qv - pv
    dist = float(np.linalg.norm(d))
    if dist == 0:
        raise InvalidInputError("p and q must be distinct")
    cross = abs(d[0] * tv[1] - d[1] * tv[0])
    if cross <= _accel.DEGENERATE_REL * dist:
        return math.inf
    return dist * dist / (2.0 * cross)


@dataclass(frozen=True)
class ReachEstimate:
    """Result of a pair scan: the minimum ratio and where it happened.

    When no scanned pair gave the value, ``argmin_indices`` is (-1, -1)
    and the two argmin points are empty (0, 2) arrays.
    """

    value: float
    argmin_base: np.ndarray = field(repr=False)
    argmin_other: np.ndarray = field(repr=False)
    argmin_indices: tuple
    pairs_scanned: int
    sample_count: int
    min_sep: float


def estimate_reach_federer(points, tangents, min_sep, hot):
    """Minimum pair ratio over a sampled point cloud with tangents.

    Parameters
    ----------
    points : (n, 2) array
    tangents : (n, 2) array
        Unit tangents matched to points.
    min_sep : float
        Pairs closer than this are skipped.
    hot : (n,) bool array or None
        Only pairs with at least one end in ``hot`` are scanned; None
        scans every pair.

    Returns
    -------
    ReachEstimate

    Raises
    ------
    InvalidInputError
        If every pair was excluded (min_sep too large, or no point
        hot) or shapes differ.
    """
    pts = np.asarray(points, dtype=float)
    tan = np.asarray(tangents, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError(f"points must be (n, 2), got {pts.shape}")
    if tan.shape != pts.shape:
        raise InvalidInputError("tangents must match points in shape")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(tan))):
        raise InvalidInputError("non-finite samples")
    if hot is not None:
        hot = np.asarray(hot)
        if hot.dtype != bool or hot.shape != pts.shape[:1]:
            raise InvalidInputError("hot must be a boolean mask over the points")
    ms = as_positive_float(min_sep, "min_sep")
    value, i, j, pairs = _accel.federer_scan(pts, tan, ms, hot)
    if pairs == 0:
        raise InvalidInputError(
            f"min_sep={ms} excluded every scanned pair of the "
            f"{pts.shape[0]}-point sample")
    if i < 0:
        # pairs existed but all were flat
        return ReachEstimate(math.inf, np.empty((0, 2)), np.empty((0, 2)),
                             (-1, -1), pairs, pts.shape[0], ms)
    return ReachEstimate(float(value), pts[i].copy(), pts[j].copy(), (int(i), int(j)),
                         int(pairs), pts.shape[0], ms)


def scan_curve_reach(curve, n, min_sep=None):
    """Sample a curve and scan it; min_sep defaults to twice the spacing.

    Accepts a ClosedCurve or a bare BaseShape.  Returns the estimate and
    the sample used (handy for reports and overlays).
    """
    if isinstance(curve, BaseShape):
        curve = ClosedCurve(curve)
    if not isinstance(curve, ClosedCurve):
        raise InvalidInputError("curve must be a ClosedCurve or BaseShape")
    sample = sample_manifold(curve, n=n)
    ms = 2.0 * sample.spacing if min_sep is None else as_positive_float(min_sep, "min_sep")
    est = estimate_reach_federer(sample.points, sample.tangents, ms, None)
    return est, sample


# the tangent tolerance of the chain's own C^1 check: lines whose unit
# directions have a cross product this small are parallel, and a foot
# this many radians past an arc's end still lies on the arc
_TAN_TOL = 1e-9


def _line_frame(seg):
    """Start, unit direction and length of a line segment, as floats."""
    sx, sy = float(seg.start[0]), float(seg.start[1])
    ln = seg.length
    return sx, sy, (float(seg.end[0]) - sx) / ln, (float(seg.end[1]) - sy) / ln, ln


def _holds(arc, angle):
    """Whether the arc passes through the polar angle ``angle`` of its center."""
    turn = (math.copysign(1.0, arc.sweep) * (angle - arc.start_angle)) % (2.0 * math.pi)
    return turn <= abs(arc.sweep) + _TAN_TOL or turn >= 2.0 * math.pi - _TAN_TOL


def _line_line_chords(a, b, tol):
    # only parallel lines share normals; those that meet both lines, where
    # the lines' projections overlap, are as long as the lines' distance
    ax, ay, adx, ady, alen = _line_frame(a)
    bx, by, bdx, bdy, _ = _line_frame(b)
    if abs(adx * bdy - ady * bdx) > _TAN_TOL:
        return ()
    t0 = (bx - ax) * adx + (by - ay) * ady
    t1 = (float(b.end[0]) - ax) * adx + (float(b.end[1]) - ay) * ady
    if max(t0, t1) < -tol or min(t0, t1) > alen + tol:
        return ()
    return (abs((bx - ax) * -ady + (by - ay) * adx),)


def _line_arc_chords(line, arc, tol):
    # the common normal is the perpendicular from the arc's center c to the
    # line; with n the line's left normal, q = c + sgn * radius * n sits at
    # offset off + sgn * radius from the line
    sx, sy, dx, dy, ln = _line_frame(line)
    cx, cy = float(arc.center[0]) - sx, float(arc.center[1]) - sy
    if not -tol <= cx * dx + cy * dy <= ln + tol:
        return ()
    off = cx * -dy + cy * dx
    return tuple(abs(off + sgn * arc.radius) for sgn in (1.0, -1.0)
                 if _holds(arc, math.atan2(sgn * dx, -sgn * dy)))


def _arc_arc_chords(a, b, tol):
    # the common normal is the line through both centers, D apart;
    # concentric arcs share every ray they both reach, and opposite rays
    # give chords of ra + rb, whose half is never below the smaller radius
    vx = float(b.center[0]) - float(a.center[0])
    vy = float(b.center[1]) - float(a.center[1])
    D = math.hypot(vx, vy)
    if D <= tol:
        if _holds(a, b.start_angle) or _holds(b, a.start_angle):
            return (abs(a.radius - b.radius),)
        return ()
    # the point of an arc at sign s along the center line, and its angle
    ang = math.atan2(vy, vx)
    sides = ((1.0, ang), (-1.0, ang + math.pi))
    ends_a = [s for s, t in sides if _holds(a, t)]
    ends_b = [s for s, t in sides if _holds(b, t)]
    return tuple(abs(D + sb * b.radius - sa * a.radius) for sa in ends_a for sb in ends_b)


def _double_normal_chords(shape):
    """Lengths of the chords normal to an arc chain at both ends.

    Every pair of distinct segments is solved in closed form; feet must
    lie inside both segments, within the chain's own tolerances, and
    chords no longer than ``shape.gap_tol`` are the junctions of the
    chain, met from both sides, not chords.
    """
    tol = shape.gap_tol
    out = []
    for i, a in enumerate(shape.segments):
        for b in shape.segments[i + 1:]:
            if isinstance(a, LineSegment) and isinstance(b, LineSegment):
                chords = _line_line_chords(a, b, tol)
            elif isinstance(a, LineSegment):
                chords = _line_arc_chords(a, b, tol)
            elif isinstance(b, LineSegment):
                chords = _line_arc_chords(b, a, tol)
            else:
                chords = _arc_arc_chords(a, b, tol)
            out.extend(c for c in chords if c > tol)
    return out


def _arc_chain_reach(shape):
    """min(least arc radius, half the shortest double-normal chord).

    A chord pq normal to the chain at p has dist(q, T_p) = |q - p|, so its
    Federer ratio is |q - p| / 2, and the reach, the infimum of that ratio
    over all pairs (Federer 1959, Thm 4.18), is at most half of every
    such chord.  Pairs merging on an arc of radius rho have ratios tending
    to rho (on a line to infinity; at a junction to the smaller one-sided
    value), so the reach is at most the least arc radius too.  The
    converse is the attainment theorem (Aamari et al., "Estimating the
    reach of a manifold", EJS 2019, Thm 3.4), whose proof needs only a
    compact C^1 curve with positive reach, which a C^{1,1} chain is: a
    minimizing sequence of pairs either merges, and the infimum is a
    curvature radius, or converges to a pair p != q that are both nearest
    points of a center z at the reach; unless z is the midpoint of a
    double normal pq, moving z towards that midpoint gives a point with
    two nearest points closer than the reach, which the reach forbids.
    Hence equality.  Double normals inside one segment are the diameters
    of arcs, of half-length rho, and never decide the minimum.

    On convex chains the least arc radius always wins (Blaschke's rolling
    theorem: width >= 2 rho).  Chords are formed from offsets along the
    lines' normals, exact for axis-aligned sides, so a stadium's sides 2r
    apart give 0.5 * 2r = r bit for bit; a turned one can read an ulp
    lower, as its rounded coordinates are.
    """
    return min(shape.min_arc_radius(),
               0.5 * min(_double_normal_chords(shape), default=math.inf))


def analytic_reach(shape):
    """Closed-form reach of a base shape.

    circle r -> r; ellipse (a, b) -> b^2/a; arc chains, the stadium and
    concave profiles included -> min of the arc radii and half the
    shortest double-normal chord.  Other types, ClosedCurve too, raise.
    """
    if isinstance(shape, CircleShape):
        return shape.r
    if isinstance(shape, EllipseShape):
        return shape.b * shape.b / shape.a
    if isinstance(shape, ArcChainShape):
        return _arc_chain_reach(shape)
    raise InvalidInputError(f"no analytic reach for {type(shape).__name__}")

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from ._util import as_positive_float, as_vector
from .curves import (ArcChainShape, BaseShape, CircleShape, ClosedCurve,
                     EllipseShape, sample_manifold)
from .errors import InvalidInputError

__all__ = [
    "federer_ratio",
    "ReachEstimate",
    "estimate_reach_federer",
    "scan_curve_reach",
    "analytic_reach",
]


def federer_ratio(p, tangent, q, degenerate_guard=1e-14):
    """Curvature-comparison ratio of an ordered point pair.

    Parameters
    ----------
    p, q : array_like, shape (2,)
        Base point and compared point; must be distinct.
    tangent : array_like, shape (2,)
        Tangent direction at p (normalized internally).
    degenerate_guard : float
        Relative threshold below which q counts as lying on the tangent
        line, making the pair flat.

    Returns
    -------
    float
        |q - p|^2 / (2 dist(q, tangent line at p)); +inf for flat pairs.
    """
    pv = as_vector(p, "p", dim=2)
    qv = as_vector(q, "q", dim=2)
    tv = as_vector(tangent, "tangent", dim=2)
    nrm = np.linalg.norm(tv)
    if nrm == 0:
        raise InvalidInputError("tangent must be nonzero")
    tv = tv / nrm
    d = qv - pv
    dist = float(np.linalg.norm(d))
    if dist == 0:
        raise InvalidInputError("p and q must be distinct")
    cross = abs(d[0] * tv[1] - d[1] * tv[0])
    if cross <= degenerate_guard * dist:
        return math.inf
    return dist * dist / (2.0 * cross)


@dataclass(frozen=True)
class ReachEstimate:
    """Result of a pair scan: the minimum ratio and where it happened."""

    value: float
    argmin_base: np.ndarray = field(repr=False)
    argmin_other: np.ndarray = field(repr=False)
    argmin_indices: tuple
    pairs_scanned: int
    sample_count: int
    min_sep: float


def estimate_reach_federer(points, tangents, min_sep):
    """Minimum pair ratio over a sampled point cloud with tangents.

    Parameters
    ----------
    points : (n, 2) array
    tangents : (n, 2) array
        Unit tangents matched to points.
    min_sep : float
        Pairs closer than this are skipped.

    Returns
    -------
    ReachEstimate

    Raises
    ------
    InvalidInputError
        If every pair was excluded (min_sep too large) or shapes differ.
    """
    pts = np.asarray(points, dtype=float)
    tan = np.asarray(tangents, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError(f"points must be (n, 2), got {pts.shape}")
    if tan.shape != pts.shape:
        raise InvalidInputError("tangents must match points in shape")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(tan))):
        raise InvalidInputError("non-finite samples")
    ms = as_positive_float(min_sep, "min_sep")
    value, i, j, pairs = _accel.federer_scan(pts, tan, ms)
    if pairs == 0:
        raise InvalidInputError(
            f"min_sep={ms} excluded every pair of the {pts.shape[0]}-point sample")
    if i < 0:
        # pairs existed but all were flat
        return ReachEstimate(math.inf, pts[0].copy(), pts[0].copy(), (-1, -1),
                             pairs, pts.shape[0], ms)
    return ReachEstimate(float(value), pts[i].copy(), pts[j].copy(), (int(i), int(j)),
                         int(pairs), pts.shape[0], ms)


def scan_curve_reach(curve, n=None, spacing=None, min_sep=None):
    """Sample a curve and scan it; min_sep defaults to twice the spacing.

    Accepts a ClosedCurve or a bare BaseShape.  Returns the estimate and
    the sample used (handy for reports and overlays).
    """
    if isinstance(curve, BaseShape):
        curve = ClosedCurve(curve)
    if not isinstance(curve, ClosedCurve):
        raise InvalidInputError("curve must be a ClosedCurve or BaseShape")
    if n is None and spacing is None:
        n = 2000
    sample = sample_manifold(curve, n=n, spacing=spacing)
    ms = 2.0 * sample.spacing if min_sep is None else as_positive_float(min_sep, "min_sep")
    est = estimate_reach_federer(sample.points, sample.tangents, ms)
    return est, sample


def _arc_chain_reach(shape, n=8192, n_dirs=8192):
    """min(arc curvature radius, half the minimal width).

    For a convex C^{1,1} profile every critical radius of the medial
    axis is either an arc's curvature center (radius = arc radius) or a
    neck between opposite sides (radius = a local width minimum), so the
    reach is the smaller of the two quantities.  Non-convex chains are
    refused: their necks need a full medial computation.
    """
    sample = sample_manifold(ClosedCurve(shape), n=n)
    kappa = shape.curvature(sample.params)
    if np.any(kappa < -1e-12):
        raise InvalidInputError(
            "analytic reach for arc chains covers convex profiles only")
    theta = np.linspace(0.0, math.pi, n_dirs, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    proj = sample.points @ dirs.T
    widths = proj.max(axis=0) - proj.min(axis=0)
    return min(shape.min_arc_radius(), 0.5 * float(widths.min()))


def analytic_reach(shape):
    """Closed-form (or closely bounded) reach of a catalog shape.

    circle r -> r; ellipse (a, b) -> b^2/a; stadium -> cap radius; other
    arc chains -> min of arc radii and half the minimal facing-pair
    distance (convex profiles).
    """
    if isinstance(shape, ClosedCurve):
        if shape.patches:
            raise InvalidInputError("analytic reach is only defined for base shapes")
        shape = shape.shape
    if isinstance(shape, CircleShape):
        return shape.r
    if isinstance(shape, EllipseShape):
        return shape.b * shape.b / shape.a
    if isinstance(shape, ArcChainShape):
        return _arc_chain_reach(shape)
    raise InvalidInputError(f"no analytic reach for {type(shape).__name__}")

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
    if cross <= _accel.DEGENERATE_REL * dist:
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


def scan_curve_reach(curve, n=2000, min_sep=None):
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
    est = estimate_reach_federer(sample.points, sample.tangents, ms)
    return est, sample


# samples and width directions of the arc-chain reach
_CHAIN_SAMPLES = 8192
_CHAIN_DIRS = 8192


def _arc_chain_reach(shape):
    """min(arc curvature radius, half the minimal width).

    For a convex C^{1,1} profile every critical radius of the medial
    axis is either an arc's curvature center (radius = arc radius) or a
    neck between opposite sides (radius = a local width minimum), so the
    reach is the smaller of the two quantities.  Non-convex chains are
    refused: their necks need a full medial computation.
    """
    sample = sample_manifold(ClosedCurve(shape), n=_CHAIN_SAMPLES)
    kappa = shape.curvature(sample.params)
    if np.any(kappa < -1e-12):
        raise InvalidInputError(
            "analytic reach for arc chains covers convex profiles only")
    theta = np.linspace(0.0, math.pi, _CHAIN_DIRS, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return min(shape.min_arc_radius(), 0.5 * float(_widths(sample.points, dirs).min()))


def _widths(points, dirs):
    """Width of a point set along each unit direction.

    The projections go 512 directions at a time, so the temporary is
    n x 512 instead of n x len(dirs); every entry is the same product.
    """
    out = np.empty(dirs.shape[0])
    for k in range(0, dirs.shape[0], 512):
        proj = points @ dirs[k:k + 512].T
        out[k:k + 512] = proj.max(axis=0) - proj.min(axis=0)
    return out


def analytic_reach(shape):
    """Closed-form (or closely bounded) reach of a catalog base shape.

    circle r -> r; ellipse (a, b) -> b^2/a; stadium -> cap radius; other
    arc chains -> min of arc radii and half the minimal facing-pair
    distance (convex profiles).  Other types, ClosedCurve too, raise.
    """
    if isinstance(shape, CircleShape):
        return shape.r
    if isinstance(shape, EllipseShape):
        return shape.b * shape.b / shape.a
    if isinstance(shape, ArcChainShape):
        return _arc_chain_reach(shape)
    raise InvalidInputError(f"no analytic reach for {type(shape).__name__}")

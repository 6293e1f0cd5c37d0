"""NumPy/SciPy implementations of the scan kernels.

``federer_scan`` visits every ordered pair; its tie-breaking is
first-encountered in the enumeration order ``for i < j: (i -> j) then
(j -> i)``, which fixes the argmin indices and so keeps CSV output
byte-identical from run to run.  The other two kernels avoid the pair
loop: the difference quotient needs only adjacent samples of a sorted
grid, and the directed Hausdorff distance is a nearest-neighbour query.
"""

import numpy as np
from scipy.spatial import cKDTree

_DEGENERATE_REL = 1e-14


def federer_scan(points, tangents, min_sep):
    """Minimum curvature-comparison ratio over all ordered point pairs.

    For each ordered pair (p, q) with |q - p| >= min_sep the ratio is
    |q - p|^2 / (2 * dist(q, tangent line at p)); pairs whose tangent
    distance falls below 1e-14 * |q - p| count as flat (infinite ratio).

    Returns ``(min_ratio, i, j, pairs)`` where (i, j) indexes the
    minimizing (p, q) and pairs counts the ordered pairs considered.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    tan = np.ascontiguousarray(tangents, dtype=np.float64)
    n = pts.shape[0]
    best = np.inf
    bi = bj = -1
    pairs = 0
    for i in range(n - 1):
        dx = pts[i + 1:, 0] - pts[i, 0]
        dy = pts[i + 1:, 1] - pts[i, 1]
        d2 = dx * dx + dy * dy
        d = np.sqrt(d2)
        keep = d >= min_sep
        m = int(np.count_nonzero(keep))
        if m == 0:
            continue
        pairs += 2 * m
        dxk, dyk, d2k, dk = dx[keep], dy[keep], d2[keep], d[keep]
        jidx = np.nonzero(keep)[0] + i + 1
        # q in the tangent line at p counts as flat, not as zero reach
        guard = _DEGENERATE_REL * dk
        cr1 = np.abs(dxk * tan[i, 1] - dyk * tan[i, 0])
        with np.errstate(divide="ignore", over="ignore"):
            r1 = np.where(cr1 <= guard, np.inf, d2k / (2.0 * cr1))
        cr2 = np.abs(dxk * tan[jidx, 1] - dyk * tan[jidx, 0])
        with np.errstate(divide="ignore", over="ignore"):
            r2 = np.where(cr2 <= guard, np.inf, d2k / (2.0 * cr2))
        k1 = int(np.argmin(r1))
        k2 = int(np.argmin(r2))
        if r1[k1] <= r2[k2]:
            row_val, row_i, row_j = r1[k1], i, int(jidx[k1])
        else:
            row_val, row_i, row_j = r2[k2], int(jidx[k2]), i
        if row_val < best:
            best, bi, bj = float(row_val), row_i, row_j
    return best, bi, bj, pairs


def max_abs_diff_quotient(xs, vals):
    """Largest |vals_i - vals_j| / (xs_j - xs_i) over all pairs i < j.

    ``xs`` must be strictly increasing, with at least two samples.  On
    such a grid every chord slope is a convex combination of the adjacent
    slopes between its ends, so the maximum over adjacent pairs is the
    maximum over all pairs.  Returns ``(quotient, i, i + 1)`` for the
    first adjacent pair that attains it.
    """
    x = np.ascontiguousarray(xs, dtype=np.float64)
    v = np.ascontiguousarray(vals, dtype=np.float64)
    q = np.abs(np.diff(v)) / np.diff(x)
    k = int(np.argmax(q))
    return float(q[k]), k, k + 1


def directed_hausdorff(a, b):
    """sup over rows of a of the distance to the point set b.

    Returns ``(value, index)`` with index the first maximizing row of a.
    """
    pa = np.ascontiguousarray(a, dtype=np.float64)
    pb = np.ascontiguousarray(b, dtype=np.float64)
    dist, _ = cKDTree(pb).query(pa)
    k = int(np.argmax(dist))
    return float(dist[k]), k

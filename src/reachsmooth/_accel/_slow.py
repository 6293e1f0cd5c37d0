"""NumPy/SciPy implementations of the scan kernels.

``federer_scan`` visits every ordered pair; its tie-breaking is
first-encountered in the enumeration order ``for i < j: (i -> j) then
(j -> i)``, which fixes the argmin indices and so keeps CSV output
byte-identical from run to run.  It walks the rows in blocks of
``_SCAN_ROWS`` as dense arrays and keeps that order: each row takes the
first argmin of each direction, preferring i -> j on a tie, and a block
takes its first row to reach the block minimum and replaces the running
best only when strictly below it, as a row-by-row loop would.  The other
two kernels avoid the pair loop: the difference quotient needs only
adjacent samples of a sorted grid, and the directed Hausdorff distance
is a nearest-neighbour query.
"""

import numpy as np
from scipy.spatial import cKDTree

DEGENERATE_REL = 1e-14


# rows per block of the pair scan: 16 rows of at most a few thousand
# columns keep each temporary near a megabyte
_SCAN_ROWS = 16


def federer_scan(points, tangents, min_sep):
    """Minimum curvature-comparison ratio over all ordered point pairs.

    For each ordered pair (p, q) with |q - p| >= min_sep the ratio is
    |q - p|^2 / (2 * dist(q, tangent line at p)); pairs whose tangent
    distance falls below 1e-14 * |q - p| count as flat (infinite ratio).

    Returns ``(min_ratio, i, j, pairs)`` where (i, j) indexes the
    minimizing (p, q) and pairs counts the ordered pairs considered.
    """
    x, y = np.asarray(points, dtype=np.float64).T.copy()
    tx, ty = np.asarray(tangents, dtype=np.float64).T.copy()
    n = x.size
    # within a block, row r (point i0 + r) meets column c (point
    # i0 + 1 + c) for c >= r only: j > i
    before = np.tri(_SCAN_ROWS, _SCAN_ROWS, -1, dtype=bool)
    best = np.inf
    bi = bj = -1
    pairs = 0
    for i0 in range(0, n - 1, _SCAN_ROWS):
        i1 = min(i0 + _SCAN_ROWS, n - 1)
        m = i1 - i0
        rows = np.arange(m)
        dx = x[i0 + 1:] - x[i0:i1, None]
        dy = y[i0 + 1:] - y[i0:i1, None]
        d2 = dx * dx + dy * dy
        d = np.sqrt(d2)
        keep = d >= min_sep
        keep[:, :m] &= ~before[:m, :m]
        pairs += 2 * int(np.count_nonzero(keep))
        # q in the tangent line at p counts as flat, not as zero reach
        guard = DEGENERATE_REL * d
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cr = np.abs(dx * ty[i0:i1, None] - dy * tx[i0:i1, None])
            r1 = d2 / (2.0 * cr)
            r1[(cr <= guard) | ~keep] = np.inf
            cr = np.abs(dx * ty[i0 + 1:] - dy * tx[i0 + 1:])
            r2 = d2 / (2.0 * cr)
            r2[(cr <= guard) | ~keep] = np.inf
        # per row, the first argmin of each direction, i -> j on ties
        k1 = np.argmin(r1, axis=1)
        k2 = np.argmin(r2, axis=1)
        v1 = r1[rows, k1]
        v2 = r2[rows, k2]
        forward = v1 <= v2
        vals = np.where(forward, v1, v2)
        r = int(np.argmin(vals))
        if vals[r] < best:
            best = float(vals[r])
            if forward[r]:
                bi, bj = i0 + r, i0 + 1 + int(k1[r])
            else:
                bi, bj = i0 + 1 + int(k2[r]), i0 + r
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

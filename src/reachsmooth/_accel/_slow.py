"""NumPy implementations of the scan kernels.

``federer_scan`` finds the least ratio over every ordered pair; its
tie-breaking is first-encountered in the enumeration order ``for i < j:
(i -> j) then (j -> i)``, which fixes the argmin indices and so keeps
CSV output byte-identical from run to run.  It walks the rows in blocks
of ``_SCAN_ROWS`` as dense arrays and keeps that order: each row takes
the first argmin of each direction, preferring i -> j on a tie, and a
block takes its first row to reach the block minimum and replaces the
running best only when strictly below it, as a row-by-row loop would.

Most pairs cannot beat the running best, and the scan skips them by
geometry alone.  Since dist(q, tangent line at p) <= |q - p| |t|, a
pair's ratio is at least |q - p| / (2 max|t|).  So once the best is
finite, a column farther from the block's bounding box than
2 best max|t| (and than ``min_sep``) holds no pair that could replace
it or tie a row's minimum, and the block drops it before the dense
arithmetic.  The kept columns stay in order, so the arithmetic, the
argmins and the tie-breaks of every pair that can matter are the dense
scan's.  ``_PRUNE_SLACK`` widens the cut past every rounding of the
ratio, the box distance and max|t|.

The other two kernels avoid the pair loop: the difference quotient
needs only adjacent samples of a sorted grid, and the directed
Hausdorff distance compares each point only with the points of the
other set inside a strip about its first coordinate.
"""

import numpy as np

DEGENERATE_REL = 1e-14


# rows per block of the pair scan: 16 rows of at most a few thousand
# columns keep each temporary near a megabyte
_SCAN_ROWS = 16
# relative widening of the pruning cut: the ratio, the box distance and
# max|t| each round by a few ulps, far below this
_PRUNE_SLACK = 64 * np.finfo(np.float64).eps
# point pairs per block of the Hausdorff sweep: a few hundred kilobytes
# of temporaries however the strips overlap
_SWEEP_PAIRS = 1 << 14
# relative widening of a Hausdorff strip past the rounding of its width
_STRIP_SLACK = 1e-12


def federer_scan(points, tangents, min_sep):
    """Minimum curvature-comparison ratio over all ordered point pairs.

    For each ordered pair (p, q) with |q - p| >= min_sep the ratio is
    |q - p|^2 / (2 * dist(q, tangent line at p)); pairs whose tangent
    distance falls below 1e-14 * |q - p| count as flat (infinite ratio).

    Returns ``(min_ratio, i, j, pairs)`` where (i, j) indexes the
    minimizing (p, q) and ``pairs`` counts the ordered pairs at least
    ``min_sep`` apart, whether their ratio was computed or bounded below
    by the running best and skipped.
    """
    x, y = np.asarray(points, dtype=np.float64).T.copy()
    tx, ty = np.asarray(tangents, dtype=np.float64).T.copy()
    n = x.size
    t_max = float(np.sqrt(tx * tx + ty * ty).max()) if n else 0.0
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
        bx, by = x[i0:i1], y[i0:i1]
        cx, cy, ctx, cty = x[i0 + 1:], y[i0 + 1:], tx[i0 + 1:], ty[i0 + 1:]
        cols = None
        if best < np.inf:
            # every pair of a dropped column is at least min_sep apart
            # and reads a ratio of at least best; the block's own rows
            # sit in the box and are never dropped
            cut = max(2.0 * best * t_max, min_sep) * (1.0 + _PRUNE_SLACK)
            gx = np.maximum(np.maximum(bx.min() - cx, cx - bx.max()), 0.0)
            gy = np.maximum(np.maximum(by.min() - cy, cy - by.max()), 0.0)
            drop = gx * gx + gy * gy > cut * cut
            n_drop = int(np.count_nonzero(drop))
            if n_drop:
                pairs += 2 * m * n_drop
                if n_drop == cx.size:
                    # a one-row block's only column, point n - 1, is
                    # not one of its rows and can go
                    continue
                cols = np.flatnonzero(~drop)
                cx, cy, ctx, cty = cx[cols], cy[cols], ctx[cols], cty[cols]
        dx = cx - bx[:, None]
        dy = cy - by[:, None]
        d2 = dx * dx + dy * dy
        d = np.sqrt(d2)
        keep = d >= min_sep
        keep[:, :m - 1] &= ~before[:m, :m - 1]
        pairs += 2 * int(np.count_nonzero(keep))
        # q in the tangent line at p counts as flat, not as zero reach
        guard = DEGENERATE_REL * d
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cr = np.abs(dx * ty[i0:i1, None] - dy * tx[i0:i1, None])
            r1 = d2 / (2.0 * cr)
            r1[(cr <= guard) | ~keep] = np.inf
            cr = np.abs(dx * cty - dy * ctx)
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
            k = int(k1[r] if forward[r] else k2[r])
            j = i0 + 1 + (k if cols is None else int(cols[k]))
            bi, bj = (i0 + r, j) if forward[r] else (j, i0 + r)
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
    Coordinates must be finite.  Distances are sqrt(sum_k d_k^2), the
    brute-force arithmetic, so the value is the all-pairs one bit for
    bit.

    The sweep sorts b by its first coordinate.  A row's two insertion
    neighbours there give an upper bound u on its nearest distance, and
    only the points of b whose first coordinate lies within
    u (1 + ``_STRIP_SLACK``) of the row's are compared: any other point
    is farther than u.  Rows go in blocks of about ``_SWEEP_PAIRS``
    compared pairs (at least one row), so the temporaries stay bounded
    even when every point shares one first coordinate and each strip
    holds all of b.
    """
    pa = np.ascontiguousarray(a, dtype=np.float64)
    pb = np.ascontiguousarray(b, dtype=np.float64)
    pb = pb[np.argsort(pb[:, 0], kind="stable")]
    xb = pb[:, 0]
    xa = pa[:, 0]
    pos = xb.searchsorted(xa)
    left = np.maximum(pos - 1, 0)
    right = np.minimum(pos, xb.size - 1)
    u2 = np.minimum(_sq_dist(pa, pb[left]), _sq_dist(pa, pb[right]))
    width = np.sqrt(u2) * (1.0 + _STRIP_SLACK)
    # the neighbours themselves stay in the strip whatever the rounding
    lo = np.minimum(xb.searchsorted(xa - width), left)
    hi = np.maximum(xb.searchsorted(xa + width, side="right"), right + 1)
    ends = np.cumsum(hi - lo)
    nearest = np.empty(pa.shape[0])
    r0 = 0
    while r0 < pa.shape[0]:
        done = ends[r0 - 1] if r0 else 0
        r1 = max(int(ends.searchsorted(done + _SWEEP_PAIRS, side="right")), r0 + 1)
        counts = hi[r0:r1] - lo[r0:r1]
        starts = ends[r0:r1] - counts - done
        rows = np.repeat(np.arange(r0, r1), counts)
        cols = np.arange(ends[r1 - 1] - done) - np.repeat(starts - lo[r0:r1], counts)
        nearest[r0:r1] = np.minimum.reduceat(_sq_dist(pa[rows], pb[cols]), starts)
        r0 = r1
    dist = np.sqrt(nearest)
    k = int(np.argmax(dist))
    return float(dist[k]), k


def _sq_dist(p, q):
    """Row-wise squared distances, summed as the brute force sums them."""
    d = p - q
    return (d * d).sum(axis=1)

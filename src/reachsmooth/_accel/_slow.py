"""NumPy implementations of the scan kernels.

``federer_scan`` finds the least ratio over the ordered pairs with at
least one end in a mask of hot points (every pair when the mask is
None); its tie-breaking is first-encountered in the enumeration order
``for i < j: (i -> j) then (j -> i)``, which fixes the argmin indices
and so keeps CSV output byte-identical from run to run.  It walks the
hot rows in blocks of ``_SCAN_ROWS`` as dense arrays, each against the
cold points below it and every point above it, so each pair with a hot
end is formed once.  A block replaces the running best when its minimum
is strictly below it, or equal to it at a pair earlier in that order.

Most pairs cannot beat the running best, and the scan skips them by
geometry alone.  Since dist(q, tangent line at p) <= |q - p| |t|, a
pair's ratio is at least |q - p| / (2 max|t|).  So once the best is
finite, a column farther from the block's bounding box than
2 best max|t| (and than ``min_sep``) holds no pair that could replace
or tie it, and the block drops it before the dense arithmetic.  A kept
pair reads the same bytes either way, so the value, the argmin and the
tie-break of every pair that can matter are the dense scan's.
``_PRUNE_SLACK`` widens the cut past every rounding of the ratio, the
box distance and max|t|.

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


def federer_scan(points, tangents, min_sep, hot):
    """Minimum curvature-comparison ratio over the ordered point pairs
    with at least one end in ``hot``.

    For each ordered pair (p, q) with |q - p| >= min_sep the ratio is
    |q - p|^2 / (2 * dist(q, tangent line at p)); pairs whose tangent
    distance falls below 1e-14 * |q - p| count as flat (infinite ratio).
    ``hot`` is a boolean mask over the points, or None for every point;
    pairs of two cold points are not scanned.

    Returns ``(min_ratio, i, j, pairs)`` where (i, j) indexes the
    minimizing (p, q) and ``pairs`` counts the scanned ordered pairs at
    least ``min_sep`` apart, whether their ratio was computed or bounded
    below by the running best and skipped.  With no such pair the
    result is ``(inf, -1, -1, 0)``.

    The rows are the hot points, in blocks of ``_SCAN_ROWS``; a block's
    columns are the hot points after its first row and every cold point,
    and a row meets a column when the column is above it or cold, so
    each pair with a hot end is formed once.  The points are put in the
    order hot then cold, each by index, so the rows and the columns of
    every block are slices.  A pair formed from its upper end reads the
    same bytes as from its lower one, as the differences only change
    sign.  Ties go to the pair first in the order of the row loop
    ``for i < j: (i -> j) then (j -> i)``: the least lower index, then
    the direction away from it, then the least upper index.
    """
    pts = np.asarray(points, dtype=np.float64)
    tan = np.asarray(tangents, dtype=np.float64)
    n = pts.shape[0]
    if hot is None:
        order = np.arange(n)
        n_hot = n
    else:
        hot = np.asarray(hot, dtype=bool)
        order = np.concatenate([np.flatnonzero(hot), np.flatnonzero(~hot)])
        n_hot = int(np.count_nonzero(hot))
    x, y = pts[order].T.copy()
    tx, ty = tan[order].T.copy()
    t_max = float(np.sqrt(tx * tx + ty * ty).max()) if n else 0.0
    # row r meets the block's own row s (s >= 1), its column s - 1, only
    # when s > r
    before = np.tri(_SCAN_ROWS, _SCAN_ROWS, -1, dtype=bool)
    best = np.inf
    best_key = None
    bi = bj = -1
    pairs = 0
    # a block whose first row is the last point has no column
    for b0 in range(0, min(n_hot, n - 1), _SCAN_ROWS):
        m = min(_SCAN_ROWS, n_hot - b0)
        bx, by = x[b0:b0 + m], y[b0:b0 + m]
        btx, bty = tx[b0:b0 + m], ty[b0:b0 + m]
        col = order[b0 + 1:]
        cx, cy, ctx, cty = x[b0 + 1:], y[b0 + 1:], tx[b0 + 1:], ty[b0 + 1:]
        if best < np.inf:
            # every pair of a dropped column is at least min_sep apart
            # and reads a ratio above best; the block's own rows sit in
            # the box and are never dropped
            cut = max(2.0 * best * t_max, min_sep) * (1.0 + _PRUNE_SLACK)
            gx = np.maximum(np.maximum(bx.min() - cx, cx - bx.max()), 0.0)
            gy = np.maximum(np.maximum(by.min() - cy, cy - by.max()), 0.0)
            drop = gx * gx + gy * gy > cut * cut
            n_drop = int(np.count_nonzero(drop))
            if n_drop:
                # a column that is not a row of the block meets each row
                pairs += 2 * m * n_drop
                if n_drop == cx.size:
                    continue
                kept = np.flatnonzero(~drop)
                col = col[kept]
                cx, cy, ctx, cty = cx[kept], cy[kept], ctx[kept], cty[kept]
        dx = cx - bx[:, None]
        dy = cy - by[:, None]
        d2 = dx * dx + dy * dy
        d = np.sqrt(d2)
        keep = d >= min_sep
        keep[:, :m - 1] &= ~before[:m, :m - 1]
        pairs += 2 * int(np.count_nonzero(keep))
        skip = ~keep
        # q in the tangent line at p counts as flat, not as zero reach
        guard = DEGENERATE_REL * d
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cr = np.abs(dx * bty[:, None] - dy * btx[:, None])
            r1 = d2 / (2.0 * cr)
            r1[(cr <= guard) | skip] = np.inf
            cr = np.abs(dx * cty - dy * ctx)
            r2 = d2 / (2.0 * cr)
            r2[(cr <= guard) | skip] = np.inf
        v = min(r1.min(), r2.min())
        if not v <= best or v == np.inf:
            continue
        # the block's pairs (base, other) at its minimum, and the first
        # of them in the row loop's order: the least lower index, the
        # direction away from it, the least upper index
        rows = order[b0:b0 + m]
        r, c = np.divmod(np.flatnonzero(r1 == v), col.size)
        r_, c_ = np.divmod(np.flatnonzero(r2 == v), col.size)
        base = np.concatenate([rows[r], col[c_]])
        other = np.concatenate([col[c], rows[r_]])
        lo, hi, away = (np.minimum(base, other), np.maximum(base, other),
                        base > other)
        k = np.lexsort((hi, away, lo))[0]
        key = (int(lo[k]), bool(away[k]), int(hi[k]))
        if v < best or key < best_key:
            best, best_key, bi, bj = float(v), key, int(base[k]), int(other[k])
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

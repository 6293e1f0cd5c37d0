"""Compactly supported smoothing kernel and convolution machinery.

The kernel family is fixed: the classic bump ``exp(-1/(1 - (x/sigma)^2))``
scaled to unit mass on [-sigma, sigma].  Convolution is one discrete-tap
rule: the bump sampled at the offsets j*h of a lattice of spacing h and
normalized to unit sum (``_aligned_taps``, one cached set of weights per
radius and spacing).  The weights are nonnegative and sum to one, so
convolving sampled values can never increase a Lipschitz constant,
which is exactly the property the verification suite stresses.  Every
convolution reads its function on that lattice: ``convolve_grid``
convolves a contiguous run of samples, and ``_lattice_convolve`` reads
the taps of chosen lattice indices and takes each index's taps as a row
of a strided view of a read (the live blends of ``smoothing.BlendedMap``
and the convolution checker).

A function is read pointwise: a point's value may not depend on the rest
of its batch.  So no read takes more than ``_READ_POINTS`` points and no
block of tap sums more than that many taps: a longer grid or lattice is
read a span or a group at a time, and every array of a read stays under
glibc's 128 KiB ``mmap`` threshold, served from the heap rather than
mapped and page-faulted in afresh on every call.  A lattice convolution
is pointwise too: every tap sum is taken by the BLAS matrix-vector
product's four-row kernel (``_four_row_sums``), so how a read is split
changes its memory only, never its bytes.

Derivatives of a convolution are convolutions of the slope: every
caller knows the slope of what it smooths, so the slope is convolved
with the same weights as the values.  A function that returns value and
slope together is convolved in one pass, one evaluation on the taps
serving both.

A support radius sigma is proven, never searched (``_proven_radius``).
The weights w_j sit at offsets u_j sigma, symmetric, nonnegative and of
unit sum, so with the moments m1 = sum w_j |u_j| and m2 = sum w_j u_j^2
of the rule (``_tap_moments``) every point y has

    |f*(y) - f(y)|   <= min(L sigma m1, L_d sigma^2 m2 / 2),
    |f*'(y) - f'(y)| <= L_d sigma m1,

L bounding |f'| and L_d the Lipschitz constant of f' over [y - sigma,
y + sigma] (the first moment sum w_j u_j vanishes).  A caller takes the
largest radius these bounds allow for its budgets, shrunk by
``_PROOF_MARGIN``, and measures its grid at that radius
(``_grid_deviation``, the grid i*sigma/taps): the measurement is a
witness, and one over the budget raises, because the proof or its margin
is wrong.  ``find_support_radius`` measures through ``sup_deviation_ck``
at 50 taps, ``smoothing.smooth_patch`` at 16.  ``sup_deviation_ck``
reads the function a span of whole ``_BLOCK`` blocks at a time, bounds
each block's deviation by its second differences, and reads again and
convolves only the blocks whose bound reaches the largest deviation
found so far (``_settled_deviation``); its answer is the one-pass
measurement's, bit for bit.

Tables and their Gauss-Legendre rules live in ``ppoly``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._util import as_float, as_positive_float
from .errors import ConvergenceError, InvalidInputError

__all__ = [
    "Interval",
    "BumpKernel",
    "convolve_grid",
    "sup_deviation_ck",
    "find_support_radius",
]

# window samples per kernel radius, and the most samples one grid read
# may take
_GRID_PER_SIGMA = 50
_MAX_GRID = 4_000_000
# relative margin a proven radius keeps under its bounds: it covers the
# rounding of the moments, of the grid offsets and of the tap sums,
# each below 1e-12 relative on every grid the package reads
_PROOF_MARGIN = 1e-6
# a whole-grid measurement bounds the deviation on blocks of this many
# window points and convolves only the blocks whose bound reaches the
# largest deviation found so far; _U is the unit roundoff
_BLOCK = 4096
_U = 2.0 ** -53
# the most points one read of a whole-grid measurement or a lattice
# convolution takes, and the most taps one block of its tap sums holds:
# 100 KiB of float64, so no array of a read crosses glibc's 128 KiB
# mmap threshold, to be mapped afresh and page-faulted in on every call,
# with room below it: the temporaries a read holds at once can make the
# allocator trim the heap and fault it in again between reads (the
# zoo's C^{1,1} blends did so up to 155 times an operation at 16 000
# points in some allocation patterns, never at 12 800)
_READ_POINTS = 12_800


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on the real line."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = as_float(self.lo, "lo")
        hi = as_float(self.hi, "hi")
        if lo > hi:
            raise InvalidInputError(f"empty interval: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self):
        return self.hi - self.lo

    def contains(self, x, margin):
        return bool(np.all((np.asarray(x) >= self.lo - margin)
                           & (np.asarray(x) <= self.hi + margin)))


def _bump_raw(u):
    """exp(-1/(1-u^2)) on (-1, 1), zero outside; vectorized."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    den = (1.0 - ui) * (1.0 + ui)
    out[inside] = np.exp(-1.0 / den)
    return out


@dataclass(frozen=True)
class BumpKernel:
    """Unit-mass bump supported on [-sigma, sigma]."""

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", as_positive_float(self.sigma, "sigma"))


def _tap_weights(u):
    """The bump sampled at ``u`` (offsets over sigma), normalized to unit sum."""
    w = _bump_raw(u)
    return w / w.sum()


def convolve_grid(values, kernel, step):
    """Convolve uniformly sampled values with the kernel (aligned taps).

    ``values`` sit on a grid of spacing ``step``; the kernel is sampled
    on the same grid, so the result is a weighted average of the given
    samples with nonnegative unit-sum weights.  Returns ``(out, m)``
    where ``out[i]`` approximates the convolution at grid index ``i + m``
    and ``m`` is the one-sided tap count ``floor(sigma/step)``.
    """
    v = np.ascontiguousarray(values, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError("values must be a 1-D array")
    h = as_positive_float(step, "step")
    m, w = _aligned_taps(kernel.sigma, h)
    if m < 8:
        raise InvalidInputError(
            f"step {h} too coarse for support {kernel.sigma}: "
            f"{m} taps per side, need >= 8")
    if v.size < 2 * m + 1:
        raise InvalidInputError("not enough samples for one kernel width")
    # out[t] = sum_j w_j values[t + m - j]
    out = np.convolve(v, w, mode="valid")
    return out, m


@lru_cache(maxsize=256)
def _aligned_taps(sigma, h):
    """The taps m = floor(sigma/h) a side and their weights on offsets
    j*h, j = -m..m, read-only.  Rounding makes m one less than sigma/h
    for some sigma; the dropped end taps, at u = +-1, weigh 0."""
    m = int(math.floor(sigma / h))
    w = _tap_weights(np.arange(-m, m + 1) * (h / sigma))
    w.setflags(write=False)
    return m, w


def _lattice_convolve(read, sigma, taps, k, q, hot):
    """The reads at the sorted lattice indices ``k`` and their
    convolutions at ``k[hot]``, ``hot`` a boolean mask of ``k``.

    The lattice is the points i*h/q, h = sigma/taps, and the taps of the
    rule sit on every q-th of them: with ``(m, w) = _aligned_taps(sigma,
    h)`` the convolution at index i is sum_j w_j g((i - j q) h/q).
    ``read(xs)`` returns a tuple of arrays, one entry per point of
    ``xs`` in each (a value and its slope, say), and must be pointwise:
    a point's entries may not depend on the rest of its batch.

    ``k`` is read in groups (``_lattice_groups``), one ``read`` of at
    most ``_READ_POINTS`` points a group: of the one index range that
    the group and the taps of its hot indices span, or of those taps and
    its cold indices alone, whichever is fewer points.  So neighbouring
    tap windows that overlap are read once within a group, windows far
    apart do not read the lattice between them, and a call whose read
    fits ``_READ_POINTS`` reads once.  The taps of the hot indices are
    rows of a read-only strided view of each output of ``read`` (a range
    read), or of its reshape (windows read one after another), dotted
    with ``w`` a block of at most ``_READ_POINTS`` taps at a time
    (``_group_convolve``), each row by the four-row kernel: an index's
    convolution has the same bytes in any group of any call.

    Returns ``(outs, convs)``: each output of ``read`` at ``k``, and its
    convolution at ``k[hot]``.
    """
    k = np.asarray(k, dtype=np.int64)
    hot = np.asarray(hot, dtype=bool)
    h = sigma / taps
    m, w = _aligned_taps(sigma, h)
    parts = [_group_convolve(read, h, q, w, k[a:b], hot[a:b])
             for a, b in _lattice_groups(k, hot, m * q, w.size)]
    if len(parts) == 1:
        return parts[0]
    outs, convs = zip(*parts)
    return (tuple(np.concatenate(v) for v in zip(*outs)),
            tuple(np.concatenate(c) for c in zip(*convs)))


def _lattice_groups(k, hot, reach, width):
    """The slices ``(a, b)`` of ``k`` that ``_lattice_convolve`` reads
    one at a time, in order (one empty slice when ``k`` is empty).

    A slice's read holds the fewer points of its range (its hot indices
    widened by ``reach``) and of its windows (``width`` a hot index, one
    a cold one).  Each slice is the longest whose read holds at most
    ``_READ_POINTS`` points, its range taken as wide as the hot indices
    before and after it reach (exact for the whole of ``k``), and holds
    at least one index.
    """
    n = k.size
    if n == 0:
        return [(0, 0)]
    at = np.flatnonzero(hot)
    lo, hi = k[0], k[-1]
    if at.size:
        lo, hi = min(lo, k[at[0]] - reach), max(hi, k[at[-1]] + reach)
    if min(hi - lo + 1, n + (width - 1) * at.size) <= _READ_POINTS:
        return [(0, n)]
    reach = np.where(hot, reach, 0)
    # the range of a slice (a, b) lies in [lows[a], highs[b - 1]]
    highs = np.maximum.accumulate(k + reach)
    lows = np.minimum.accumulate((k - reach)[::-1])[::-1]
    # windows[i]: the points of the windows and cold indices before k[i]
    windows = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(hot, width, 1), out=windows[1:])
    groups, a = [], 0
    while a < n:
        fit = max(np.searchsorted(highs, lows[a] + _READ_POINTS - 1,
                                  side="right"),
                  np.searchsorted(windows, windows[a] + _READ_POINTS,
                                  side="right") - 1)
        b = max(int(fit), a + 1)
        groups.append((a, b))
        a = b
    return groups


def _group_convolve(read, h, q, w, k, hot):
    """One read of ``_lattice_convolve``: ``read``'s outputs at the
    sorted indices ``k`` and their convolutions at ``k[hot]``.

    The hot rows are dotted with ``w`` in blocks of a multiple of four
    rows and at most ``_READ_POINTS`` taps, the last block padded to a
    multiple of four (``_four_row_sums``).
    """
    m = w.size // 2
    width = w.size
    khot, kcold = k[hot], k[~hot]
    # column c of a hot index's window holds the tap of weight w[c], at
    # offset (m - c) q
    ends = np.concatenate([k[:1], k[-1:], khot[:1] - m * q, khot[-1:] + m * q])
    lo, hi = (ends.min(), ends.max()) if ends.size else (0, -1)
    n = khot.size * width
    ranged = hi - lo + 1 <= n + kcold.size
    if ranged:
        idx = np.arange(lo, hi + 1, dtype=float)
        # row r of the read's strided view, taken backwards every q-th
        # point, is the window of index r + m q + lo
        rows = khot - m * q - lo
    else:
        # the windows row by row, then the cold indices; exact as floats
        idx = np.empty(n + kcold.size)
        offsets = (m - np.arange(width)) * q
        np.add(khot[:, None], offsets, out=idx[:n].reshape(-1, width))
        idx[n:] = kcold
    block = _READ_POINTS // width // 4 * 4
    idx *= h / q
    outs, convs = [], []
    for v in read(idx):
        v = np.asarray(v, dtype=float)
        conv = np.empty(khot.size)
        if ranged:
            at_k = v[k - lo]
            # a read with no hot index may be shorter than one window
            if khot.size:
                view = sliding_window_view(v, 2 * m * q + 1)[:, ::-q]
                for r in range(0, khot.size, block):
                    conv[r:r + block] = _four_row_sums(view[rows[r:r + block]], w)
        else:
            windows = v[:n].reshape(-1, width)
            for r in range(0, khot.size, block):
                conv[r:r + block] = _four_row_sums(windows[r:r + block], w)
            at_k = np.empty(k.size)
            at_k[hot] = windows[:, m]
            at_k[~hot] = v[n:]
        outs.append(at_k)
        convs.append(conv)
    return tuple(outs), tuple(convs)


def _four_row_sums(rows, w):
    """``rows @ w``, every row summed by the BLAS matrix-vector product's
    four-row kernel, so a row's sum does not depend on its block.  The
    product sums a remainder of one to three rows in another order (numpy
    hands a lone row to a dot product), so a partial four is summed
    padded with copies of its last row."""
    n = rows.shape[0]
    if n % 4:
        # a gather of rows is C-ordered, as the product must read it
        rows = rows[np.minimum(np.arange(n - n % 4 + 4), n - 1)]
    return (rows @ w)[:n]


def sup_deviation_ck(f, df, kernel, window, k):
    """Grid-measured deviation between ``f`` and its mollification.

    Computes max over the window of |smoothed - original|, including the
    first-derivative mismatch when ``k=1`` (which requires ``df``).  The
    window is read on the grid points i*sigma/50 it holds, at most
    ``_MAX_GRID`` of them, in spans of at most ``_READ_POINTS`` points
    (``_settled_deviation``).  Blocks of it are convolved with aligned
    taps on that spacing (``_grid_deviation``) in order of a bound on
    their deviation, and only the blocks whose bound reaches the largest
    deviation found so far are read again and convolved at all; the
    answer is the same, bit for bit, as convolving every sample.  The
    window plus one kernel support must lie inside the domain of ``f``;
    the caller guarantees that.

    Parameters
    ----------
    f, df : callables (df may be None when k=0)
        Vectorized and pointwise: an array of points in, the values at
        them out, each point's value independent of the rest of its
        batch.
    kernel : BumpKernel
    window : Interval
        Compact evaluation window of positive length holding at least
        one grid point.
    k : 0 or 1
        Highest derivative order compared.
    """
    if k not in (0, 1):
        raise InvalidInputError(f"k must be 0 or 1, got {k}")
    if k == 1 and df is None:
        raise InvalidInputError("k=1 comparison requires the slope callable df")
    if window.length <= 0:
        raise InvalidInputError("the deviation window must have positive length")
    h = kernel.sigma / _GRID_PER_SIGMA
    first, last = math.ceil(window.lo / h), math.floor(window.hi / h)
    if last < first:
        raise InvalidInputError(
            f"the window [{window.lo}, {window.hi}] holds no grid point "
            f"at spacing {h}")
    if last - first + 1 > _MAX_GRID:
        raise InvalidInputError("sigma resolves the window into too many points")

    def read(xs):
        fv = np.asarray(f(xs), dtype=float)
        return fv, (np.asarray(df(xs), dtype=float) if k == 1 else None)

    return _settled_deviation(read, kernel.sigma, _GRID_PER_SIGMA, first, last)


def _settled_deviation(read, sigma, taps, first, last):
    """``_grid_deviation`` on the whole grid, convolving only the blocks
    that can hold its maximum.

    ``read`` must be pointwise, and is called span by span: a whole
    number of ``_BLOCK`` blocks plus one kernel radius each side, at
    most ``_READ_POINTS`` points.  Each block gets an upper bound on its
    deviation from its span's read (``_block_bounds``); blocks are then
    read again and measured by ``_grid_deviation``, in order of highest
    bound first, until a bound falls to the largest deviation found.  A
    NaN read makes its span's bounds infinite, so a NaN deviation is
    measured before any block is settled and is the answer, as in one
    whole-grid maximum: the deviation is the whole-grid measurement's,
    bit for bit.
    """
    h = sigma / taps
    m, _ = _aligned_taps(sigma, h)
    n = last - first + 1
    span = max(1, (_READ_POINTS - 2 * m) // _BLOCK) * _BLOCK
    bounds = np.empty(-(-n // _BLOCK))
    for lo in range(0, n, span):
        hi = min(lo + span, n)
        values, slopes = read(
            np.arange(first + lo - m, first + hi + m, dtype=float) * h)
        own = bounds[lo // _BLOCK:-(-hi // _BLOCK)]
        own[:] = _block_bounds(values, sigma, h, hi - lo)
        if slopes is not None:
            np.maximum(own, _block_bounds(slopes, sigma, h, hi - lo), out=own)
    bounds[np.isnan(bounds)] = np.inf

    best = -math.inf
    for b in np.argsort(-bounds, kind="stable"):
        if bounds[b] <= best:
            break
        lo = first + int(b) * _BLOCK
        dev, _ = _grid_deviation(read, sigma, taps, lo,
                                 min(lo + _BLOCK - 1, last), 1.0)
        if math.isnan(dev):
            return dev
        best = max(best, dev)
    return best


def _block_bounds(v, sigma, h, n):
    """Upper bounds on the computed |v* - v| over each block of
    ``_BLOCK`` of the ``n`` outputs of ``convolve_grid(v)`` with the
    taps ``_aligned_taps(sigma, h)``, ``v`` one span's read.

    The 2m+1 weights are symmetric and nonnegative, so at a grid point
    v* - v = sum_{j>=1} w_j D2_{jh} v + (sum w - 1) v, and each D2_{jh} v
    is a sum of j^2 second differences D2_h v over the block's span of
    outputs plus one kernel radius.  With D the largest computed |D2_h v|
    over that span and V the largest |v| of ``v``, a block's deviation
    is at most C (D + 8uV) + (|sum w - 1| + (2m + 8)u) V, C = sum_{j>=1}
    w_j j^2: 8uV covers the rounding of D, (2m + 8)uV that of the
    convolution and the difference.  Returns the bounds with a relative
    margin 1e-9.
    """
    m, c, drift = _bound_terms(sigma, h)
    big = max(float(v.max()), -float(v.min()))
    d2 = np.subtract(v[1:], v[:-1])
    d2 = np.subtract(d2[1:], d2[:-1])
    np.abs(d2, out=d2)
    # d2[q] is centred on v[q + 1]; block b's span runs from its first
    # output's d2 index to 2m - 3 past its last, which the odd ends of
    # the reduction mark (the last block's runs to the end of d2)
    starts = np.arange(0, n, _BLOCK)
    ends = np.column_stack([starts, starts + _BLOCK + 2 * m - 2]).ravel()
    spans = np.maximum.reduceat(d2, ends[:-1])[::2]
    return (1.0 + 1e-9) * (c * (spans + 8.0 * _U * big) + drift * big)


@lru_cache(maxsize=256)
def _bound_terms(sigma, h):
    """``(m, C, |sum w - 1| + (2m + 8)u)`` of ``_block_bounds`` for the
    taps ``_aligned_taps(sigma, h)``."""
    m, w = _aligned_taps(sigma, h)
    j = np.arange(1, m + 1)
    return (m, float(np.dot(w[m + 1:], j * j)),
            abs(math.fsum(w) - 1.0) + (2 * m + 8) * _U)


def _grid_deviation(read, sigma, taps, first, last, scale):
    """One deviation measurement on the grid i*h, h = sigma/taps.

    The deviation is max(|f* - f|/scale, |f*' - f'|) over the indices
    ``first`` <= i <= ``last``, the slope term only when ``read(xs)``
    returns slopes: it returns ``(values, slopes)`` or ``(values,
    None)`` at the points ``xs``, which extend the indices by one kernel
    radius on both sides.

    Returns ``(deviation, payload)``, the payload ``(xs, d0, d1, kernel,
    mid)`` with the signed differences d0 = f* - f and d1 = f*' - f'
    (None without slopes) at ``xs[mid]``.  The differences are formed in
    place and each read is dropped once convolved, so a measurement
    holds at most three grid-sized arrays without slopes and five with
    them.
    """
    kernel = BumpKernel(sigma)
    h = sigma / taps
    m = int(math.floor(sigma / h))
    xs = np.arange(first - m, last + m + 1, dtype=float) * h
    mid = slice(m, xs.size - m)
    fv, dfv = read(xs)
    d0, _ = convolve_grid(fv, kernel, h)
    d0 -= fv[mid]
    del fv
    err = np.abs(d0)
    err /= scale
    d1 = None
    if dfv is not None:
        d1, _ = convolve_grid(dfv, kernel, h)
        d1 -= dfv[mid]
        del dfv
        np.maximum(err, np.abs(d1), out=err)
    return float(err.max()), (xs, d0, d1, kernel, mid)


@lru_cache(maxsize=None)
def _tap_moments(taps):
    """``(m1, m2)``: sum w_j |u_j| and sum w_j u_j^2 of the tap rule at
    ``taps`` taps a side, its weights w_j at the offsets u_j = j/taps
    of the radius."""
    m, w = _aligned_taps(1.0, 1.0 / taps)
    u = np.abs(np.arange(-m, m + 1)) * (1.0 / taps)
    return float(w @ u), float(w @ (u * u))


def _proven_radius(taps, budget, lip, lip_d, slope_budget):
    """The largest radius at which the tap rule at ``taps`` taps a side
    provably keeps |f* - f| <= ``budget`` and, unless ``slope_budget``
    is None, |f*' - f'| <= ``slope_budget``, shrunk by ``_PROOF_MARGIN``.

    ``lip`` bounds |f'| and ``lip_d`` the Lipschitz constant of f'
    (``math.inf`` for a kink) over the points read.  The value bound
    holds below the larger of budget/(lip m1) and sqrt(2 budget/(lip_d
    m2)), the slope bound below slope_budget/(lip_d m1); a zero constant
    proves every radius, ``math.inf`` none.
    """
    m1, m2 = _tap_moments(taps)

    def below(a, b):
        return a / b if b > 0.0 else math.inf

    sigma = max(below(budget, lip * m1),
                math.sqrt(below(2.0 * budget, lip_d * m2)))
    if slope_budget is not None:
        sigma = min(sigma, below(slope_budget, lip_d * m1))
    return sigma * (1.0 - _PROOF_MARGIN)


def find_support_radius(f, df, window, domain, target, k, *, sigma_max, lip,
                        lip_d):
    """The support radius the tap rule's moments prove for a deviation
    target, and the deviation read there.

    ``lip`` bounds |f'| and ``lip_d`` is the Lipschitz constant of
    ``df`` (``math.inf`` for a kink) over the window plus one kernel
    radius: facts about ``f``, which the proof takes as given.  The
    radius is the smallest of ``sigma_max``, the room that keeps the
    window plus the kernel inside ``domain``, and ``_proven_radius`` at
    50 taps: |f* - f| <= ``target``, and |f*' - f'| <= ``target`` when
    ``k=1``.  ``sup_deviation_ck`` then measures the window at that
    radius alone, as a witness of the proof; no other radius is tried.

    Returns
    -------
    (sigma, deviation)
        The proven radius and the deviation ``sup_deviation_ck`` read
        there.

    Raises
    ------
    InvalidInputError
        When the window has no room inside the domain, or ``k=1`` with an
        infinite ``lip_d``: a slope jump keeps |f*' - f'| at half the
        jump at every radius.
    ConvergenceError
        When the proven radius would resolve the window into more than
        ``_MAX_GRID`` points, before any read; or when the witness
        exceeds the target, which means the proof or its margin is
        wrong (or ``lip``, ``lip_d`` are).
    """
    t = as_positive_float(target, "target")
    if k == 1 and math.isinf(lip_d):
        raise InvalidInputError(
            "a slope jump (lip_d = inf) meets no k=1 target at any radius")
    room = min(window.lo - domain.lo, domain.hi - window.hi)
    if room <= 0:
        raise InvalidInputError("window touches the domain boundary; no kernel fits")
    sigma = min(room * (1.0 - 1e-12), as_positive_float(sigma_max, "sigma_max"),
                _proven_radius(_GRID_PER_SIGMA, t, lip, lip_d,
                               t if k == 1 else None))
    # two points under the cap, so rounding cannot push the grid over it
    if sigma < _GRID_PER_SIGMA * window.length / (_MAX_GRID - 2):
        raise ConvergenceError(
            f"support radius {sigma:.3e} for the target {t:.3e} resolves the "
            f"window into more than {_MAX_GRID} points")
    dev = sup_deviation_ck(f, df, BumpKernel(sigma), window, k=k)
    if not dev <= t:
        raise ConvergenceError(
            f"support radius {sigma:.3e}: witness deviation {dev:.3e} over "
            f"the target {t:.3e} the radius was proven for")
    return sigma, dev

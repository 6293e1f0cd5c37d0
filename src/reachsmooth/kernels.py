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
the taps of chosen lattice indices, in one read, and takes each index's
taps as a row of a strided view of that read (the live blends of
``smoothing.BlendedMap`` and the convolution checker).

Derivatives of a convolution are convolutions of the slope: every
caller knows the slope of what it smooths, so the slope is convolved
with the same weights as the values.  A function that returns value and
slope together is convolved in one pass, one evaluation on the taps
serving both.

A support radius sigma is chosen by one halving search
(``_halving_search``) behind one measurement (``_grid_deviation``): the
largest deviation between a function and its mollification on the
origin-aligned grid i*sigma/taps of a window.  ``sup_deviation_ck`` and
``find_support_radius`` read it at 50 taps, ``smoothing.smooth_patch``
at 16.  A whole-grid read of the first two reads the function once and
convolves only the blocks of ``_BLOCK`` points whose second-difference
bound reaches the largest deviation found so far
(``_settled_deviation``); its answer is the one-pass measurement's, bit
for bit.

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

# window samples per kernel radius, and the most samples one
# ``sup_deviation_ck`` measurement may take
_GRID_PER_SIGMA = 50
_MAX_GRID = 4_000_000
# a halving search probes a radius on the grid points within this many
# steps of the previous radius's worst point, and settles it as failing
# when the probe exceeds the target by more than this relative margin
_PROBE_HALF = 256
_PROBE_MARGIN = 1e-6
# a whole-grid measurement bounds the deviation on blocks of this many
# window points and convolves only the blocks whose bound reaches the
# largest deviation found so far; _U is the unit roundoff
_BLOCK = 4096
_U = 2.0 ** -53


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
    ``xs`` in each (a value and its slope, say), and is called once: on
    the one index range that ``k`` and the taps of its hot indices span,
    or on those taps and the cold indices alone, whichever is fewer
    points.  So neighbouring tap windows that overlap are read once, and
    windows far apart do not read the lattice between them.  The taps of
    the hot indices are rows of a read-only strided view of each output
    of ``read`` (a range read), or its reshape (windows read one after
    another), taken as one ``(hot.sum(), 2m + 1)`` array and dotted with
    ``w``.

    Returns ``(outs, convs)``: each output of ``read`` at ``k``, and its
    convolution at ``k[hot]``.
    """
    k = np.asarray(k, dtype=np.int64)
    h = sigma / taps
    m, w = _aligned_taps(sigma, h)
    khot, kcold = k[hot], k[~hot]
    # column c of a hot index's window holds the tap of weight w[c], at
    # offset (m - c) q
    width = 2 * m + 1
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
    outs, convs = [], []
    for v in read(idx * (h / q)):
        v = np.asarray(v, dtype=float)
        if ranged:
            at_k = v[k - lo]
            if khot.size:
                windows = sliding_window_view(v, 2 * m * q + 1)[:, ::-q][rows]
            else:
                # a read with no hot index may be shorter than one window
                windows = np.empty((0, width))
        else:
            windows = v[:n].reshape(-1, width)
            at_k = np.empty(k.size)
            at_k[hot] = windows[:, m]
            at_k[~hot] = v[n:]
        outs.append(at_k)
        convs.append(windows @ w)
    return tuple(outs), tuple(convs)


def sup_deviation_ck(f, df, kernel, window, k):
    """Grid-measured deviation between ``f`` and its mollification.

    Computes max over the window of |smoothed - original|, including the
    first-derivative mismatch when ``k=1`` (which requires ``df``).  The
    window is read on the grid points i*sigma/50 it holds, in at most
    ``_MAX_GRID`` points, once.  Blocks of it are convolved with aligned
    taps on that spacing (``_grid_deviation``) in order of a bound on
    their deviation, and only the blocks whose bound reaches the largest
    deviation found so far are convolved at all; the answer is the same,
    bit for bit, as convolving every sample.  The window plus one kernel
    support must lie inside the domain of ``f``; the caller guarantees
    that.

    Parameters
    ----------
    f, df : callables (df may be None when k=0)
        Vectorized: an array of points in, the values at them out.
    kernel : BumpKernel
    window : Interval
        Compact evaluation window of positive length holding at least
        one grid point.
    k : 0 or 1
        Highest derivative order compared.

    Returns
    -------
    (deviation, worst)
        The deviation and the grid point where it is attained, for a
        search to look there first next time.
    """
    if k not in (0, 1):
        raise InvalidInputError(f"k must be 0 or 1, got {k}")
    if k == 1 and df is None:
        raise InvalidInputError("k=1 comparison requires the slope callable df")
    if window.length <= 0:
        raise InvalidInputError("the deviation window must have positive length")
    dev, _, worst = _window_deviation(f, df, kernel.sigma, window, k, None)
    return dev, worst


def _window_deviation(f, df, sigma, window, k, near):
    """``_grid_deviation`` of ``f`` (and ``df`` when ``k=1``) on the grid
    points i*sigma/50 of ``window``, at scale 1.

    A probe (``near`` set) is ``_grid_deviation``'s own, payload and
    all.  The whole grid is settled block by block
    (``_settled_deviation``): the same deviation and worst point, bit for
    bit, with no payload.
    """
    h = sigma / _GRID_PER_SIGMA
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

    if near is not None:
        return _grid_deviation(read, sigma, _GRID_PER_SIGMA, first, last,
                               near, 1.0)
    return _settled_deviation(read, sigma, _GRID_PER_SIGMA, first, last)


def _settled_deviation(read, sigma, taps, first, last):
    """``_grid_deviation`` on the whole grid, convolving only the blocks
    that can hold its maximum.

    ``read`` is called once, on the whole grid.  Each block of
    ``_BLOCK`` indices gets an upper bound on its deviation
    (``_block_bounds``); blocks are measured by ``_grid_deviation``,
    their reads served by slices of the one read, in order of highest
    bound first, until a bound falls strictly below the largest
    deviation found.  On a tie the lower grid index wins, as it does in
    one whole-grid ``np.argmax``, so ``(deviation, None, worst)`` is the
    whole-grid measurement's, bit for bit.
    """
    h = sigma / taps
    m, w = _aligned_taps(sigma, h)
    xs = np.arange(first - m, last + m + 1, dtype=float) * h
    values, slopes = read(xs)
    del xs
    n = last - first + 1
    bounds = _block_bounds(values, w, n)
    if slopes is not None:
        np.maximum(bounds, _block_bounds(slopes, w, n), out=bounds)
    # a non-finite read leaves no bound, so every block is measured
    bounds[np.isnan(bounds)] = np.inf

    def block_read(lo):
        return lambda xs: tuple(None if r is None else r[lo:lo + xs.size]
                                for r in (values, slopes))

    best = None  # (rank, deviation, worst); the largest rank wins
    for b in np.argsort(-bounds, kind="stable"):
        if best is not None and bounds[b] < best[1]:
            break
        lo = int(b) * _BLOCK
        dev, _, worst = _grid_deviation(block_read(lo), sigma, taps, first + lo,
                                        min(first + lo + _BLOCK - 1, last),
                                        None, 1.0)
        # np.argmax order: a NaN first, then the larger, then the lower index
        nan = math.isnan(dev)
        rank = (nan, 0.0 if nan else dev, -int(b))
        if best is None or rank > best[0]:
            best = (rank, dev, worst)
    return best[1], None, best[2]


def _block_bounds(v, w, n):
    """Upper bounds on the computed |v* - v| over each block of
    ``_BLOCK`` of the ``n`` outputs of ``convolve_grid(v)``.

    The 2m+1 weights are symmetric and nonnegative, so at a grid point
    v* - v = sum_{j>=1} w_j D2_{jh} v + (sum w - 1) v, and each D2_{jh} v
    is a sum of j^2 second differences D2_h v over the block's span of
    outputs plus one kernel radius.  With D the largest computed |D2_h v|
    over that span and V the largest |v| read, a block's deviation is at
    most C (D + 8uV) + (|sum w - 1| + (2m + 8)u) V, C = sum_{j>=1} w_j
    j^2: 8uV covers the rounding of D, (2m + 8)uV that of the convolution
    and the difference.  Returns the bounds with a relative margin 1e-9.
    """
    m = w.size // 2
    j = np.arange(1, m + 1)
    c = float(np.dot(w[m + 1:], j * j))
    drift = abs(math.fsum(w) - 1.0) + (2 * m + 8) * _U
    big = max(float(v.max()), -float(v.min()))
    d2 = np.diff(v)
    d2 = np.subtract(d2[1:], d2[:-1])
    np.abs(d2, out=d2)
    # d2[q] is centred on v[q + 1]; block b's span runs from its first
    # output's d2 index to 2m - 3 past its last
    starts = np.arange(0, n, _BLOCK)
    spans = np.maximum.reduceat(d2, starts)
    heads = sliding_window_view(d2, 2 * m - 2)[starts[1:]].max(axis=1)
    np.maximum(spans[:-1], heads, out=spans[:-1])
    return (1.0 + 1e-9) * (c * (spans + 8.0 * _U * big) + drift * big)


def _grid_deviation(read, sigma, taps, first, last, near, scale):
    """One deviation measurement on the grid i*h, h = sigma/taps.

    The deviation is max(|f* - f|/scale, |f*' - f'|) over the indices
    ``first`` <= i <= ``last``, the slope term only when ``read(xs)``
    returns slopes: it returns ``(values, slopes)`` or ``(values,
    None)`` at the points ``xs``, which extend the indices by one kernel
    radius on both sides.  With ``near`` set, only the indices within
    ``_PROBE_HALF`` of the one nearest ``near`` are read: a contiguous
    slice of the whole read, bit for bit.

    Returns ``(deviation, payload, worst)`` as ``_halving_search`` reads
    it: ``worst`` is the grid point of the deviation, and the payload is
    ``(xs, d0, d1, kernel, mid)``, with the signed differences d0 = f* -
    f and d1 = f*' - f' (None without slopes) at ``xs[mid]``.  The
    differences are formed in place and each read is dropped once
    convolved, so a measurement holds at most three grid-sized arrays
    without slopes and five with them.
    """
    kernel = BumpKernel(sigma)
    h = sigma / taps
    m = int(math.floor(sigma / h))
    if near is not None:
        c = min(max(round(near / h), first), last)
        first, last = max(c - _PROBE_HALF, first), min(c + _PROBE_HALF, last)
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
    j = int(np.argmax(err))
    return float(err[j]), (xs, d0, d1, kernel, mid), float(xs[m + j])


def _halving_search(measure, start, target, floor, what):
    """Halve a support radius from ``start`` until its deviation passes.

    ``measure(sigma, near)`` returns ``(deviation, payload, worst)``:
    with ``near=None`` it measures the whole grid, otherwise only the
    grid points near ``near``, a probe that can show a radius fails but
    never that it passes.  ``worst`` is where the deviation was found.
    Each radius after the first is probed at the previous radius's worst
    point; a probe above ``target * (1 + _PROBE_MARGIN)`` settles the
    radius as failing (the margin covers rounding between a probe and
    the whole grid), and any other radius is measured in full.  So only
    radii the probe cannot reject pay for the whole grid, and the
    accepted radius always does.

    Returns ``(sigma, halvings, deviation, payload)`` of the first radius
    whose whole-grid deviation is at most ``target``, exactly as a loop
    that measures every radius in full would.

    Raises
    ------
    ConvergenceError
        When the radius falls below ``floor`` without meeting the target;
        ``what`` names the search in the message, which gives the last
        deviation as "at least" when a probe settled it.
    """
    sigma = start
    halvings = 0
    near = None
    while True:
        settled = False
        if near is not None:
            dev, _, near = measure(sigma, near)
            settled = dev > target * (1.0 + _PROBE_MARGIN)
        if not settled:
            dev, payload, near = measure(sigma, None)
            if dev <= target:
                return sigma, halvings, dev, payload
        sigma *= 0.5
        halvings += 1
        if sigma < floor:
            least = "at least " if settled else ""
            raise ConvergenceError(
                f"{what}: deviation {least}{dev:.3e} still above the target "
                f"{target:.3e} after {halvings - 1} halvings (radius floor "
                f"{floor:.3e})")


def find_support_radius(f, df, window, domain, target, k, *, sigma_max):
    """Largest halving-search support radius meeting a deviation target.

    The search is always capped: it starts from the smaller of
    ``sigma_max`` and the largest radius that keeps the window inside
    the shrunk domain, and halves the radius until the grid-measured
    deviation drops to ``target``.  The first passing radius is
    returned, so the result is within a factor two of the largest
    passing power-of-two fraction of the start.
    Radii after the first are probed near the previous radius's worst
    point first (see ``_halving_search``), so ``sup_deviation_ck`` reads
    the whole grid only for the start, the accepted radius and any
    radius a probe cannot reject, and of that read it convolves only the
    blocks whose bound reaches the largest deviation found so far.

    Returns
    -------
    (sigma, deviation)
        The passing radius and the deviation ``sup_deviation_ck``
        measured for it on the whole grid.

    Raises
    ------
    ConvergenceError
        When the radius falls below the smallest one whose grid fits
        ``_MAX_GRID`` without meeting the target (e.g. a kink under k=1
        semantics: the mollified slope never settles).
    InvalidInputError
        When the window has no room inside the domain at all.
    """
    t = as_positive_float(target, "target")
    room = min(window.lo - domain.lo, domain.hi - window.hi)
    if room <= 0:
        raise InvalidInputError("window touches the domain boundary; no kernel fits")
    sigma = min(room * (1.0 - 1e-12), as_positive_float(sigma_max, "sigma_max"))

    def measure(s, near):
        if near is None:
            dev, worst = sup_deviation_ck(f, df, BumpKernel(s), window, k=k)
        else:
            dev, _, worst = _window_deviation(f, df, s, window, k, near)
        return dev, None, worst

    # two points under the cap, so rounding cannot push the grid over it
    floor = _GRID_PER_SIGMA * window.length / (_MAX_GRID - 2)
    sigma, _, dev, _ = _halving_search(measure, sigma, t, floor,
                                       "support radius search")
    return sigma, dev

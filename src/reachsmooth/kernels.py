"""Compactly supported smoothing kernel and convolution machinery.

The kernel family is fixed: the classic bump ``exp(-1/(1 - (x/sigma)^2))``
scaled to unit mass on [-sigma, sigma].  Convolution is one discrete-tap
rule: the bump sampled at uniform offsets and normalized to unit sum.
The weights are nonnegative and sum to one, so convolving sampled values
can never increase a Lipschitz constant, which is exactly the property
the verification suite stresses.  ``convolve`` applies the rule at
arbitrary points, ``convolve_grid`` to values already sampled on a grid
of the tap spacing.

Derivatives of a convolution are convolutions of the slope: every
caller knows the slope of what it smooths, so the slope is convolved
with the same weights as the values.  A function that returns value and
slope together is convolved in one pass, one evaluation on the taps
serving both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import as_float, as_positive_float
from .errors import ConvergenceError, InvalidInputError

__all__ = [
    "Interval",
    "BumpKernel",
    "convolve",
    "convolve_grid",
    "sup_deviation_ck",
    "find_support_radius",
]

# 8-point Gauss-Legendre nodes/weights on [0, 1]
_GL_X = 0.5 * (1.0 + np.array([
    -0.9602898564975362, -0.7966664774136267, -0.5255324099163290,
    -0.1834346424956498, 0.1834346424956498, 0.5255324099163290,
    0.7966664774136267, 0.9602898564975362]))
_GL_W = 0.5 * np.array([
    0.1012285362903763, 0.2223810344533745, 0.3137066458778873,
    0.3626837833783620, 0.3626837833783620, 0.3137066458778873,
    0.2223810344533745, 0.1012285362903763])
# 4-point Gauss-Legendre nodes/weights on [-1, 1]
_GL4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                   0.3399810435848563, 0.8611363115940526])
_GL4_W = np.array([0.3478548451374538, 0.6521451548625461,
                   0.6521451548625461, 0.3478548451374538])


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

    def tap_scheme(self, taps=64):
        """Discrete weights for convolution on offsets j*sigma/taps.

        Returns (offsets, weights); offsets are in x units.  The weights
        are nonnegative with exact unit sum and symmetric, so affine
        functions convolve to themselves without quadrature error.
        """
        return _tap_scheme(self.sigma, int(taps))


def _tap_weights(u):
    """The bump sampled at ``u`` (offsets over sigma), normalized to unit sum."""
    w = _bump_raw(u)
    return w / w.sum()


@lru_cache(maxsize=256)
def _tap_scheme(sigma, m):
    if m < 4:
        raise InvalidInputError(f"at least 4 taps per side required, got {m}")
    u = np.arange(-m, m + 1) / float(m)
    y = u * sigma
    w = _tap_weights(u)
    y.setflags(write=False)
    w.setflags(write=False)
    return y, w


def convolve(f, kernel, x, taps=64):
    """Convolution of ``f`` with the kernel at the points ``x``.

    Parameters
    ----------
    f : callable
        Accepts float arrays, returns values elementwise, or a tuple of
        such outputs (a value and its slope, say).  A tuple is convolved
        output by output with the same weights and the same chunks, so
        one evaluation of ``f`` on the tap grid serves every output, and
        a tuple of results comes back.  Every point within
        ``kernel.sigma`` of some x must be in its domain.  ``f`` is
        called at least once, on an empty batch when ``x`` is empty.
    kernel : BumpKernel
    x : float or array_like
        A scalar gives a float back, an array an array of its shape.
    taps : int
        Taps per side of the discrete rule.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    y, w = kernel.tap_scheme(taps)
    outs = None
    chunk = max(1, int(2e6) // y.size)
    for lo in range(0, max(xs.size, 1), chunk):
        part = xs[lo:lo + chunk]
        vals = f(part[:, None] - y[None, :])
        many = isinstance(vals, tuple)
        if not many:
            vals = (vals,)
        if outs is None:
            outs = [np.empty(xs.shape) for _ in vals]
        for out, v in zip(outs, vals):
            out[lo:lo + chunk] = np.asarray(v, dtype=float) @ w
    if scalar:
        outs = [float(out[0]) for out in outs]
    return tuple(outs) if many else outs[0]


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
    m = int(math.floor(kernel.sigma / h))
    if m < 8:
        raise InvalidInputError(
            f"step {h} too coarse for support {kernel.sigma}: "
            f"{m} taps per side, need >= 8")
    if v.size < 2 * m + 1:
        raise InvalidInputError("not enough samples for one kernel width")
    j = np.arange(-m, m + 1)
    w = _tap_weights(j * (h / kernel.sigma))
    # out[t] = sum_j w_j values[t + m - j]
    out = np.convolve(v, w, mode="valid")
    return out, m


def sup_deviation_ck(f, df, kernel, window, k=1):
    """Grid-measured deviation between ``f`` and its mollification.

    Computes max over the window of |smoothed - original|, including the
    first-derivative mismatch when ``k=1`` (which requires ``df``).  The
    window is sampled at spacing at most sigma/50 and every sample is
    convolved with aligned taps on that spacing.  The window plus one
    kernel support must lie inside the domain of ``f``; the caller
    guarantees that.

    Parameters
    ----------
    f, df : callables (df may be None when k=0)
        Vectorized: an array of points in, the values at them out.
    kernel : BumpKernel
    window : Interval
        Compact evaluation window of positive length.
    k : 0 or 1
        Highest derivative order compared.

    Returns
    -------
    float
    """
    if k not in (0, 1):
        raise InvalidInputError(f"k must be 0 or 1, got {k}")
    if k == 1 and df is None:
        raise InvalidInputError("k=1 comparison requires the slope callable df")
    if window.length <= 0:
        raise InvalidInputError("the deviation window must have positive length")
    s = kernel.sigma
    h = s / 50.0
    n = max(201, int(math.ceil(window.length / h)) + 1)
    if n > 4_000_000:
        raise InvalidInputError("sigma resolves the window into too many points")
    xs = np.linspace(window.lo, window.hi, n)
    # one extended sample serves every x
    hh = xs[1] - xs[0]
    m = int(math.floor(s / hh))
    ext = np.concatenate([
        window.lo + np.arange(-m, 0) * hh,
        xs,
        window.hi + np.arange(1, m + 1) * hh,
    ])
    fv = np.asarray(f(ext), dtype=float)
    conv0, _ = convolve_grid(fv, kernel, hh)
    dev = np.abs(conv0 - fv[m:m + n]).max()
    if k == 1:
        dfv = np.asarray(df(ext), dtype=float)
        conv1, _ = convolve_grid(dfv, kernel, hh)
        dev = max(dev, np.abs(conv1 - dfv[m:m + n]).max())
    return float(dev)


def _halving_search(measure, start, target, floor, what):
    """Halve a support radius from ``start`` until its deviation passes.

    ``measure(sigma)`` returns ``(deviation, payload)``.  Returns
    ``(sigma, halvings, deviation, payload)`` of the first radius whose
    deviation is at most ``target``.

    Raises
    ------
    ConvergenceError
        When the radius falls below ``floor`` without meeting the target;
        ``what`` names the search in the message.
    """
    sigma = start
    halvings = 0
    while True:
        dev, payload = measure(sigma)
        if dev <= target:
            return sigma, halvings, dev, payload
        sigma *= 0.5
        halvings += 1
        if sigma < floor:
            raise ConvergenceError(
                f"{what}: deviation {dev:.3e} still above the target "
                f"{target:.3e} after {halvings - 1} halvings (radius floor "
                f"{floor:.3e})")


def find_support_radius(f, df, window, domain, target, k=1, *,
                        sigma_max=None, min_shrink=1e-9):
    """Largest halving-search support radius meeting a deviation target.

    Starting from the largest radius that keeps the window inside the
    shrunk domain (optionally capped by ``sigma_max``), the radius is
    halved until the grid-measured deviation drops to ``target``.  The
    first passing radius is returned, so the result is within a factor
    two of the largest passing power-of-two fraction of the start.

    Returns
    -------
    (sigma, deviation)
        The passing radius and the deviation ``sup_deviation_ck``
        measured for it.

    Raises
    ------
    ConvergenceError
        When the radius falls below ``min_shrink`` times the start
        without meeting the target (e.g. a kink under k=1 semantics:
        the mollified slope never settles).
    InvalidInputError
        When the window has no room inside the domain at all.
    """
    t = as_positive_float(target, "target")
    room = min(window.lo - domain.lo, domain.hi - window.hi)
    if room <= 0:
        raise InvalidInputError("window touches the domain boundary; no kernel fits")
    sigma = room * (1.0 - 1e-12)
    if sigma_max is not None:
        sigma = min(sigma, as_positive_float(sigma_max, "sigma_max"))

    def measure(s):
        return sup_deviation_ck(f, df, BumpKernel(s), window, k=k), None

    sigma, _, dev, _ = _halving_search(measure, sigma, t, sigma * min_shrink,
                                       "support radius search")
    return sigma, dev

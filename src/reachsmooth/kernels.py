"""Compactly supported smoothing kernels and convolution machinery.

The kernel family is fixed: the classic bump ``exp(-1/(1 - (x/sigma)^2))``
scaled to unit mass on [-sigma, sigma].  Two quadrature routes coexist:

* an adaptive Simpson rule (tolerance 1e-10) used for scalar spot values
  and as the slow reference, and
* a normalized discrete-tap rule on uniform grids.  Its weights are
  nonnegative and sum to one, so convolving sampled values can never
  increase a Lipschitz constant, which is exactly the property the
  verification suite stresses.

Derivatives of a convolution are taken through the kernel when only the
function is known, and through the function when its slope is also
available; both routes are exposed and their agreement is part of the
test surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import as_float, as_positive_float
from .errors import ConvergenceError, DomainError, InvalidInputError

__all__ = [
    "Interval",
    "shrink_domain",
    "BumpKernel",
    "bump_normalizer",
    "adaptive_simpson",
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

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, x, margin=0.0):
        return bool(np.all((np.asarray(x) >= self.lo - margin)
                           & (np.asarray(x) <= self.hi + margin)))


def shrink_domain(domain, sigma):
    """Pull the boundary of an interval inward by ``sigma``.

    Returns the shrunk interval, or None when nothing is left.  Points of
    the shrunk interval keep a full kernel support inside ``domain``.
    """
    s = as_float(sigma, "sigma")
    if s < 0:
        raise InvalidInputError(f"sigma must be >= 0, got {s}")
    if domain.lo + s > domain.hi - s:
        return None
    return Interval(domain.lo + s, domain.hi - s)


def _bump_raw(u):
    """exp(-1/(1-u^2)) on (-1, 1), zero outside; vectorized."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    den = (1.0 - ui) * (1.0 + ui)
    out[inside] = np.exp(-1.0 / den)
    return out


def _bump_raw_d(u):
    """Derivative of the raw bump; vectorized."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    den = (1.0 - ui) * (1.0 + ui)
    out[inside] = np.exp(-1.0 / den) * (-2.0 * ui) / (den * den)
    return out


@lru_cache(maxsize=1)
def bump_normalizer():
    """Integral of the raw bump over its support, to near machine precision."""
    half = adaptive_simpson(lambda u: float(_bump_raw(u)), 0.0, 1.0, tol=1e-15)
    return 2.0 * half


@dataclass(frozen=True)
class BumpKernel:
    """Unit-mass bump supported on [-sigma, sigma]."""

    sigma: float
    dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sigma", as_positive_float(self.sigma, "sigma"))
        if self.dim != 1:
            raise InvalidInputError("only graph dimension 1 is implemented")

    def __call__(self, x):
        u = np.asarray(x, dtype=float) / self.sigma
        v = _bump_raw(u) / (self.sigma * bump_normalizer())
        return v if v.shape else float(v)

    def derivative(self, x):
        u = np.asarray(x, dtype=float) / self.sigma
        v = _bump_raw_d(u) / (self.sigma * self.sigma * bump_normalizer())
        return v if v.shape else float(v)

    def tap_scheme(self, order, taps=64):
        """Discrete weights for convolution on offsets j*sigma/taps.

        Returns (offsets, weights); offsets are in x units.  Order 0
        weights are nonnegative with exact unit sum; order 1 weights are
        antisymmetric with first moment exactly -1, so affine functions
        convolve to themselves / their slope without quadrature error.
        """
        return _tap_scheme(self.sigma, int(order), int(taps))


def _tap_weights(u, y, order):
    """Tap weights on the symmetric offsets ``y`` (``u = y / sigma``).

    Order 0 is the bump sampled at ``u``, normalized to unit sum.  Order
    1 is the bump's derivative, antisymmetrized and scaled so that the
    first moment against ``y`` is exactly -1.
    """
    if order == 0:
        w = _bump_raw(u)
        return w / w.sum()
    if order != 1:
        raise InvalidInputError(f"order must be 0 or 1, got {order}")
    w = _bump_raw_d(u)
    w = 0.5 * (w - w[::-1])
    scale = -float(np.dot(w, y))
    if scale <= 0:
        raise InvalidInputError("degenerate derivative tap scheme")
    return w / scale


@lru_cache(maxsize=256)
def _tap_scheme(sigma, order, m):
    if order not in (0, 1):
        raise InvalidInputError(f"order must be 0 or 1, got {order}")
    if m < 4:
        raise InvalidInputError(f"at least 4 taps per side required, got {m}")
    u = np.arange(-m, m + 1) / float(m)
    y = u * sigma
    w = _tap_weights(u, y, order)
    y.setflags(write=False)
    w.setflags(write=False)
    return y, w


def adaptive_simpson(g, a, b, tol=1e-10, max_depth=48):
    """Adaptive Simpson quadrature with Richardson correction.

    Splitting stops once the local correction is below the (halved per
    split) tolerance or at ``max_depth`` subdivisions.
    """
    a = as_float(a, "a")
    b = as_float(b, "b")
    if b < a:
        return -adaptive_simpson(g, b, a, tol=tol, max_depth=max_depth)
    if a == b:
        return 0.0
    fa, fm, fb = float(g(a)), float(g(0.5 * (a + b))), float(g(b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = [(a, b, fa, fm, fb, whole, tol, 0)]
    total = 0.0
    while stack:
        a0, b0, fa0, fm0, fb0, whole0, tol0, depth = stack.pop()
        mid = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + mid)
        rm = 0.5 * (mid + b0)
        flm, frm = float(g(lm)), float(g(rm))
        left = (mid - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        right = (b0 - mid) / 6.0 * (fm0 + 4.0 * frm + fb0)
        err = left + right - whole0
        if depth >= max_depth or abs(err) <= 15.0 * tol0:
            total += left + right + err / 15.0
        else:
            half_tol = 0.5 * tol0
            stack.append((a0, mid, fa0, flm, fm0, left, half_tol, depth + 1))
            stack.append((mid, b0, fm0, frm, fb0, right, half_tol, depth + 1))
    return total


def _convolve_adaptive(f, kernel, x, order, tol):
    s = kernel.sigma
    if order == 0:
        def g(y):
            return kernel(y) * float(f(x - y))
    else:
        def g(y):
            return kernel.derivative(y) * float(f(x - y))
    # split at 0: the derivative kernel changes sign there
    return (adaptive_simpson(g, -s, 0.0, tol=tol)
            + adaptive_simpson(g, 0.0, s, tol=tol))


def _convolve_taps(f, kernel, xs, order, taps):
    y, w = kernel.tap_scheme(order, taps)
    out = np.empty(xs.shape)
    chunk = max(1, int(2e6) // y.size)
    for lo in range(0, xs.size, chunk):
        part = xs[lo:lo + chunk]
        vals = np.asarray(f(part[:, None] - y[None, :]), dtype=float)
        out[lo:lo + chunk] = vals @ w
    return out


def convolve(f, kernel, x, order=0, *, method="auto", domain=None,
             taps=64, tol=1e-10):
    """Convolution of ``f`` with the kernel, or its derivative, at ``x``.

    Parameters
    ----------
    f : callable
        Accepts float arrays, returns values elementwise.
    kernel : BumpKernel
    x : float or array_like
    order : 0 or 1
        0 evaluates (kernel * f)(x); 1 evaluates its derivative, taken
        through the kernel so no slope of ``f`` is needed.
    method : {"auto", "adaptive", "taps"}
        "auto" picks adaptive quadrature for scalars and the tap rule
        for arrays.
    domain : Interval, optional
        When given, every x must lie in the sigma-shrunk domain.
    taps : int
        Taps per side for the discrete rule.
    tol : float
        Local tolerance for the adaptive rule.

    Raises
    ------
    DomainError
        If ``domain`` is given and some x is outside its shrinkage.
    """
    if order not in (0, 1):
        raise InvalidInputError(f"order must be 0 or 1, got {order}")
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if domain is not None:
        inner = shrink_domain(domain, kernel.sigma)
        if inner is None or not inner.contains(xs, margin=1e-12 * max(1.0, abs(kernel.sigma))):
            raise DomainError(
                f"evaluation points leave the sigma-shrunk domain "
                f"(sigma={kernel.sigma}, domain=[{domain.lo}, {domain.hi}])")
    if method == "auto":
        method = "adaptive" if scalar else "taps"
    if method == "adaptive":
        out = np.array([_convolve_adaptive(f, kernel, float(v), order, tol)
                        for v in xs])
    elif method == "taps":
        out = _convolve_taps(f, kernel, xs, order, taps)
    else:
        raise InvalidInputError(f"unknown method {method!r}")
    return float(out[0]) if scalar else out


def convolve_grid(values, kernel, step, order=0):
    """Convolve uniformly sampled values with the kernel (aligned taps).

    ``values`` sit on a grid of spacing ``step``; the kernel is sampled
    on the same grid, so the result is a weighted average of the given
    samples (order 0: nonnegative unit-sum weights, order 1: exact-moment
    derivative weights).  Returns ``(out, m)`` where ``out[i]``
    approximates the convolution at grid index ``i + m`` and ``m`` is the
    one-sided tap count ``floor(sigma/step)``.
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
    w = _tap_weights(j * (h / kernel.sigma), j * h, order)
    # out[t] = sum_j w_j values[t + m - j]
    out = np.convolve(v, w, mode="valid")
    return out, m


def _is_vector_output(f, probe):
    try:
        val = np.asarray(f(probe))
    except Exception:
        return False
    return val.shape == probe.shape


def _eval_on(f, xs):
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.array([float(f(float(t))) for t in xs])
    return vals


def sup_deviation_ck(f, df, kernel, window, k=1, grid_step=None):
    """Grid-measured deviation between ``f`` and its mollification.

    Computes max over the window of |smoothed - original|, including the
    first-derivative mismatch when ``k=1`` (which requires ``df``).
    The window plus one kernel support must lie inside the domain of
    ``f``; the caller guarantees that.

    Parameters
    ----------
    f, df : callables (df may be None when k=0)
    kernel : BumpKernel
    window : Interval
        Compact evaluation window.
    k : 0 or 1
        Highest derivative order compared.
    grid_step : float, optional
        Evaluation spacing; defaults to sigma/50.

    Returns
    -------
    float
    """
    if k not in (0, 1):
        raise InvalidInputError(f"k must be 0 or 1, got {k}")
    if k == 1 and df is None:
        raise InvalidInputError("k=1 comparison requires the slope callable df")
    s = kernel.sigma
    h = as_positive_float(grid_step, "grid_step") if grid_step is not None else s / 50.0
    if window.length <= 0:
        xs = np.array([window.mid])
        dev = _pointwise_deviation(f, df, kernel, xs, k)
        return float(dev)
    n = max(201, int(math.ceil(window.length / h)) + 1)
    if n > 4_000_000:
        raise InvalidInputError("grid_step resolves the window into too many points")
    xs = np.linspace(window.lo, window.hi, n)
    if s / h >= 16.0:
        # aligned fast path: one extended sample serves every x
        hh = xs[1] - xs[0] if n > 1 else h
        m = int(math.floor(s / hh))
        ext = np.concatenate([
            window.lo + np.arange(-m, 0) * hh,
            xs,
            window.hi + np.arange(1, m + 1) * hh,
        ])
        fv = _eval_on(f, ext)
        conv0, _ = convolve_grid(fv, kernel, hh, order=0)
        dev = np.abs(conv0 - fv[m:m + n]).max()
        if k == 1:
            dfv = _eval_on(df, ext)
            conv1, _ = convolve_grid(dfv, kernel, hh, order=0)
            dev = max(dev, np.abs(conv1 - dfv[m:m + n]).max())
    else:
        dev = _pointwise_deviation(f, df, kernel, xs, k)
    return float(dev)


def _pointwise_deviation(f, df, kernel, xs, k):
    conv0 = _convolve_taps(f, kernel, xs, 0, 64)
    dev = np.abs(conv0 - _eval_on(f, xs)).max()
    if k == 1:
        conv1 = _convolve_taps(df, kernel, xs, 0, 64)
        dev = max(dev, np.abs(conv1 - _eval_on(df, xs)).max())
    return dev


def find_support_radius(f, df, window, domain, target, k=1, *,
                        sigma_max=None, min_shrink=1e-9, grid_step=None):
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
    floor = sigma * min_shrink
    while True:
        kern = BumpKernel(sigma)
        dev = sup_deviation_ck(f, df, kern, window, k=k, grid_step=grid_step)
        if dev <= t:
            return sigma, dev
        sigma *= 0.5
        if sigma < floor:
            raise ConvergenceError(
                f"support radius search exhausted below {floor:.3e} "
                f"(last deviation {dev:.3e}, target {t:.3e})")

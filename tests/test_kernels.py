"""Mollification kernel against quadrature oracles.

The frozen constants below were produced by 40-digit adaptive
quadrature of the bump kernel and are cross-checked here at float64
precision by an independent scipy route, so a regression in either the
kernel or the tap rule cannot hide behind the constant it broke.
``convolve`` here applies the tap rule at arbitrary points, the oracle
of the library's lattice routes (``convolve_grid`` and the live blends).
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from reachsmooth import kernels
from reachsmooth.checks import random_c11, random_piecewise_linear
from reachsmooth.errors import ConvergenceError, InvalidInputError
from reachsmooth.kernels import (BumpKernel, Interval, convolve_grid,
                                 find_support_radius, sup_deviation_ck)

# integral of exp(-1/(1-u^2)) over (-1, 1), 40-digit value rounded to float64
I1 = 0.4439938161680795
# mean of |u| and of u^2 under the normalized bump on (-1, 1)
C1_ABS_MOMENT = 0.33445399770997533
M2_SECOND_MOMENT = 0.158113636263798


def bump_density(t, sigma):
    """The unit-mass kernel at offset t, from the frozen normalizer."""
    u = t / sigma
    if abs(u) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - u * u)) / (sigma * I1)


def bump_density_slope(t, sigma):
    u = t / sigma
    if abs(u) >= 1.0:
        return 0.0
    den = 1.0 - u * u
    return math.exp(-1.0 / den) * (-2.0 * u) / (den * den) / (sigma * sigma * I1)


def quad_convolve(f, sigma, x, density=bump_density):
    """(density * f)(x) by scipy's adaptive quadrature, split at the centre."""
    total = 0.0
    for lo, hi in ((-sigma, 0.0), (0.0, sigma)):
        val, err = quad(lambda t: density(t, sigma) * float(f(x - t)), lo, hi,
                        epsabs=1e-14, epsrel=1e-13, limit=200)
        total += val
    return total


def tap_scheme(sigma, taps):
    """The oracle's tap rule: the offsets j sigma/taps, j = -taps..taps,
    and the bump sampled at j/taps over its sum."""
    u = np.arange(-taps, taps + 1) / float(taps)
    return u * sigma, kernels._tap_weights(u)


def convolve(f, kernel, x, taps=64):
    """The tap rule at arbitrary points, the oracle of the lattice routes.

    ``f`` is evaluated at x - y_j for every point x and tap offset y_j,
    in chunks of about 2e6 evaluations, and each row is dotted with the
    weights.  A tuple-valued ``f`` (a value and its slope, say) is
    convolved output by output from the same evaluation, and a tuple of
    results comes back; ``f`` is called at least once, on an empty batch
    when ``x`` is empty.  A scalar ``x`` gives floats back.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    y, w = tap_scheme(kernel.sigma, taps)
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


def test_normalizer_matches_frozen_value():
    # the m-tap weights are the bump sampled at j/m over their sum, so
    # e^{-1} / (m * centre weight) is the tap rule's value of I1; the
    # rule converges faster than any power of 1/m on this integrand
    m = 64
    _, w = kernels._aligned_taps(1.0, 1.0 / m)
    assert math.exp(-1.0) / (m * w[m]) == pytest.approx(I1, abs=2e-10)


def test_normalizer_matches_scipy_quad():
    live, err = quad(lambda u: math.exp(-1.0 / (1.0 - u * u)), -1.0, 1.0,
                     points=[0.0], limit=200)
    assert err < 1e-8
    assert live == pytest.approx(I1, abs=2e-15)


@pytest.mark.parametrize("sigma", [1e-3, 0.1, 1.0, 10.0])
def test_kernel_unit_mass(sigma):
    k = BumpKernel(sigma)
    for taps in (4, 16, 64):
        _, w = kernels._aligned_taps(sigma, sigma / taps)
        assert abs(w.sum() - 1.0) <= 4e-16
    const = convolve(lambda x: np.full_like(x, 2.5), k, np.array([-3.0, 0.0, 7.0]))
    assert np.allclose(const, 2.5, rtol=0.0, atol=2e-15)
    assert quad(lambda t: bump_density(t, sigma), -sigma, sigma,
                points=[0.0])[0] == pytest.approx(1.0, abs=1e-12)


def test_kernel_support_and_positivity():
    m, weights = kernels._aligned_taps(0.5, 0.5 / 64)
    offsets = np.arange(-m, m + 1) * (0.5 / 64)
    assert offsets[0] == -0.5 and offsets[-1] == 0.5
    assert weights[0] == 0.0 and weights[-1] == 0.0
    assert np.all(weights[1:-1] > 0.0)


def test_kernel_center_closed_form():
    # the kernel peak e^{-1} / (sigma * I1), read off the centre tap:
    # weight times taps per unit offset
    m = 64
    for sigma in (0.05, 1.0, 3.0):
        _, w = kernels._aligned_taps(sigma, sigma / m)
        peak = w[m] * m / sigma
        assert peak == pytest.approx(math.exp(-1.0) / (sigma * I1), rel=1e-9)


def test_kernel_rejects_bad_sigma_and_dim():
    with pytest.raises(InvalidInputError):
        BumpKernel(0.0)
    with pytest.raises(InvalidInputError):
        BumpKernel(-1.0)
    # the kernel lives on the line: there is no dimension to choose
    with pytest.raises(TypeError):
        BumpKernel(1.0, dim=2)


# a radius whose 50-tap spacing rounds so that floor(sigma/h) = 49
M49_SIGMA = 0.001006


def test_m49_sigma_drops_the_end_taps():
    h = M49_SIGMA / 50
    assert M49_SIGMA / h < 50.0
    m, w = kernels._aligned_taps(M49_SIGMA, h)
    _, full = tap_scheme(M49_SIGMA, 50)
    # the dropped end taps sit at u = +-1, where the bump is 0
    assert m == 49 and full[0] == full[-1] == 0.0
    assert np.abs(w - full[1:-1]).max() <= 1e-15


def test_tap_scheme_order0_is_convex_combination():
    for sigma, taps in ((0.37, 64), (M49_SIGMA, 50), (0.25, 16)):
        m, weights = kernels._aligned_taps(sigma, sigma / taps)
        offsets = np.arange(-m, m + 1) * (sigma / taps)
        assert np.all(weights >= 0.0)
        assert abs(weights.sum() - 1.0) <= 4e-16
        if m == taps:
            assert offsets[0] == -sigma and offsets[-1] == sigma
        else:
            # M49: the end taps at +-sigma, of weight 0, are dropped
            assert -offsets[0] == offsets[-1] < sigma


def test_tap_scheme_order1_moments():
    # moments through order one: unit mass and, by exact symmetry, a
    # vanishing first moment, so affine inputs and slopes convolve to
    # themselves
    for sigma, taps in ((0.2, 64), (M49_SIGMA, 50)):
        h = sigma / taps
        m, weights = kernels._aligned_taps(sigma, h)
        offsets = np.arange(-m, m + 1) * h
        assert np.array_equal(weights, weights[::-1])
        assert np.array_equal(offsets, -offsets[::-1])
        assert abs(weights.sum() - 1.0) <= 4e-16
        assert abs(weights @ offsets) <= 1e-17 * sigma / 0.2


def test_aligned_taps_are_cached_and_read_only():
    # one set of weights per radius and spacing, shared by every caller
    kernels._aligned_taps.cache_clear()
    first = kernels._aligned_taps(0.3, 0.3 / 50)
    assert kernels._aligned_taps(0.3, 0.3 / 50) is first
    assert kernels._aligned_taps.cache_info().hits == 1
    with pytest.raises(ValueError):
        first[1][0] = 1.0


def test_convolution_affine_exact():
    k = BumpKernel(0.3)
    f = lambda x: 2.5 * np.asarray(x) - 1.25
    df = lambda x: np.full_like(np.asarray(x, dtype=float), 2.5)
    xs = np.array([-1.0, 0.0, 0.4, 2.0])
    out = convolve(f, k, xs)
    assert np.allclose(out, 2.5 * xs - 1.25, atol=1e-13)
    assert convolve(f, k, 0.4) == pytest.approx(-0.25, abs=1e-13)
    # the slope of the convolution is the convolution of the slope
    assert np.allclose(convolve(df, k, xs), 2.5, atol=1e-12)


def test_convolution_abs_center_first_moment():
    # phi * |x| at 0 equals c1 * sigma
    for sigma in (0.1, 0.7):
        k = BumpKernel(sigma)
        # the kink at the center slows the tap rule to ~1e-4 relative
        taps = convolve(np.abs, k, np.array([0.0]))[0]
        assert taps == pytest.approx(C1_ABS_MOMENT * sigma, rel=5e-4)
        assert convolve(np.abs, k, 0.0) == taps
        oracle = quad_convolve(abs, sigma, 0.0)
        assert oracle == pytest.approx(C1_ABS_MOMENT * sigma, rel=1e-10)


def test_convolution_square_second_moment():
    # phi * x^2 at 0 equals m2 * sigma^2
    sigma = 0.45
    k = BumpKernel(sigma)
    val = convolve(lambda x: np.asarray(x) ** 2, k, 0.0)
    assert val == pytest.approx(M2_SECOND_MOMENT * sigma * sigma, rel=1e-8)
    oracle = quad_convolve(lambda x: x * x, sigma, 0.0)
    assert oracle == pytest.approx(M2_SECOND_MOMENT * sigma * sigma, rel=1e-12)


def test_convolution_routes_cross_validate():
    f = lambda x: np.sin(3.0 * np.asarray(x)) + np.asarray(x) ** 2
    k = BumpKernel(0.1)
    xs = np.linspace(-0.5, 0.5, 7)
    oracle = np.array([quad_convolve(f, 0.1, x) for x in xs])
    t = convolve(f, k, xs, taps=64)
    assert np.allclose(oracle, t, atol=1e-9)


def test_derivative_route_matches_finite_difference():
    # the slope route convolves df, which must be the derivative of the
    # convolved values
    f = lambda x: np.sin(3.0 * np.asarray(x)) + np.asarray(x) ** 2
    df = lambda x: 3.0 * np.cos(3.0 * np.asarray(x)) + 2.0 * np.asarray(x)
    k = BumpKernel(0.1)
    xs = np.linspace(-0.4, 0.4, 5)
    d = convolve(df, k, xs, taps=64)
    h = 1e-6
    fd = (convolve(f, k, xs + h, taps=64) - convolve(f, k, xs - h, taps=64)) / (2 * h)
    assert np.allclose(d, fd, atol=1e-6)


def test_two_output_convolve_matches_single_calls():
    f = lambda x: np.sin(3.0 * np.asarray(x)) + np.asarray(x) ** 2
    df = lambda x: 3.0 * np.cos(3.0 * np.asarray(x)) + 2.0 * np.asarray(x)
    batches = []

    def both(x):
        batches.append(x.shape)
        return f(x), df(x)

    k = BumpKernel(0.1)
    taps = 64
    chunk = int(2e6) // (2 * taps + 1)
    xs = np.linspace(-0.5, 0.5, chunk + 37)
    out = convolve(both, k, xs, taps=taps)
    assert isinstance(out, tuple) and len(out) == 2
    # one evaluation of f per chunk serves both outputs
    assert batches == [(chunk, 2 * taps + 1), (37, 2 * taps + 1)]
    for got, single in zip(out, (f, df)):
        assert got.tobytes() == convolve(single, k, xs, taps=taps).tobytes()
    value, slope = convolve(both, k, 0.3)
    assert isinstance(value, float) and isinstance(slope, float)
    assert value == convolve(f, k, 0.3) and slope == convolve(df, k, 0.3)


def test_derivative_adaptive_route_agrees():
    # oracle: the derivative taken through the kernel, (phi' * f)(x), by
    # adaptive quadrature; the library convolves the slope f' instead
    f = lambda x: np.exp(np.asarray(x, dtype=float))
    k = BumpKernel(0.2)
    oracle = quad_convolve(math.exp, 0.2, 0.3, density=bump_density_slope)
    t = convolve(f, k, np.array([0.3]), taps=64)[0]
    assert oracle == pytest.approx(t, abs=1e-8)


def test_convolve_grid_matches_taps():
    f = lambda x: np.cos(2.0 * np.asarray(x))
    sigma = 0.32
    h = sigma / 16
    xs = np.arange(-40, 41) * h
    vals = f(xs)
    k = BumpKernel(sigma)
    out, m = convolve_grid(vals, k, h)
    assert m == 16
    direct = convolve(f, k, xs[m:-m], taps=m)
    assert np.allclose(out, direct, atol=1e-14)


@pytest.mark.parametrize("lag", [0, 1])
@pytest.mark.parametrize("sigma, m", [(0.32, 16), (1.0, 10), (0.075, 24)])
def test_convolve_grid_weights_match_tap_scheme(sigma, m, lag):
    # with sigma/step = m the grid route samples the offsets of the m-tap
    # scheme, so both routes must build the same weights
    k = BumpKernel(sigma)
    h = sigma / m
    y, w = tap_scheme(sigma, m)
    assert np.abs(y - np.arange(-m, m + 1) * h).max() <= 1e-15
    # convolving a unit impulse returns the weights around it: out[i]
    # belongs to grid index i + m, so an impulse at 2m + lag puts the
    # centre weight at out[m + lag]
    impulse = np.zeros(4 * m + 2)
    impulse[2 * m + lag] = 1.0
    out, mm = convolve_grid(impulse, k, h)
    assert mm == m
    assert out.size == 2 * m + 2
    assert np.abs(out[lag:lag + 2 * m + 1] - w).max() <= 1e-14 * np.abs(w).max()
    assert np.all(np.delete(out, np.arange(lag, lag + 2 * m + 1)) == 0.0)


def test_convolve_grid_needs_enough_taps():
    k = BumpKernel(0.1)
    with pytest.raises(InvalidInputError):
        convolve_grid(np.zeros(50), k, 0.05)  # only 2 taps per side


def _kinked_read(xs):
    # exactly rounded arithmetic only, so a point reads the same bits
    # whichever batch it is read in
    return (xs * xs * xs - 0.3 * xs + np.abs(xs - 0.1),
            3.0 * xs * xs - 0.3 + np.sign(xs - 0.1))


def _gathered_convolve(sigma, taps, k, q, hot, read=_kinked_read):
    """``_lattice_convolve`` in one read: a 2-D index gather from one
    range read, every hot row dotted with the weights in one product.
    The product's rows are padded to a whole number of fours with copies
    of the last, so the BLAS sums each row by its four-row kernel."""
    h = sigma / taps
    m, w = kernels._aligned_taps(sigma, h)
    khot = k[hot]
    padded = khot[np.minimum(np.arange(-(-khot.size // 4) * 4), khot.size - 1)]
    offsets = (m - np.arange(2 * m + 1)) * q
    ends = np.concatenate([k, khot - m * q, khot + m * q])
    lo, hi = ends.min(), ends.max()
    outs = read(np.arange(lo, hi + 1) * (h / q))
    return (tuple(v[k - lo] for v in outs),
            tuple((v[padded[:, None] + offsets - lo] @ w)[:khot.size]
                  for v in outs))


def _one_read_size(sigma, taps, k, q, hot):
    """The points of the one read of the whole call: its index range, or
    the windows of its hot indices and its cold ones, whichever is fewer."""
    m = kernels._aligned_taps(sigma, sigma / taps)[0]
    span = np.concatenate([k, k[hot] - m * q, k[hot] + m * q])
    return min(span.max() - span.min() + 1,
               hot.sum() * (2 * m + 1) + (~hot).sum())


_SPREAD = np.arange(-1000, 1001, 500)
_LONG = np.arange(-8000, 8001)
_GAPS = np.arange(-1000, 1001) * 300
_CONVOLVE_CASES = {
    # (sigma, taps, k, q, hot, ranged)
    "overlapping q=1": (0.25, 16, np.arange(-40, 41), 1,
                        np.abs(np.arange(-40, 41)) < 30, True),
    "ranged q=2": (0.25, 16, np.arange(-90, 91), 2,
                   np.arange(-90, 91) % 3 != 0, True),
    "ranged q=3": (0.25, 16, np.arange(-90, 91), 3,
                   np.abs(np.arange(-90, 91)) < 70, True),
    "m49": (M49_SIGMA, 50, np.arange(-120, 121), 2,
            np.arange(-120, 121) % 5 != 1, True),
    "one hot first": (0.25, 16, np.arange(60), 2,
                      np.arange(60) == 0, True),
    "one hot last": (0.25, 16, np.arange(60), 1,
                     np.arange(60) == 59, True),
    "all cold, under one window": (0.25, 16, np.arange(5), 1,
                                   np.zeros(5, dtype=bool), True),
    "gapped": (0.25, 16, _SPREAD, 2, _SPREAD != -500, False),
    # past _READ_POINTS: read in groups, each of at most that many
    # points; the oracle's one product stays under 4e5 entries, which
    # the BLAS sums on one thread, as it does every block
    "split ranged, lone last row": (0.25, 16, _LONG, 1,
                                    np.abs(_LONG) <= 4000, True),
    "split ranged interleaved q=2": (0.25, 16, _LONG, 2, _LONG % 4 == 1,
                                     True),
    "split windows m49": (M49_SIGMA, 50, _GAPS, 1, _GAPS % 7 != 3, False),
    "split windows, cold ends": (0.25, 50, _GAPS, 3,
                                 np.abs(_GAPS) < 150_000, False),
}


@pytest.mark.parametrize("case", sorted(_CONVOLVE_CASES))
def test_lattice_convolve_matches_the_index_gather(case):
    # every read output and every convolution, value and slope, is the
    # one-read 2-D index gather's bit for bit
    sigma, taps, k, q, hot, ranged = _CONVOLVE_CASES[case]
    reads = []

    def read(xs):
        reads.append(xs.size)
        return _kinked_read(xs)

    outs, convs = kernels._lattice_convolve(read, sigma, taps, k, q, hot)
    ref_outs, ref_convs = _gathered_convolve(sigma, taps, k, q, hot)
    m = kernels._aligned_taps(sigma, sigma / taps)[0]
    span = np.concatenate([k, k[hot] - m * q, k[hot] + m * q])
    # the whole index range, or the windows and cold indices
    one = _one_read_size(sigma, taps, k, q, hot)
    assert (one == np.ptp(span) + 1) == ranged
    if one <= kernels._READ_POINTS:
        assert reads == [one]
    else:
        assert len(reads) > 1 and max(reads) <= kernels._READ_POINTS
    assert len(outs) == len(convs) == 2
    for got, ref in zip(outs + convs, ref_outs + ref_convs):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_sup_deviation_abs_oracle():
    # sup over the window of |phi*|x| - |x|| is attained at 0: c1 sigma
    sigma = 0.125
    k = BumpKernel(sigma)
    window = Interval(-0.5, 0.5)
    # the deviation grid i*sigma/50 holds the peak point 0 by
    # construction, so the sup is not missed by the grid: there it is
    # the tap rule's first moment, sum w_j |j sigma/50|, exactly
    dev = sup_deviation_ck(np.abs, np.sign, k, window, k=0)
    _, w = kernels._aligned_taps(sigma, sigma / 50)
    assert dev == w @ np.abs(np.arange(-50, 51) * (sigma / 50))
    assert dev == pytest.approx(C1_ABS_MOMENT * sigma, rel=1e-3)


def test_sup_deviation_affine_is_zero():
    k = BumpKernel(0.2)
    f = lambda x: 3.0 * np.asarray(x) + 0.5
    df = lambda x: np.full_like(np.asarray(x, dtype=float), 3.0)
    dev = sup_deviation_ck(f, df, k, Interval(-1.0, 1.0), k=1)
    assert dev <= 1e-12


def test_sup_deviation_k1_requires_slope():
    k = BumpKernel(0.2)
    with pytest.raises(InvalidInputError):
        sup_deviation_ck(np.abs, None, k, Interval(-1.0, 1.0), k=1)


def test_sup_deviation_rejects_empty_window():
    k = BumpKernel(0.2)
    with pytest.raises(InvalidInputError, match="positive length"):
        sup_deviation_ck(np.abs, np.sign, k, Interval(0.3, 0.3), k=1)


def test_sup_deviation_rejects_window_without_grid_point():
    # spacing 0.2/50 = 0.004: no multiple of it lies in [0.0041, 0.0079]
    k = BumpKernel(0.2)
    with pytest.raises(InvalidInputError, match="holds no grid point"):
        sup_deviation_ck(np.abs, np.sign, k, Interval(0.0041, 0.0079), k=1)
    # one grid point is enough: 0.004, one tap right of the slope jump
    # at 0, where the slope reads sign(0) = 0 and -1 past it
    dev = sup_deviation_ck(np.abs, np.sign, k, Interval(0.0039, 0.0079), k=1)
    _, w = kernels._aligned_taps(0.2, 0.004)
    assert dev == pytest.approx(w[51] + 2.0 * w[52:].sum(), rel=1e-12)


@pytest.mark.parametrize("k, arrays", [(0, 3), (1, 5)])
def test_sup_deviation_peak_memory(k, arrays):
    # a measurement keeps its differences in place and drops each read
    # once convolved: at most three grid-sized arrays without slopes,
    # five with them, on 250,001 window points plus one kernel radius
    sigma = 2e-4
    window = Interval(-0.5, 0.5)
    n = round(window.length / (sigma / 50)) + 1 + 2 * 50
    kernel = BumpKernel(sigma)
    sup_deviation_ck(np.abs, np.sign, kernel, Interval(-0.01, 0.01), k=k)
    # collect first, so the traced peak holds only this measurement's
    # own allocations and not garbage earlier tests left behind
    gc.collect()
    tracemalloc.start()
    try:
        sup_deviation_ck(np.abs, np.sign, kernel, window, k=k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (arrays + 0.25) * 8 * n


# A whole-grid read is settled block by block; its oracle is one plain
# _grid_deviation over every point of the same grid.  On [-1, 1] the
# radii below hold 2 and 26 blocks of kernels._BLOCK points.
_SETTLE_WINDOW = Interval(-1.0, 1.0)
_SETTLE_SIGMAS = (2.0 ** -6, 2.0 ** -10)


def _grid_read(f, df, k):
    def read(xs):
        return (np.asarray(f(xs), dtype=float),
                np.asarray(df(xs), dtype=float) if k == 1 else None)
    return read


def _grid_indices(sigma, window):
    h = sigma / 50
    return math.ceil(window.lo / h), math.floor(window.hi / h)


def _plain_whole_grid(f, df, sigma, window, k):
    first, last = _grid_indices(sigma, window)
    return kernels._grid_deviation(_grid_read(f, df, k), sigma, 50, first,
                                   last, 1.0)


def _block_start(sigma, window, b):
    """The grid point that opens block ``b`` of the window's grid."""
    first, _ = _grid_indices(sigma, window)
    return (first + b * kernels._BLOCK) * (sigma / 50)


def _settle_zoo(sigma):
    zoo = [(f"corner-{c:.6f}", lambda x, c=c: np.abs(x - c),
            lambda x, c=c: np.sign(x - c))
           for c in (_block_start(sigma, _SETTLE_WINDOW, 1), 0.1372)]
    rng = np.random.default_rng(17)
    domain = Interval(-1.5, 1.5)
    for i in range(2):
        f, df, _, _ = random_c11(rng, domain, 6, 2.0)
        zoo.append((f"c11-{i}", f, df))
        f, df, _ = random_piecewise_linear(rng, domain, 8, 3.0)
        zoo.append((f"pwl-{i}", f, df))
    zoo.append(("sin-1e3", lambda x: np.sin(1e3 * x),
                lambda x: 1e3 * np.cos(1e3 * x)))
    # deviation from rounding alone: every second difference is 0
    zoo.append(("constant", lambda x: np.full(np.shape(x), 1e6 + 0.3),
                lambda x: np.zeros(np.shape(x))))
    return zoo


_SETTLE_CASES = [(sigma, k, name, f, df) for sigma in _SETTLE_SIGMAS
                 for k in (0, 1) for name, f, df in _settle_zoo(sigma)]
_SETTLE_IDS = [f"{name}-k{k}-sigma={sigma:g}"
               for sigma, k, name, _, _ in _SETTLE_CASES]


@pytest.mark.parametrize("sigma, k, name, f, df", _SETTLE_CASES,
                         ids=_SETTLE_IDS)
def test_settled_whole_grid_matches_one_plain_read(sigma, k, name, f, df):
    want, _ = _plain_whole_grid(f, df, sigma, _SETTLE_WINDOW, k)
    assert sup_deviation_ck(f, df, BumpKernel(sigma), _SETTLE_WINDOW, k=k) == want


@pytest.mark.parametrize("sigma, k, name, f, df", _SETTLE_CASES,
                         ids=_SETTLE_IDS)
def test_block_bounds_hold_every_block_maximum(sigma, k, name, f, df):
    # each block's bound is at least the largest |f* - f| (and |f*' -
    # f'|) the plain read computes over that block's outputs
    first, last = _grid_indices(sigma, _SETTLE_WINDOW)
    _, (xs, d0, d1, _, _) = _plain_whole_grid(f, df, sigma, _SETTLE_WINDOW, k)
    n = last - first + 1
    starts = np.arange(0, n, kernels._BLOCK)
    for diff, read in ((d0, f), (d1, df)):
        if diff is None:
            continue
        bounds = kernels._block_bounds(np.asarray(read(xs), dtype=float),
                                       sigma, sigma / 50, n)
        exact = np.maximum.reduceat(np.abs(diff), starts)
        assert bounds.shape == exact.shape
        assert np.all(exact <= bounds), (exact / bounds).max()
        if name == "constant" and diff is d0:
            # only the rounding allowance covers these
            assert exact.max() > 0.0
    # and so do the bounds a measurement takes span by span, each from
    # its own read (values, then slopes, a span at a time)
    spans = []
    real = kernels._block_bounds

    def spy(v, sigma, h, n):
        spans.append(real(v, sigma, h, n))
        return spans[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_block_bounds", spy)
        sup_deviation_ck(f, df, BumpKernel(sigma), _SETTLE_WINDOW, k=k)
    for i, diff in enumerate((d0, d1)[:k + 1]):
        bounds = np.concatenate(spans[i::k + 1])
        exact = np.maximum.reduceat(np.abs(diff), starts)
        assert bounds.shape == exact.shape
        assert np.all(exact <= bounds), (exact / bounds).max()


def _spy_blocks(monkeypatch):
    """Records ``(first, last, deviation)`` of every ``_grid_deviation``."""
    calls = []
    real = kernels._grid_deviation

    def spy(read, sigma, taps, first, last, scale):
        out = real(read, sigma, taps, first, last, scale)
        calls.append((first, last, out[0]))
        return out

    monkeypatch.setattr(kernels, "_grid_deviation", spy)
    return calls


def test_high_frequency_read_settles_no_block(monkeypatch):
    # sin(1e3 x) bends the same in every block, so every bound reaches
    # the maximum and every block is convolved
    sigma = 2.0 ** -10
    f, df = lambda x: np.sin(1e3 * x), lambda x: 1e3 * np.cos(1e3 * x)
    want = _plain_whole_grid(f, df, sigma, _SETTLE_WINDOW, 1)
    calls = _spy_blocks(monkeypatch)
    dev = sup_deviation_ck(f, df, BumpKernel(sigma), _SETTLE_WINDOW, k=1)
    first, last = _grid_indices(sigma, _SETTLE_WINDOW)
    assert len(calls) == -(-(last - first + 1) // kernels._BLOCK) == 26
    assert sorted((a, b) for a, b, _ in calls) == [
        (lo, min(lo + kernels._BLOCK - 1, last))
        for lo in range(first, last + 1, kernels._BLOCK)]
    assert dev == want[0]


def test_window_under_one_block_is_one_read(monkeypatch):
    sigma = 2.0 ** -10
    window = Interval(-0.01, 0.013)
    f, df = (lambda x: np.abs(x - 0.0031)), (lambda x: np.sign(x - 0.0031))
    want = _plain_whole_grid(f, df, sigma, window, 1)
    calls = _spy_blocks(monkeypatch)
    dev = sup_deviation_ck(f, df, BumpKernel(sigma), window, k=1)
    assert [(a, b) for a, b, _ in calls] == [_grid_indices(sigma, window)]
    assert dev == want[0]


def test_equal_peaks_in_two_blocks_read_the_plain_deviation(monkeypatch):
    # valleys at grid indices a and b, in blocks 2 and 5 at the same
    # offset, flat at 1000 steps: written in the grid index, so the
    # samples around a and b, hence their peaks, are equal bit for bit,
    # and the four shoulders bend half as much
    sigma = 2.0 ** -10
    h = sigma / 50
    first, _ = _grid_indices(sigma, _SETTLE_WINDOW)
    a, b = first + 2 * kernels._BLOCK + 100, first + 5 * kernels._BLOCK + 100

    def f(x):
        i = np.rint(np.asarray(x) / h)
        return h * np.minimum(np.minimum(np.abs(i - a), np.abs(i - b)), 1000)

    dev, _ = _plain_whole_grid(f, None, sigma, _SETTLE_WINDOW, 0)
    real_bounds = kernels._block_bounds

    # valid bounds still, but higher for later blocks, across the spans
    # too: block 5 is measured before block 2
    bounded = []

    def later_first(v, sigma, h, n):
        bounds = real_bounds(v, sigma, h, n)
        bounds *= 1.0 + 1e-3 * (len(bounded) + np.arange(bounds.size))
        bounded.extend(bounds)
        return bounds

    for bounds, order in ((real_bounds, [a, b]), (later_first, [b, a])):
        monkeypatch.setattr(kernels, "_block_bounds", bounds)
        calls = _spy_blocks(monkeypatch)
        got = sup_deviation_ck(f, None, BumpKernel(sigma), _SETTLE_WINDOW, k=0)
        assert got == dev
        # the peaks' blocks come first, in the order of their bounds, and
        # read the same deviation bit for bit
        assert [(lo, d) for lo, _, d in calls[:2]] == [(i - 100, dev)
                                                       for i in order]
        monkeypatch.undo()


def test_non_finite_read_measures_every_block(monkeypatch):
    # a NaN leaves no bound on the blocks of the spans whose read holds
    # it, so none of those is settled: they are measured in grid order
    # up to the first that reads NaN, the answer of one whole-grid
    # maximum; the other spans' blocks keep their bounds and wait
    sigma = 2.0 ** -10
    h = sigma / 50
    f = lambda x: np.where(x > 0.6, np.nan, np.abs(x))
    want, _ = _plain_whole_grid(f, None, sigma, _SETTLE_WINDOW, 0)
    calls = _spy_blocks(monkeypatch)
    dev = sup_deviation_ck(f, None, BumpKernel(sigma), _SETTLE_WINDOW, k=0)
    assert math.isnan(dev) and math.isnan(want)
    first, last = _grid_indices(sigma, _SETTLE_WINDOW)
    m = kernels._aligned_taps(sigma, h)[0]
    span = (kernels._READ_POINTS - 2 * m) // kernels._BLOCK * kernels._BLOCK
    nan_read = math.floor(0.6 / h) + 1 - first
    # the first span whose read (its outputs and m more each side) holds
    # a NaN, and the first block whose outputs do
    opens = next(lo for lo in range(0, last - first + 1, span)
                 if lo + span + m > nan_read)
    nan_block = (nan_read - m) // kernels._BLOCK
    assert opens < nan_block * kernels._BLOCK
    assert [lo for lo, _, _ in calls] == list(range(
        first + opens, first + (nan_block + 1) * kernels._BLOCK,
        kernels._BLOCK))
    assert math.isnan(calls[-1][2])
    assert all(not math.isnan(d) for _, _, d in calls[:-1])


@pytest.mark.parametrize("k", [0, 1])
def test_whole_grid_corner_read_convolves_under_two_percent(monkeypatch, k):
    # a corner read of 819,201 window points at sigma = 0.25/1024; only
    # the blocks around the kink are convolved
    sigma = 0.25 / 1024
    window = Interval(-2.0, 2.0)
    f = lambda x: np.abs(np.asarray(x) - 0.1372)
    df = lambda x: np.sign(np.asarray(x) - 0.1372)
    first, last = _grid_indices(sigma, window)
    assert last - first + 1 == 819_201
    calls = _spy_blocks(monkeypatch)
    dev = sup_deviation_ck(f, df, BumpKernel(sigma), window, k=k)
    convolved = sum(b - a + 1 for a, b, _ in calls)
    assert 0 < convolved <= 0.02 * 819_201
    monkeypatch.undo()
    assert dev == _plain_whole_grid(f, df, sigma, window, k)[0]


def counted(g, sizes):
    """``g``, appending the size of every batch it reads to ``sizes``."""
    def read(x):
        sizes.append(np.size(x))
        return g(x)
    return read


_WITNESS_CASES = {
    # the zoo's rho = 1e-4 corner: 666 667 window points at its proven
    # radius, 55 spans
    "corner rho=1e-4": (lambda x: np.abs(np.asarray(x) - 0.1234),
                        lambda x: np.sign(np.asarray(x) - 0.1234),
                        kernels._proven_radius(50, 1e-4, 1.0, math.inf,
                                               None), 0),
    "sin-1e3": (lambda x: np.sin(1e3 * x), lambda x: 1e3 * np.cos(1e3 * x),
                2.0 ** -10, 1),
    "nan": (lambda x: np.where(x > 0.6, np.nan, np.abs(x)), np.sign,
            2.0 ** -10, 1),
}


@pytest.mark.parametrize("case", sorted(_WITNESS_CASES))
def test_witness_reads_stay_within_read_points(case):
    # every batch a whole-grid measurement asks for holds at most
    # _READ_POINTS points, and the witness is one plain read's bit for bit
    f, df, sigma, k = _WITNESS_CASES[case]
    window = Interval(-2.0, 2.0)
    sizes = []
    dev = sup_deviation_ck(counted(f, sizes), counted(df, sizes),
                           BumpKernel(sigma), window, k=k)
    want, _ = _plain_whole_grid(f, df, sigma, window, k)
    first, last = _grid_indices(sigma, window)
    assert last - first + 1 > kernels._READ_POINTS
    assert max(sizes) <= kernels._READ_POINTS
    assert np.float64(dev).tobytes() == np.float64(want).tobytes()
    assert math.isnan(dev) == (case == "nan")


def test_tap_moments_against_the_bump():
    # the rule's moments against the continuous bump's (scipy quad): the
    # second moment's integrand is smooth, so the rule has it to 5e-6 at
    # 16 taps and 2e-8 at 50; |u| has a kink at 0, so the first moment
    # falls short of the integral by 0.4125/taps^2 of it
    bump = lambda u: math.exp(-1.0 / (1.0 - u * u))
    mass = quad(bump, -1.0, 1.0, points=[0.0], limit=200)[0]
    c1 = 2.0 * quad(lambda u: u * bump(u), 0.0, 1.0, limit=200)[0] / mass
    c2 = 2.0 * quad(lambda u: u * u * bump(u), 0.0, 1.0, limit=200)[0] / mass
    assert (c1, c2) == pytest.approx((C1_ABS_MOMENT, M2_SECOND_MOMENT),
                                     rel=1e-12)
    for taps, m1, m2, m2_rel in ((16, 0.33392, 0.15811, 5e-6),
                                 (50, 0.33440, 0.15811, 2e-8)):
        got = kernels._tap_moments(taps)
        assert got == pytest.approx((m1, m2), abs=5e-6)
        assert (1.0 - got[0] / c1) * taps ** 2 == pytest.approx(0.4125, rel=1e-2)
        assert got[1] == pytest.approx(c2, rel=m2_rel)
        # the moments of the taps a radius actually gets, to the margin
        for sigma in (1.2888e-4, 0.3, 7.0):
            _, w = kernels._aligned_taps(sigma, sigma / taps)
            u = np.abs(np.arange(w.size) - w.size // 2) * (1.0 / taps)
            assert (w @ u, w @ (u * u)) == pytest.approx(
                got, rel=kernels._PROOF_MARGIN)


def test_proven_radius_takes_the_binding_bound():
    m1, m2 = kernels._tap_moments(50)
    keep = 1.0 - kernels._PROOF_MARGIN
    radius = kernels._proven_radius
    # value only: the larger of the Lipschitz and the second-moment radius
    assert radius(50, 1e-3, 1.0, math.inf, None) == 1e-3 / m1 * keep
    assert radius(50, 1e-3, 1.0, 2.0, None) == math.sqrt(1e-3 / m2) * keep
    # the slope budget binds below both
    assert radius(50, 1e-3, 1.0, 2.0, 1e-3) == 1e-3 / (2.0 * m1) * keep
    # zero constants prove every radius
    assert radius(50, 1e-3, 3.0, 0.0, 1e-3) == math.inf


def test_find_support_radius_affine_returns_start(deviation_reads):
    f = lambda x: 2.0 * np.asarray(x) - 1.0
    df = lambda x: np.full_like(np.asarray(x, dtype=float), 2.0)
    window = Interval(-1.0, 1.0)
    domain = Interval(-2.0, 2.0)
    sigma, dev = find_support_radius(f, df, window, domain, 1e-9, k=1,
                                     sigma_max=1.0, lip=2.0, lip_d=0.0)
    # an affine input proves every radius, so the room binds (the cap is
    # the room itself, and the radius sits just under it), read once
    assert sigma == pytest.approx(1.0, rel=1e-9)
    assert dev <= 1e-9
    assert deviation_reads == [sigma]


def test_find_support_radius_abs_bracket(deviation_reads):
    # on |x| the first-moment bound is attained at the kink, a grid
    # point: the witness is the target to within the proof's margin
    target = 0.01
    window = Interval(-0.5, 0.5)
    domain = Interval(-2.0, 2.0)
    sigma, dev = find_support_radius(np.abs, np.sign, window, domain, target,
                                     k=0, sigma_max=1.5, lip=1.0,
                                     lip_d=math.inf)
    m1, _ = kernels._tap_moments(50)
    assert sigma == target / m1 * (1.0 - kernels._PROOF_MARGIN)
    assert deviation_reads == [sigma]
    assert dev == sup_deviation_ck(np.abs, np.sign, BumpKernel(sigma), window,
                                   k=0)
    assert dev <= target
    assert dev == pytest.approx(sigma * m1, rel=kernels._PROOF_MARGIN)


def test_find_support_radius_slope_jump_cannot_converge(deviation_reads):
    # a slope jump keeps the order-1 deviation at half the jump at every
    # radius, which lip_d = inf says: refused before any read
    window = Interval(-0.5, 0.5)
    domain = Interval(-2.0, 2.0)
    with pytest.raises(InvalidInputError, match="slope jump"):
        find_support_radius(np.abs, np.sign, window, domain, 0.01, k=1,
                            sigma_max=1.5, lip=1.0, lip_d=math.inf)
    assert deviation_reads == []


def test_find_support_radius_too_fine_raises_before_any_read(deviation_reads):
    # 1e-7/m1 = 3e-7 resolves the window into 1.7e8 points at sigma/50
    with pytest.raises(ConvergenceError, match="more than 4000000 points"):
        find_support_radius(np.abs, np.sign, Interval(-0.5, 0.5),
                            Interval(-2.0, 2.0), 1e-7, k=0, sigma_max=1.5,
                            lip=1.0, lip_d=math.inf)
    assert deviation_reads == []


def test_find_support_radius_witness_over_target_raises():
    # f' = |x| has slope constant 1, attained at its kink 0, a grid
    # point: with lip_d = 0.5 the radius doubles, unproven, and its
    # witness reads twice the target and raises
    f = lambda x: 0.5 * np.asarray(x) * np.abs(x)
    df = lambda x: np.abs(np.asarray(x))
    args = (f, df, Interval(-0.5, 0.5), Interval(-2.0, 2.0), 1e-3)
    with pytest.raises(ConvergenceError, match="witness deviation 2.000e-03"):
        find_support_radius(*args, k=1, sigma_max=1.5, lip=2.5, lip_d=0.5)
    # the true constant passes, with the witness at the bound
    sigma, dev = find_support_radius(*args, k=1, sigma_max=1.5, lip=2.5,
                                     lip_d=1.0)
    assert dev == pytest.approx(1e-3, rel=2.0 * kernels._PROOF_MARGIN)
    assert dev <= 1e-3


def test_find_support_radius_needs_room():
    window = Interval(-1.0, 1.0)
    domain = Interval(-1.0, 2.0)
    with pytest.raises(InvalidInputError):
        find_support_radius(np.abs, np.sign, window, domain, 0.1, k=0,
                            sigma_max=1.0, lip=1.0, lip_d=math.inf)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.floats(0.01, 0.5), st.integers(0, 10 ** 6))
def test_lipschitz_never_raised(n_kinks, sigma, seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(np.concatenate([[-2.0], rng.uniform(-2, 2, n_kinks), [2.0]]))
    slopes = rng.uniform(-4.0, 4.0, xs.size - 1)
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    f = lambda x: np.interp(np.asarray(x, dtype=float), xs, ys)
    L = float(np.abs(slopes).max())
    k = BumpKernel(sigma)
    grid = np.linspace(-2 + 1.01 * sigma, 2 - 1.01 * sigma, 400)
    vals = convolve(f, k, grid, taps=32)
    quot = np.abs(np.diff(vals) / np.diff(grid))
    assert quot.max() <= L + 1e-9 * max(1.0, L)

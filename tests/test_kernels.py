"""Mollification kernel against quadrature oracles.

The frozen constants below were produced by 40-digit adaptive
quadrature of the bump kernel and are cross-checked here at float64
precision by an independent scipy route, so a regression in either the
kernel or the tap rule cannot hide behind the constant it broke.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from reachsmooth import kernels
from reachsmooth.errors import ConvergenceError, InvalidInputError
from reachsmooth.kernels import (BumpKernel, Interval, convolve, convolve_grid,
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


def test_normalizer_matches_frozen_value():
    # the m-tap weights are the bump sampled at j/m over their sum, so
    # e^{-1} / (m * centre weight) is the tap rule's value of I1; the
    # rule converges faster than any power of 1/m on this integrand
    m = 64
    _, w = BumpKernel(1.0).tap_scheme(taps=m)
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
        _, w = k.tap_scheme(taps=taps)
        assert abs(w.sum() - 1.0) <= 4e-16
    const = convolve(lambda x: np.full_like(x, 2.5), k, np.array([-3.0, 0.0, 7.0]))
    assert np.allclose(const, 2.5, rtol=0.0, atol=2e-15)
    assert quad(lambda t: bump_density(t, sigma), -sigma, sigma,
                points=[0.0])[0] == pytest.approx(1.0, abs=1e-12)


def test_kernel_support_and_positivity():
    offsets, weights = BumpKernel(0.5).tap_scheme(taps=64)
    assert offsets[0] == -0.5 and offsets[-1] == 0.5
    assert weights[0] == 0.0 and weights[-1] == 0.0
    assert np.all(weights[1:-1] > 0.0)


def test_kernel_center_closed_form():
    # the kernel peak e^{-1} / (sigma * I1), read off the centre tap:
    # weight times taps per unit offset
    m = 64
    for sigma in (0.05, 1.0, 3.0):
        _, w = BumpKernel(sigma).tap_scheme(taps=m)
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


def test_tap_scheme_order0_is_convex_combination():
    k = BumpKernel(0.37)
    offsets, weights = k.tap_scheme(taps=64)
    assert np.all(weights >= 0.0)
    assert abs(weights.sum() - 1.0) <= 4e-16
    assert offsets[0] == -0.37 and offsets[-1] == 0.37


def test_tap_scheme_order1_moments():
    # moments through order one: unit mass and, by exact symmetry, a
    # vanishing first moment, so affine inputs and slopes convolve to
    # themselves
    k = BumpKernel(0.2)
    offsets, weights = k.tap_scheme(taps=64)
    assert np.array_equal(weights, weights[::-1])
    assert np.array_equal(offsets, -offsets[::-1])
    assert abs(weights.sum() - 1.0) <= 4e-16
    assert abs(weights @ offsets) <= 1e-17


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
    y, w = k.tap_scheme(taps=m)
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


def test_sup_deviation_abs_oracle():
    # sup over the window of |phi*|x| - |x|| is attained at 0: c1 sigma
    sigma = 0.125
    k = BumpKernel(sigma)
    window = Interval(-0.5, 0.5)
    # the deviation grid (spacing sigma/50 at most) must hold the peak
    # point 0, or the sup is missed by the grid rather than the rule
    n = max(201, math.ceil(window.length / (sigma / 50.0)) + 1)
    assert 0.0 in np.linspace(window.lo, window.hi, n)
    dev = sup_deviation_ck(np.abs, np.sign, k, window, k=0)
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


def test_find_support_radius_affine_returns_start():
    f = lambda x: 2.0 * np.asarray(x) - 1.0
    df = lambda x: np.full_like(np.asarray(x, dtype=float), 2.0)
    window = Interval(-1.0, 1.0)
    domain = Interval(-2.0, 2.0)
    sigma, dev = find_support_radius(f, df, window, domain, 1e-9, k=1)
    # affine input passes at the first candidate: the full room
    assert sigma == pytest.approx(1.0, rel=1e-9)
    assert dev <= 1e-9


def test_find_support_radius_abs_bracket():
    target = 0.01
    window = Interval(-0.5, 0.5)
    domain = Interval(-2.0, 2.0)
    sigma, dev = find_support_radius(np.abs, np.sign, window, domain, target,
                                     k=0)
    k = BumpKernel(sigma)
    # the returned deviation is the measurement of the passing radius
    assert dev == sup_deviation_ck(np.abs, np.sign, k, window, k=0)
    assert dev <= target
    # halving search: one doubling back would overshoot the budget
    assert C1_ABS_MOMENT * (2.0 * sigma) > target * 0.99


def test_find_support_radius_slope_jump_cannot_converge(monkeypatch):
    # a slope jump keeps the order-1 deviation at half the jump forever;
    # each attempt goes through the module's sup_deviation_ck, radii halve
    # exactly and the last one measured is the last at or above the floor
    radii = []
    real = kernels.sup_deviation_ck

    def spy(f, df, kernel, window, k=1):
        radii.append(kernel.sigma)
        return real(f, df, kernel, window, k=k)

    monkeypatch.setattr(kernels, "sup_deviation_ck", spy)
    window = Interval(-0.5, 0.5)
    domain = Interval(-2.0, 2.0)
    with pytest.raises(ConvergenceError):
        find_support_radius(np.abs, np.sign, window, domain, 0.01, k=1,
                            min_shrink=1e-4)
    assert len(radii) == 14  # 2^-13 >= 1e-4 > 2^-14
    assert all(b == 0.5 * a for a, b in zip(radii, radii[1:]))


def test_find_support_radius_needs_room():
    window = Interval(-1.0, 1.0)
    domain = Interval(-1.0, 2.0)
    with pytest.raises(InvalidInputError):
        find_support_radius(np.abs, np.sign, window, domain, 0.1, k=0)


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

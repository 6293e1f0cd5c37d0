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

from reachsmooth.errors import (ConvergenceError, DomainError,
                                InvalidInputError)
from reachsmooth.kernels import (BumpKernel, Interval, adaptive_simpson,
                                 bump_normalizer, convolve, convolve_grid,
                                 find_support_radius, shrink_domain,
                                 sup_deviation_ck)

# integral of exp(-1/(1-u^2)) over (-1, 1), 40-digit value rounded to float64
I1 = 0.4439938161680795
# mean of |u| and of u^2 under the normalized bump on (-1, 1)
C1_ABS_MOMENT = 0.33445399770997533
M2_SECOND_MOMENT = 0.158113636263798


def test_normalizer_matches_frozen_value():
    assert bump_normalizer() == pytest.approx(I1, abs=5e-16)


def test_normalizer_matches_scipy_quad():
    live, err = quad(lambda u: math.exp(-1.0 / (1.0 - u * u)), -1.0, 1.0,
                     points=[0.0], limit=200)
    assert err < 1e-8
    assert bump_normalizer() == pytest.approx(live, abs=1e-9)


@pytest.mark.parametrize("sigma", [1e-3, 0.1, 1.0, 10.0])
def test_kernel_unit_mass(sigma):
    k = BumpKernel(sigma)
    total = adaptive_simpson(k, -sigma, sigma, tol=1e-12)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_kernel_support_and_positivity():
    k = BumpKernel(0.5)
    assert k(0.5) == 0.0 and k(-0.5) == 0.0
    assert k(0.51) == 0.0 and k(-3.0) == 0.0
    xs = np.linspace(-0.49, 0.49, 101)
    assert np.all(k(xs) > 0.0)


def test_kernel_center_closed_form():
    # peak value is e^{-1} / (sigma * I1)
    for sigma in (0.05, 1.0, 3.0):
        k = BumpKernel(sigma)
        assert k(0.0) == pytest.approx(math.exp(-1.0) / (sigma * I1), rel=1e-13)


def test_kernel_rejects_bad_sigma_and_dim():
    with pytest.raises(InvalidInputError):
        BumpKernel(0.0)
    with pytest.raises(InvalidInputError):
        BumpKernel(-1.0)
    with pytest.raises(InvalidInputError):
        BumpKernel(1.0, dim=2)


def test_tap_scheme_order0_is_convex_combination():
    k = BumpKernel(0.37)
    offsets, weights = k.tap_scheme(0, taps=64)
    assert np.all(weights >= 0.0)
    assert abs(weights.sum() - 1.0) <= 4e-16
    assert offsets[0] == -0.37 and offsets[-1] == 0.37


def test_tap_scheme_order1_moments():
    k = BumpKernel(0.2)
    offsets, weights = k.tap_scheme(1, taps=64)
    # antisymmetric: odd function of the offset
    assert np.allclose(weights + weights[::-1], 0.0, atol=1e-18)
    assert abs(weights.sum()) <= 1e-15
    # first moment is exactly -1: differentiation is affine-exact
    assert abs(weights @ offsets + 1.0) <= 1e-13


@pytest.mark.parametrize("method", ["taps", "adaptive"])
def test_convolution_affine_exact(method):
    k = BumpKernel(0.3)
    f = lambda x: 2.5 * np.asarray(x) - 1.25
    xs = np.array([-1.0, 0.0, 0.4, 2.0])
    out = convolve(f, k, xs, order=0, method=method)
    assert np.allclose(out, 2.5 * xs - 1.25, atol=1e-13)
    out1 = convolve(f, k, xs, order=1, method=method)
    assert np.allclose(out1, 2.5, atol=1e-12)


def test_convolution_abs_center_first_moment():
    # phi * |x| at 0 equals c1 * sigma
    for sigma in (0.1, 0.7):
        k = BumpKernel(sigma)
        # the kink at the center slows the tap rule to ~1e-4 relative
        taps = convolve(np.abs, k, np.array([0.0]), method="taps")[0]
        assert taps == pytest.approx(C1_ABS_MOMENT * sigma, rel=5e-4)
        adaptive = convolve(np.abs, k, 0.0, method="adaptive", tol=1e-12)
        assert adaptive == pytest.approx(C1_ABS_MOMENT * sigma, rel=1e-10)


def test_convolution_square_second_moment():
    # phi * x^2 at 0 equals m2 * sigma^2
    sigma = 0.45
    k = BumpKernel(sigma)
    val = convolve(lambda x: np.asarray(x) ** 2, k, 0.0, method="adaptive",
                   tol=1e-13)
    assert val == pytest.approx(M2_SECOND_MOMENT * sigma * sigma, rel=1e-10)


def test_convolution_routes_cross_validate():
    f = lambda x: np.sin(3.0 * np.asarray(x)) + np.asarray(x) ** 2
    k = BumpKernel(0.1)
    xs = np.linspace(-0.5, 0.5, 7)
    a = convolve(f, k, xs, order=0, method="adaptive", tol=1e-12)
    t = convolve(f, k, xs, order=0, method="taps", taps=64)
    assert np.allclose(a, t, atol=1e-9)


def test_derivative_route_matches_finite_difference():
    f = lambda x: np.sin(3.0 * np.asarray(x)) + np.asarray(x) ** 2
    k = BumpKernel(0.1)
    xs = np.linspace(-0.4, 0.4, 5)
    d = convolve(f, k, xs, order=1, method="taps", taps=64)
    h = 1e-6
    fd = (convolve(f, k, xs + h, method="taps", taps=64)
          - convolve(f, k, xs - h, method="taps", taps=64)) / (2 * h)
    assert np.allclose(d, fd, atol=1e-6)


def test_derivative_adaptive_route_agrees():
    f = lambda x: np.exp(np.asarray(x, dtype=float))
    k = BumpKernel(0.2)
    a = convolve(f, k, 0.3, order=1, method="adaptive", tol=1e-12)
    t = convolve(f, k, np.array([0.3]), order=1, method="taps", taps=64)[0]
    assert a == pytest.approx(t, abs=1e-8)


def test_convolve_domain_guard():
    k = BumpKernel(0.25)
    dom = Interval(-1.0, 1.0)
    ok = convolve(np.abs, k, 0.0, domain=dom)
    assert ok > 0
    with pytest.raises(DomainError):
        convolve(np.abs, k, 0.8, domain=dom)


def test_shrink_domain():
    assert shrink_domain(Interval(0.0, 1.0), 0.25) == Interval(0.25, 0.75)
    # exact boundary leaves the degenerate single point
    assert shrink_domain(Interval(0.0, 1.0), 0.5) == Interval(0.5, 0.5)
    assert shrink_domain(Interval(0.0, 1.0), 0.7) is None
    with pytest.raises(InvalidInputError):
        shrink_domain(Interval(0.0, 1.0), -0.1)


def test_convolve_grid_matches_taps():
    f = lambda x: np.cos(2.0 * np.asarray(x))
    sigma = 0.32
    h = sigma / 16
    xs = np.arange(-40, 41) * h
    vals = f(xs)
    k = BumpKernel(sigma)
    out, m = convolve_grid(vals, k, h)
    assert m == 16
    direct = convolve(f, k, xs[m:-m], method="taps", taps=m)
    assert np.allclose(out, direct, atol=1e-14)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("sigma, m", [(0.32, 16), (1.0, 10), (0.075, 24)])
def test_convolve_grid_weights_match_tap_scheme(sigma, m, order):
    # with sigma/step = m the grid route samples the offsets of the m-tap
    # scheme, so both routes must build the same weights
    k = BumpKernel(sigma)
    h = sigma / m
    y, w = k.tap_scheme(order, taps=m)
    assert np.abs(y - np.arange(-m, m + 1) * h).max() <= 1e-15
    # convolving a unit impulse at the centre returns the weights
    impulse = np.zeros(4 * m + 1)
    impulse[2 * m] = 1.0
    out, mm = convolve_grid(impulse, k, h, order=order)
    assert mm == m
    assert np.abs(out - w).max() <= 1e-14 * np.abs(w).max()


def test_convolve_grid_needs_enough_taps():
    k = BumpKernel(0.1)
    with pytest.raises(InvalidInputError):
        convolve_grid(np.zeros(50), k, 0.05)  # only 2 taps per side


def test_sup_deviation_abs_oracle():
    # sup over the window of |phi*|x| - |x|| is attained at 0: c1 sigma
    sigma = 0.12
    k = BumpKernel(sigma)
    # grid step dividing the half-window puts the peak point 0 on the grid
    dev = sup_deviation_ck(np.abs, np.sign, k, Interval(-0.5, 0.5), k=0,
                           grid_step=0.00125)
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


def test_find_support_radius_slope_jump_cannot_converge():
    # a slope jump keeps the order-1 deviation at half the jump forever
    window = Interval(-0.5, 0.5)
    domain = Interval(-2.0, 2.0)
    with pytest.raises(ConvergenceError):
        find_support_radius(np.abs, np.sign, window, domain, 0.01, k=1,
                            min_shrink=1e-4)


def test_find_support_radius_needs_room():
    window = Interval(-1.0, 1.0)
    domain = Interval(-1.0, 2.0)
    with pytest.raises(InvalidInputError):
        find_support_radius(np.abs, np.sign, window, domain, 0.1, k=0)


def test_adaptive_simpson_sine_oracle():
    val = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-13)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_adaptive_simpson_orientation():
    assert adaptive_simpson(math.sin, 1.0, 1.0) == 0.0
    fwd = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
    rev = adaptive_simpson(math.exp, 1.0, 0.0, tol=1e-12)
    assert rev == -fwd
    assert fwd == pytest.approx(math.e - 1.0, abs=1e-11)


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
    vals = convolve(f, k, grid, method="taps", taps=32)
    quot = np.abs(np.diff(vals) / np.diff(grid))
    assert quot.max() <= L + 1e-9 * max(1.0, L)

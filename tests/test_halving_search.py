"""The halving search against the plain loop that measures every radius
on the whole grid.

The search probes each radius after the first near the previous radius's
worst point and skips the radii a probe shows to fail.  Its answers must
be the plain loop's, bit for bit: the same radius, halvings, deviation
and payload, so the same patches and blends.
"""

import math

import numpy as np
import pytest

from reachsmooth import kernels, smoothing
from reachsmooth.checks import random_c11
from reachsmooth.errors import ConvergenceError
from reachsmooth.curves import ClosedCurve, make_shape
from reachsmooth.kernels import (_PROBE_MARGIN, Interval, _grid_deviation,
                                 _halving_search, _window_deviation,
                                 find_support_radius)
from reachsmooth.partition import (make_reference_plateau, rescale_plateau,
                                   smoothing_window_radius)
from reachsmooth.smoothing import smooth_manifold, smooth_patch


def plain_halving_search(measure, start, target, floor, what):
    """The oracle: every radius measured on the whole grid."""
    sigma = start
    halvings = 0
    while True:
        dev, payload, _ = measure(sigma, None)
        if dev <= target:
            return sigma, halvings, dev, payload
        sigma *= 0.5
        halvings += 1
        if sigma < floor:
            raise ConvergenceError(f"{what}: deviation {dev:.3e}")


@pytest.fixture
def full_reads(monkeypatch):
    """Counts the whole-grid measurements of the support radius search."""
    calls = []
    real = kernels.sup_deviation_ck

    def spy(f, df, kernel, window, k=1):
        calls.append(kernel.sigma)
        return real(f, df, kernel, window, k=k)

    monkeypatch.setattr(kernels, "sup_deviation_ck", spy)
    return calls


def _both_searches(monkeypatch, run):
    """``run()`` under the search, then under the plain loop."""
    searched = run()
    with monkeypatch.context() as m:
        m.setattr(kernels, "_halving_search", plain_halving_search)
        m.setattr(smoothing, "_halving_search", plain_halving_search)
        plain = run()
    return searched, plain


# the blend suite's setting: the plateau's support as the window
_PSI = make_reference_plateau()
_WINDOW = Interval(-_PSI.support_radius, _PSI.support_radius)
_DOMAIN = Interval(-2.7, 2.7)


@pytest.mark.parametrize("rho", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("c", [0.0, 0.1372])
def test_corner_search_matches_plain_loop(monkeypatch, full_reads, c, rho):
    f = lambda x: np.abs(np.asarray(x, dtype=float) - c)
    df = lambda x: np.sign(np.asarray(x, dtype=float) - c)
    searched, plain = _both_searches(monkeypatch, lambda: find_support_radius(
        f, df, _WINDOW, _DOMAIN, rho, k=0, sigma_max=0.25))
    assert searched == plain
    radii = int(round(math.log2(0.25 / searched[0]))) + 1
    full = len(full_reads) - radii  # the plain loop measured every radius
    assert radii >= 3 and full == 2  # the start and the accepted radius


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("seed", [5, 11])
def test_c11_search_matches_plain_loop(monkeypatch, seed, order):
    f, df, _, _ = random_c11(np.random.default_rng(seed), _DOMAIN, 6, 2.0)
    for rho in (1e-2, 1e-3):
        searched, plain = _both_searches(monkeypatch, lambda: find_support_radius(
            f, df, _WINDOW, _DOMAIN, rho, k=order, sigma_max=0.25))
        assert searched == plain


def _patch_bytes(result):
    return [(p.displacement.x.tobytes(), p.displacement.c.tobytes())
            for p in result.curve.patches]


@pytest.mark.parametrize("shape, eps, halvings", [
    ({"kind": "stadium", "r": 0.1, "l": 0.2}, 0.005, 2),
    ({"kind": "stadium", "r": 1.0, "l": 2.0}, 0.05, 2),
    ({"kind": "stadium", "r": 100.0, "l": 200.0}, 5.0, 2),
    ({"kind": "cad_profile", "preset": "rounded_rect", "width": 2.0,
      "height": 1.0, "corner_radius": 0.2}, 0.05, 1),
], ids=["stadium-0.1", "stadium-1", "stadium-100", "rounded_rect"])
def test_patch_search_matches_plain_loop(monkeypatch, shape, eps, halvings):
    # every patch halves the same number of times, and the stadium
    # the same at every scale
    searched, plain = _both_searches(monkeypatch,
                                     lambda: smooth_manifold(shape, eps))
    assert searched.records == plain.records
    assert {r.halvings for r in searched.records} == {halvings}
    assert _patch_bytes(searched) == _patch_bytes(plain)


def _assert_probes_slice_the_whole_read(measure, h, lo, hi):
    """``measure(read, near)`` calls ``read`` once; a probe must read a
    contiguous slice of the whole read (``near=None``), bit for bit, near
    both ends of the window [lo, hi], inside it and past it."""
    reads = []

    def read(xs):
        reads.append(xs.copy())
        return np.abs(xs - 0.01), np.sign(xs - 0.01)

    measure(read, None)
    whole = reads.pop()
    # the origin-aligned grid i*h, extended past the window by less than
    # one kernel radius (plus a spacing) on both sides
    assert np.array_equal(whole, np.round(whole / h) * h)
    m = int(np.count_nonzero(whole < lo))
    assert m == np.count_nonzero(whole > hi) and 16 <= m <= 50
    for near in (lo, 0.0101, hi, 9.0, -9.0):
        measure(read, near)
        part = reads.pop()
        first = int(np.flatnonzero(whole == part[0])[0])
        assert np.array_equal(part, whole[first:first + part.size])
        assert part.size <= 2 * (kernels._PROBE_HALF + m) + 1
        if near in (lo, -9.0):
            assert first == 0
        if near in (hi, 9.0):
            assert first + part.size == whole.size


def test_probe_reads_the_whole_grids_own_samples():
    # the support radius search's grid: 50 taps on the window's points
    window = Interval(-0.3137, 0.4711)
    sigma = 0.0123

    def measure(read, near):
        f = lambda x: read(x)[0]
        _window_deviation(f, None, sigma, window, 0, near)

    _assert_probes_slice_the_whole_read(measure, sigma / 50, window.lo,
                                        window.hi)


def test_patch_probe_reads_the_whole_grids_own_samples(monkeypatch):
    # a patch's grid: 16 taps over the plateau support plus one radius,
    # with the indices smooth_patch asks for on a circle
    calls = []
    real = smoothing._grid_deviation

    def spy(read, sigma, taps, first, last, near, scale):
        calls.append((sigma, taps, first, last, scale))
        return real(read, sigma, taps, first, last, near, scale)

    monkeypatch.setattr(smoothing, "_grid_deviation", spy)
    delta = 0.1
    psi = rescale_plateau(make_reference_plateau(), delta, 1.0)
    w = smoothing_window_radius(delta, 1.0)
    smooth_patch(ClosedCurve(make_shape({"kind": "circle", "r": 1.0})), 0.5,
                 delta=delta, R=1.0, rho=0.01, psi=psi, sigma_max=w / 128.0)
    sigma, taps, first, last, scale = calls[0]
    assert taps == 16 and first == -last and scale == 1.0
    h = sigma / 16
    # the inner rows cover the plateau support
    assert first * h <= -psi.support_radius

    def measure(read, near):
        real(read, sigma, taps, first, last, near, scale)

    _assert_probes_slice_the_whole_read(measure, h, first * h, last * h)


def test_probe_inside_the_margin_gets_the_full_measurement():
    # a probe just above the target but within the margin proves
    # nothing, so its radius is measured on the whole grid, which
    # passes; a probe beyond the margin settles its radius as failing;
    # a start that passes is read once, in full, and never probed
    def search(probes, start=1.0):
        calls = []

        def measure(sigma, near):
            calls.append((sigma, near))
            if near is not None:
                return probes.get(sigma, 0.0), None, near
            return (2.0 if sigma > 0.6 else 1.0), f"payload {sigma}", 0.25

        return _halving_search(measure, start, 1.0, 0.1, "synthetic"), calls

    result, calls = search({0.5: 1.0 + 0.5 * _PROBE_MARGIN})
    assert result == (0.5, 1, 1.0, "payload 0.5")
    assert calls == [(1.0, None), (0.5, 0.25), (0.5, None)]

    result, calls = search({0.5: 1.0 + 2.0 * _PROBE_MARGIN})
    assert result == (0.25, 2, 1.0, "payload 0.25")
    assert calls == [(1.0, None), (0.5, 0.25), (0.25, 0.25), (0.25, None)]

    result, calls = search({}, start=0.5)
    assert result == (0.5, 0, 1.0, "payload 0.5")
    assert calls == [(0.5, None)]

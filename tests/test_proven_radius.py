"""Support radii proven from the tap rule's moments, against their
closed forms and their witnesses.

The zoo's radius is the smallest of its cap, its room and the radius
the first and second moments prove from the function's constants; a
patch's takes its constants from the reach.  Either way the grid is
read once, at that radius, and the reading (the witness) must stay
within the budget.  On the |x| corner the first-moment bound is
attained at the kink, so there the witness equals the bound to the
proof's margin.
"""

import math

import numpy as np
import pytest

from reachsmooth import kernels
from reachsmooth.checks import random_c11
from reachsmooth.kernels import Interval, find_support_radius
from reachsmooth.partition import (make_reference_plateau,
                                   smoothing_window_radius)
from reachsmooth.smoothing import _PATCH_TAPS, smooth_manifold

# the blend suite's setting: the plateau's support as the window
_PSI = make_reference_plateau()
_WINDOW = Interval(-_PSI.support_radius, _PSI.support_radius)
_DOMAIN = Interval(-2.7, 2.7)
_KEEP = 1.0 - kernels._PROOF_MARGIN


@pytest.mark.parametrize("rho", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("c", [0.0, 0.1372])
def test_corner_radius_is_proven(deviation_reads, c, rho):
    f = lambda x: np.abs(np.asarray(x, dtype=float) - c)
    df = lambda x: np.sign(np.asarray(x, dtype=float) - c)
    sigma, dev = find_support_radius(f, df, _WINDOW, _DOMAIN, rho, k=0,
                                     sigma_max=0.25, lip=1.0, lip_d=math.inf)
    m1, _ = kernels._tap_moments(kernels._GRID_PER_SIGMA)
    # the first-moment radius, far under the cap and the room, read once
    assert sigma == rho / m1 * _KEEP < 0.25
    assert deviation_reads == [sigma]
    assert dev <= rho
    if c == 0.0:
        # the kink is a grid point, where the bound is sharp
        assert dev == pytest.approx(sigma * m1, rel=kernels._PROOF_MARGIN)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("seed", [5, 11])
def test_c11_radius_is_proven(deviation_reads, seed, order):
    f, df, L, Ld = random_c11(np.random.default_rng(seed), _DOMAIN, 6, 2.0)
    m1, m2 = kernels._tap_moments(kernels._GRID_PER_SIGMA)
    for rho in (1e-2, 1e-3):
        deviation_reads.clear()
        sigma, dev = find_support_radius(f, df, _WINDOW, _DOMAIN, rho,
                                         k=order, sigma_max=0.25, lip=L,
                                         lip_d=Ld)
        value = max(rho / (L * m1), math.sqrt(2.0 * rho / (Ld * m2)))
        proven = min(value, rho / (Ld * m1)) if order == 1 else value
        assert sigma == min(0.25, proven * _KEEP)
        assert deviation_reads == [sigma]
        assert dev <= rho


@pytest.mark.parametrize("shape, eps", [
    ({"kind": "stadium", "r": 0.1, "l": 0.2}, 0.005),
    ({"kind": "stadium", "r": 1.0, "l": 2.0}, 0.05),
    ({"kind": "stadium", "r": 100.0, "l": 200.0}, 5.0),
    ({"kind": "cad_profile", "preset": "rounded_rect", "width": 2.0,
      "height": 1.0, "corner_radius": 0.2}, 0.05),
], ids=["stadium-0.1", "stadium-1", "stadium-100", "rounded_rect"])
def test_patch_radius_is_proven(shape, eps):
    # no window meets an earlier patch, so every radius is the closed
    # form from R alone: the slope budget at K = (1 - (w/R)^2)^(-3/2)/R.
    # The measured constant is the pieces' exact largest |f''|, which
    # meets K, to rounding, at the window's end on the arc of radius R;
    # each witness holds rho and reads about half of it (a line-arc
    # junction's flat side contributes nothing)
    result = smooth_manifold(shape, eps)
    rep = result.report
    R, rho = rep.R_input, rep.rho
    w = smoothing_window_radius(rep.delta, R)
    K = (1.0 - (w / R) ** 2) ** -1.5 / R
    m1, _ = kernels._tap_moments(_PATCH_TAPS)
    for record in result.records:
        assert record.lip_slope == pytest.approx(K, rel=1e-15)
        assert record.halvings == 0
        assert record.sigma == pytest.approx(rho / (K * m1) * _KEEP, rel=1e-14)
        assert 0.45 * rho < record.deviation <= rho
    assert rep.sigma_per_patch == tuple(r.sigma for r in result.records)

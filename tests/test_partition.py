"""Plateau cutoff: shape, measured constants, exact rescaling law."""

import math

import numpy as np
import pytest

from reachsmooth.errors import InvalidInputError
from reachsmooth.partition import (PlateauFunction, make_reference_plateau,
                                   rescale_plateau, smoothing_window_radius)

# grid-measured slope and curvature sups of the unit reference cutoff,
# frozen from a high-resolution run; loose bands absorb grid placement
REF_LIP_VALUE = 1.6571376797382103
REF_LIP_DERIVATIVE = 7.1931610104348294


@pytest.fixture(scope="module")
def ref():
    return make_reference_plateau()


def test_plateau_region_exact(ref):
    xs = np.linspace(-1.0, 1.0, 41)
    assert np.all(ref(xs) == 1.0)
    assert ref(1.0) == 1.0 and ref(-1.0) == 1.0


def test_support_region_exact(ref):
    assert ref(2.0) == 0.0 and ref(-2.0) == 0.0
    xs = np.array([-5.0, -2.1, 2.0001, 7.0])
    assert np.all(ref(xs) == 0.0)
    assert np.all(ref.derivative(xs) == 0.0)
    assert np.all(ref.second_derivative(xs) == 0.0)


def test_ramp_midpoint_is_half(ref):
    # the ramp profile integrates a symmetric bump: its midpoint is 1/2
    assert ref(1.5) == pytest.approx(0.5, abs=1e-12)
    assert ref(-1.5) == pytest.approx(0.5, abs=1e-12)


def test_evenness(ref):
    xs = np.linspace(0.0, 2.5, 401)
    assert np.array_equal(ref(xs), ref(-xs))
    assert np.array_equal(ref.derivative(xs), -ref.derivative(-xs))
    assert np.array_equal(ref.second_derivative(xs),
                          ref.second_derivative(-xs))


def test_monotone_decreasing_on_ramp(ref):
    xs = np.linspace(1.0, 2.0, 500)
    vals = ref(xs)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all(ref.derivative(xs[1:-1]) <= 0.0)


def test_reference_constants_frozen(ref):
    assert ref.lip_value == pytest.approx(REF_LIP_VALUE, abs=1e-3)
    assert ref.lip_derivative == pytest.approx(REF_LIP_DERIVATIVE, abs=5e-3)
    assert ref.combined_lipschitz == ref.lip_derivative


def test_derivative_matches_finite_difference(ref):
    xs = np.linspace(1.05, 1.95, 37)
    h = 1e-7
    fd = (ref(xs + h) - ref(xs - h)) / (2 * h)
    assert np.allclose(ref.derivative(xs), fd, atol=1e-6)


def test_second_derivative_matches_finite_difference(ref):
    xs = np.linspace(1.05, 1.95, 37)
    h = 1e-5
    fd = (ref.derivative(xs + h) - ref.derivative(xs - h)) / (2 * h)
    assert np.allclose(ref.second_derivative(xs), fd, atol=1e-4)


def test_seam_continuity(ref):
    eps = 1e-9
    # value and slope close up at both seams
    assert ref(1.0 + eps) == pytest.approx(1.0, abs=1e-6)
    assert ref(2.0 - eps) == pytest.approx(0.0, abs=1e-6)
    assert ref.derivative(1.0 + eps) == pytest.approx(0.0, abs=1e-5)
    assert ref.derivative(2.0 - eps) == pytest.approx(0.0, abs=1e-5)


def test_scalar_and_array_outputs(ref):
    assert isinstance(ref(1.5), float)
    assert isinstance(ref.derivative(1.5), float)
    out = ref(np.array([0.0, 1.5]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_constructor_validation():
    with pytest.raises(InvalidInputError):
        PlateauFunction(2.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        PlateauFunction(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        PlateauFunction(-1.0, 2.0, 1.0, 1.0)


def test_window_radius_formula():
    assert smoothing_window_radius(0.04, 1.0) == 0.5 * math.sqrt(0.04)
    assert smoothing_window_radius(0.5, 1.0) == 0.5 * math.sqrt(0.5)
    with pytest.raises(InvalidInputError):
        smoothing_window_radius(0.51, 1.0)
    with pytest.raises(InvalidInputError):
        smoothing_window_radius(0.0, 1.0)


def test_rescale_law_exact(ref):
    delta, R = 0.08, 1.3
    w = smoothing_window_radius(delta, R)
    c = ref.support_radius / (0.5 * w)
    small = rescale_plateau(ref, delta, R)
    # same float expressions: equality is exact, not approximate
    assert small.plateau_radius == ref.plateau_radius / c
    assert small.support_radius == ref.support_radius / c
    assert small.lip_value == ref.lip_value * c
    assert small.lip_derivative == ref.lip_derivative * c * c
    # geometry: plateau at w/4, support at w/2
    assert small.support_radius == pytest.approx(0.5 * w, rel=1e-15)
    assert small.plateau_radius == pytest.approx(0.25 * w, rel=1e-15)


def test_rescaled_values_match_reference(ref):
    delta, R = 0.02, 2.0
    small = rescale_plateau(ref, delta, R)
    c = ref.support_radius / small.support_radius
    xs = np.linspace(-small.support_radius, small.support_radius, 301)
    assert np.allclose(small(xs), ref(c * xs), atol=1e-14)
    assert np.allclose(small.derivative(xs), c * ref.derivative(c * xs),
                       rtol=1e-12, atol=1e-12)


def test_rescaled_measured_slope_within_stated_constant(ref):
    delta, R = 0.05, 1.0
    small = rescale_plateau(ref, delta, R)
    xs = np.linspace(-small.support_radius, small.support_radius, 20001)
    h = 1e-8 * small.support_radius
    fd = np.abs(small(xs + h) - small(xs - h)) / (2 * h)
    assert fd.max() <= small.lip_value * (1 + 1e-6)


def test_bounds_agree_with_rescale(ref):
    # the blend's single constant is the larger of the two rescaled ones
    small = rescale_plateau(ref, 0.08, 1.3)
    assert small.combined_lipschitz == max(small.lip_value, small.lip_derivative)


def test_derivative_dominates_at_practical_scales(ref):
    for delta, R in [(0.01, 1.0), (0.45, 1.0), (0.3, 10.0), (1.0, 100.0)]:
        small = rescale_plateau(ref, delta, R)
        assert small.lip_derivative >= small.lip_value
        assert small.combined_lipschitz == small.lip_derivative


def test_derivative_dominates_fails_for_huge_windows(ref):
    # window sqrt(delta R) ~ 283 pushes the contraction below the
    # crossover, so the slope constant takes over the combined max
    small = rescale_plateau(ref, 40.0, 2000.0)
    assert small.lip_derivative < small.lip_value
    assert small.combined_lipschitz == small.lip_value

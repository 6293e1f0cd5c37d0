"""Sampled Hausdorff distance against closed forms and its symmetries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reachsmooth.errors import InvalidInputError
from reachsmooth.linalg import hausdorff_distance_sampled


def test_hausdorff_concentric_circles():
    th = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
    inner = np.stack([np.cos(th), np.sin(th)], axis=1)
    outer = 1.1 * inner
    d = hausdorff_distance_sampled(inner, outer)
    assert d == pytest.approx(0.1, abs=1e-5)


def test_hausdorff_basic_properties():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(60, 2))
    b = rng.normal(size=(45, 2))
    assert hausdorff_distance_sampled(a, a) == 0.0
    assert hausdorff_distance_sampled(a, b) == hausdorff_distance_sampled(b, a)


def test_hausdorff_takes_plane_points_only():
    # the patch checkers pass plane points; any other shape is refused
    rng = np.random.default_rng(29)
    a = rng.normal(size=(30, 3))
    with pytest.raises(InvalidInputError, match=r"\(n, 2\) array"):
        hausdorff_distance_sampled(a, a)
    with pytest.raises(InvalidInputError, match=r"\(n, 2\) array"):
        hausdorff_distance_sampled(a[:, :2], a)


@settings(max_examples=40, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0.1, 3), st.floats(0.1, 3))
def test_hausdorff_translation_invariance(tx, ty, s1, s2):
    rng = np.random.default_rng(31)
    a = s1 * rng.normal(size=(20, 2))
    b = s2 * rng.normal(size=(25, 2))
    t = np.array([tx, ty])
    d1 = hausdorff_distance_sampled(a, b)
    d2 = hausdorff_distance_sampled(a + t, b + t)
    assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-12)

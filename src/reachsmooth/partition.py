"""Smooth plateau (cutoff) functions driving the localized blend.

The reference plateau is identically 1 on [-1, 1], identically 0 outside
(-2, 2), and ramps in between through the integral of the same bump
profile the kernels use, normalized to a smoothstep S with S(0) = 0,
S(1) = 1 and all derivatives vanishing at both ends.  Working plateaus
are pure rescalings of the reference, sized to the smoothing window
sqrt(delta * R): flat core up to sqrt(delta R)/8, support sqrt(delta R)/4.

Slope and curvature of the ramp are analytic (the profile's antiderivative
is tabulated once with per-interval Gauss-Legendre and interpolated with
a Hermite spline whose node slopes are exact).  ``rescale_plateau`` is
the one source of a working plateau's constants: the reference
constants carried over by the exact scaling law.  Tests check the law
against finite differences of the rescaled plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from ._util import as_positive_float
from .errors import InvalidInputError
from .kernels import _GL_W, _GL_X, _bump_raw

__all__ = [
    "PlateauFunction",
    "make_reference_plateau",
    "rescale_plateau",
    "smoothing_window_radius",
]

_RAMP_NODES = 2048
_MEASURE_GRID = 10001

@lru_cache(maxsize=1)
def _ramp_spline():
    """Hermite interpolant of the normalized smoothstep on [0, 1]."""
    t = np.linspace(0.0, 1.0, _RAMP_NODES + 1)
    h = 1.0 / _RAMP_NODES
    # per-interval Gauss-Legendre keeps node values at ~1e-16, so the
    # spline error is governed by the interpolation alone (~1e-13)
    starts = t[:-1]
    nodes = starts[:, None] + h * _GL_X[None, :]
    cell = (h * _GL_W[None, :] * _bump_raw(2.0 * nodes - 1.0)).sum(axis=1)
    raw = np.concatenate([[0.0], np.cumsum(cell)])
    total = raw[-1]
    vals = raw / total
    slopes = _bump_raw(2.0 * t - 1.0) / total
    return CubicHermiteSpline(t, vals, slopes), total


def _bump_raw_d(u):
    """Derivative of the kernels' raw bump; vectorized."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    den = (1.0 - ui) * (1.0 + ui)
    out[inside] = np.exp(-1.0 / den) * (-2.0 * ui) / (den * den)
    return out


def _ramp_value(t):
    spline, _ = _ramp_spline()
    return np.clip(spline(np.asarray(t, dtype=float)), 0.0, 1.0)


def _ramp_slope(t):
    _, total = _ramp_spline()
    return _bump_raw(2.0 * np.asarray(t, dtype=float) - 1.0) / total


def _ramp_curvature(t):
    _, total = _ramp_spline()
    return 2.0 * _bump_raw_d(2.0 * np.asarray(t, dtype=float) - 1.0) / total


@dataclass(frozen=True)
class PlateauFunction:
    """Even cutoff: 1 on the plateau, smooth ramp, 0 outside the support.

    ``lip_value`` is the measured sup of |slope|; ``lip_derivative`` the
    measured sup of |curvature|, i.e. the Lipschitz constant of the slope.
    """

    plateau_radius: float
    support_radius: float
    lip_value: float
    lip_derivative: float

    def __post_init__(self):
        r1 = as_positive_float(self.plateau_radius, "plateau_radius")
        r2 = as_positive_float(self.support_radius, "support_radius")
        if r2 <= r1:
            raise InvalidInputError(
                f"support radius {r2} must exceed plateau radius {r1}")
        object.__setattr__(self, "plateau_radius", r1)
        object.__setattr__(self, "support_radius", r2)

    def _split(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        ramp = (ax > self.plateau_radius) & (ax < self.support_radius)
        t = (self.support_radius - ax[ramp]) / (self.support_radius - self.plateau_radius)
        return ax, ramp, t

    def __call__(self, x):
        ax, ramp, t = self._split(x)
        out = np.zeros(ax.shape)
        out[ax <= self.plateau_radius] = 1.0
        out[ramp] = _ramp_value(t)
        return out if out.shape else float(out)

    def derivative(self, x):
        xv = np.asarray(x, dtype=float)
        ax, ramp, t = self._split(xv)
        out = np.zeros(ax.shape)
        width = self.support_radius - self.plateau_radius
        out[ramp] = -np.sign(xv[ramp]) * _ramp_slope(t) / width
        return out if out.shape else float(out)

    def second_derivative(self, x):
        ax, ramp, t = self._split(x)
        out = np.zeros(ax.shape)
        width = self.support_radius - self.plateau_radius
        out[ramp] = _ramp_curvature(t) / width ** 2
        return out if out.shape else float(out)

    @property
    def combined_lipschitz(self):
        """max of the two measured constants; the single constant the
        blend estimates are stated with."""
        return max(self.lip_value, self.lip_derivative)


@lru_cache(maxsize=1)
def make_reference_plateau():
    """The unit reference plateau on [-2, 2] with grid-measured constants."""
    r1, r2 = 1.0, 2.0
    xs = np.linspace(0.0, r2, _MEASURE_GRID)
    probe = PlateauFunction(r1, r2, 1.0, 1.0)  # constants remeasured below
    lip_v = float(np.abs(probe.derivative(xs)).max())
    lip_d = float(np.abs(probe.second_derivative(xs)).max())
    return PlateauFunction(r1, r2, lip_v, lip_d)


def smoothing_window_radius(delta, R):
    """Half-width sqrt(delta R)/2 of the graph window a patch works in."""
    d = as_positive_float(delta, "delta")
    r = as_positive_float(R, "R")
    if d > 0.5 * r:
        raise InvalidInputError(f"delta={d} exceeds half the reach bound {r}")
    return 0.5 * math.sqrt(d * r)


def rescale_plateau(reference, delta, R):
    """Shrink the reference plateau to the delta-window scale.

    The result is exactly x -> reference(8 x / sqrt(delta R)); its
    Lipschitz constants follow by the same exact rescaling.  The
    curvature constant is the larger one while sqrt(delta R) < 34.7;
    ``smooth_manifold`` halves delta until it is.
    """
    w = smoothing_window_radius(delta, R)  # sqrt(delta R) / 2
    c = reference.support_radius / (0.5 * w)  # contraction factor
    return PlateauFunction(
        plateau_radius=reference.plateau_radius / c,
        support_radius=reference.support_radius / c,
        lip_value=reference.lip_value * c,
        lip_derivative=reference.lip_derivative * c * c,
    )

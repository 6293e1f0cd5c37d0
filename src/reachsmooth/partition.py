"""Smooth plateau (cutoff) functions driving the localized blend.

The reference plateau is identically 1 on [-1, 1], identically 0 outside
(-2, 2), and ramps in between through the integral of the same bump
profile the kernels use, normalized to a smoothstep S with S(0) = 0,
S(1) = 1 and all derivatives vanishing at both ends.  Working plateaus
are pure rescalings of the reference, sized to the smoothing window
sqrt(delta * R): flat core up to sqrt(delta R)/8, support sqrt(delta R)/4.

Slope and curvature of the ramp are analytic (the profile's antiderivative
is tabulated once by ``ppoly.integral_table`` and interpolated by a
``ppoly.HermiteTable`` whose node slopes are exact).  ``rescale_plateau`` is
the one source of a working plateau's constants: the reference
constants carried over by the exact scaling law.  Tests check the law
against finite differences of the rescaled plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import as_positive_float
from .errors import InvalidInputError
from .kernels import _bump_raw
from .ppoly import HermiteTable, integral_table

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
    """Hermite table of the normalized smoothstep on [0, 1], and the
    profile's mass.  Per-cell Gauss-Legendre keeps knot values at ~1e-16,
    so the table's error is the interpolation's alone (~1e-13)."""
    t, raw, profile = integral_table(lambda u: _bump_raw(2.0 * u - 1.0),
                                     0.0, 1.0, _RAMP_NODES)
    total = raw[-1]
    return HermiteTable(t, raw / total, profile / total), total


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

    ``lip_value`` is the measured sup of |slope| (a 1/length);
    ``lip_derivative`` that of |curvature| (a 1/length^2).
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

    def combined_lipschitz(self, R):
        """K(R) = max(L_value R, L_derivative R^2), dimensionless: the one
        constant the blend estimates are stated with, in units of R."""
        return max(self.lip_value * R, self.lip_derivative * R * R)


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
    Lipschitz constants follow by the same exact rescaling, so in units
    of R they depend on delta/R alone.
    """
    w = smoothing_window_radius(delta, R)  # sqrt(delta R) / 2
    c = reference.support_radius / (0.5 * w)  # contraction factor
    return PlateauFunction(
        plateau_radius=reference.plateau_radius / c,
        support_radius=reference.support_radius / c,
        lip_value=reference.lip_value * c,
        lip_derivative=reference.lip_derivative * c * c,
    )

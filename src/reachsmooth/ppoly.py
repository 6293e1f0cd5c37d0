"""The pipeline's tables: Hermite cubics, running integrals, Gauss rules.

A ``HermiteTable`` interpolates values and slopes at strictly
increasing knots ``x``.  On the cell ``[x[i], x[i + 1])`` it reads

    c[0, i] s^3 + c[1, i] s^2 + c[2, i] s + c[3, i],   s = t - x[i],

with the coefficients in a ``(4, n - 1)`` array ``c``.  Every table of
the package is one: the plateau ramp, each patch displacement, the
ellipse's arc-length inverse and each graph window's warm start.

The arithmetic is that of SciPy's ``CubicHermiteSpline`` and
``PPoly.__call__``, so a table holds and reads the same bytes: the
constructor forms the coefficients in SciPy's order, a read at ``t``
takes the cell ``searchsorted(x, t, side="right") - 1`` clipped to the
first and last cells (the end cells extend outward; a NaN reads NaN),
and a read sums its terms from +0.0 upward in powers of s, as ``PPoly``
does, so a sum of negative zeros reads +0.0.

``integral_table`` builds the ramp's and the ellipse's running integrals,
8-point Gauss-Legendre (``_GL_X``/``_GL_W``) on each cell; the 4-point
rule ``_GL4_X``/``_GL4_W`` serves the ellipse's Newton step.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = ["HermiteTable", "integral_table"]

# 8-point Gauss-Legendre nodes/weights on [0, 1]
_GL_X = 0.5 * (1.0 + np.array([
    -0.9602898564975362, -0.7966664774136267, -0.5255324099163290,
    -0.1834346424956498, 0.1834346424956498, 0.5255324099163290,
    0.7966664774136267, 0.9602898564975362]))
_GL_W = 0.5 * np.array([
    0.1012285362903763, 0.2223810344533745, 0.3137066458778873,
    0.3626837833783620, 0.3626837833783620, 0.3137066458778873,
    0.2223810344533745, 0.1012285362903763])
# 4-point Gauss-Legendre nodes/weights on [-1, 1]
_GL4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                   0.3399810435848563, 0.8611363115940526])
_GL4_W = np.array([0.3478548451374538, 0.6521451548625461,
                   0.6521451548625461, 0.3478548451374538])


def integral_table(g, lo, hi, cells):
    """Knots ``x`` of ``cells`` equal cells of [lo, hi], the running
    integral of ``g`` from ``lo`` to each knot (8-point Gauss-Legendre on
    each cell, then a cumulative sum) and ``g(x)``."""
    x = np.linspace(lo, hi, cells + 1)
    h = (hi - lo) / cells
    cell = (h * _GL_W[None, :] * g(x[:-1, None] + h * _GL_X[None, :])).sum(axis=1)
    return x, np.concatenate([[0.0], np.cumsum(cell)]), g(x)


class HermiteTable:
    """Cubic Hermite interpolant of values ``y`` and slopes ``dydx`` at
    knots ``x``: ``table(t)`` is its value, ``table.slope(t)`` its slope."""

    def __init__(self, x, y, dydx):
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        dydx = np.asarray(dydx, dtype=np.float64)
        if x.ndim != 1 or x.size < 2 or not y.shape == dydx.shape == x.shape:
            raise InvalidInputError(
                "a table needs two or more 1-D knots, with a value and a slope each")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise InvalidInputError("table knots must be strictly increasing")
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))

    def _cell(self, t):
        """Coefficient rows ``c3, c2, c1, c0`` of each read's cell and
        the read's offset s from the cell's left knot."""
        t = np.asarray(t, dtype=np.float64)
        i = np.clip(self.x.searchsorted(t, side="right") - 1, 0, self.x.size - 2)
        c0, c1, c2, c3 = self.c[:, i]
        return c3, c2, c1, c0, t - self.x[i]

    def __call__(self, t):
        return _value(*self._cell(t))

    def slope(self, t):
        return _slope(*self._cell(t))

    def value_and_slope(self, t):
        """``(self(t), self.slope(t))`` from one cell lookup."""
        cell = self._cell(t)
        return _value(*cell), _slope(*cell)


def _value(c3, c2, c1, c0, s):
    s2 = s * s
    return (((0.0 + c3) + c2 * s) + c1 * s2) + c0 * (s2 * s)


def _slope(c3, c2, c1, c0, s):
    return ((0.0 + c2) + (c1 * s) * 2.0) + (c0 * (s * s)) * 3.0

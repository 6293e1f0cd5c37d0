"""The tables of ``ppoly`` against their oracles.

The pipeline tabulates the plateau ramp, every patch displacement, the
ellipse's inverse of arc length and each graph window's warm-start
table as a ``HermiteTable``; its knots, coefficients and reads must
carry the bytes SciPy's ``CubicHermiteSpline`` would, so that outputs do
not depend on which of the two built them.  ``integral_table`` must
reproduce, bit for bit, the per-cell Gauss-Legendre loop that the ramp
and the ellipse each ran before it, kept here as its oracle.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from reachsmooth import curves, partition, smoothing
from reachsmooth.curves import ClosedCurve, local_graph_at, make_shape
from reachsmooth.errors import InvalidInputError
from reachsmooth.kernels import _bump_raw
from reachsmooth.partition import (make_reference_plateau, rescale_plateau,
                                   smoothing_window_radius)
from reachsmooth.ppoly import _GL_W, _GL_X, HermiteTable, integral_table


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _tables_made(monkeypatch, module):
    """Records ``((x, y, dydx), table)`` of every table ``module`` builds."""
    made = []

    def spy(x, y, dydx):
        made.append(((x, y, dydx), HermiteTable(x, y, dydx)))
        return made[-1][1]

    monkeypatch.setattr(module, "HermiteTable", spy)
    return made


def _ramp_table(monkeypatch):
    made = _tables_made(monkeypatch, partition)
    partition._ramp_spline.__wrapped__()
    return made[0]


def _stadium_displacement(monkeypatch):
    made = _tables_made(monkeypatch, smoothing)
    shape = make_shape({"kind": "stadium", "r": 1.0, "l": 2.0})
    delta, R = 0.025, 1.0
    psi = rescale_plateau(make_reference_plateau(), delta, R)
    w = smoothing_window_radius(delta, R)
    _, patch, _ = smoothing.smooth_patch(
        ClosedCurve(shape), float(shape.junction_arcs()[0]), delta=delta, R=R,
        rho=0.8 / (1.0 + psi.combined_lipschitz(R)), psi=psi, sigma_max=w / 128.0)
    assert patch is not None and patch.displacement is made[0][1]
    return made[0]


def _ellipse_inverse(monkeypatch):
    made = _tables_made(monkeypatch, curves)
    shape = make_shape({"kind": "ellipse", "a": 2.0, "b": 1.0})
    assert shape._inverse is made[0][1]
    return made[0]


def _stadium_warm_start(monkeypatch):
    made = _tables_made(monkeypatch, curves)
    shape = make_shape({"kind": "stadium", "r": 1.0, "l": 2.0})
    w = smoothing_window_radius(0.025, 1.0)
    graph = local_graph_at(ClosedCurve(shape), float(shape.junction_arcs()[0]), w)
    graph.slope(np.linspace(-w, w, 257))
    assert graph._table is made[0][1]
    return made[0]


def _reads(x, rng):
    """Knots, cell interiors, both ends, outside the knots, NaN, +-inf."""
    inside = x[:-1] + rng.uniform(0.0, 1.0, x.size - 1) * np.diff(x)
    span = x[-1] - x[0]
    outside = np.array([x[0] - 0.25 * span, x[0] - 1e-300, np.nextafter(x[0], -np.inf),
                        np.nextafter(x[-1], np.inf), x[-1] + 0.25 * span])
    return np.concatenate([x, inside, outside, [np.nan, -np.inf, np.inf]])


@pytest.mark.parametrize("build", [_ramp_table, _stadium_displacement,
                                   _ellipse_inverse, _stadium_warm_start],
                         ids=["ramp", "stadium_displacement", "ellipse_inverse",
                              "stadium_warm_start"])
def test_table_carries_the_splines_bytes(monkeypatch, build):
    (x, y, dydx), table = build(monkeypatch)
    spline = CubicHermiteSpline(x, y, dydx)
    assert table.x.shape[0] - 1 == table.c.shape[1] and table.c.shape[0] == 4
    assert _bits(table.x) == _bits(spline.x)
    assert _bits(table.c) == _bits(spline.c)
    t = _reads(table.x, np.random.default_rng(0))
    with np.errstate(invalid="ignore"):
        value, slope = table.value_and_slope(t)
        assert _bits(table(t)) == _bits(value) == _bits(spline(t))
        assert _bits(table.slope(t)) == _bits(slope) == _bits(spline(t, 1))
    # a read keeps the shape of its argument
    assert _bits(table(t[3])) == _bits(spline(t[3]))
    assert table(t[:-3].reshape(-1, 1)).shape == (t.size - 3, 1)


def _per_cell_loop(g, lo, hi, cells, h):
    """The loop the ramp and the ellipse each ran before
    ``integral_table``: knots, running integral and ``g`` at the knots,
    with the cell width ``h`` as each wrote it."""
    t = np.linspace(lo, hi, cells + 1)
    nodes = t[:-1, None] + h * _GL_X[None, :]
    cell = (h * _GL_W[None, :] * g(nodes)).sum(axis=1)
    return t, np.concatenate([[0.0], np.cumsum(cell)]), g(t)


def test_integral_table_reproduces_the_per_cell_loop():
    # the ramp: the bump's running integral on 2048 cells of [0, 1]
    def bump(u):
        return _bump_raw(2.0 * u - 1.0)

    t, raw, g = _per_cell_loop(bump, 0.0, 1.0, 2048, 1.0 / 2048)
    for a, b in zip(integral_table(bump, 0.0, 1.0, 2048), (t, raw, g)):
        assert _bits(a) == _bits(b)
    table, total = partition._ramp_spline.__wrapped__()
    oracle = HermiteTable(t, raw / raw[-1], g / raw[-1])
    assert total == raw[-1]
    assert _bits(table.x) == _bits(oracle.x) and _bits(table.c) == _bits(oracle.c)
    # the 2:1 ellipse: its length on 16384 cells of the angle
    shape = make_shape({"kind": "ellipse", "a": 2.0, "b": 1.0})
    th, cum, speed = _per_cell_loop(shape._speed, 0.0, 2.0 * math.pi, 16384,
                                    2.0 * math.pi / 16384)
    for a, b in zip(integral_table(shape._speed, 0.0, 2.0 * math.pi, 16384),
                    (th, cum, speed)):
        assert _bits(a) == _bits(b)
    assert _bits(shape._cum) == _bits(cum) and shape.length == float(cum[-1])
    oracle = HermiteTable(cum, th, 1.0 / speed)
    assert _bits(shape._inverse.c) == _bits(oracle.c)


def test_ramp_has_2049_knots(monkeypatch):
    (x, _, _), table = _ramp_table(monkeypatch)
    assert x.size == table.x.size == 2049


def test_negative_zero_sums_read_as_positive_zero():
    # PPoly sums from +0.0: a cell of negative zeros reads +0.0
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([-0.0, -0.0, 1.0, -0.0])
    dydx = np.array([-0.0, -0.0, 0.0, -0.0])
    table, spline = HermiteTable(x, y, dydx), CubicHermiteSpline(x, y, dydx)
    t = np.array([-1.0, 0.0, 0.5, 1.0, 2.5, 3.0, 4.0])
    assert _bits(table.c) == _bits(spline.c)
    assert _bits(table(t)) == _bits(spline(t))
    assert _bits(table.slope(t)) == _bits(spline(t, 1))
    zeros = table.slope(t)[t <= 1.0]
    assert not zeros.any() and not np.signbit(zeros).any()


def test_random_tables_match_the_spline():
    rng = np.random.default_rng(1)
    for n in (2, 3, 17, 200):
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
        y, dydx = rng.normal(size=n), rng.normal(size=n)
        table, spline = HermiteTable(x, y, dydx), CubicHermiteSpline(x, y, dydx)
        assert _bits(table.c) == _bits(spline.c)
        t = _reads(x, rng)
        with np.errstate(invalid="ignore"):
            assert _bits(table(t)) == _bits(spline(t))
            assert _bits(table.slope(t)) == _bits(spline(t, 1))


@pytest.mark.parametrize("x", [[0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
def test_table_refuses_knots_that_do_not_increase(x):
    x = np.array(x)
    with pytest.raises(InvalidInputError):
        HermiteTable(x, np.zeros_like(x), np.zeros_like(x))

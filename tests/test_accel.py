"""Scan kernels against brute-force oracles.

The difference quotient and the directed Hausdorff distance skip the
all-pairs loop (the Hausdorff sweep compares each point only inside a
strip of the other set), and the pair scan walks its rows in blocks and
skips the columns that cannot beat its running best; the loops they
replaced live on here as oracles, and the kernels must match them in
value, in the returned indices and in the pair count.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachsmooth import _accel
from reachsmooth._accel import _slow
from reachsmooth.checks import estimate_lipschitz
from reachsmooth.curves import ClosedCurve, make_shape, sample_manifold
from reachsmooth.errors import InvalidInputError
from tests.test_reach import jittered_offset_polygon


def _circle(n, r=1.0):
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = r * np.stack([np.cos(th), np.sin(th)], axis=1)
    tans = np.stack([-np.sin(th), np.cos(th)], axis=1)
    return pts, tans


def _row_loop_federer_scan(points, tangents, min_sep, hot=None):
    """The pair scan one row at a time, over the pairs with an end in the
    mask ``hot`` (every pair when None): (value, i, j, pairs)."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    tan = np.ascontiguousarray(tangents, dtype=np.float64)
    n = pts.shape[0]
    hot = np.ones(n, dtype=bool) if hot is None else np.asarray(hot, dtype=bool)
    best = np.inf
    bi = bj = -1
    pairs = 0
    for i in range(n - 1):
        dx = pts[i + 1:, 0] - pts[i, 0]
        dy = pts[i + 1:, 1] - pts[i, 1]
        d2 = dx * dx + dy * dy
        d = np.sqrt(d2)
        keep = (d >= min_sep) & (hot[i] | hot[i + 1:])
        m = int(np.count_nonzero(keep))
        if m == 0:
            continue
        pairs += 2 * m
        dxk, dyk, d2k, dk = dx[keep], dy[keep], d2[keep], d[keep]
        jidx = np.nonzero(keep)[0] + i + 1
        guard = _accel.DEGENERATE_REL * dk
        cr1 = np.abs(dxk * tan[i, 1] - dyk * tan[i, 0])
        with np.errstate(divide="ignore", over="ignore"):
            r1 = np.where(cr1 <= guard, np.inf, d2k / (2.0 * cr1))
        cr2 = np.abs(dxk * tan[jidx, 1] - dyk * tan[jidx, 0])
        with np.errstate(divide="ignore", over="ignore"):
            r2 = np.where(cr2 <= guard, np.inf, d2k / (2.0 * cr2))
        k1 = int(np.argmin(r1))
        k2 = int(np.argmin(r2))
        if r1[k1] <= r2[k2]:
            row_val, row_i, row_j = r1[k1], i, int(jidx[k1])
        else:
            row_val, row_i, row_j = r2[k2], int(jidx[k2]), i
        if row_val < best:
            best, bi, bj = float(row_val), row_i, row_j
    return best, bi, bj, pairs


def _all_pairs_quotient(xs, vals):
    """Largest |vals_i - vals_j| / |xs_i - xs_j| over every pair i < j."""
    best = 0.0
    for i in range(xs.size - 1):
        q = np.abs(vals[i + 1:] - vals[i]) / np.abs(xs[i + 1:] - xs[i])
        best = max(best, float(q.max()))
    return best


def _brute_directed_hausdorff(a, b):
    """(sup over a of the distance to b, first maximizing row of a)."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    mins = np.sqrt(d2.min(axis=1))
    k = int(np.argmax(mins))
    return float(mins[k]), k


def test_backend_reports_implementation():
    assert _accel.IMPLEMENTATION == "python"
    for name in ("federer_scan", "max_abs_diff_quotient", "directed_hausdorff"):
        assert getattr(_accel, name) is getattr(_slow, name)


def test_slow_federer_circle_value():
    pts, tans = _circle(300, r=2.0)
    value, i, j, pairs = _slow.federer_scan(pts, tans, 0.05, None)
    assert value == pytest.approx(2.0, rel=1e-8)
    assert pairs > 0
    assert 0 <= i < 300 and 0 <= j < 300


def _random_cloud(rng, n):
    pts = rng.normal(size=(n, 2))
    ang = rng.uniform(0.0, 2 * np.pi, n)
    return pts, np.stack([np.cos(ang), np.sin(ang)], axis=1)


@pytest.mark.parametrize("n", [2, 15, 16, 17, 33, 100])
def test_federer_scan_matches_row_loop_on_clouds(n):
    # n on both sides of a block boundary, and several min_sep cuts
    rng = np.random.default_rng(40 + n)
    pts, tans = _random_cloud(rng, n)
    for min_sep in (1e-9, 0.5, 1.5):
        got = _slow.federer_scan(pts, tans, min_sep, None)
        assert got == _row_loop_federer_scan(pts, tans, min_sep)


def test_federer_scan_matches_row_loop_on_near_ties():
    # every pair of a sampled circle reads nearly its radius, so the
    # argmin falls to the enumeration-order tie-break
    pts, tans = _circle(300, r=2.0)
    for min_sep in (0.05, 1.0):
        got = _slow.federer_scan(pts, tans, min_sep, None)
        assert got == _row_loop_federer_scan(pts, tans, min_sep)
    # exact ties across rows: repeated points give equal ratios
    pts, tans = _circle(12)
    pts, tans = np.concatenate([pts, pts]), np.concatenate([tans, tans])
    assert (_slow.federer_scan(pts, tans, 0.1, None)
            == _row_loop_federer_scan(pts, tans, 0.1))
    # exact ties between directions: a pair mirrored in the x axis reads
    # the same ratio both ways, and the scan reports it as i -> j
    pts = np.array([[0.0, 0.0], [0.0, 1.0]])
    tans = np.array([[0.6, 0.8], [0.6, -0.8]])
    assert _slow.federer_scan(pts, tans, 0.1, None) == (1.0 / (2.0 * 0.6), 0, 1, 2)
    rng = np.random.default_rng(5)
    half, half_t = _random_cloud(rng, 20)
    pts = np.concatenate([half, half * [1.0, -1.0]])
    tans = np.concatenate([half_t, half_t * [1.0, -1.0]])
    assert (_slow.federer_scan(pts, tans, 0.1, None)
            == _row_loop_federer_scan(pts, tans, 0.1))


def test_federer_scan_matches_row_loop_without_pairs():
    pts, tans = _circle(40)
    got = _slow.federer_scan(pts, tans, 10.0, None)
    assert got == _row_loop_federer_scan(pts, tans, 10.0) == (np.inf, -1, -1, 0)
    line = np.stack([np.linspace(0.0, 4.0, 20), np.zeros(20)], axis=1)
    flat = np.tile([1.0, 0.0], (20, 1))
    got = _slow.federer_scan(line, flat, 0.1, None)
    assert got == _row_loop_federer_scan(line, flat, 0.1)
    assert got[:3] == (np.inf, -1, -1) and got[3] == 20 * 19


def _shape_sample(shape, n):
    """Points, unit tangents and the scan's min_sep of an n-point sample."""
    sample = sample_manifold(ClosedCurve(shape), n)
    return sample.points, sample.tangents, 2.0 * sample.spacing


def _pruning_cut(pts, tans, min_sep):
    """The scan's final pruning distance and the cloud's diameter."""
    best = _row_loop_federer_scan(pts, tans, min_sep)[0]
    cut = max(2.0 * best * np.linalg.norm(tans, axis=1).max(), min_sep)
    return cut, np.linalg.norm(pts[:, None] - pts[None, :], axis=2).max()


@pytest.mark.parametrize("spec, n, share", [
    ({"kind": "ellipse", "a": 4.0, "b": 0.25}, 600, 0.01),
    ({"kind": "stadium", "r": 0.2, "l": 3.0}, 500, 0.15),
    ({"kind": "stadium", "r": 1.0, "l": 2.0}, 400, 0.55),
])
def test_pruned_scan_matches_row_loop_on_thin_shapes(spec, n, share):
    # 2 best is a small share of the diameter, so most columns are pruned
    pts, tans, min_sep = _shape_sample(make_shape(spec), n)
    cut, diameter = _pruning_cut(pts, tans, min_sep)
    assert cut < share * diameter
    for ms in (min_sep, 4.0 * min_sep):
        assert (_slow.federer_scan(pts, tans, ms, None)
                == _row_loop_federer_scan(pts, tans, ms))


def test_pruning_is_live(monkeypatch):
    # a cut ten times too tight counts pairs closer than min_sep as
    # bounded, so the oracle tests above do see pruned blocks
    pts, tans, min_sep = _shape_sample(
        make_shape({"kind": "ellipse", "a": 4.0, "b": 0.25}), 600)
    want = _row_loop_federer_scan(pts, tans, min_sep)
    monkeypatch.setattr(_slow, "_PRUNE_SLACK", -0.9)
    assert _slow.federer_scan(pts, tans, min_sep, None)[3] > want[3]


def test_pruned_scan_matches_row_loop_with_minimum_in_last_block():
    # a rough line whose one tight pair is the last two points: the
    # minimum sits in the final, one-row block, after blocks that pruned
    n = 66
    pts = np.stack([np.linspace(0.0, 10.0, n), np.zeros(n)], axis=1)
    tans = np.tile([1.0, 0.0], (n, 1))
    pts[-1] = [pts[-2, 0] + 0.1, 0.05]
    tans[-1] = [0.6, 0.8]
    rng = np.random.default_rng(7)
    pts[:-2, 1] += 1e-2 * rng.standard_normal(n - 2)
    got = _slow.federer_scan(pts, tans, 0.05, None)
    assert got == _row_loop_federer_scan(pts, tans, 0.05)
    assert {got[1], got[2]} == {n - 2, n - 1}
    assert (n - 2) % _slow._SCAN_ROWS == 0


@pytest.mark.parametrize("n", [18, 34])
def test_pruned_scan_matches_row_loop_with_isolated_last_point(n):
    # n = 2 (mod 16): the last block has one row, and its only column,
    # the far point n - 1, is dropped, leaving the block nothing to scan
    pts, tans = _circle(n - 1, r=0.01)
    pts = np.vstack([pts, [100.0, 0.0]])
    tans = np.vstack([tans, [0.0, 1.0]])
    assert (n - 2) % _slow._SCAN_ROWS == 0
    got = _slow.federer_scan(pts, tans, 1e-4, None)
    assert got == _row_loop_federer_scan(pts, tans, 1e-4)
    assert got[0] == pytest.approx(0.01) and n - 1 not in got[1:3]


def test_pruned_scan_matches_row_loop_on_circle():
    # every ratio reads the radius, so 2 best is the diameter and no
    # column is ever dropped
    pts, tans = _circle(257, r=3.0)
    cut, diameter = _pruning_cut(pts, tans, 0.1)
    assert cut >= (1.0 - 1e-9) * diameter
    assert (_slow.federer_scan(pts, tans, 0.1, None)
            == _row_loop_federer_scan(pts, tans, 0.1))


def _facing_lines(n):
    """A segment and a bent one across from it, the gap 1.1 at the ends
    and 1.0 in the middle: the least ratio is a pair straight across,
    2 best apart, in a block of the first segment's rows."""
    x = np.linspace(0.0, 10.0, n)
    slope = np.sign(x - 5.0) / 50.0
    pts = np.concatenate([np.stack([x, np.zeros(n)], axis=1),
                          np.stack([x, 1.0 + np.abs(x - 5.0) / 50.0], axis=1)])
    bent = np.stack([np.ones(n), slope], axis=1) / np.hypot(1.0, slope)[:, None]
    return pts, np.concatenate([np.tile([1.0, 0.0], (n, 1)), bent])


@pytest.mark.parametrize("scale", [0.5, 3.0])
def test_pruned_scan_matches_row_loop_on_scaled_tangents(scale):
    # ratios scale like 1/|t| and the cut by max|t|: the bound must hold
    # for tangents of any length
    pts, tans, min_sep = _shape_sample(
        make_shape({"kind": "ellipse", "a": 3.0, "b": 0.5}), 400)
    rng = np.random.default_rng(int(10 * scale))
    for t in (scale * tans, tans * rng.uniform(0.5, scale + 0.5, (400, 1))):
        assert (_slow.federer_scan(pts, t, min_sep, None)
                == _row_loop_federer_scan(pts, t, min_sep))
    pts, tans = _facing_lines(200)
    assert (_slow.federer_scan(pts, scale * tans, 0.05, None)
            == _row_loop_federer_scan(pts, scale * tans, 0.05))


def test_pruned_scan_matches_row_loop_with_min_sep_above_twice_best():
    # min_sep, not 2 best, sets the cut; pairs closer than it still
    # count for nothing
    pts, tans, min_sep = _shape_sample(
        make_shape({"kind": "ellipse", "a": 4.0, "b": 0.25}), 500)
    best = _row_loop_federer_scan(pts, tans, min_sep)[0]
    for ms in (3.0 * best, 6.0 * best):
        assert ms > 2.0 * best
        assert (_slow.federer_scan(pts, tans, ms, None)
                == _row_loop_federer_scan(pts, tans, ms))


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=6),
       st.floats(0.5, 2.0), st.floats(0.02, 0.3))
def test_pruned_scan_matches_row_loop_on_offset_polygons(jitter, size, r):
    shape = jittered_offset_polygon(jitter, size, r)
    pts, tans, min_sep = _shape_sample(shape, 300)
    assert (_slow.federer_scan(pts, tans, min_sep, None)
            == _row_loop_federer_scan(pts, tans, min_sep))


# ------------------------------------------------- the windowed scan
#
# With a mask, the scan reads only the pairs with a hot end, rows of hot
# points against the cold points below and every point above; the row
# loop, masked, is its oracle.


def _masks(rng, n):
    """Masks of an n-point cloud: sparse, dense, one run, lone points."""
    one_run = np.zeros(n, dtype=bool)
    a = int(rng.integers(0, n))
    one_run[a:a + int(rng.integers(1, 40))] = True
    first, last = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    first[0] = last[-1] = True
    return [rng.uniform(size=n) < 0.1, rng.uniform(size=n) < 0.7, one_run,
            first, last]


@pytest.mark.parametrize("n", [2, 15, 16, 17, 33, 100])
def test_windowed_scan_matches_masked_row_loop_on_clouds(n):
    rng = np.random.default_rng(80 + n)
    pts, tans = _random_cloud(rng, n)
    for hot in _masks(rng, n):
        for min_sep in (1e-9, 0.5, 1.5):
            got = _slow.federer_scan(pts, tans, min_sep, hot)
            assert got == _row_loop_federer_scan(pts, tans, min_sep, hot)


def test_windowed_scan_matches_masked_row_loop_on_near_ties():
    rng = np.random.default_rng(3)
    pts, tans = _circle(300, r=2.0)
    for hot in _masks(rng, 300):
        for min_sep in (0.05, 1.0):
            assert (_slow.federer_scan(pts, tans, min_sep, hot)
                    == _row_loop_federer_scan(pts, tans, min_sep, hot))
    # exact ties between a hot row and the cold copy of it below, and
    # between the two directions of a mirrored pair
    pts, tans = _circle(12)
    pts, tans = np.concatenate([pts, pts]), np.concatenate([tans, tans])
    hot = np.arange(24) >= 12
    for mask in (hot, ~hot, hot & (np.arange(24) % 5 == 0)):
        assert (_slow.federer_scan(pts, tans, 0.1, mask)
                == _row_loop_federer_scan(pts, tans, 0.1, mask))
    # a tie across blocks: the second block's rows meet the cold copies
    # below the first block, whose pairs come first in the row loop
    pts, tans = _circle(24)
    pts, tans = np.concatenate([pts, pts]), np.concatenate([tans, tans])
    hot = (np.arange(48) >= 9) & (np.arange(48) < 27)
    assert (_slow.federer_scan(pts, tans, 0.1, hot)
            == _row_loop_federer_scan(pts, tans, 0.1, hot))
    pts = np.array([[0.0, 0.0], [0.0, 1.0]])
    tans = np.array([[0.6, 0.8], [0.6, -0.8]])
    for mask in ([True, False], [False, True]):
        assert (_slow.federer_scan(pts, tans, 0.1, np.array(mask))
                == (1.0 / (2.0 * 0.6), 0, 1, 2))
    half, half_t = _random_cloud(rng, 20)
    pts = np.concatenate([half, half * [1.0, -1.0]])
    tans = np.concatenate([half_t, half_t * [1.0, -1.0]])
    for hot in _masks(rng, 40):
        assert (_slow.federer_scan(pts, tans, 0.1, hot)
                == _row_loop_federer_scan(pts, tans, 0.1, hot))


@pytest.mark.parametrize("n", [17, 33, 34])
def test_windowed_scan_matches_masked_row_loop_on_short_blocks(n):
    # at n = 17 and 33, n - 1 = 0 (mod 16): with every point hot, the
    # last block is the last point alone, which meets no column; a lone
    # hot point is a one-row block, and the last one meets only cold
    # points below it
    rng = np.random.default_rng(n)
    pts, tans = _random_cloud(rng, n)
    every = np.ones(n, dtype=bool)
    assert (_slow.federer_scan(pts, tans, 0.1, every)
            == _slow.federer_scan(pts, tans, 0.1, None)
            == _row_loop_federer_scan(pts, tans, 0.1))
    for k in (0, n // 2, n - 1):
        hot = np.arange(n) == k
        assert (_slow.federer_scan(pts, tans, 0.1, hot)
                == _row_loop_federer_scan(pts, tans, 0.1, hot))
    # 17 hot rows: the second block is one row
    hot = np.arange(n) < 17
    assert (_slow.federer_scan(pts, tans, 0.1, hot)
            == _row_loop_federer_scan(pts, tans, 0.1, hot))


def test_windowed_scan_without_hot_points_scans_nothing():
    pts, tans = _circle(40)
    assert (_slow.federer_scan(pts, tans, 0.1, np.zeros(40, dtype=bool))
            == _row_loop_federer_scan(pts, tans, 0.1, np.zeros(40, dtype=bool))
            == (np.inf, -1, -1, 0))


def test_windowed_scan_matches_masked_row_loop_with_pruning():
    # a thin ellipse and an isolated far point: hot windows at the
    # vertices and the flanks, and blocks whose columns all prune
    pts, tans, min_sep = _shape_sample(
        make_shape({"kind": "ellipse", "a": 4.0, "b": 0.25}), 600)
    idx = np.arange(600)
    for hot in ((idx < 20) | (idx > 580), (idx > 130) & (idx < 170),
                idx % 37 == 0):
        for ms in (min_sep, 4.0 * min_sep):
            assert (_slow.federer_scan(pts, tans, ms, hot)
                    == _row_loop_federer_scan(pts, tans, ms, hot))
    pts, tans = _circle(33, r=0.01)
    pts = np.vstack([pts, [100.0, 0.0]])
    tans = np.vstack([tans, [0.0, 1.0]])
    for hot in (np.arange(34) >= 16, np.arange(34) == 33):
        assert (_slow.federer_scan(pts, tans, 1e-4, hot)
                == _row_loop_federer_scan(pts, tans, 1e-4, hot))


def test_every_hot_point_is_the_full_scan():
    pts, tans, min_sep = _shape_sample(
        make_shape({"kind": "stadium", "r": 0.2, "l": 3.0}), 500)
    assert (_slow.federer_scan(pts, tans, min_sep, np.ones(500, dtype=bool))
            == _slow.federer_scan(pts, tans, min_sep, None))


def test_slow_quotient_hand_case():
    xs = np.array([0.0, 1.0, 2.0])
    vals = np.array([0.0, 2.0, 3.0])
    q, i, j = _slow.max_abs_diff_quotient(xs, vals)
    assert q == 2.0
    assert (i, j) == (0, 1)


@pytest.mark.parametrize("spacing", ["uniform", "random", "graded"])
def test_quotient_matches_all_pairs_oracle(spacing):
    rng = np.random.default_rng(12)
    for _ in range(8):
        n = int(rng.integers(2, 400))
        if spacing == "uniform":
            xs = np.linspace(-3.0, 3.0, n)
        elif spacing == "random":
            xs = np.cumsum(rng.uniform(1e-3, 1.0, n))
        else:
            xs = np.cumsum(np.geomspace(1e-4, 1.0, n))
        vals = rng.normal(size=n)
        q, i, j = _accel.max_abs_diff_quotient(xs, vals)
        assert q == _all_pairs_quotient(xs, vals)
        assert 0 <= i < j < n
        assert abs(vals[j] - vals[i]) / (xs[j] - xs[i]) == q


def test_estimate_lipschitz_rejects_unsorted_or_repeated_xs():
    vals = np.array([0.0, 1.0, 3.0, 2.0])
    with pytest.raises(InvalidInputError):
        estimate_lipschitz(np.array([0.0, 2.0, 1.0, 3.0]), vals)
    with pytest.raises(InvalidInputError):
        estimate_lipschitz(np.array([0.0, 1.0, 1.0, 3.0]), vals)
    assert estimate_lipschitz(np.array([0.0, 1.0, 2.0, 3.0]), vals) == 2.0


def test_slow_hausdorff_brute_force():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 2))
    b = rng.normal(size=(55, 2))
    d, k = _slow.directed_hausdorff(a, b)
    dists = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min(axis=1)
    assert d == dists.max()
    assert k == int(np.argmax(dists))


@pytest.mark.parametrize("dim", [2, 3])
def test_hausdorff_matches_brute_force_oracle(dim):
    rng = np.random.default_rng(13 + dim)
    for _ in range(6):
        a = rng.normal(size=(int(rng.integers(1, 300)), dim))
        b = rng.normal(size=(int(rng.integers(1, 300)), dim))
        assert _accel.directed_hausdorff(a, b) == _brute_directed_hausdorff(a, b)


def _graphs_on_one_grid():
    # the patch_hausdorff shape: a graph and a small move of it
    ys = np.linspace(-0.3, 0.3, 1025)
    f = 0.4 * ys * ys + 0.1 * np.sin(7.0 * ys)
    g = f + 3e-4 * np.cos(40.0 * ys) * np.exp(-(ys / 0.1) ** 2)
    return np.stack([ys, f], axis=1), np.stack([ys, g], axis=1)


def _repeated_first_coordinates():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(400, 2)), rng.normal(size=(350, 2))
    a[:, 0] = np.round(a[:, 0], 1)
    b[:, 0] = np.round(b[:, 0], 1)
    return a, b


def _one_first_coordinate():
    # every strip holds all of b: the quadratic worst case
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(300, 2)), rng.normal(size=(500, 2))
    a[:, 0] = b[:, 0] = 0.25
    return a, b


def _one_point_sets():
    rng = np.random.default_rng(7)
    return rng.normal(size=(1, 2)), rng.normal(size=(1, 2))


@pytest.mark.parametrize("case", [_graphs_on_one_grid, _repeated_first_coordinates,
                                  _one_first_coordinate, _one_point_sets],
                         ids=["one_grid", "repeated_x", "one_x", "one_point"])
def test_hausdorff_sweep_matches_brute_force_on_hard_sets(case):
    a, b = case()
    for p, q in ((a, b), (b, a), (a, b[:1]), (a[:1], b)):
        assert _accel.directed_hausdorff(p, q) == _brute_directed_hausdorff(p, q)


def test_hausdorff_sweep_keeps_temporaries_bounded():
    a, b = _one_first_coordinate()
    a, b = np.tile(a, (4, 1)), np.tile(b, (4, 1))
    tracemalloc.start()
    value = _accel.directed_hausdorff(a, b)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert value == _brute_directed_hausdorff(a, b)
    # 1200 x 2000 pairs would take 38 MB as one (n, m, 2) array
    assert peak < 4_000_000


def test_slow_federer_collinear_is_inf():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    tans = np.tile([1.0, 0.0], (3, 1))
    value, i, j, pairs = _slow.federer_scan(pts, tans, 0.1, None)
    assert np.isinf(value)
    assert pairs == 6

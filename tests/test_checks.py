"""The lemma checkers themselves: zoo validity, honest negatives, suites."""

import dataclasses
import gc
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from reachsmooth import checks, kernels, smoothing
from reachsmooth.checks import (CheckResult, check_angle_bound,
                                check_blend_lipschitz,
                                check_convolution_lipschitz,
                                check_far_point_distance,
                                check_hausdorff_bound, check_main_theorem,
                                check_tangent_distance_bound,
                                estimate_lipschitz, patch_graph_arrays,
                                random_c11,
                                random_piecewise_linear, run_suite,
                                write_checks_csv, write_failures_json)
from reachsmooth.curves import LocalGraph, sample_manifold
from reachsmooth.errors import InvalidInputError
from reachsmooth.kernels import BumpKernel, Interval
from reachsmooth.partition import make_reference_plateau, smoothing_window_radius
from reachsmooth.reach import estimate_reach_federer
from reachsmooth.smoothing import (_PROBE_RATIO_CAP, BlendedMap,
                                   effective_radius_drop, far_away_reach_bound,
                                   predicted_reach_bound, smooth_core_probe,
                                   smooth_manifold)
from tests import test_curves, test_kernels
from tests.test_kernels import M49_SIGMA, convolve, counted, tap_scheme
from tests.test_smoothing import scaled_run


def test_result_slack_arithmetic():
    r = CheckResult(name="demo", passed=True, measured=0.4, bound=0.5,
                    tolerance=0.01, slack=0.11, grid=100, seed=1, instance="x")
    assert r.slack == pytest.approx(r.bound + r.tolerance - r.measured)


def test_estimate_lipschitz_on_known_slope():
    rng = np.random.default_rng(5)
    f, df, L = random_piecewise_linear(rng, Interval(-2, 2), 6, 3.0)
    xs = np.linspace(-2, 2, 4001)
    est = estimate_lipschitz(xs, f(xs))
    assert est <= L + 1e-12
    assert est >= 0.9 * L


def test_estimate_lipschitz_validation():
    with pytest.raises(InvalidInputError):
        estimate_lipschitz(np.zeros(3), np.zeros(4))
    with pytest.raises(InvalidInputError):
        estimate_lipschitz(np.zeros((2, 2)), np.zeros((2, 2)))


def test_piecewise_linear_zoo_is_valid():
    rng = np.random.default_rng(17)
    for _ in range(5):
        f, df, L = random_piecewise_linear(rng, Interval(-2, 2), 7, 4.0)
        xs = np.linspace(-2, 2, 2001)
        # continuity at the 1e-6 scale of the finest feature
        gaps = np.abs(np.diff(f(xs)))
        assert gaps.max() <= L * (xs[1] - xs[0]) * (1 + 1e-9)
        # stated constant is exact: slopes never exceed it, and some
        # stretch of the function realizes it
        assert np.abs(df(xs)).max() <= L * (1 + 1e-15)
        assert estimate_lipschitz(xs, f(xs)) >= (1 - 1e-6) * L


def test_c11_zoo_is_valid():
    rng = np.random.default_rng(23)
    for _ in range(5):
        f, df, L, Ld = random_c11(rng, Interval(-2, 2), 7, 3.0)
        xs = np.linspace(-2, 2, 2001)
        # df really is the derivative of f
        h = 1e-6
        fd = (f(xs[1:-1] + h) - f(xs[1:-1] - h)) / (2 * h)
        assert np.abs(fd - df(xs[1:-1])).max() <= 1e-6
        # slope of the slope stays inside the stated constant
        assert estimate_lipschitz(xs, df(xs)) <= Ld * (1 + 1e-12)
        assert np.abs(df(xs)).max() <= L * (1 + 1e-12)


def test_convolution_check_passes_and_reports():
    rng = np.random.default_rng(3)
    f, df, L = random_piecewise_linear(rng, Interval(-2, 2), 5, 2.0)
    row = check_convolution_lipschitz(f, df, L, BumpKernel(0.1),
                                      Interval(-2, 2), order=0, seed=3,
                                      instance="pw")
    assert row.passed and row.measured <= row.bound + row.tolerance
    assert row.name == "conv_lipschitz_order0"
    assert row.instance == "pw" and row.seed == 3


def test_convolution_check_detects_false_claim():
    # claiming half the true constant must fail: the checker is not a
    # tautology
    rng = np.random.default_rng(3)
    f, df, L = random_piecewise_linear(rng, Interval(-2, 2), 5, 2.0)
    xs = np.linspace(-2, 2, 2001)
    true_l = estimate_lipschitz(xs, f(xs))
    row = check_convolution_lipschitz(f, df, 0.5 * true_l, BumpKernel(0.05),
                                      Interval(-2, 2), order=0, seed=3,
                                      instance="pw")
    assert not row.passed
    assert row.slack < 0


def test_blend_check_passes_both_orders():
    psi = make_reference_plateau()
    rng = np.random.default_rng(9)
    f, df, L, Ld = random_c11(rng, Interval(-4, 4), 6, 2.0)
    for order in (0, 1):
        row = check_blend_lipschitz(f, df, L, Ld, psi, 1e-3, Interval(-4, 4),
                                    order=order, sigma_max=0.25, seed=9,
                                    instance="c11")
        assert row.passed, row


def test_blend_check_detects_false_claim():
    psi = make_reference_plateau()
    rng = np.random.default_rng(9)
    f, df, L, Ld = random_c11(rng, Interval(-4, 4), 6, 2.0)
    xs = np.linspace(-3, 3, 4001)
    true_l = estimate_lipschitz(xs, f(xs))
    row = check_blend_lipschitz(f, df, 0.4 * true_l, Ld, psi, 1e-6,
                                Interval(-4, 4), order=0, sigma_max=0.25,
                                seed=9, instance="c11")
    assert not row.passed


def test_patch_checkers_on_real_patch(stadium_run):
    result = stadium_run.result
    patch = result.curve.patches[0]
    R = result.report.R_input
    # every checker reads the same shared arrays, as the patches suite runs them
    arrays = patch_graph_arrays(patch)
    r1 = check_tangent_distance_bound(patch, seed=1, instance="p0",
                                      arrays=arrays)
    r2 = check_angle_bound(patch, seed=1, instance="p0", arrays=arrays)
    r3 = check_hausdorff_bound(patch, R, seed=1, instance="p0", arrays=arrays)
    sample = sample_manifold(result.curve, n=2000)
    r4 = check_far_point_distance(patch, result.curve, R, sample, seed=1,
                                  instance="p0", arrays=arrays)
    for row in (r1, r2, r3, r4):
        assert row.passed, row
        assert row.instance == "p0"
    # distinct lemmas, distinct row names
    assert len({r1.name, r2.name, r3.name, r4.name}) == 4
    # grid counts the pairs compared: core points times far samples
    core = int((np.abs(arrays[0]) <= patch.inner_radius).sum())
    L = result.curve.length
    gap = np.abs(np.mod(sample.params - patch.base_arc + 0.5 * L, L) - 0.5 * L)
    far = int((gap > 1.5 * patch.arc_window).sum())
    assert core > 96 and far > 0
    assert r4.grid == core * far
    # the shared arrays are the only route: a checker without them is an error
    with pytest.raises(TypeError):
        check_angle_bound(patch, seed=1, instance="p0")


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def _traced_peak(call):
    """Peak bytes ``tracemalloc`` sees allocated during ``call()``."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _dense_tangent_distance(arrays):
    """The tangent-distance maximum as one (pairs x pairs) broadcast: a
    pair closer than two grid steps is skipped, a NaN distance is not."""
    ys, F, DF, _, _ = arrays
    stride = max(1, ys.size // checks._PAIR_N)
    ys, F, DF = ys[::stride], F[::stride], DF[::stride]
    norm = np.sqrt(1.0 + DF * DF)
    T0, T1 = 1.0 / norm, DF / norm
    D0 = ys[None, :] - ys[:, None]
    D1 = F[None, :] - F[:, None]
    cross = np.abs(D0 * T1[:, None] - D1 * T0[:, None])
    d2 = D0 * D0 + D1 * D1
    keep = ~(d2 < (2.0 * (ys[1] - ys[0])) ** 2)
    return np.where(keep, cross / np.where(keep, d2, 1.0), 0.0).max()


def test_tangent_distance_matches_dense_broadcast_on_every_patch(
        stadium_run, rounded_rect_run):
    seen = 0
    for result in (stadium_run.result, rounded_rect_run):
        for patch in result.curve.patches:
            arrays = patch_graph_arrays(patch)
            row = check_tangent_distance_bound(patch, instance="p0",
                                               arrays=arrays)
            assert _bits(row.measured) == _bits(_dense_tangent_distance(arrays))
            assert row.passed
            seen += 1
    assert seen == 12


def _spoiled_arrays(patch, where, bad):
    """The patch arrays with entry 500 of array ``where`` set to ``bad``;
    500 is on the tangent check's pair subsample."""
    arrays = [a.copy() for a in patch_graph_arrays(patch)]
    assert 500 % max(1, arrays[0].size // checks._PAIR_N) == 0
    arrays[where][500] = bad
    return tuple(arrays)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1, 2], ids=["ys", "F", "DF"])
def test_tangent_distance_non_finite_entry_fails_the_row(stadium_run, where,
                                                        bad):
    # a NaN distance used to drop its pair, so F[500] = nan read 0.50002
    # and passed
    patch = stadium_run.result.curve.patches[0]
    arrays = _spoiled_arrays(patch, where, bad)
    with np.errstate(invalid="ignore", over="ignore"):
        row = check_tangent_distance_bound(patch, instance="p0", arrays=arrays)
        assert math.isnan(_dense_tangent_distance(arrays))
    assert math.isnan(row.measured) and not row.passed


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1, 3], ids=["ys", "F", "fv"])
def test_hausdorff_non_finite_arrays_fail_the_row(stadium_run, where, bad,
                                                 tmp_path):
    patch = stadium_run.result.curve.patches[0]
    R = stadium_run.result.report.R_input
    row = check_hausdorff_bound(patch, R, instance="p0",
                                arrays=_spoiled_arrays(patch, where, bad))
    assert row.name == "patch_hausdorff"
    assert math.isnan(row.measured) and not row.passed
    data = json.loads(write_failures_json([row], tmp_path / "failures.json"))
    assert data["failures"][0]["measured"] == "nan"


def test_pair_checkers_peak_below_one_dense_pair_matrix(stadium_run):
    # each pair checker forms at most _PAIR_FLOATS pairs at a time, so a
    # call peaks below one dense pair matrix: 205^2 pairs for the tangent
    # check, (core blocks) x (far samples) bounds for the far-point check
    result = stadium_run.result
    patch = result.curve.patches[0]
    R = result.report.R_input
    sample = sample_manifold(result.curve, n=2000)
    arrays = patch_graph_arrays(patch)
    n = arrays[0][::max(1, arrays[0].size // checks._PAIR_N)].size
    assert n == 219
    peak = _traced_peak(lambda: check_tangent_distance_bound(
        patch, instance="p0", arrays=arrays))
    assert peak < n * n * 8, peak
    P, _, far = _far_geometry(patch, result.curve, sample, arrays)
    blocks = -(-P.shape[0] // checks._FAR_BLOCK)
    assert blocks == 18
    peak = _traced_peak(lambda: check_far_point_distance(
        patch, result.curve, R, sample, instance="p0", arrays=arrays))
    assert peak < blocks * far.shape[0] * 8, peak


def _read_batches(monkeypatch):
    """Records the shape of every batch ``LocalGraph._read`` reads, by
    the closed form or by Newton."""
    batches = []
    read = LocalGraph._read

    def counted(self, y):
        batches.append(np.shape(y))
        return read(self, y)

    monkeypatch.setattr(LocalGraph, "_read", counted)
    return batches


def _lattice_stride(patch):
    """2 r2/1024, the step of a 1025-point grid over [-r2, r2], in lattice
    steps sigma/16, unrounded."""
    h = patch.blend.kernel.sigma / patch.blend.taps
    return 2.0 * patch.transition_radius / ((checks._PATCH_GRID - 1) * h)


def _patch_grid(patch):
    """The indices (i s) of a patch's grid: every s-th point of its
    lattice in [-r2, r2], s the largest whole number of lattice steps
    that leaves 1025 of them."""
    h = patch.blend.kernel.sigma / patch.blend.taps
    r2 = patch.transition_radius
    s = math.floor(r2 / h / 512)
    last = math.floor(r2 / h / s)
    k = s * np.arange(-last, last + 1)
    assert k.size >= checks._PATCH_GRID
    assert 2 * math.floor(r2 / h / (s + 1)) + 1 < checks._PATCH_GRID
    return k


def _lattice_reference(patch, k, q):
    """The arrays at the points k h/q, h = sigma/16, from separate value
    and slope reads on the lattice points the grid and its taps (k - j q)
    need, each tap picked by index and weighted by ``@ w`` with the
    oracle's weights, the hot rows padded to a whole number of fours
    with copies of the last so that the BLAS sums each by its four-row
    kernel."""
    b = patch.blend
    g = b.graph
    T = b.taps
    h = b.kernel.sigma / T
    taps = k[:, None] - np.arange(-T, T + 1) * q
    ks = np.unique(taps)
    val, slo = g.value(ks * (h / q)), g.slope(ks * (h / q))
    ys = k * (h / q)
    base, dbase = val[np.searchsorted(ks, k)], slo[np.searchsorted(ks, k)]
    w, dw = b.psi(ys), b.psi.derivative(ys)
    hot = (w > 0.0) | (dw != 0.0)
    _, weights = tap_scheme(b.kernel.sigma, T)
    n = int(hot.sum())
    at = np.searchsorted(ks, taps[hot])[np.minimum(np.arange(-(-n // 4) * 4), n - 1)]
    conv, dconv = (val[at] @ weights)[:n], (slo[at] @ weights)[:n]
    F, DF = base.copy(), dbase.copy()
    diff = conv - base[hot]
    F[hot] = base[hot] + w[hot] * diff
    DF[hot] = dbase[hot] + dw[hot] * diff + w[hot] * (dconv - dbase[hot])
    return ys, F, DF, base, dbase


def _blend_read_bound(blend, k, q):
    """The most points one evaluation of ``blend`` at ``k`` may read: the
    index range of the points and their taps, or the taps of the points
    inside the plateau support and the others alone, whichever is
    fewer."""
    m, _ = kernels._aligned_taps(blend.kernel.sigma,
                                 blend.kernel.sigma / blend.taps)
    ys = k * (blend.kernel.sigma / blend.taps / q)
    hot = (blend.psi(ys) > 0.0) | (blend.psi.derivative(ys) != 0.0)
    khot = k[hot]
    lo = min(k[0], khot[0] - m * q) if khot.size else k[0]
    hi = max(k[-1], khot[-1] + m * q) if khot.size else k[-1]
    return min(hi - lo + 1, khot.size * (2 * m + 1) + k.size - khot.size)


def _linspace_reference(patch):
    """The arrays by the off-lattice quadrature: ``np.linspace`` between
    the ends of the patch's grid with as many points (``_patch_grid``),
    separate value and slope reads and ``convolve`` at the taps of every
    hot grid point."""
    b = patch.blend
    g = b.graph
    k = _patch_grid(patch)
    h = b.kernel.sigma / b.taps
    ys = np.linspace(k[0] * h, k[-1] * h, k.size)
    base, dbase = g.value(ys), g.slope(ys)
    w, dw = b.psi(ys), b.psi.derivative(ys)
    hot = (w > 0.0) | (dw != 0.0)
    conv = convolve(g.value, b.kernel, ys[hot], taps=b.taps)
    dconv = convolve(g.slope, b.kernel, ys[hot], taps=b.taps)
    F, DF = base.copy(), dbase.copy()
    diff = conv - base[hot]
    F[hot] = base[hot] + w[hot] * diff
    DF[hot] = dbase[hot] + dw[hot] * diff + w[hot] * (dconv - dbase[hot])
    return ys, F, DF, base, dbase


def _patch_check_rows(patch, curve, R, sample, arrays):
    return [check_tangent_distance_bound(patch, instance="p0", arrays=arrays),
            check_angle_bound(patch, instance="p0", arrays=arrays),
            check_hausdorff_bound(patch, R, instance="p0", arrays=arrays),
            check_far_point_distance(patch, curve, R, sample,
                                     instance="p0", arrays=arrays)]


def test_patch_graph_arrays_share_one_tap_grid_solve(stadium_run,
                                                      monkeypatch):
    patch = stadium_run.result.curve.patches[2]
    k = _patch_grid(patch)
    batches = _read_batches(monkeypatch)
    arrays = patch_graph_arrays(patch)
    monkeypatch.undo()
    # one 1-D read serves the grid, the blend's base and every tap: the
    # lattice range from the first tap of the first grid point to the
    # last of the last, 1091 grid points 9 lattice steps apart, all hot
    # (the end points fall inside the plateau support)
    T = patch.blend.taps
    assert (k.size, k[1] - k[0]) == (1091, 9)
    assert batches == [(2 * (k[-1] + T) + 1,)]
    assert batches[0][0] == _blend_read_bound(patch.blend, k, 1)
    assert _bits(*arrays) == _bits(*_lattice_reference(patch, k, 1))


@pytest.mark.parametrize("kind, lam", [
    ("stadium", 1e-4), ("stadium", 1e-2), ("stadium", 1.0), ("stadium", 1e2),
    ("rounded_rect", 1.0)])
def test_patch_graph_arrays_read_one_lattice_at_every_scale(kind, lam,
                                                            monkeypatch):
    result, _, _ = scaled_run(kind, lam)
    assert result.curve.patches
    for patch in result.curve.patches:
        # the grid step is the same whole number of lattice steps at
        # every scale: r2 = w/2 and sigma both scale with the shape
        k = _patch_grid(patch)
        s = k[1] - k[0]
        assert s == {"stadium": 9, "rounded_rect": 4}[kind]
        batches = _read_batches(monkeypatch)
        arrays = patch_graph_arrays(patch)
        monkeypatch.undo()
        assert _bits(arrays[0]) == _bits(
            k * (patch.blend.kernel.sigma / patch.blend.taps))
        T, n = patch.blend.taps, k.size
        assert len(batches) == 1 and len(batches[0]) == 1
        assert batches[0][0] == _blend_read_bound(patch.blend, k, 1)
        assert batches[0][0] <= min((n - 1) * s + 2 * T + 1, n * (2 * T + 1))
        assert _bits(*arrays) == _bits(*_lattice_reference(patch, k, 1))


def _resized_patch(patch, factor):
    """``patch`` with its kernel radius scaled by ``factor``."""
    b = patch.blend
    sigma = factor * b.kernel.sigma
    return dataclasses.replace(
        patch, sigma=sigma,
        blend=BlendedMap(b.graph, b.psi, BumpKernel(sigma), b.taps))


def _lattice_batches(monkeypatch, blend):
    """The lattice indices of every batch ``blend``'s graph reads, as
    ``LocalGraph._read`` is asked for them, in order."""
    h = blend.kernel.sigma / blend.taps
    batches = []
    read = LocalGraph._read

    def counted(self, y):
        i = np.rint(np.asarray(y) / h).astype(np.int64)
        assert _bits(np.asarray(y)) == _bits(i * h)
        batches.append(i)
        return read(self, y)

    monkeypatch.setattr(LocalGraph, "_read", counted)
    return batches


def test_patch_graph_arrays_deep_halving_reads_the_taps_only(stadium_run,
                                                             monkeypatch):
    # a radius an eighth of the patch's: a grid step of 76 lattice steps
    # leaves gaps between the taps of neighbouring grid points, which are
    # not read; every grid point is inside the plateau support, so the
    # read is each point's 33 taps, once, in batches of at most
    # _READ_POINTS points
    result = stadium_run.result
    patch = _resized_patch(result.curve.patches[1], 1.0 / 8.0)
    k = _patch_grid(patch)
    assert k[1] - k[0] == 76
    batches = _lattice_batches(monkeypatch, patch.blend)
    arrays = patch_graph_arrays(patch)
    monkeypatch.undo()
    T = patch.blend.taps
    assert k.size * (2 * T + 1) == _blend_read_bound(patch.blend, k, 1)
    assert len(batches) > 1
    assert max(b.size for b in batches) <= kernels._READ_POINTS
    read = np.concatenate(batches)
    assert np.array_equal(read, (k[:, None] - np.arange(-T, T + 1)).ravel())
    assert _bits(*arrays) == _bits(*_lattice_reference(patch, k, 1))
    sample = sample_manifold(result.curve, n=2000)
    rows = _patch_check_rows(patch, result.curve, result.report.R_input,
                             sample, arrays)
    assert all(r.passed for r in rows), rows


def test_patch_graph_arrays_off_lattice_sigma_reads_the_graph(stadium_run,
                                                              monkeypatch):
    # a hand-built patch at 0.75 of a run's radius, its 1025-point grid
    # step far from a whole number of lattice steps, gets the same rule:
    # every s-th lattice point, s the largest that leaves 1025 in [-r2,
    # r2]
    result = stadium_run.result
    patch = _resized_patch(result.curve.patches[1], 0.75)
    q = _lattice_stride(patch)
    assert abs(q - round(q)) > 0.1
    h = patch.blend.kernel.sigma / patch.blend.taps
    k = _patch_grid(patch)
    batches = _lattice_batches(monkeypatch, patch.blend)
    arrays = patch_graph_arrays(patch)
    monkeypatch.undo()
    assert _bits(arrays[0]) == _bits(k * h)
    # one index range past _READ_POINTS, read in ranges of at most that
    # many points, which overlap by the taps of the grid points beside a
    # cut and leave no lattice point out
    T = patch.blend.taps
    bound = _blend_read_bound(patch.blend, k, 1)
    assert bound == k[-1] - k[0] + 2 * T + 1 > kernels._READ_POINTS
    assert len(batches) > 1
    assert max(b.size for b in batches) <= kernels._READ_POINTS
    assert all(np.array_equal(b, np.arange(b[0], b[-1] + 1)) for b in batches)
    assert np.array_equal(np.unique(np.concatenate(batches)),
                          np.arange(k[0] - T, k[-1] + T + 1))
    assert _bits(*arrays) == _bits(*_lattice_reference(patch, k, 1))
    sample = sample_manifold(result.curve, n=2000)
    rows = _patch_check_rows(patch, result.curve, result.report.R_input,
                             sample, arrays)
    assert all(r.passed for r in rows), rows


class _ReadSpy:
    """A graph that records the points of every read."""

    def __init__(self, graph):
        self.graph = graph
        self.reads = []

    def value_and_slope(self, y):
        self.reads.append(np.array(y))
        return self.graph.value_and_slope(y)


def test_lattice_read_serves_held_points_only(stadium_run):
    # one evaluation of a patch blend reads its graph once, at lattice
    # points only: every point and every tap of a hot point, no other
    patch = stadium_run.result.curve.patches[0]
    b = patch.blend
    spy = _ReadSpy(b.graph)
    blend = BlendedMap(spy, b.psi, b.kernel, b.taps)
    h = b.kernel.sigma / b.taps
    edge = math.floor(patch.transition_radius / h)
    cases = {
        "overlapping taps": np.arange(-40, 41) * 3,
        "gaps between taps": np.arange(-6, 7) * 500,
        "outside the support": np.array([-edge - 90, -edge - 5, edge + 7]),
    }
    for name, k in cases.items():
        spy.reads.clear()
        F, DF, fv, dfv = blend.value_and_derivative(k, 1)
        assert len(spy.reads) == 1, name
        read = np.rint(spy.reads[0] / h).astype(np.int64)
        assert _bits(spy.reads[0]) == _bits(read * h), name
        assert read.size == _blend_read_bound(blend, k, 1), name
        ys = k * h
        hot = (b.psi(ys) > 0.0) | (b.psi.derivative(ys) != 0.0)
        needed = set(k.tolist())
        for i in k[hot]:
            needed.update(range(i - b.taps, i + b.taps + 1))
        assert needed <= set(read.tolist()), name
        if name != "overlapping taps":
            assert sorted(read.tolist()) == sorted(needed), name
        assert _bits(F, DF, fv, dfv) == _bits(
            *_lattice_reference(patch, k, 1)[1:])
    assert not hot.any()


def _oracle_blend(blend, k, q):
    """Value and slope of ``blend`` at k sigma/(taps q) by the arbitrary-
    point oracle: the graph at the points themselves, ``convolve`` at the
    points minus the tap offsets j sigma/taps."""
    g = blend.graph
    ys = k * (blend.kernel.sigma / blend.taps / q)
    base, dbase = g.value_and_slope(ys)
    w, dw = blend.psi(ys), blend.psi.derivative(ys)
    hot = (w > 0.0) | (dw != 0.0)
    conv, dconv = convolve(g.value_and_slope, blend.kernel, ys[hot],
                           taps=blend.taps)
    F, DF = base.copy(), dbase.copy()
    diff = conv - base[hot]
    F[hot] = base[hot] + w[hot] * diff
    DF[hot] = dbase[hot] + dw[hot] * diff + w[hot] * (dconv - dbase[hot])
    return F, DF


def _zoo_blend(case):
    """A zoo blend for each of the four read patterns of the lattice."""
    psi = make_reference_plateau()
    domain = Interval(-2.7, 2.7)
    f, df, _, _ = random_c11(np.random.default_rng(5), domain, 6, 2.0)
    graph = checks._FunctionGraph(f, df)
    if case == "gapped":
        # the rho = 1e-4 corner: a small proven radius, taps far apart on
        # the grid
        c = 0.1234
        return checks._proven_blend(
            lambda x: np.abs(np.asarray(x, dtype=float) - c),
            lambda x: np.sign(np.asarray(x, dtype=float) - c),
            psi, 1e-4, domain, 0, sigma_max=0.25, lip=1.0,
            lip_d=math.inf), domain
    sigma = {"contiguous": 2.0 ** -5, "refined": 0.25, "m49": M49_SIGMA}[case]
    return BlendedMap(graph, psi, BumpKernel(sigma), 50), domain


@pytest.mark.parametrize("case", ["contiguous", "gapped", "refined", "m49"])
def test_lattice_blend_matches_the_oracle(case):
    blend, domain = _zoo_blend(case)
    sigma = blend.kernel.sigma
    margin = sigma * (1 + 1e-9)
    h = sigma / blend.taps
    k, q = checks._lattice_outputs(domain.lo + margin, domain.hi - margin, h,
                                   checks._LIPSCHITZ_GRID)
    m, _ = kernels._aligned_taps(sigma, h)
    s = k[1] - k[0]
    assert (q > 1) == (case == "refined")
    assert (m == blend.taps - 1) == (case == "m49")
    assert (s > 2 * m + 1) == (case in ("gapped", "m49"))
    spy = _ReadSpy(blend.graph)
    live = BlendedMap(spy, blend.psi, blend.kernel, blend.taps)
    F, DF, _, _ = live.value_and_derivative(k, q)
    bound = _blend_read_bound(blend, k, q)
    # one read when the call's read fits _READ_POINTS, else reads of at
    # most that many points
    split = case in ("gapped", "m49")
    assert (bound > kernels._READ_POINTS) == split
    if split:
        assert len(spy.reads) > 1
        assert max(r.size for r in spy.reads) <= kernels._READ_POINTS
    else:
        assert [r.size for r in spy.reads] == [bound]
    oracle_F, oracle_DF = _oracle_blend(blend, k, q)
    assert np.abs(F - oracle_F).max() <= 1e-13
    assert np.abs(DF - oracle_DF).max() <= 1e-12


def _zoo_reads():
    """The zoo's three kinds of blend and convolution read: a kinked
    input at a small radius (ranged reads), a C^{1,1} blend of slopes
    and the |x - c| corner at rho = 1e-4 (windows far apart)."""
    rng = np.random.default_rng(11)
    domain = Interval(-2.7, 2.7)
    f, df, L = random_piecewise_linear(rng, Interval(-2.0, 2.0), 9, 3.0)
    g, dg, Lg, Lgd = random_c11(rng, domain, 6, 2.0)
    c = 0.1234
    return {
        "pwl sigma=1.65e-3": (f, df, L, None, 1.65e-3),
        "c11 order 1": (g, dg, Lg, Lgd, 1e-2),
        "corner rho=1e-4": (lambda x: np.abs(np.asarray(x, dtype=float) - c),
                            lambda x: np.sign(np.asarray(x, dtype=float) - c),
                            1.0, math.inf, 1e-4),
    }


@pytest.mark.parametrize("case", sorted(_zoo_reads()))
def test_zoo_reads_stay_within_read_points(case, monkeypatch):
    # every batch the witness and the lattice convolutions of a zoo check
    # ask for holds at most _READ_POINTS points, and each convolution is
    # the one-read oracle's bit for bit
    f, df, lip, lip_d, scale = _zoo_reads()[case]
    sizes = []
    f, df = counted(f, sizes), counted(df, sizes)
    lattice = []
    real = kernels._lattice_convolve

    def recorded(read, sigma, taps, k, q, hot):
        out = real(read, sigma, taps, k, q, hot)
        lattice.append((read, sigma, taps, k, q, hot, out))
        return out

    monkeypatch.setattr(checks, "_lattice_convolve", recorded)
    monkeypatch.setattr(smoothing, "_lattice_convolve", recorded)
    if lip_d is None:
        row = check_convolution_lipschitz(
            f, df, lip, BumpKernel(scale), Interval(-2.0, 2.0),
            order=0, seed=0, instance=case)
    else:
        row = check_blend_lipschitz(
            f, df, lip, lip_d, make_reference_plateau(), scale,
            Interval(-2.7, 2.7), order=0 if math.isinf(lip_d) else 1,
            sigma_max=0.25, seed=0, instance=case)
    monkeypatch.undo()
    assert row.passed, row
    assert sizes and max(sizes) <= kernels._READ_POINTS
    (read, sigma, taps, k, q, hot, (outs, convs)), = lattice
    whole = test_kernels._one_read_size(sigma, taps, k, q, hot)
    assert whole > kernels._READ_POINTS
    ref_outs, ref_convs = test_kernels._gathered_convolve(
        sigma, taps, k, q, hot, read=read)
    assert _bits(*outs, *convs) == _bits(*ref_outs, *ref_convs)


def test_stadium_patch_reads_stay_within_read_points(monkeypatch):
    # at epsilon = 5e-4 a patch's arrays read past _READ_POINTS, in
    # batches of at most that many points, and keep the bits of the
    # one-gather reference
    result = smooth_manifold({"kind": "stadium", "r": 1.0, "l": 2.0}, 5e-4)
    assert result.curve.patches
    for patch in result.curve.patches:
        k = _patch_grid(patch)
        assert _blend_read_bound(patch.blend, k, 1) > kernels._READ_POINTS
        batches = _lattice_batches(monkeypatch, patch.blend)
        arrays = patch_graph_arrays(patch)
        monkeypatch.undo()
        assert len(batches) > 1
        assert max(b.size for b in batches) <= kernels._READ_POINTS
        assert _bits(*arrays) == _bits(*_lattice_reference(patch, k, 1))


def test_patch_arrays_do_not_depend_on_the_read_split(monkeypatch):
    # kernels._READ_POINTS bounds a read's memory only: every patch of
    # the close-junction profile gives its arrays the same bytes read in
    # groups of at most 1000 or 4096 points, and a blend read at one grid
    # index gives that index's bytes of the whole read
    result = smooth_manifold(test_curves.CLOSE_JUNCTIONS, 0.05)
    assert len(result.curve.patches) == 8
    for patch in result.curve.patches:
        got = []
        for limit in (1000, 4096):
            monkeypatch.setattr(kernels, "_READ_POINTS", limit)
            batches = _lattice_batches(monkeypatch, patch.blend)
            got.append(_bits(*patch_graph_arrays(patch)))
            monkeypatch.undo()
            assert len(batches) > 1 and max(b.size for b in batches) <= limit
        assert got[0] == got[1], patch.index
        b = patch.blend
        h = b.kernel.sigma / b.taps
        r2 = patch.transition_radius
        k, q = checks._lattice_outputs(-r2 - 1e-6 * h, r2 + 1e-6 * h, h,
                                       checks._PATCH_GRID)
        whole = b.value_and_derivative(k, q)
        for i in np.linspace(0, k.size - 1, 11).astype(np.int64):
            one = b.value_and_derivative(k[i:i + 1], q)
            assert _bits(*one) == _bits(*(v[i:i + 1] for v in whole)), (patch.index, i)


def test_lattice_outputs_least_q_largest_s():
    # against a search over every q and s: the least q with n points of
    # h/q in [lo, hi], then the largest s
    rng = np.random.default_rng(2)
    for _ in range(40):
        lo = rng.uniform(-3.0, 0.0)
        hi = lo + rng.uniform(0.01, 3.0)
        h = 10.0 ** rng.uniform(-4.0, -1.0)
        n = int(rng.integers(3, 300))
        k, q = checks._lattice_outputs(lo, hi, h, n)

        def points(q, s):
            i = np.arange(math.ceil(lo * q / (h * s)) - 1,
                          math.floor(hi * q / (h * s)) + 2)
            x = i * s * (h / q)
            return i[(x >= lo) & (x <= hi)] * s

        want_q = next(q for q in range(1, 10 ** 6) if points(q, 1).size >= n)
        want_s = max(s for s in range(1, points(want_q, 1).size + 1)
                     if points(want_q, s).size >= n)
        assert (q, k.tolist()) == (want_q, points(want_q, want_s).tolist())


_CATALOG = (
    {"kind": "stadium", "r": 1.0, "l": 2.0},
    {"kind": "circle", "r": 1.0},
    {"kind": "ellipse", "a": 2.0, "b": 1.0},
    {"kind": "cad_profile", "preset": "rounded_rect", "width": 2.0,
     "height": 1.0, "corner_radius": 0.2},
)


def test_patch_rows_match_linspace_quadrature_on_every_catalog_patch():
    # rounding the quadrature nodes onto the lattice keeps every row's
    # verdict and moves its measured value by at most 1e-8 of the larger
    # of the value and its bound (the far-point value, a difference of
    # two nearly equal lengths, moves by 2e-8 of itself on the rounded
    # rectangle: 1.4e-16 of 7.4e-9)
    seen = 0
    for spec in _CATALOG:
        result = smooth_manifold(spec, 0.05)
        R = result.report.R_input
        sample = sample_manifold(result.curve, n=2000)
        for patch in result.curve.patches:
            rows = _patch_check_rows(patch, result.curve, R, sample,
                                     patch_graph_arrays(patch))
            oracle = _patch_check_rows(patch, result.curve, R, sample,
                                       _linspace_reference(patch))
            for row, ref in zip(rows, oracle, strict=True):
                assert row.passed == ref.passed, (row, ref)
                scale = max(abs(ref.measured), ref.bound)
                assert abs(row.measured - ref.measured) <= 1e-8 * scale, (
                    row, ref)
                assert row.grid == ref.grid
            seen += 1
    assert seen == 12


def _far_geometry(patch, curve, sample, arrays):
    """Core points, their unit tangents and the far samples, as the
    far-point check forms them."""
    ay, aF, aDF, _, _ = arrays
    core = np.abs(ay) <= patch.inner_radius
    ys, F, DF = ay[core], aF[core], aDF[core]
    P = (patch.center[None, :] + ys[:, None] * patch.tangent[None, :]
         + F[:, None] * patch.normal[None, :])
    tang = (patch.tangent[None, :] + DF[:, None] * patch.normal[None, :])
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    L_total = curve.length
    gap = np.abs(np.mod(sample.params - patch.base_arc + 0.5 * L_total,
                        L_total) - 0.5 * L_total)
    return P, tang, sample.points[gap > 1.5 * patch.arc_window]


def _dense_far_point(patch, curve, R, sample, arrays):
    """The far-point maximum as one (core x far x 2) broadcast."""
    P, tang, far = _far_geometry(patch, curve, sample, arrays)
    D = far[None, :, :] - P[:, None, :]
    cross = np.abs(D[:, :, 0] * tang[:, None, 1] - D[:, :, 1] * tang[:, None, 0])
    d2 = (D * D).sum(-1)
    excess = cross - d2 / (2.0 * R)
    return excess, P.shape[0] * far.shape[0]


def _blocks_compared(monkeypatch):
    """Records the rows of every block the far-point check compares."""
    compared = []
    block_max = checks._far_block_max

    def spy(p, *args):
        compared.append(p.shape[0])
        return block_max(p, *args)

    monkeypatch.setattr(checks, "_far_block_max", spy)
    return compared


def _assert_block_bounds_hold(patch, curve, R, sample, arrays):
    # each block's bound against a far sample, and the whole core's, is
    # at least the dense excess of every row it covers against that sample
    P, tang, far = _far_geometry(patch, curve, sample, arrays)
    excess, _ = _dense_far_point(patch, curve, R, sample, arrays)
    centers, margin = checks._far_centers(P, tang, far, R)
    spans = [slice(i, i + checks._FAR_BLOCK)
             for i in range(0, P.shape[0], checks._FAR_BLOCK)] + [slice(None)]
    for rows in spans:
        box = [(c[rows].min(axis=0)[None], c[rows].max(axis=0)[None])
               for c in centers]
        bound = checks._far_box_bounds(box, far, R, margin)
        assert bound.shape == (1, far.shape[0])
        assert np.all(bound[0] >= excess[rows].max(axis=0)), rows


def _pairs_compared(monkeypatch):
    """Records (core rows, far samples) of every block the far-point
    check compares."""
    compared = []
    block_max = checks._far_block_max

    def spy(p, tang, far, R):
        compared.append((p.shape[0], far.shape[0]))
        return block_max(p, tang, far, R)

    monkeypatch.setattr(checks, "_far_block_max", spy)
    return compared


def test_far_point_compares_only_the_samples_that_can_win(
        stadium_run, rounded_rect_run, monkeypatch):
    # every stadium and rounded-rectangle patch: the maximum is the dense
    # one, bit for bit; the seed compares every core row with one far
    # sample, and every block after it only the few samples its bounds
    # leave (2 to 4 on the stadium)
    compared = _pairs_compared(monkeypatch)
    later = 0
    for result in (stadium_run.result, rounded_rect_run):
        R = result.report.R_input
        sample = sample_manifold(result.curve, n=2000)
        for patch in result.curve.patches:
            arrays = patch_graph_arrays(patch)
            compared.clear()
            row = check_far_point_distance(patch, result.curve, R, sample,
                                           instance="p0", arrays=arrays)
            excess, grid = _dense_far_point(patch, result.curve, R, sample,
                                            arrays)
            assert _bits(row.measured) == _bits(excess.max())
            assert row.grid == grid
            n_far = grid // excess.shape[0]
            assert compared[0] == (excess.shape[0], 1)
            assert all(c < n_far // 10 for _, c in compared[1:]), compared
            later += len(compared) - 1
    assert later >= 4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_far_point_non_finite_input_compares_every_pair(bad, monkeypatch):
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    arrays[1][np.flatnonzero(np.abs(arrays[0]) <= patch.inner_radius)[3]] = bad
    compared = _pairs_compared(monkeypatch)
    with np.errstate(invalid="ignore", over="ignore"):
        row = check_far_point_distance(patch, curve, 10.0, sample,
                                       instance="p0", arrays=arrays)
    assert math.isnan(row.measured) and not row.passed
    # no seed and no bound: every core row against every far sample
    assert compared == [(71, 301)] and row.grid == 71 * 301


def test_far_point_blocks_match_dense_broadcast_on_real_patch(stadium_run):
    result = stadium_run.result
    R = result.report.R_input
    sample = sample_manifold(result.curve, n=2000)
    for patch in result.curve.patches[:3]:
        arrays = patch_graph_arrays(patch)
        row = check_far_point_distance(patch, result.curve, R, sample,
                                       instance="p0", arrays=arrays)
        excess, grid = _dense_far_point(patch, result.curve, R, sample,
                                        arrays)
        assert _bits(row.measured) == _bits(excess.max())
        assert row.grid == grid


def test_far_point_block_bounds_hold_on_stadium_patches(stadium_run,
                                                        monkeypatch):
    result = stadium_run.result
    R = result.report.R_input
    sample = sample_manifold(result.curve, n=2000)
    compared = _blocks_compared(monkeypatch)
    for patch in result.curve.patches:
        arrays = patch_graph_arrays(patch)
        _assert_block_bounds_hold(patch, result.curve, R, sample, arrays)
        compared.clear()
        check_far_point_distance(patch, result.curve, R, sample,
                                 instance="p0", arrays=arrays)
        # the seed compares the 545 core rows with one sample, and the
        # bounds settle all but 3 or 4 of their 18 blocks
        assert 1 <= len(compared) <= 5, compared


@pytest.fixture(scope="module")
def rounded_rect_run():
    return smooth_manifold({"kind": "cad_profile", "preset": "rounded_rect",
                            "width": 2.0, "height": 1.0,
                            "corner_radius": 0.2}, 0.05)


def test_far_point_matches_dense_broadcast_on_every_rounded_rect_patch(
        rounded_rect_run):
    result = rounded_rect_run
    R = result.report.R_input
    sample = sample_manifold(result.curve, n=2000)
    assert len(result.curve.patches) == 8
    for patch in result.curve.patches:
        arrays = patch_graph_arrays(patch)
        row = check_far_point_distance(patch, result.curve, R, sample,
                                       instance="p0", arrays=arrays)
        excess, grid = _dense_far_point(patch, result.curve, R, sample,
                                        arrays)
        assert _bits(row.measured) == _bits(excess.max())
        assert row.grid == grid
        _assert_block_bounds_hold(patch, result.curve, R, sample, arrays)


def _synthetic_far_case(n_grid, n_core_target):
    """A flat core on the x-axis, far samples on the same line beyond it;
    only the last core point's tangent tilts, so it holds the maximum."""
    rng = np.random.default_rng(11)
    ys = np.linspace(-1.0, 1.0, n_grid)
    inner = np.sort(np.abs(ys))[n_core_target - 1]
    core = np.abs(ys) <= inner
    F = 1e-3 * rng.standard_normal(n_grid)
    DF = 1e-3 * rng.standard_normal(n_grid)
    DF[np.flatnonzero(core)[-1]] = 1.0
    arrays = (ys, F, DF, np.zeros(n_grid), np.zeros(n_grid))
    patch = SimpleNamespace(
        inner_radius=inner, center=np.zeros(2), tangent=np.array([1.0, 0.0]),
        normal=np.array([0.0, 1.0]), base_arc=0.0, arc_window=1.0,
        rho_target=1e-3, lip_graph=0.0)
    params = np.linspace(10.0, 20.0, 301)
    sample = SimpleNamespace(params=params,
                             points=np.stack([params, np.zeros_like(params)], 1))
    return patch, SimpleNamespace(length=100.0), sample, arrays


def test_far_point_blocks_match_dense_broadcast_on_ragged_core():
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    excess, grid = _dense_far_point(patch, curve, 10.0, sample, arrays)
    n_core = excess.shape[0]
    assert n_core == 71 and n_core % checks._FAR_BLOCK != 0
    # the maximum sits in the last, partial block
    row_of_max = int(np.argmax(excess.max(axis=1)))
    assert row_of_max >= (n_core // checks._FAR_BLOCK) * checks._FAR_BLOCK
    row = check_far_point_distance(patch, curve, 10.0, sample,
                                   instance="p0", arrays=arrays)
    assert _bits(row.measured) == _bits(excess.max())
    assert row.grid == grid


def test_far_point_nan_reaches_the_row():
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    arrays[2][np.flatnonzero(np.abs(arrays[0]) <= patch.inner_radius)[3]] = np.nan
    row = check_far_point_distance(patch, curve, 10.0, sample,
                                   instance="p0", arrays=arrays)
    assert math.isnan(row.measured) and not row.passed


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("where", ["F", "DF", "far"])
def test_far_point_infinities_reach_the_row(bad, where):
    # the dense broadcast reads inf - inf or 0 * inf: NaN, as a NaN does
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    row_3 = np.flatnonzero(np.abs(arrays[0]) <= patch.inner_radius)[3]
    if where == "far":
        sample.points[40, 0] = bad
    else:
        arrays[1 if where == "F" else 2][row_3] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        excess, _ = _dense_far_point(patch, curve, 10.0, sample, arrays)
        row = check_far_point_distance(patch, curve, 10.0, sample,
                                       instance="p0", arrays=arrays)
    assert math.isnan(excess.max())
    assert math.isnan(row.measured) and not row.passed


def test_far_point_negative_maximum_matches_dense_broadcast():
    # R = 1 and every far sample at least 9 away: |q - p|^2 / 2 outweighs
    # every tangent distance
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    excess, grid = _dense_far_point(patch, curve, 1.0, sample, arrays)
    row = check_far_point_distance(patch, curve, 1.0, sample,
                                   instance="p0", arrays=arrays)
    assert excess.max() < 0.0
    assert _bits(row.measured) == _bits(excess.max())
    assert row.grid == grid


def _circle_far_case(R, n_grid, n_far):
    """A plateau core on the circle of radius R about the origin and far
    samples on the same circle: every tangent ball at the core is the
    disc itself, so every pair's excess is zero up to rounding."""
    ys = np.linspace(-0.5 * R, 0.5 * R, n_grid)
    F = R - np.sqrt(R * R - ys * ys)
    DF = ys / np.sqrt(R * R - ys * ys)
    arrays = (ys, F, DF, F.copy(), DF.copy())
    patch = SimpleNamespace(
        inner_radius=0.5 * R, center=np.array([0.0, -R]),
        tangent=np.array([1.0, 0.0]), normal=np.array([0.0, 1.0]),
        base_arc=0.0, arc_window=0.6 * R, rho_target=1e-3, lip_graph=0.0)
    params = np.linspace(0.0, 2 * np.pi * R, n_far, endpoint=False)
    angles = params / R - 0.5 * np.pi
    sample = SimpleNamespace(
        params=params, points=R * np.stack([np.cos(angles), np.sin(angles)], 1))
    return patch, SimpleNamespace(length=2 * np.pi * R), sample, arrays


def test_far_point_all_ties_compare_every_row_in_blocks(monkeypatch):
    R = 1.5
    patch, curve, sample, arrays = _circle_far_case(R, 800, 1500)
    excess, grid = _dense_far_point(patch, curve, R, sample, arrays)
    assert np.abs(excess).max() < 1e-14
    compared = _blocks_compared(monkeypatch)
    pairs = _pairs_compared(monkeypatch)
    tracemalloc.start()
    row = check_far_point_distance(patch, curve, R, sample,
                                   instance="p0", arrays=arrays)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # no bound settles a block or a far sample, so after the seed's one
    # sample every pair is compared, and the maximum is the dense one
    assert len(compared) == 1 + -(-800 // checks._FAR_BLOCK)
    assert sum(compared) == 800 + 800
    assert pairs == [(800, 1)] + [(r, grid // 800) for r in compared[1:]]
    assert _bits(row.measured) == _bits(excess.max())
    assert row.grid == grid
    # compared _FAR_BLOCK rows at a time, not as one (core x far) array
    assert peak < excess.nbytes // 2


def test_far_point_empty_core_is_refused():
    patch, curve, sample, arrays = _synthetic_far_case(301, 71)
    outside = (arrays[0][np.abs(arrays[0]) > patch.inner_radius],)
    outside = outside + tuple(np.zeros_like(outside[0]) for _ in range(4))
    with pytest.raises(InvalidInputError, match="plateau core"):
        check_far_point_distance(patch, curve, 10.0, sample,
                                 instance="p0", arrays=outside)


def test_main_theorem_rows(stadium_run):
    rows = check_main_theorem(stadium_run.result, seed=0)
    names = [r.name for r in rows]
    assert names[0] == "reach_drop"
    assert "c1_distance" in names
    assert "center_shift" in names
    n_junctions = len(stadium_run.result.curve.shape.junction_arcs())
    assert names.count("junction_probe_control") == n_junctions == 4
    probe_rows = [n for n in names if n == "smooth_probe"]
    assert len(probe_rows) == stadium_run.result.report.patches_applied
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]
    # the micro pair scan: one row per junction, a lower bound R - epsilon
    rep = stadium_run.result.report
    pairs = [r for r in rows if r.name == "junction_pair_ratio"]
    assert len(pairs) == n_junctions
    for r in pairs:
        assert r.bound == rep.R_input - rep.epsilon and r.tolerance == 0.0
        assert r.measured >= r.bound and r.grid > 0
    # the shift budget smooth_patch enforces
    shift = rows[names.index("center_shift")]
    assert shift.bound == smoothing_window_radius(rep.delta, rep.R_input) / 16
    # a probe that passes on the floor alone measures 0.0, not its noise
    over = [r for r in rows if r.name in ("smooth_probe", "smooth_probe_junction")
            and not r.measured <= r.bound]
    assert not over, over


def test_strict_reach_row_reads_the_drop_with_no_tolerance(stadium_run):
    # R_hat_measured can only overestimate the reach, so the strict row
    # compares R - R_hat with epsilon exactly; the stadium passes it
    result = stadium_run.result
    rep = result.report
    rows = {r.name: r for r in check_main_theorem(result, seed=0)}
    strict = rows["reach_drop_strict"]
    assert strict.passed and strict.tolerance == 0.0
    assert strict.measured == rows["reach_drop"].measured
    assert strict.bound == rep.epsilon and strict.grid == rep.scan_samples
    # positive control: a report reading R_hat below R - epsilon by less
    # than the 2% scan tolerance passes reach_drop but fails the strict row
    low = rep.R_input - rep.epsilon - 0.5 * checks._REACH_TOL * rep.R_input
    doctored = dataclasses.replace(
        result, report=dataclasses.replace(rep, R_hat_measured=low))
    rows = {r.name: r for r in check_main_theorem(doctored, seed=0)}
    assert rows["reach_drop"].passed
    assert not rows["reach_drop_strict"].passed
    assert rows["reach_drop_strict"].slack < 0.0


def _stencil_evaluator(blend):
    """``blend``'s value at the stencil points of a probe at step sigma:
    (j + 1/3) sigma 2^(2-l), which sit on the 3-fold refinement of its
    lattice sigma/16 up to rounding."""
    step = blend.kernel.sigma / blend.taps / 3

    def value(xs):
        k = np.rint(xs / step).astype(np.int64)
        assert np.abs(xs - k * step).max() <= 1e-9 * step
        return blend.value(k, 3)

    return value


def test_main_theorem_matches_per_probe_reference(stadium_run):
    # the probe rows read the final curve, whose patches are cubic-Hermite
    # tabulations; the reference probes each patch's live blend instead,
    # fresh quadrature of the graph before the patch, in the patch's own
    # frame, and the control probes that graph itself.  Verdicts must
    # agree row by row; the last ratios differ by the tabulation and the
    # frame: at most 6.8e-5 measured on the stadium, 1e-4 allowed
    result = stadium_run.result
    rows = check_main_theorem(result, seed=3)
    final = result.curve
    sig = min(p.sigma for p in final.patches)
    by_arc = {p.base_arc: p for p in final.patches}
    expected = []  # (name, instance, probed graph, step, expected verdict)
    for p in final.patches:
        expected.append(("smooth_probe", f"patch-{p.index:04d}-arc={p.base_arc:.6f}",
                         _stencil_evaluator(p.blend), p.sigma, True))
    for a in final.shape.junction_arcs():
        tag = f"junction-arc={a:.6f}"
        blend = by_arc[a].blend  # each junction is its patch's center
        expected.append(("smooth_probe_junction", tag,
                         _stencil_evaluator(blend), sig, True))
        expected.append(("junction_probe_control", tag, blend.graph.value, sig,
                         False))
    probe_rows = rows[4:4 + len(expected)]
    assert [(r.name, r.instance) for r in probe_rows] == \
        [(name, tag) for name, tag, _, _, _ in expected]
    for row, (_, _, graph, step, verdict) in zip(probe_rows, expected):
        pr = smooth_core_probe(graph, 0.0, step)
        assert not pr.limited_by_floor
        assert row.passed == (pr.passed == verdict)
        assert row.passed
        assert row.measured == pytest.approx(pr.ratios[-1], abs=1e-4)
        assert row.bound == _PROBE_RATIO_CAP and row.grid == 5 * len(pr.steps)

    # each junction's scan on its own evaluation of the final curve
    expected = []
    rep = result.report
    for a in final.shape.junction_arcs():
        pts, vel = final.point_and_velocity(
            a + np.linspace(-0.25 * sig, 0.25 * sig, 401))
        est = estimate_reach_federer(
            pts, vel / np.linalg.norm(vel, axis=-1, keepdims=True), sig / 160,
            None)
        bound = rep.R_input - rep.epsilon
        expected.append(checks._result(
            "junction_pair_ratio", est.value, bound, 0.0, est.pairs_scanned, 3,
            f"junction-arc={a:.6f}", passed=est.value >= bound))
    assert [r.name for r in rows[:4]] == ["reach_drop", "reach_drop_strict",
                                          "c1_distance", "center_shift"]
    assert len(rows) == 4 + len(probe_rows) + len(expected) == 20
    assert repr([dataclasses.astuple(r) for r in rows[4 + len(probe_rows):]]) == \
        repr([dataclasses.astuple(r) for r in expected])


def _scalar_formula_rows(seed):
    """The formula rows one scalar call at a time, over the samples and
    grids of ``checks._formula_rows``, drawn in the same order."""
    rng = np.random.default_rng(seed)
    n = 10000
    Rs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    xis = np.exp(rng.uniform(math.log(1e-9), math.log(50.0), n)) / Rs
    worst = 0.0
    for R, xi in zip(Rs, xis):
        z = effective_radius_drop(R, xi)
        lhs = 1.0 / (2.0 * R) + xi
        rhs = 1.0 / (2.0 * R - z)
        worst = max(worst, abs(lhs - rhs) / rhs)
    rows = [checks._result("radius_drop_identity", worst, 0.0, 1e-12, n, seed,
                           "1/(2R)+xi == 1/(2R-z)")]

    worst = 0.0
    m = 0
    for R in np.exp(np.linspace(math.log(1e-2), math.log(1e2), 41)):
        for frac in np.linspace(0.01, 0.5, 25):
            d = frac * R
            err = abs(predicted_reach_bound(R, d, 0.0) - R * (1.0 - d / R))
            worst = max(worst, err / R)
            m += 1
    rows.append(checks._result("reach_bound_zero_budget", worst, 0.0, 0.0, m,
                               seed, "rho=0 -> R(1-delta/R) exactly"))

    worst = 0.0
    m = 0
    for R in np.exp(np.linspace(math.log(1e-2), math.log(1e2), 41)):
        for b in (0.1, 1.0, 10.0):
            for L in (0.0, 1.0, 7.0):
                err = abs(far_away_reach_bound(R, 0.0, b, L) - R)
                worst = max(worst, err / R)
                m += 1
    rows.append(checks._result("far_bound_zero_deviation", worst, 0.0, 0.0, m,
                               seed, "epsilon=0 -> R exactly"))

    worst = -math.inf
    m = 0
    for R in (0.5, 1.0, 3.0):
        for frac in (0.05, 0.2, 0.45):
            d = frac * R
            prev = predicted_reach_bound(R, d, 0.0)
            for rho in (0.0, 1e-8, 1e-6, 1e-4):
                cur = predicted_reach_bound(R, d, rho)
                worst = max(worst, cur - prev)
                prev = cur
                m += 1
            worst = max(worst, predicted_reach_bound(R, d, 0.0) - R)
    rows.append(checks._result("reach_bound_monotone", worst, 0.0, 0.0, m,
                               seed, "nonincreasing in rho at fixed window"))
    return rows


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_formula_rows_match_the_scalar_loop(seed):
    assert checks._formula_rows(seed) == _scalar_formula_rows(seed)


@pytest.mark.parametrize("fn, axes", [
    (predicted_reach_bound, ([0.5, 1.0, 3.0], [0.01, 0.1, 0.25],
                             [0.0, 1e-8, 1e-4])),
    (far_away_reach_bound, ([0.5, 3.0], [0.0, 1e-4, 1e-2], [0.1, 1.0],
                            [0.0, 7.0])),
    (effective_radius_drop, ([1e-3, 1.0, 1e3], [0.0, 1e-9, 0.5, 50.0])),
], ids=["predicted_reach_bound", "far_away_reach_bound", "effective_radius_drop"])
def test_bound_formulas_on_arrays_repeat_their_scalar_calls(fn, axes):
    grids = np.meshgrid(*axes, indexing="ij")
    out = fn(*grids)
    assert isinstance(out, np.ndarray) and out.shape == grids[0].shape
    scalar = [fn(*(float(g[i]) for g in grids)) for i in np.ndindex(out.shape)]
    assert all(type(v) is float for v in scalar)
    assert out.ravel().tobytes() == np.array(scalar).tobytes()
    # axes broadcast against each other as well as against full grids
    assert fn(*np.meshgrid(*axes, indexing="ij", sparse=True)).tobytes() == \
        out.tobytes()


def test_run_suite_formulas_green():
    suite = run_suite("formulas", seed=7)
    assert suite.passed and suite.n_failed == 0
    assert suite.suite == "formulas" and suite.seed == 7
    assert suite.elapsed > 0
    assert len(suite.results) >= 4


def test_run_suite_times_each_suite(monkeypatch):
    for name in ("_formula_rows", "_convolution_rows", "_blend_rows"):
        monkeypatch.setattr(checks, name, lambda seed: [])
    monkeypatch.setattr(checks, "_patch_rows", lambda fixture, seed: [])
    monkeypatch.setattr(checks, "check_main_theorem",
                        lambda fixture, seed: [])
    monkeypatch.setattr(checks, "_stadium_fixture", lambda: "built")
    suite = run_suite("all", seed=7)
    assert [n for n, _ in suite.timings] == [
        "formulas", "convolution", "blend", "fixture", "patches", "main"]
    assert all(s >= 0.0 for _, s in suite.timings)


def test_run_suite_rejects_unknown():
    with pytest.raises(InvalidInputError):
        run_suite("everything", 7)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
def test_run_suite_rejects_a_seed_numpy_cannot_take(seed):
    with pytest.raises(InvalidInputError, match="seed must be a non-negative integer"):
        run_suite("formulas", seed)


def test_checks_csv_deterministic(tmp_path):
    suite = run_suite("formulas", seed=7)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    d1 = write_checks_csv(suite.results, p1)
    d2 = write_checks_csv(suite.results, p2)
    assert d1 == d2
    assert p1.read_bytes() == p2.read_bytes()
    header = d1.splitlines()[0]
    assert header == "name,instance,seed,grid,passed,measured,bound,tolerance,slack"
    assert len(d1.splitlines()) == len(suite.results) + 1


def test_failures_json(tmp_path):
    good = CheckResult(name="ok", passed=True, measured=0.0, bound=1.0,
                       tolerance=0.0, slack=1.0, grid=1, seed=0, instance="")
    bad = CheckResult(name="broken", passed=False, measured=2.0, bound=1.0,
                      tolerance=0.0, slack=-1.0, grid=1, seed=0, instance="i")
    path = tmp_path / "fail.json"
    data = write_failures_json([good, bad], path)
    assert path.read_text() == data
    doc = json.loads(data)
    assert doc["count"] == 1
    assert doc["failures"][0]["name"] == "broken"


def test_failures_json_writes_non_finite_values_as_strings(tmp_path):
    # a checker may carry a NaN into a failing row; JSON has no number
    # for it, so it is written as the CSV writes it, and finite values
    # stay numbers
    rows = [checks._result("x", math.nan, 1.0, 0.0, 1, 0, "i"),
            checks._result("y", math.inf, -math.inf, 0.5, 1, 0, "j"),
            checks._result("z", 3.0, 1.0, math.inf, 1, 0, "k", passed=False)]
    data = write_failures_json(rows, tmp_path / "fail.json")
    doc = json.loads(data)
    assert doc["count"] == 3
    assert [(f["measured"], f["bound"], f["tolerance"]) for f in doc["failures"]] == [
        ("nan", 1.0, 0.0), ("inf", "-inf", 0.5), (3.0, 1.0, "inf")]

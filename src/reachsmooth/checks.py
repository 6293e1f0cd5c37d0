"""Numerical verification of every estimate the pipeline leans on.

Each checker measures a quantity on a concrete instance (a random
function from the zoo, a patch from a real run, a closed formula on a
parameter grid) and compares it against the claimed bound plus an
explicit tolerance.  Results are plain rows: measured, bound,
tolerance, slack, with ``passed`` meaning measured <= bound + tolerance
unless a checker overrides it (the junction control, where failing the
probe is the expected outcome).

Tolerances cover discretization of the measurement, never looseness of
the claim: a grid sup-quotient underestimates a Lipschitz constant, so
a genuine violation shows up regardless of the grid; float-level slack
is all that is ever added.  The patch checkers' slack follows the
patch's reach R: at least 1e-9 min(R, 1) on a length, 1e-6 min(1/R, 1)
on the tangent-distance ratio, so a small shape gets no absolute floor
that could hide its rows.

Each checker has one route.  The four patch checkers read the same
``arrays``, one live evaluation of the patch blend by
``patch_graph_arrays``; every blend and convolution checker reads its
function on the tap lattice of its kernel (``_lattice_outputs``); grids
and instance counts are module constants, and the smoothness-probe rows
of ``check_main_theorem`` all come from one helper bound by the probe's
own pass threshold.

Checking costs what the checks need and no more: the grid of the patch
arrays and the taps of its blend sit on one lattice, so the arrays cost
graph reads, value and slope together, of the lattice points the blend
reads, in reads of at most ``kernels._READ_POINTS`` points (one, in
closed form, for a catalog patch at epsilon 0.05); the far-point check
bounds the core rows against each far sample by their tangent-ball
centers and compares pair by pair only the blocks of rows and the
samples that can hold the maximum; and each of the theorem's
smoothness probes opens one window and reads it one stencil at a time.

The two pair checkers (tangent distance, far point) never hold more
than ``_PAIR_FLOATS`` = 4096 pairs, 32 KiB of float64, in one
temporary: they form the pairs a block at a time and combine the block
maxima with ``np.maximum``, which keeps a NaN, so each maximum is the
all-pairs one bit for bit.  A whole pair matrix (205 x 205 for the
tangent check, blocks x far samples for the far-point bounds) is past
glibc's 128 KiB ``mmap`` threshold, so it would be mapped fresh on each
call and every one of its pages faulted in again; blocks that small are
served from the heap and reused.

The suite runner is deterministic end to end: seeded generators consumed
in a fixed order, fixed instance ordering, and a CSV writer with a
17-significant-digit float format and no timestamps, so two runs with
the same seed produce byte-identical output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _accel
from ._util import fmt17, json_dumps_stable
from .curves import ClosedCurve, _circular_gap, local_graph_at
from .errors import InvalidInputError
from .kernels import (_GRID_PER_SIGMA, BumpKernel, Interval,
                      _lattice_convolve, find_support_radius)
from .linalg import hausdorff_distance_sampled
from .partition import make_reference_plateau, smoothing_window_radius
from .reach import estimate_reach_federer
from .smoothing import (_PROBE_RATIO_CAP, BlendedMap, effective_radius_drop,
                        far_away_reach_bound, predicted_reach_bound,
                        smooth_core_probe, smooth_manifold)

__all__ = [
    "CheckResult",
    "estimate_lipschitz",
    "random_piecewise_linear",
    "random_c11",
    "check_convolution_lipschitz",
    "check_blend_lipschitz",
    "check_tangent_distance_bound",
    "check_angle_bound",
    "check_hausdorff_bound",
    "check_far_point_distance",
    "check_main_theorem",
    "run_suite",
    "SuiteResult",
    "write_checks_csv",
    "write_failures_json",
    "SUITES",
]


# least grid of the Lipschitz checkers and of the shared patch arrays;
# pair subsample of the tangent-distance check
_LIPSCHITZ_GRID = 2001
_PATCH_GRID = 1025
_PAIR_N = 192
# most pairs (float64 each) one temporary of a pair checker holds
_PAIR_FLOATS = 4096
# core rows per block of the far-point check, and the float-eps
# multiple that widens its block bounds past every rounding
_FAR_BLOCK = 32
_FAR_SLACK = 64
# samples of each junction's micro pair scan
_JUNCTION_SCAN_N = 401
# scan tolerance of the reach-drop row, as a share of the input reach
_REACH_TOL = 0.02
# instances per suite: zoo functions and blend budgets
_CONVOLUTION_COUNT = 100
_BLEND_COUNT = 20
_BLEND_RHOS = (1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality: measured against bound + tolerance."""

    name: str
    passed: bool
    measured: float
    bound: float
    tolerance: float
    slack: float
    grid: int
    seed: int
    instance: str


def _result(name, measured, bound, tolerance, grid, seed, instance,
            passed=None):
    measured = float(measured)
    bound = float(bound)
    tolerance = float(tolerance)
    if passed is None:
        passed = measured <= bound + tolerance
    return CheckResult(name=name, passed=bool(passed), measured=measured,
                       bound=bound, tolerance=tolerance,
                       slack=bound + tolerance - measured, grid=int(grid),
                       seed=int(seed), instance=str(instance))


def estimate_lipschitz(xs, vals):
    """Largest difference quotient over all pairs of samples.

    ``xs`` must be strictly increasing.  On a sorted grid the slope of
    any chord is a convex combination of the adjacent slopes it spans,
    so the largest quotient over all pairs is the largest over adjacent
    pairs, which is all that is computed.  Unsorted or repeated ``xs``
    would break that identity and raise instead.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    vals = np.ascontiguousarray(vals, dtype=float)
    if xs.shape != vals.shape or xs.ndim != 1 or xs.size < 2:
        raise InvalidInputError("need matching 1-D arrays of length >= 2")
    if not np.all(np.diff(xs) > 0):
        raise InvalidInputError("xs must be strictly increasing")
    q, _, _ = _accel.max_abs_diff_quotient(xs, vals)
    return float(q)


# ---------------------------------------------------------------------------
# random instance zoo


def random_piecewise_linear(rng, domain, n_kinks, lip_max):
    """Continuous piecewise-linear function with measured constants.

    Returns ``(f, df, L)`` where L is the exact Lipschitz constant (the
    largest absolute segment slope).  The derivative is the piecewise
    constant slope, taking the right-hand value at kinks.
    """
    lo, hi = domain.lo, domain.hi
    inner = np.sort(rng.uniform(lo, hi, size=int(n_kinks)))
    xs = np.concatenate(([lo], inner, [hi]))
    slopes = rng.uniform(-lip_max, lip_max, size=xs.size - 1)
    ys = np.concatenate(([rng.uniform(-1.0, 1.0)],
                         np.cumsum(slopes * np.diff(xs))))
    ys[1:] += ys[0]

    def f(x):
        return np.interp(np.asarray(x, dtype=float), xs, ys)

    def df(x):
        idx = np.clip(np.searchsorted(xs, np.asarray(x, dtype=float),
                                      side="right") - 1, 0, slopes.size - 1)
        return slopes[idx]

    return f, df, float(np.abs(slopes).max())


def random_c11(rng, domain, n_kinks, lip_d_max):
    """Random function with Lipschitz derivative, by exact antiderivative.

    The derivative is a continuous piecewise-linear random walk with
    segment slopes bounded by ``lip_d_max``; the function is its exact
    piecewise-quadratic antiderivative.  Returns ``(f, df, L, L_d)``
    with both constants exact: L the largest |derivative| (attained at a
    node), L_d the largest derivative slope.
    """
    lo, hi = domain.lo, domain.hi
    inner = np.sort(rng.uniform(lo, hi, size=int(n_kinks)))
    xs = np.concatenate(([lo], inner, [hi]))
    dx = np.diff(xs)
    dslopes = rng.uniform(-lip_d_max, lip_d_max, size=dx.size)
    d = np.concatenate(([rng.uniform(-1.0, 1.0)],
                        np.cumsum(dslopes * dx)))
    d[1:] += d[0]
    F = np.concatenate(([0.0], np.cumsum(0.5 * (d[:-1] + d[1:]) * dx)))

    def f(x):
        xv = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(xs, xv, side="right") - 1, 0, dx.size - 1)
        t = xv - xs[idx]
        return F[idx] + d[idx] * t + 0.5 * dslopes[idx] * t * t

    def df(x):
        xv = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(xs, xv, side="right") - 1, 0, dx.size - 1)
        return d[idx] + dslopes[idx] * (xv - xs[idx])

    return f, df, float(np.abs(d).max()), float(np.abs(dslopes).max())


# ---------------------------------------------------------------------------
# mollification and blend checkers


def _lattice_outputs(lo, hi, h, n):
    """A grid of at least ``n`` points over [lo, hi] on a lattice of
    spacing h: every s-th point of its q-fold refinement h/q.

    q is the least that leaves ``n`` points of h/q in [lo, hi], and s
    then the largest, so the grid is as fine as it must be and no finer.
    Returns ``(k, q)``: the sorted indices k = i s of the grid points k
    h/q, and q.
    """
    def ends(q, s):
        # the first and last i with i s h/q in [lo, hi]
        return math.ceil(lo / (h / q) / s), math.floor(hi / (h / q) / s)

    def count(q, s):
        first, last = ends(q, s)
        return last - first + 1

    q = max(1, math.ceil((n - 1) * h / (hi - lo)))
    while count(q, 1) < n:
        q += 1
    s = max(1, math.floor((hi - lo) * q / ((n - 1) * h)))
    while count(q, s) < n:
        s -= 1
    first, last = ends(q, s)
    return s * np.arange(first, last + 1), q


def check_convolution_lipschitz(f, df, lip, kernel, domain, *, order,
                                seed, instance):
    """Mollification never raises a Lipschitz constant.

    Order 0 measures the difference quotients of the smoothed values;
    order 1 measures the sup of the smoothed slope (kink inputs have no
    slope constant of their own, so the claim there is the slope bound).
    Either way the discrete form is exact: the smoothed value is a fixed
    convex combination of translates, so the constant carries over with
    no grid term, and the tolerance is float-level only.  The smoothed
    function is read on the lattice sigma/50 of ``sup_deviation_ck``,
    refined until the shrunk domain holds ``_LIPSCHITZ_GRID`` points
    (``_lattice_outputs``); the row's ``grid`` counts them.
    """
    sigma = kernel.sigma
    shrunk = Interval(domain.lo + sigma * (1 + 1e-9),
                      domain.hi - sigma * (1 + 1e-9))
    if shrunk.length <= 0:
        raise InvalidInputError("domain too small for the kernel support")
    h = sigma / _GRID_PER_SIGMA
    k, q = _lattice_outputs(shrunk.lo, shrunk.hi, h, _LIPSCHITZ_GRID)
    g = f if order == 0 else df
    _, (vals,) = _lattice_convolve(lambda xs: (g(xs),), sigma,
                                   _GRID_PER_SIGMA, k, q,
                                   np.ones(k.size, dtype=bool))
    if order == 0:
        measured = estimate_lipschitz(k * (h / q), vals)
    else:
        measured = float(np.abs(vals).max())
    tol = 1e-9 * max(1.0, lip)
    return _result(f"conv_lipschitz_order{order}", measured, lip, tol,
                   k.size, seed, instance)


class _FunctionGraph:
    """A zoo function and its slope in the graph interface of ``BlendedMap``."""

    def __init__(self, f, df):
        self.f = f
        self.df = df

    def value_and_slope(self, y):
        return self.f(y), self.df(y)


def _proven_blend(f, df, psi, rho, domain, order, *, sigma_max, lip, lip_d):
    """The blend of ``f`` by ``psi`` at the radius ``find_support_radius``
    proves for the budget ``rho`` from ``f``'s constants."""
    window = Interval(-psi.support_radius, psi.support_radius)
    sigma, _ = find_support_radius(
        f, df, window, domain, rho, k=order, sigma_max=sigma_max, lip=lip,
        lip_d=lip_d)
    return BlendedMap(_FunctionGraph(f, df), psi, BumpKernel(sigma),
                      _GRID_PER_SIGMA)


def check_blend_lipschitz(f, df, lip, lip_d, psi, rho, domain, *, order,
                          sigma_max, seed, instance):
    """Blending costs at most the plateau constant times the budget.

    Order 0: the blended value is Lipschitz within L + L_psi * rho.
    Order 1: the blended slope is Lipschitz within L_d + 3 K(1) rho
    (needs a Lipschitz input slope, so order 1 only accepts that zoo).
    The zoo is at scale R = 1, so K(1) = ``psi.combined_lipschitz(1.0)``.
    The radius is proven from ``lip`` and ``lip_d`` (``math.inf`` for a
    kink, order 0 only) by ``find_support_radius``.  The blend is read on
    the lattice sigma/50 that radius's witness measured, refined until
    the shrunk domain holds ``_LIPSCHITZ_GRID`` points
    (``_lattice_outputs``); the row's ``grid`` counts them.
    """
    blend = _proven_blend(f, df, psi, rho, domain, order,
                          sigma_max=sigma_max, lip=lip, lip_d=lip_d)
    sigma = blend.kernel.sigma
    margin = sigma * (1 + 1e-9)
    shrunk = Interval(domain.lo + margin, domain.hi - margin)
    h = sigma / blend.taps
    k, q = _lattice_outputs(shrunk.lo, shrunk.hi, h, _LIPSCHITZ_GRID)
    if order == 0:
        vals = blend.value(k, q)
        bound = lip + psi.lip_value * rho
    else:
        vals = blend.derivative(k, q)
        bound = lip_d + 3.0 * psi.combined_lipschitz(1.0) * rho
    measured = estimate_lipschitz(k * (h / q), vals)
    tol = 1e-6 * max(1.0, bound)
    return _result(f"blend_lipschitz_order{order}", measured, bound, tol,
                   k.size, seed, instance)


# ---------------------------------------------------------------------------
# patch-level checkers (run on patches from a real pipeline pass)


def patch_graph_arrays(patch):
    """Dense shared evaluation of one patch blend, by live quadrature.

    Returns ``(ys, F, DF, fv, dfv)`` on a grid over the transition
    window, the ``arrays`` every patch checker reads: the blend's value
    and slope and the graph's.  The blend is re-evaluated with fresh
    taps here, never read off the displacement tabulation the pipeline
    stored: the checks must not trust the object they are checking.

    The grid is the zoo's rule (``_lattice_outputs``) on the blend's own
    lattice k h, h = sigma/16: every s-th lattice point in [-r2, r2],
    s the largest whole number of lattice steps that leaves at least
    ``_PATCH_GRID`` points, the ends matched to the lattice within 1e-6
    h (a stadium patch at epsilon 0.05 reads every 9th point, 1091 of
    them).  A proven radius is no power-of-two fraction of the window,
    so the grid step is no longer 2 r2/1024 exactly.  The blend reads
    its graph on the lattice points of the grid and the taps it needs,
    in reads of at most ``kernels._READ_POINTS`` points (one at epsilon
    0.05, 9 843 points on the stadium), and those reads also give the
    graph's values on the grid (``BlendedMap.value_and_derivative``).
    """
    b = patch.blend
    r2 = patch.transition_radius
    h = b.kernel.sigma / b.taps
    k, q = _lattice_outputs(-r2 - 1e-6 * h, r2 + 1e-6 * h, h, _PATCH_GRID)
    F, DF, fv, dfv = b.value_and_derivative(k, q)
    return k * (h / q), F, DF, fv, dfv


def check_tangent_distance_bound(patch, *, seed=0, instance, arrays):
    """Blended graph stays quadratically close to its tangent lines.

    For all pairs on the blended graph, the distance from one point to
    the tangent line at the other is at most (lip_slope + 3 K(R) rho/R)/2
    times distance squared, R = ``patch.reach``: in F'' = (1 - psi) f''
    + psi f*'' + psi'' (f* - f) + 2 psi' (f*' - f') the first two terms
    stay within lip_slope and, with budgets rho R and rho, the others
    within L_d rho R + 2 L_v rho <= 3 K(R) rho/R.

    Pairs closer than two grid steps are skipped; a pair whose distance
    is NaN is not, so a non-finite entry of the arrays reads NaN and
    fails the row.  The ratios are formed a block of rows against every
    column at a time, at most ``_PAIR_FLOATS`` pairs, so that no
    temporary crosses glibc's 128 KiB ``mmap`` threshold and faults its
    pages in afresh on every call; the block maxima are combined by
    ``np.maximum``, which keeps a NaN, so the maximum is the all-pairs
    one bit for bit.
    """
    ys, F, DF, _, _ = arrays
    stride = max(1, ys.size // _PAIR_N)
    ys, F, DF = ys[::stride], F[::stride], DF[::stride]
    norm = np.sqrt(1.0 + DF * DF)
    T0, T1 = 1.0 / norm, DF / norm
    near2 = (2.0 * (ys[1] - ys[0])) ** 2
    step = max(1, _PAIR_FLOATS // ys.size)
    measured = 0.0
    for i in range(0, ys.size, step):
        rows = slice(i, i + step)
        D0 = ys[None, :] - ys[rows, None]                  # q - p
        D1 = F[None, :] - F[rows, None]
        cross = np.abs(D0 * T1[rows, None] - D1 * T0[rows, None])
        d2 = D0 * D0 + D1 * D1
        skip = d2 < near2
        ratio = np.where(skip, 0.0, cross / np.where(skip, 1.0, d2))
        measured = np.maximum(measured, ratio.max())
    K = patch.blend.psi.combined_lipschitz(patch.reach)
    bound = 0.5 * (patch.lip_slope + 3.0 * K * patch.rho_target / patch.reach)
    tol = 1e-6 * max(min(1.0 / patch.reach, 1.0), bound)
    return _result("tangent_distance", measured, bound, tol, ys.size, seed,
                   instance)


def check_angle_bound(patch, *, seed=0, instance, arrays):
    """Blending tilts tangents by at most arcsin((1 + K(R)) rho), R =
    ``patch.reach``: |F' - f'| <= |psi'| rho R + rho <= (1 + K(R)) rho."""
    ys, _, DF, _, dfv = arrays
    measured = float(np.abs(np.arctan(DF) - np.arctan(dfv)).max())
    rho = patch.rho_target
    arg = (1.0 + patch.blend.psi.combined_lipschitz(patch.reach)) * rho
    bound = math.asin(min(1.0, arg))
    tol = 1e-9 * max(1.0, bound)
    return _result("tangent_angle", measured, bound, tol, ys.size, seed,
                   instance)


def check_hausdorff_bound(patch, R, *, seed=0, instance, arrays):
    """A patch moves the curve by a small multiple of the budget.

    Hausdorff distance between the window graph before and after, at
    most the vertical move |F - f| <= e = rho R (the value budget), is
    within the lemma's e (6 L + 6 + 1), L the window graph constant.
    Non-finite arrays measure NaN, so the row fails, as the other patch
    checkers' rows do.
    """
    ys, F, _, fv, _ = arrays
    before = np.stack([ys, fv], axis=1)
    after = np.stack([ys, F], axis=1)
    if np.isfinite(before).all() and np.isfinite(after).all():
        measured = hausdorff_distance_sampled(before, after)
    else:
        measured = math.nan
    e = patch.rho_target * R
    bound = e * (6.0 * patch.lip_graph + 6.0 + 1.0)
    tol = 1e-9 * max(min(R, 1.0), bound)
    return _result("patch_hausdorff", measured, bound, tol, ys.size, seed,
                   instance)


def _far_box_bounds(boxes, far, R, margin):
    """Upper bounds on the excess of the core rows inside each box pair
    against each far sample: a ``(boxes, far samples)`` array.

    With n the unit normal, |<d, n>| - |d|^2/(2R) = R/2 - |q - c|^2/(2R)
    for the nearer of the tangent-ball centers c = p +- R n.  So no pair
    of the rows with far sample q exceeds R/2 - lb^2/(2R), lb the least
    distance from q to the two boxes ``(lo, hi)`` of ``boxes`` that bound
    the rows' two center sets.  ``margin`` widens the bounds past every
    rounding of those distances and of the excess.
    """
    fx, fy = far[:, 0], far[:, 1]
    lb2 = np.inf
    for lo, hi in boxes:
        gx = np.maximum(np.maximum(lo[:, 0, None] - fx, fx - hi[:, 0, None]), 0.0)
        gy = np.maximum(np.maximum(lo[:, 1, None] - fy, fy - hi[:, 1, None]), 0.0)
        lb2 = np.minimum(lb2, gx * gx + gy * gy)
    # an overflow to inf or NaN here skips no pair
    return 0.5 * R - lb2 / (2.0 * R) + margin


def _far_centers(P, tang, far, R):
    """The two tangent-ball center sets p +- R n of the core rows, and
    the margin of their bounds: ``_FAR_SLACK`` eps (1 + S + S^2/R), S
    bounding every distance involved."""
    normal = R * np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    S = (R + np.sqrt((P * P).sum(axis=1)).max()
         + np.sqrt((far * far).sum(axis=1)).max())
    margin = _FAR_SLACK * np.finfo(np.float64).eps * (1.0 + S + S * S / R)
    return (P + normal, P - normal), margin


def _far_block_max(p, tang, far, R):
    """Largest excess |<q - p, n>| - |q - p|^2/(2R) over the pairs of
    core points ``p`` (unit tangents ``tang``) and far samples, formed
    ``_PAIR_FLOATS`` pairs at a time; a NaN excess reads NaN."""
    step = max(1, _PAIR_FLOATS // p.shape[0])
    measured = -np.inf
    for j in range(0, far.shape[0], step):
        q = far[j:j + step]
        D0 = q[None, :, 0] - p[:, 0, None]
        D1 = q[None, :, 1] - p[:, 1, None]
        cross = np.abs(D0 * tang[:, 1, None] - D1 * tang[:, 0, None])
        measured = np.maximum(
            measured, (cross - (D0 * D0 + D1 * D1) / (2.0 * R)).max())
    return measured


def _far_point_max(P, tang, far, R):
    """The largest excess over all (core, far) pairs, comparing pair by
    pair only the ``_FAR_BLOCK``-row blocks and the far samples whose
    bounds (``_far_box_bounds``) reach the running maximum; see
    ``check_far_point_distance``."""
    if not (np.isfinite(P).all() and np.isfinite(tang).all()
            and np.isfinite(far).all()):
        return _far_block_max(P, tang, far, R)
    centers, margin = _far_centers(P, tang, far, R)
    # the far sample with the highest whole-core bound seeds the maximum
    whole = [(c.min(axis=0)[None], c.max(axis=0)[None]) for c in centers]
    sample_bounds = _far_box_bounds(whole, far, R, margin)[0]
    k = int(np.argmax(sample_bounds))
    measured = _far_block_max(P, tang, far[k:k + 1], R)
    # a NaN bound, or a NaN maximum, keeps the sample, block or pair
    far = far[~(sample_bounds < measured)]
    idx = np.arange(0, P.shape[0], _FAR_BLOCK)
    boxes = [(np.minimum.reduceat(c, idx), np.maximum.reduceat(c, idx))
             for c in centers]
    block_bounds = np.full(idx.size, -np.inf)
    step = max(1, _PAIR_FLOATS // idx.size)
    for j in range(0, far.shape[0], step):
        block_bounds = np.maximum(block_bounds, _far_box_bounds(
            boxes, far[j:j + step], R, margin).max(axis=1))
    for b in np.argsort(-block_bounds, kind="stable"):
        if block_bounds[b] < measured:
            continue
        box = [(lo[b:b + 1], hi[b:b + 1]) for lo, hi in boxes]
        cols = ~(_far_box_bounds(box, far, R, margin)[0] < measured)
        rows = slice(idx[b], idx[b] + _FAR_BLOCK)
        measured = np.maximum(measured, _far_block_max(P[rows], tang[rows],
                                                       far[cols], R))
    return measured


def check_far_point_distance(patch, curve_after, R, sample, *, seed=0,
                             instance, arrays):
    """Far pairs still satisfy a reach-style tangent inequality.

    p runs over the blended plateau core, q over curve samples outside
    the patch window; the distance from q to the tangent line at p must
    stay within |q-p|^2/(2R) plus e^2/(2R) + e (6 L + 6 + 4) at the
    value budget e = rho R: p is within e of the input point p0 below
    it, (|q-p| + e)^2/(2R) bounds q's distance to p0's tangent line, and
    the lemma bounds the line's shift and tilt by e (6 L + 6 + 4).  The
    row's ``grid`` is the number of (core, far) pairs the maximum
    ranges over.

    The excess of a pair is R/2 minus |q - c|^2/(2R), c the nearer
    center of the two radius-R balls tangent at p, so a far sample's
    distance to the bounding boxes of a set of centers bounds the
    excess of their core rows against it, rounding included
    (``_far_box_bounds``).  One box per center set over the whole core
    bounds every row against each far sample; the sample with the
    highest such bound seeds the running maximum with its excess against
    every core row, and only the samples whose bound reaches the seed go
    further.  Blocks of ``_FAR_BLOCK`` core rows are then compared pair
    by pair, highest block bound first, each against the samples whose
    bound for that block, formed when the block is visited, reaches the
    running maximum; a block whose bounds all fall below it cannot hold
    the maximum and is skipped.  No blocks-by-samples bound matrix is
    formed: the block maxima of the bounds are taken ``_PAIR_FLOATS``
    bounds at a time and the pairs compared ``_PAIR_FLOATS`` at a time,
    so that no temporary crosses glibc's 128 KiB ``mmap`` threshold and
    faults its pages in afresh on every call.  The maximum is the one
    every pair would give, bit for bit.
    Non-finite input compares every pair, so a NaN anywhere still
    reaches the result.  The gain rests on few pairs coming near the
    maximum; a core on an arc of radius exactly R about the far samples
    ties every pair and compares them all.  Arrays with no grid point in
    the plateau core raise ``InvalidInputError``.
    """
    ay, aF, aDF, _, _ = arrays
    core = np.abs(ay) <= patch.inner_radius
    ys, F, DF = ay[core], aF[core], aDF[core]
    if ys.size == 0:
        raise InvalidInputError("no grid point of the arrays in the plateau core")
    P = (patch.center[None, :] + ys[:, None] * patch.tangent[None, :]
         + F[:, None] * patch.normal[None, :])
    tang = (patch.tangent[None, :] + DF[:, None] * patch.normal[None, :])
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)

    L_total = curve_after.length
    gap = _circular_gap(sample.params - patch.base_arc, L_total)
    far = sample.points[gap > 1.5 * patch.arc_window]
    if far.shape[0] == 0:
        raise InvalidInputError("no far samples; curve shorter than the window")
    measured = _far_point_max(P, tang, far, R)
    e = patch.rho_target * R
    bound = e * e / (2.0 * R) + e * (6.0 * patch.lip_graph + 6.0 + 4.0)
    tol = 1e-9 * max(min(R, 1.0), bound)
    return _result("far_point_distance", measured, bound, tol,
                   ys.size * far.shape[0], seed, instance)


# ---------------------------------------------------------------------------
# end-to-end theorem check


def _probe_rows(probes, seed):
    """Smoothness-probe rows of ``(name, curve, arc, sigma, instance,
    expect_pass)`` probes, in order.

    Each probe reads its own window of half-width 12 sigma around
    ``arc`` and passes when the probe's verdict equals ``expect_pass``.
    A probe whose differences all sit below the floor measures 0.0: its
    last ratio is rounding noise.
    """
    rows = []
    for name, curve, arc, sigma, instance, expect_pass in probes:
        g = local_graph_at(curve, arc, 12.0 * sigma)
        pr = smooth_core_probe(g.value, 0.0, sigma)
        ratio = pr.ratios[-1]
        measured = ratio if math.isfinite(ratio) and not pr.limited_by_floor else 0.0
        rows.append(_result(name, measured, _PROBE_RATIO_CAP, 0.0,
                            5 * len(pr.steps), seed, instance,
                            passed=pr.passed == expect_pass))
    return rows


def check_main_theorem(result, *, seed=0):
    """Verify the headline guarantees of a finished run.

    Rows: reach drop within budget (measured scan tolerance 2 percent of
    the input reach), the same drop with no tolerance (``R_hat_measured``
    comes from a sample scan, which can only overestimate the reach, so
    sampling can only make the drop read low and a tolerance can only
    hide a real one), whole-curve closeness
    within budget, the largest
    center shift within the shift budget sqrt(delta R)/32 that
    ``smooth_patch`` enforces, a smoothness probe at every applied patch
    center of the final curve, probes at the original kink locations, a
    control probe on the raw curve at each kink, where the expected
    outcome is failure, and a micro pair scan at each kink, whose ratio
    must stay at least R - epsilon.

    Each probe opens its own window and reads it in four graph reads,
    one per stencil; see ``_probe_rows``.  A probe on the finished curve
    opens its window where a patch reaches, so it reads by Newton; a
    control on the raw curve reads in closed form.
    """
    rep = result.report
    rows = []
    rows.append(_result(
        "reach_drop", rep.R_input - rep.R_hat_measured, rep.epsilon,
        _REACH_TOL * rep.R_input, rep.scan_samples, seed,
        rep.shape.get("kind", "?")))
    rows.append(_result(
        "reach_drop_strict", rep.R_input - rep.R_hat_measured, rep.epsilon,
        0.0, rep.scan_samples, seed, rep.shape.get("kind", "?")))
    rows.append(_result(
        "c1_distance", rep.c1_distance, rep.epsilon, 0.0,
        rep.scan_samples, seed, rep.shape.get("kind", "?")))
    rows.append(_result(
        "center_shift", rep.shift_max,
        smoothing_window_radius(rep.delta, rep.R_input) / 16.0, 0.0,
        rep.net_size, seed, rep.shape.get("kind", "?")))

    final = result.curve
    probes = [("smooth_probe", final, p.base_arc, p.sigma,
               f"patch-{p.index:04d}-arc={p.base_arc:.6f}", True)
              for p in final.patches]
    junctions = final.shape.junction_arcs()
    if junctions and final.patches:
        sig = min(p.sigma for p in final.patches)
        raw = ClosedCurve(final.shape)
        for a in junctions:
            tag = f"junction-arc={a:.6f}"
            probes.append(("smooth_probe_junction", final, a, sig, tag, True))
            probes.append(("junction_probe_control", raw, a, sig, tag, False))
    rows.extend(_probe_rows(probes, seed))
    if junctions and final.patches:
        rows.extend(_junction_pair_rows(final, junctions, sig,
                                        rep.R_input - rep.epsilon, seed))
    return rows


def _junction_pair_rows(curve, junctions, sigma, bound, seed):
    """One micro pair scan per junction: the least pair ratio of
    ``_JUNCTION_SCAN_N`` samples of ``curve`` over +-sigma/4 around it,
    pairs at least sigma/160 apart, against the lower bound ``bound``.

    The final scan's pair spacing skips every pair this close, so a
    curvature jump the patches left behind shows here first.  A row
    passes when the ratio is at least the bound; as for the junction
    control, ``slack`` keeps its one formula, so a passing row reads a
    negative slack.  All samples are read in one curve evaluation.
    """
    offsets = np.linspace(-0.25 * sigma, 0.25 * sigma, _JUNCTION_SCAN_N)
    arcs = np.concatenate([a + offsets for a in junctions])
    pts, vel = curve.point_and_velocity(arcs)
    tans = vel / np.linalg.norm(vel, axis=-1, keepdims=True)
    rows = []
    for k, a in enumerate(junctions):
        part = slice(k * offsets.size, (k + 1) * offsets.size)
        est = estimate_reach_federer(pts[part], tans[part], sigma / 160.0,
                                     None)
        rows.append(_result("junction_pair_ratio", est.value, bound, 0.0,
                            est.pairs_scanned, seed, f"junction-arc={a:.6f}",
                            passed=est.value >= bound))
    return rows


# ---------------------------------------------------------------------------
# formula identity checks


def _formula_rows(seed):
    rng = np.random.default_rng(seed)
    n = 10000
    Rs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    # verify where 2R - z keeps float accuracy: the conditioning of the
    # reference expression is 1 + 2 R xi, so cap xi at ~50/R (12 decades)
    xis = np.exp(rng.uniform(math.log(1e-9), math.log(50.0), n)) / Rs
    z = effective_radius_drop(Rs, xis)
    rhs = 1.0 / (2.0 * Rs - z)
    err = np.abs(1.0 / (2.0 * Rs) + xis - rhs) / rhs
    rows = [_result("radius_drop_identity", err.max(), 0.0, 1e-12, err.size,
                    seed, "1/(2R)+xi == 1/(2R-z)")]

    R = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 41))[:, None]
    d = np.linspace(0.01, 0.5, 25) * R
    err = np.abs(predicted_reach_bound(R, d, 0.0) - R * (1.0 - d / R)) / R
    rows.append(_result("reach_bound_zero_budget", err.max(), 0.0, 0.0,
                        err.size, seed, "rho=0 -> R(1-delta/R) exactly"))

    R = R[..., None]
    b = np.array([0.1, 1.0, 10.0])[:, None]
    L = np.array([0.0, 1.0, 7.0])
    err = np.abs(far_away_reach_bound(R, 0.0, b, L) - R) / R
    rows.append(_result("far_bound_zero_deviation", err.max(), 0.0, 0.0,
                        err.size, seed, "epsilon=0 -> R exactly"))

    # the bound never exceeds the input reach and shrinks with the budget;
    # along rho the steps from b(0), the first of them b(0) - b(0) = 0
    R = np.array([0.5, 1.0, 3.0])[:, None, None]
    d = np.array([0.05, 0.2, 0.45])[:, None] * R
    bound = predicted_reach_bound(R, d, np.array([0.0, 1e-8, 1e-6, 1e-4]))
    steps = np.diff(bound, axis=-1, prepend=bound[..., :1])
    worst = max(steps.max(), (bound[..., 0] - R[..., 0]).max())
    rows.append(_result("reach_bound_monotone", worst, 0.0, 0.0, steps.size,
                        seed, "nonincreasing in rho at fixed window"))
    return rows


# ---------------------------------------------------------------------------
# suite runner


def _convolution_rows(seed):
    rng = np.random.default_rng(seed)
    domain = Interval(-2.0, 2.0)
    rows = []
    for i in range(_CONVOLUTION_COUNT):
        n_kinks = int(rng.integers(3, 13))
        lip_max = float(rng.uniform(0.5, 5.0))
        f, df, L = random_piecewise_linear(rng, domain, n_kinks, lip_max)
        sigma = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.3))))
        kern = BumpKernel(sigma)
        tag = f"pwl-{i:03d}-sigma={sigma:.6e}"
        rows.append(check_convolution_lipschitz(
            f, df, L, kern, domain, order=0, seed=seed, instance=tag))
        rows.append(check_convolution_lipschitz(
            f, df, L, kern, domain, order=1, seed=seed, instance=tag))
    return rows


def _blend_rows(seed):
    rng = np.random.default_rng(seed)
    psi = make_reference_plateau()
    domain = Interval(-2.7, 2.7)
    rows = []
    for rho in _BLEND_RHOS:
        rows.append(check_blend_lipschitz(
            lambda x: np.abs(np.asarray(x, dtype=float)),
            lambda x: np.sign(np.asarray(x, dtype=float)),
            1.0, math.inf, psi, rho, domain, order=0, seed=seed,
            instance=f"abs-rho={rho:.0e}", sigma_max=0.25))
    for i in range(_BLEND_COUNT):
        n_kinks = int(rng.integers(3, 9))
        lip_d = float(rng.uniform(0.5, 3.0))
        f, df, L, Ld = random_c11(rng, domain, n_kinks, lip_d)
        for rho in _BLEND_RHOS:
            tag = f"c11-{i:02d}-rho={rho:.0e}"
            rows.append(check_blend_lipschitz(
                f, df, L, Ld, psi, rho, domain, order=0, seed=seed,
                instance=tag, sigma_max=0.25))
            rows.append(check_blend_lipschitz(
                f, df, L, Ld, psi, rho, domain, order=1, seed=seed,
                instance=tag, sigma_max=0.25))
    return rows


def _stadium_fixture():
    return smooth_manifold({"kind": "stadium", "r": 1.0, "l": 2.0}, 0.05)


def _patch_rows(result, seed):
    from .curves import sample_manifold
    rows = []
    R = result.report.R_input
    sample = sample_manifold(result.curve, n=2000)
    for p in result.curve.patches:
        tag = f"patch-{p.index:04d}"
        arrays = patch_graph_arrays(p)
        rows.append(check_tangent_distance_bound(p, seed=seed, instance=tag,
                                                 arrays=arrays))
        rows.append(check_angle_bound(p, seed=seed, instance=tag,
                                      arrays=arrays))
        rows.append(check_hausdorff_bound(p, R, seed=seed, instance=tag,
                                          arrays=arrays))
        rows.append(check_far_point_distance(p, result.curve, R, sample,
                                             seed=seed, instance=tag,
                                             arrays=arrays))
    return rows


SUITES = ("formulas", "convolution", "blend", "patches", "main", "all")


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    seed: int
    results: tuple
    elapsed: float
    timings: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    @property
    def n_failed(self):
        return sum(not r.passed for r in self.results)


def run_suite(suite, seed):
    """Run one named verification suite; returns all rows in a fixed order.

    The patch and theorem suites share one stadium run, built here.
    ``timings`` of the result holds ``(name, seconds)`` for each suite
    run, in order, plus a ``"fixture"`` entry for that stadium run; the
    rows never carry a clock.  ``seed`` seeds NumPy's generator, so it
    must be a non-negative integer; anything else raises before any
    suite runs.
    """
    if suite not in SUITES:
        raise InvalidInputError(f"unknown suite {suite!r}; pick from {SUITES}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")
    t0 = time.perf_counter()
    rows = []
    timings = []

    def timed(name, build):
        start = time.perf_counter()
        out = build()
        timings.append((name, time.perf_counter() - start))
        return out

    if suite in ("formulas", "all"):
        rows.extend(timed("formulas", lambda: _formula_rows(seed)))
    if suite in ("convolution", "all"):
        rows.extend(timed("convolution", lambda: _convolution_rows(seed)))
    if suite in ("blend", "all"):
        rows.extend(timed("blend", lambda: _blend_rows(seed)))
    if suite in ("patches", "main", "all"):
        fixture = timed("fixture", _stadium_fixture)
    if suite in ("patches", "all"):
        rows.extend(timed("patches", lambda: _patch_rows(fixture, seed)))
    if suite in ("main", "all"):
        rows.extend(timed("main", lambda: check_main_theorem(fixture,
                                                             seed=seed)))
    elapsed = time.perf_counter() - t0
    return SuiteResult(suite=suite, seed=seed, results=tuple(rows),
                       elapsed=elapsed, timings=tuple(timings))


_CSV_HEADER = "name,instance,seed,grid,passed,measured,bound,tolerance,slack"


def write_checks_csv(results, path):
    """Deterministic CSV: fixed row order, fixed float format, no clock."""
    lines = [_CSV_HEADER]
    for r in results:
        lines.append(",".join([
            r.name, r.instance, str(r.seed), str(r.grid),
            "true" if r.passed else "false",
            fmt17(r.measured), fmt17(r.bound), fmt17(r.tolerance),
            fmt17(r.slack)]))
    data = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(data)
    return data


def _json_number(x):
    """A finite float as itself, else as ``fmt17``: "nan", "inf", "-inf"."""
    return x if math.isfinite(x) else fmt17(x)


def write_failures_json(results, path):
    """Serialize failing rows (if any) for later reproduction."""
    bad = [{
        "name": r.name, "instance": r.instance, "seed": r.seed,
        "grid": r.grid, "measured": _json_number(r.measured),
        "bound": _json_number(r.bound), "tolerance": _json_number(r.tolerance),
    } for r in results if not r.passed]
    data = json_dumps_stable({"failures": bad, "count": len(bad)})
    with open(path, "w") as fh:
        fh.write(data)
    return data

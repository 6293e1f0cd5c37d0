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
is all that is ever added.

Each checker has one route.  The four patch checkers read the same
``arrays``, one live evaluation of the patch blend by
``patch_graph_arrays``; grids, tap counts and instance counts are module
constants, and the smoothness-probe rows of ``check_main_theorem`` all
come from one helper bound by the probe's own pass threshold.

Checking costs what the checks need and no more, with every number
unchanged: each read of the patch graph takes value and slope from one
Newton solve, so the arrays cost one solve on the grid and one on the
tap grid; the far-point check compares every pair in cache-sized blocks
of the plateau core instead of one (core x far x 2) broadcast; and the
theorem's smoothness probes, one window each, are read in two joint
graph solves per curve, a few curve evaluations in all.

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
from .curves import ClosedCurve, graph_values, local_graph_at
from .errors import InvalidInputError
from .kernels import BumpKernel, Interval, convolve, find_support_radius
from .linalg import hausdorff_distance_sampled
from .partition import make_reference_plateau, smoothing_window_radius
from .reach import estimate_reach_federer
from .smoothing import (_PROBE_RATIO_CAP, BlendedMap, SmoothingResult,
                        _probe_stencils, effective_radius_drop,
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


# grid of the Lipschitz checkers; grid and taps per side of the shared
# patch arrays; pair subsample of the tangent-distance check
_LIPSCHITZ_GRID = 2001
_PATCH_GRID = 1025
_PATCH_TAPS = 16
_PAIR_N = 192
# core rows per block of the far-point check
_FAR_BLOCK = 32
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


def check_convolution_lipschitz(f, df, lip, kernel, domain, *, order=0,
                                seed=0, instance=""):
    """Mollification never raises a Lipschitz constant.

    Order 0 measures the difference quotients of the smoothed values;
    order 1 measures the sup of the smoothed slope (kink inputs have no
    slope constant of their own, so the claim there is the slope bound).
    Either way the discrete form is exact: the smoothed value is a fixed
    convex combination of translates, so the constant carries over with
    no grid term, and the tolerance is float-level only.
    """
    shrunk = Interval(domain.lo + kernel.sigma * (1 + 1e-9),
                      domain.hi - kernel.sigma * (1 + 1e-9))
    if shrunk.length <= 0:
        raise InvalidInputError("domain too small for the kernel support")
    xs = np.linspace(shrunk.lo, shrunk.hi, _LIPSCHITZ_GRID)
    if order == 0:
        vals = convolve(f, kernel, xs)
        measured = estimate_lipschitz(xs, vals)
    else:
        vals = convolve(df, kernel, xs)
        measured = float(np.abs(vals).max())
    tol = 1e-9 * max(1.0, lip)
    return _result(f"conv_lipschitz_order{order}", measured, lip, tol,
                   _LIPSCHITZ_GRID, seed, instance)


class _FunctionGraph:
    """A zoo function and its slope in the graph interface of ``BlendedMap``.

    ``value`` is ``f`` itself, so the value path does no extra work.
    """

    def __init__(self, f, df):
        self.value = f
        self.df = df

    def value_and_slope(self, y):
        return self.value(y), self.df(y)


def _searched_blend(f, df, psi, rho, domain, order, *, sigma_max=None):
    window = Interval(-psi.support_radius, psi.support_radius)
    sigma, _ = find_support_radius(
        f, df, window, domain, rho, k=order, sigma_max=sigma_max)
    return BlendedMap(_FunctionGraph(f, df), psi, BumpKernel(sigma))


def check_blend_lipschitz(f, df, lip, lip_d, psi, rho, domain, *, order=0,
                          seed=0, instance="", sigma_max=None):
    """Blending costs at most the plateau constant times the budget.

    Order 0: the blended value is Lipschitz within L + L_psi * rho.
    Order 1: the blended slope is Lipschitz within L_d + 3 L_comb * rho
    (needs a Lipschitz input slope, so order 1 only accepts that zoo).
    """
    blend = _searched_blend(f, df, psi, rho, domain, order,
                            sigma_max=sigma_max)
    margin = blend.kernel.sigma * (1 + 1e-9)
    shrunk = Interval(domain.lo + margin, domain.hi - margin)
    xs = np.linspace(shrunk.lo, shrunk.hi, _LIPSCHITZ_GRID)
    if order == 0:
        vals = blend.value(xs)
        bound = lip + psi.lip_value * rho
    else:
        vals = blend.derivative(xs)
        bound = lip_d + 3.0 * psi.combined_lipschitz * rho
    measured = estimate_lipschitz(xs, vals)
    tol = 1e-6 * max(1.0, bound)
    return _result(f"blend_lipschitz_order{order}", measured, bound, tol,
                   _LIPSCHITZ_GRID, seed, instance)


# ---------------------------------------------------------------------------
# patch-level checkers (run on patches from a real pipeline pass)


class _GridRead:
    """A window graph whose read on one grid is already made, for a
    blend that reads value and slope only: a read on that grid returns
    it, every other read (the tap grid) goes to the window itself.
    """

    def __init__(self, graph, ys, read):
        self.graph = graph
        self.ys = ys
        self.read = read

    def value_and_slope(self, y):
        if np.shape(y) == self.ys.shape and np.array_equal(y, self.ys):
            return self.read
        return self.graph.value_and_slope(y)


def patch_graph_arrays(patch):
    """Dense shared evaluation of one patch blend, by live quadrature.

    Returns ``(ys, F, DF, fv, dfv)`` on a uniform grid over the
    transition window, the ``arrays`` every patch checker reads.  The
    blend is re-evaluated with fresh taps here, never read off the
    displacement tabulation the pipeline stored: the checks must not
    trust the object they are checking.  Every read of the graph takes
    value and slope together, and the read on ``ys`` that gives
    ``fv``/``dfv`` is also the blend's base, so a call makes two graph
    solves: one on ``ys`` and one on the tap grid.
    """
    b = patch.blend
    r2 = patch.transition_radius
    ys = np.linspace(-r2, r2, _PATCH_GRID)
    fv, dfv = b.graph.value_and_slope(ys)
    light = BlendedMap(_GridRead(b.graph, ys, (fv, dfv)), b.psi, b.kernel,
                       taps=_PATCH_TAPS)
    F, DF = light.value_and_derivative(ys)
    return ys, F, DF, fv, dfv


def check_tangent_distance_bound(patch, *, seed=0, instance="", arrays):
    """Blended graph stays quadratically close to its tangent lines.

    For all pairs on the blended graph, the distance from one point to
    the tangent line at the other is at most half the blended slope
    constant (input slope constant + 3 L_comb rho) times distance
    squared.
    """
    ys, F, DF, _, _ = arrays
    stride = max(1, ys.size // _PAIR_N)
    ys, F, DF = ys[::stride], F[::stride], DF[::stride]
    P = np.stack([ys, F], axis=1)
    norm = np.sqrt(1.0 + DF * DF)
    T = np.stack([1.0 / norm, DF / norm], axis=1)
    D = P[None, :, :] - P[:, None, :]                      # q - p
    cross = np.abs(D[:, :, 0] * T[:, None, 1] - D[:, :, 1] * T[:, None, 0])
    d2 = (D * D).sum(-1)
    h = ys[1] - ys[0]
    mask = d2 >= (2.0 * h) ** 2
    ratio = np.where(mask, cross / np.where(mask, d2, 1.0), 0.0)
    measured = float(ratio.max())
    L_DF = patch.lip_slope + 3.0 * patch.blend.psi.combined_lipschitz * patch.rho_target
    bound = 0.5 * L_DF
    tol = 1e-6 * max(1.0, bound)
    return _result("tangent_distance", measured, bound, tol, ys.size, seed,
                   instance)


def check_angle_bound(patch, *, seed=0, instance="", arrays):
    """Blending tilts tangents by at most arcsin((1 + L_comb) rho)."""
    ys, _, DF, _, dfv = arrays
    measured = float(np.abs(np.arctan(DF) - np.arctan(dfv)).max())
    rho = patch.rho_target
    arg = (1.0 + patch.blend.psi.combined_lipschitz) * rho
    bound = math.asin(min(1.0, arg))
    tol = 1e-9 * max(1.0, bound)
    return _result("tangent_angle", measured, bound, tol, ys.size, seed,
                   instance)


def check_hausdorff_bound(patch, R, *, seed=0, instance="", arrays):
    """A patch moves the curve by a small multiple of the budget.

    Hausdorff distance between the window graph before and after,
    against rho (6 R L + 6 R + 1) with L the window graph constant.
    """
    ys, F, _, fv, _ = arrays
    before = np.stack([ys, fv], axis=1)
    after = np.stack([ys, F], axis=1)
    measured = hausdorff_distance_sampled(before, after)
    L = patch.lip_graph
    bound = patch.rho_target * (6.0 * R * L + 6.0 * R + 1.0)
    tol = 1e-9 * max(1.0, bound)
    return _result("patch_hausdorff", measured, bound, tol, ys.size, seed,
                   instance)


def check_far_point_distance(patch, curve_after, R, sample, *, seed=0,
                             instance="", arrays):
    """Far pairs still satisfy a reach-style tangent inequality.

    p runs over the blended plateau core, q over curve samples outside
    the patch window; the distance from q to the tangent line at p must
    stay within |q-p|^2/(2R) plus the deviation penalty
    rho^2/(2R) + rho (6 R L + 6 R + 4).  The row's ``grid`` is the number
    of (p, q) pairs compared.

    Every pair is compared.  The core is taken ``_FAR_BLOCK`` rows at a
    time, so each block's temporaries stay cache-sized, and the row
    maxima are folded into a running maximum; a NaN anywhere still
    reaches the result.  Arrays with no grid point in the plateau core
    raise ``InvalidInputError``.
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
    gap = np.abs(np.mod(sample.params - patch.base_arc + 0.5 * L_total,
                        L_total) - 0.5 * L_total)
    far = sample.points[gap > 1.5 * patch.arc_window]
    if far.shape[0] == 0:
        raise InvalidInputError("no far samples; curve shorter than the window")
    fx, fy = far[:, 0], far[:, 1]
    measured = -np.inf
    for lo in range(0, ys.size, _FAR_BLOCK):
        p, t = P[lo:lo + _FAR_BLOCK], tang[lo:lo + _FAR_BLOCK]
        D0 = fx[None, :] - p[:, 0, None]
        D1 = fy[None, :] - p[:, 1, None]
        cross = np.abs(D0 * t[:, 1, None] - D1 * t[:, 0, None])
        excess = cross - (D0 * D0 + D1 * D1) / (2.0 * R)
        measured = np.maximum(measured, excess.max())
    rho = patch.rho_target
    L = patch.lip_graph
    bound = rho * rho / (2.0 * R) + rho * (6.0 * R * L + 6.0 * R + 4.0)
    tol = 1e-9 * max(1.0, bound)
    return _result("far_point_distance", measured, bound, tol,
                   ys.size * far.shape[0], seed, instance)


# ---------------------------------------------------------------------------
# end-to-end theorem check


def _probe_rows(probes, seed):
    """Smoothness-probe rows of ``(name, curve, arc, sigma, instance,
    expect_pass)`` probes, in order.

    Each probe reads a window of half-width 12 sigma around ``arc`` and
    passes when the probe's verdict equals ``expect_pass``.  A probe
    whose differences all sit below the floor measures 0.0: its last
    ratio is rounding noise.

    The stencils of all probes of one curve are read in two joint
    solves: the first stencil of every window, which sets the window's
    warm-start table and reads its frame, then the other stencils
    together.  Each value has the bytes of its own ``g.value`` call, so
    the rows are those of probing one window at a time.
    """
    graphs = [local_graph_at(curve, arc, 12.0 * sigma)
              for _, curve, arc, sigma, _, _ in probes]
    stencils = [_probe_stencils(0.0, sigma)[1] for _, _, _, sigma, _, _ in probes]
    values = [[] for _ in probes]
    for curve in {id(p[1]): p[1] for p in probes}.values():
        mine = [i for i, p in enumerate(probes) if p[1] is curve]
        for level in (slice(0, 1), slice(1, None)):
            reads = [(i, xs) for i in mine for xs in stencils[i][level]]
            vals = graph_values([(graphs[i], xs) for i, xs in reads])
            for (i, _), v in zip(reads, vals):
                values[i].append(v)
    rows = []
    for (name, _, _, sigma, instance, expect_pass), xs, vals in zip(
            probes, stencils, values):
        known = {x.tobytes(): v for x, v in zip(xs, vals)}
        pr = smooth_core_probe(lambda x: known[x.tobytes()], 0.0, sigma)
        ratio = pr.ratios[-1]
        measured = ratio if math.isfinite(ratio) and not pr.limited_by_floor else 0.0
        rows.append(_result(name, measured, _PROBE_RATIO_CAP, 0.0,
                            5 * len(pr.steps), seed, instance,
                            passed=pr.passed == expect_pass))
    return rows


def check_main_theorem(result, *, seed=0):
    """Verify the headline guarantees of a finished run.

    Rows: reach drop within budget (measured scan tolerance 2 percent of
    the input reach), whole-curve closeness within budget, the largest
    center shift within the shift budget sqrt(delta R)/32 that
    ``smooth_patch`` enforces, a smoothness probe at every applied patch
    center of the final curve, probes at the original kink locations, a
    control probe on the raw curve at each kink, where the expected
    outcome is failure, and a micro pair scan at each kink, whose ratio
    must stay at least R - epsilon.

    The probes are evaluated together, two joint graph solves per curve
    (the final curve and the raw one), so the check costs a few curve
    evaluations rather than four solves per probe; see ``_probe_rows``.
    """
    rep = result.report
    rows = []
    rows.append(_result(
        "reach_drop", rep.R_input - rep.R_hat_measured, rep.epsilon,
        _REACH_TOL * rep.R_input, rep.scan_samples, seed,
        rep.shape.get("kind", "?")))
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
        est = estimate_reach_federer(pts[part], tans[part], sigma / 160.0)
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
    worst = 0.0
    for R, xi in zip(Rs, xis):
        z = effective_radius_drop(R, xi)
        lhs = 1.0 / (2.0 * R) + xi
        rhs = 1.0 / (2.0 * R - z)
        worst = max(worst, abs(lhs - rhs) / rhs)
    rows = [_result("radius_drop_identity", worst, 0.0, 1e-12, n, seed,
                    "1/(2R)+xi == 1/(2R-z)")]

    worst = 0.0
    m = 0
    for R in np.exp(np.linspace(math.log(1e-2), math.log(1e2), 41)):
        for frac in np.linspace(0.01, 0.5, 25):
            d = frac * R
            err = abs(predicted_reach_bound(R, d, 0.0) - R * (1.0 - d / R))
            worst = max(worst, err / R)
            m += 1
    rows.append(_result("reach_bound_zero_budget", worst, 0.0, 0.0, m, seed,
                        "rho=0 -> R(1-delta/R) exactly"))

    worst = 0.0
    m = 0
    for R in np.exp(np.linspace(math.log(1e-2), math.log(1e2), 41)):
        for b in (0.1, 1.0, 10.0):
            for L in (0.0, 1.0, 7.0):
                err = abs(far_away_reach_bound(R, 0.0, b, L) - R)
                worst = max(worst, err / R)
                m += 1
    rows.append(_result("far_bound_zero_deviation", worst, 0.0, 0.0, m, seed,
                        "epsilon=0 -> R exactly"))

    # the bound never exceeds the input reach and shrinks with the budget
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
    rows.append(_result("reach_bound_monotone", worst, 0.0, 0.0, m, seed,
                        "nonincreasing in rho at fixed window"))
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
    fixture: SmoothingResult | None
    timings: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    @property
    def n_failed(self):
        return sum(not r.passed for r in self.results)


def run_suite(suite="all", seed=7, fixture=None):
    """Run one named verification suite; returns all rows in a fixed order.

    ``fixture`` optionally supplies a finished stadium run so callers
    (tests, the CLI) can share one pipeline pass between the patch and
    theorem suites.  ``timings`` of the result holds ``(name, seconds)``
    for each suite run, in order, plus a ``"fixture"`` entry when the
    stadium run was built here; the rows never carry a clock.
    """
    if suite not in SUITES:
        raise InvalidInputError(f"unknown suite {suite!r}; pick from {SUITES}")
    t0 = time.perf_counter()
    rows = []
    timings = []
    used_fixture = None

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
        used_fixture = (fixture if fixture is not None
                        else timed("fixture", _stadium_fixture))
    if suite in ("patches", "all"):
        rows.extend(timed("patches", lambda: _patch_rows(used_fixture, seed)))
    if suite in ("main", "all"):
        rows.extend(timed("main", lambda: check_main_theorem(used_fixture,
                                                             seed=seed)))
    elapsed = time.perf_counter() - t0
    return SuiteResult(suite=suite, seed=seed, results=tuple(rows),
                       elapsed=elapsed, fixture=used_fixture,
                       timings=tuple(timings))


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


def write_failures_json(results, path):
    """Serialize failing rows (if any) for later reproduction."""
    bad = [{
        "name": r.name, "instance": r.instance, "seed": r.seed,
        "grid": r.grid, "measured": r.measured, "bound": r.bound,
        "tolerance": r.tolerance,
    } for r in results if not r.passed]
    data = json_dumps_stable({"failures": bad, "count": len(bad)})
    with open(path, "w") as fh:
        fh.write(data)
    return data

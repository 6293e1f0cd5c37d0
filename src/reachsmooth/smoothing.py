"""The smoothing pipeline: localized blends at the junctions, reach bookkeeping.

Every shape the pipeline accepts is piecewise analytic, and
``BaseShape.junction_arcs`` lists every point where it is not C^inf: the
arcs where the curvature jumps.  A run patches only there, one patch per
junction in sorted order, each centered on its junction so the junction
lies in the patch's flat core.  At each junction the curve is rewritten
as a graph over its tangent line, the graph is mollified at a support
radius found by halving search (capped well below the window so the
transition ring cannot build up curvature), and the curve is replaced by
the blend

    new = old + plateau * (mollified - old)

tabulated as a displacement spline.  Points outside the plateau support
are untouched bit for bit; inside the flat core the new graph is the
pure mollification, and on the transition ring the old graph is
analytic.  Junctions closer than a window get one patch each, stacked in
order.  A shape with no junction (the circle, the ellipse) is returned
exactly.

The paper covers the whole manifold with a partition of unity, because
a general C^{1,1} manifold has no known smooth part; that construction,
a farthest-point net at 1/16 of the window scale with one patch per
center, is kept in the tests as the reference run.

Reach accounting happens twice: the a-priori bound ``predicted_reach_
bound`` evaluates the closed formula (pessimistic but proven), and the
measured value comes from the pair scan of the final curve.  Outside
the patch windows the final curve is the input bit for bit, and every
pair of the input has a ratio of at least R_input, so the scan reads
only the pairs with an end in a window: ``R_hat_measured`` is the least
of their ratio and R_input, ``scan_pairs`` counts the pairs scanned
(none on a shape without patches), and ``reach_argmin`` is the pair
where the scan found a ratio below R_input, or ``None`` when R_input
stands.  Acceptance binds the measured number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from ._util import _as_real_array, as_positive_float
from .curves import (AppliedPatch, BaseShape, ClosedCurve, local_graph_at,
                     make_shape, sample_manifold)
from .errors import GeometryError, InvalidInputError
# convolve_grid is not used here; perfbench's
# test_wrappers_reach_every_binding_and_restore checks this binding
from .kernels import (_grid_deviation, _halving_search, _lattice_convolve,
                      convolve_grid)
from .partition import (PlateauFunction, make_reference_plateau,
                        rescale_plateau, smoothing_window_radius)
from .ppoly import HermiteTable
from .reach import ReachEstimate, analytic_reach, estimate_reach_federer

__all__ = [
    "build_net",
    "BlendedMap",
    "smooth_patch",
    "PatchRecord",
    "SmoothingReport",
    "SmoothingResult",
    "smooth_manifold",
    "predicted_reach_bound",
    "far_away_reach_bound",
    "effective_radius_drop",
    "ProbeResult",
    "smooth_core_probe",
]


def build_net(shape):
    """The patch centers of a run: the junctions of ``shape``, sorted.

    A piecewise-analytic shape is C^inf away from the arcs where its
    curvature jumps, so those are the only centers a run needs; a shape
    without junctions gets none and comes back exactly.  The report's
    ``net_size`` counts these centers.
    """
    return tuple(sorted(shape.junction_arcs()))


class BlendedMap:
    """The localized blend of a 1-D graph, evaluated by live quadrature
    on its tap lattice.

    ``graph`` is what gets blended: any object with ``value_and_slope(y)``
    (a ``LocalGraph``, or a function and its slope wrapped to look like
    one).  The blend lives on the lattice of spacing sigma/taps of its
    ``kernel``, and every method takes sorted integer indices ``k`` on
    the q-fold refinement of that lattice: the points k sigma/(taps q),
    with the taps on every q-th of them (q = 1 for a patch).  Outside the
    plateau support the blend returns the original values exactly;
    inside, value and slope come from fresh discrete-tap quadrature
    rather than any tabulation, which is what the lemma checkers need.
    All three methods share one path: one graph read, value and slope
    together, of the points ``k`` and the taps of the points inside the
    support, each point's taps a row of a strided view of the one read
    (``kernels._lattice_convolve``), which also gives the graph at ``k``.
    """

    def __init__(self, graph, psi, kernel, taps):
        self.graph = graph
        self.psi = psi
        self.kernel = kernel
        self.taps = taps

    def value(self, k, q):
        return self._blend(k, q)[0]

    def derivative(self, k, q):
        return self._blend(k, q)[1]

    def value_and_derivative(self, k, q):
        """``(F, DF, f, df)``: value and slope of the blend at the points
        k sigma/(taps q), then of its graph there, from one read."""
        return self._blend(k, q)

    def _blend(self, k, q):
        sigma = self.kernel.sigma
        ys = np.asarray(k) * (sigma / self.taps / q)
        w = self.psi(ys)
        dw = self.psi.derivative(ys)
        hot = (w > 0.0) | (dw != 0.0)
        (f, df), (conv, dconv) = _lattice_convolve(
            self.graph.value_and_slope, sigma, self.taps, k, q, hot)
        base, dbase = f[hot], df[hot]
        diff = conv - base
        val, der = f.copy(), df.copy()
        val[hot] = base + w[hot] * diff
        der[hot] = dbase + dw[hot] * diff + w[hot] * (dconv - dbase)
        return val, der, f, df


@dataclass(frozen=True)
class PatchRecord:
    """Ledger row for one patch center visit; ``deviation`` is dimensionless."""

    index: int
    base_arc: float
    applied: bool
    sigma: float
    deviation: float
    shift: float
    halvings: int
    lip_graph: float
    lip_slope: float


# halvings of the support radius a patch tries before giving up; taps
# per kernel radius of a patch's measurement lattice, which its blend
# keeps
_MAX_HALVINGS = 14
_PATCH_TAPS = 16


def smooth_patch(curve, base_arc, *, delta, R, rho, psi, sigma_max):
    """Apply one localized smoothing step at a patch center.

    The patch takes the next index of the curve's stack.  Returns
    ``(new_curve, patch_or_None, record)``.  The patch is None when the
    window is already flat to machine precision (deviation at most
    1e-13: straight stretches), in which case the curve is unchanged.

    The support radius comes from ``kernels._halving_search``, each
    radius measured by ``kernels._grid_deviation``: the graph is read on
    the grid i*sigma/16 (``_PATCH_TAPS``) over the plateau support plus
    one kernel radius, and the convolved values and slopes are compared,
    in units of R, with the graph's: max(|f* - f|/R, |f*' - f'|) <= rho.
    Radii after the first are probed near the previous radius's worst
    point, and only a radius the probe cannot reject is read in full,
    the accepted one always.  The displacement is tabulated from the accepted
    radius's differences on that grid, and the patch keeps the live
    blend on the same lattice.

    Raises
    ------
    GeometryError
        If the window [-w, w], w = sqrt(delta R)/2, is not a graph (first
        seen where its slope is read at 257 points for ``lip_graph`` and
        ``lip_slope``) or the pushed-forward center drifted past the
        shift budget sqrt(delta R)/32.
    ConvergenceError
        If ``_MAX_HALVINGS`` halvings of the support radius cannot meet
        the deviation budget.
    """
    index = len(curve.patches)
    w = smoothing_window_radius(delta, R)
    r1 = psi.plateau_radius
    r2 = psi.support_radius
    if not (r2 < w):
        raise InvalidInputError("plateau support must sit inside the window")
    budget = w / 16.0

    graph = local_graph_at(curve, base_arc, w)
    ys = np.linspace(-w, w, 257)
    slopes = graph.slope(ys)
    lip_graph = float(np.abs(slopes).max())
    lip_slope = _accel.max_abs_diff_quotient(ys, slopes)[0]
    shift = float(np.linalg.norm(graph.center - curve.shape.point(np.array(base_arc))))
    if shift > budget:
        raise GeometryError(
            f"patch center drifted {shift:.3e}, over the budget {budget:.3e}")

    def measure(sigma, near):
        # the plateau support plus one kernel radius, two rows to spare
        inner = (int(math.ceil((r2 + sigma) / (sigma / _PATCH_TAPS))) + 2
                 - _PATCH_TAPS)
        return _grid_deviation(graph.value_and_slope, sigma, _PATCH_TAPS,
                               -inner, inner, near, R)

    start = min(as_positive_float(sigma_max, "sigma_max"), (w - r2) * (1.0 - 1e-9))
    sigma, halvings, dev, (xs, d0, d1, kern, mid) = _halving_search(
        measure, start, rho, start * 2.0 ** -_MAX_HALVINGS,
        f"patch at arc {base_arc:.6f}")

    record = PatchRecord(index=index, base_arc=float(base_arc),
                         applied=dev > 1e-13, sigma=sigma, deviation=dev,
                         shift=shift, halvings=halvings, lip_graph=lip_graph,
                         lip_slope=lip_slope)
    if not record.applied:
        return curve, None, record

    xs_mid = xs[mid]
    pv = psi(xs_mid)
    disp = HermiteTable(xs_mid, pv * d0, psi.derivative(xs_mid) * d0 + pv * d1)
    blend = BlendedMap(graph, psi, kern, _PATCH_TAPS)
    patch = AppliedPatch(
        index=index, base_arc=float(base_arc), center=graph.center,
        tangent=graph.tangent, normal=graph.normal, inner_radius=r1,
        transition_radius=r2, sigma=sigma, rho_target=rho,
        lip_graph=lip_graph, lip_slope=lip_slope, reach=R,
        displacement=disp, blend=blend)
    return curve.with_patch(patch), patch, record


@dataclass(frozen=True)
class SmoothingReport:
    """Everything a run measured or promised, JSON-serializable."""

    shape: dict
    R_input: float
    epsilon: float
    delta: float
    rho: float
    sigma_max: float
    sigma_per_patch: tuple
    R_prime_predicted: float
    R_hat_measured: float
    c1_distance: float
    patches_applied: int
    patches_identity: int
    net_size: int
    shift_max: float
    scan_samples: int
    scan_min_sep: float
    scan_pairs: int
    psi_lip_value: float
    psi_lip_derivative: float
    reach_argmin: dict | None

    def to_dict(self):
        out = {}
        for k, v in self.__dict__.items():
            if isinstance(v, tuple):
                out[k] = list(v)
            else:
                out[k] = v
        return out


@dataclass(frozen=True)
class SmoothingResult:
    curve: ClosedCurve
    report: SmoothingReport
    records: tuple
    psi: PlateauFunction
    scan: ReachEstimate


def smooth_manifold(shape, epsilon):
    """Smooth a closed curve, certifying the reach loss stays under epsilon.

    The schedule follows from epsilon and the shape: the input reach R is
    ``analytic_reach(shape)``, the window scale delta = min(epsilon/2,
    0.45 R), the deviation budget rho = 0.8/(1 + K(R)), dimensionless (K
    is ``psi.combined_lipschitz``, so a shape and epsilon scaled together
    keep rho), and the support cap sqrt(delta R)/256.  The final scan
    samples at sqrt(delta R)/32.

    Parameters
    ----------
    shape : dict or BaseShape
        Curve to smooth; dicts go through ``make_shape``.
    epsilon : float
        Reach-loss budget, below 0.9 R.

    Returns
    -------
    SmoothingResult
        One patch per junction of the shape, in sorted arc order (see
        ``build_net``).
    """
    if isinstance(shape, dict):
        shape = make_shape(shape)
    if not isinstance(shape, BaseShape):
        raise InvalidInputError("shape must be a mapping or BaseShape")
    eps = as_positive_float(epsilon, "epsilon")
    R = analytic_reach(shape)
    if eps >= 0.9 * R:
        raise InvalidInputError(f"epsilon={eps} too close to the reach {R}")

    delta = min(0.5 * eps, 0.45 * R)
    psi = rescale_plateau(make_reference_plateau(), delta, R)
    rho = 0.8 / (1.0 + psi.combined_lipschitz(R))
    sigma_max = smoothing_window_radius(delta, R) / 128.0  # sqrt(delta R)/256
    return _smooth_at(shape, build_net(shape), eps, R, delta, rho, psi,
                      sigma_max)


def _smooth_at(shape, arcs, eps, R, delta, rho, psi, sigma_max):
    """Patch ``shape`` at ``arcs`` in order, on a finished schedule, then
    measure the result and write its report."""
    curve = ClosedCurve(shape)
    records = []
    for arc in arcs:
        curve, _, rec = smooth_patch(
            curve, float(arc), delta=delta, R=R, rho=rho, psi=psi,
            sigma_max=sigma_max)
        records.append(rec)

    applied = [r for r in records if r.applied]
    c1 = 0.0
    for patch in curve.patches:
        ys = np.linspace(-patch.transition_radius, patch.transition_radius, 513)
        d, dd = patch.displacement.value_and_slope(ys)
        c1 = max(c1, float(np.abs(d).max()), float(np.abs(dd).max()))

    # final scan at spacing sqrt(delta R)/32
    w = smoothing_window_radius(delta, R)
    sample = sample_manifold(curve, math.ceil(curve.length / (w / 16.0)))
    est = _final_scan(curve, sample, R)

    report = SmoothingReport(
        shape=shape.describe(),
        R_input=R,
        epsilon=eps,
        delta=delta,
        rho=rho,
        sigma_max=sigma_max,
        sigma_per_patch=tuple(r.sigma for r in records),
        R_prime_predicted=predicted_reach_bound(R, delta, rho),
        R_hat_measured=est.value,
        c1_distance=c1,
        patches_applied=len(applied),
        patches_identity=len(records) - len(applied),
        net_size=len(records),
        shift_max=max((r.shift for r in records), default=0.0),
        scan_samples=sample.count,
        scan_min_sep=2.0 * sample.spacing,
        scan_pairs=est.pairs_scanned,
        psi_lip_value=psi.lip_value,
        psi_lip_derivative=psi.lip_derivative,
        reach_argmin=_reach_argmin(est, sample),
    )
    return SmoothingResult(curve=curve, report=report, records=tuple(records),
                           psi=psi, scan=est)


def _final_scan(curve, sample, R):
    """The pair scan of the final sample, read as the measured reach.

    Outside the patch windows the sample is the input curve bit for
    bit, and every pair of the input has a ratio of at least its reach
    ``R`` (Federer 1959, Thm 4.18).  So only the pairs with an end in a
    window are scanned, and the estimate is the least of their ratio
    and ``R``.  When ``R`` wins, or no sample is in a window and nothing
    is scanned, the estimate reads ``R`` at indices (-1, -1) with no
    argmin points.
    """
    min_sep = 2.0 * sample.spacing
    hot = curve.in_patch_windows(sample.params)
    pairs = 0
    if hot.any():
        est = estimate_reach_federer(sample.points, sample.tangents, min_sep,
                                     hot)
        if est.value < R:
            return est
        pairs = est.pairs_scanned
    return ReachEstimate(R, np.empty((0, 2)), np.empty((0, 2)), (-1, -1),
                         pairs, min_sep)


def _reach_argmin(est, sample):
    """Where the final scan found its minimum: the two sample indices
    (base point first), their base-curve parameters and the points;
    ``None`` when no scanned pair read below the input reach."""
    i, j = est.argmin_indices
    if i < 0:
        return None
    return {"indices": [i, j],
            "params": [float(sample.params[i]), float(sample.params[j])],
            "points": [est.argmin_base.tolist(), est.argmin_other.tolist()]}


def _number_or_array(a):
    """A 0-d result as a Python float, any other as the array."""
    return float(a) if a.ndim == 0 else a


def predicted_reach_bound(R, delta, rho):
    """Closed-form lower bound for the reach after a full run.

    Two mechanisms compete: inside a window the blended slope budget
    costs a factor 1/(1 - delta/R) plus the plateau-times-deviation
    curvature term; across windows the far-pair comparison costs the
    deviation relative to the transition scale.  The bound is the worse
    of the two.  With a zero deviation budget it reduces exactly to
    R (1 - delta/R): only the window geometry is paid for.

    The arguments broadcast; numbers give a float, arrays an array.
    """
    Rv = _as_real_array(R, "R", "positive")
    d = _as_real_array(delta, "delta", "positive")
    r = _as_real_array(rho, "rho", "nonnegative")
    if (d > 0.5 * Rv).any():
        raise InvalidInputError(f"delta={delta} exceeds half of R={R}")
    L0d = make_reference_plateau().lip_derivative
    omega_near = 192.0 * L0d * r / d + 1.0 / (1.0 - d / Rv)
    omega_far = 1.0 + 192.0 * (r / d) * (64.0 * L0d / d + Rv + 1.0)
    return _number_or_array(np.where(r == 0.0, Rv * (1.0 - d / Rv),
                                     Rv / np.maximum(omega_near, omega_far)))


def far_away_reach_bound(R, epsilon, beta, graph_lip):
    """Reach bound from the far-pair comparison alone.

    ``epsilon`` is the graph deviation, ``beta`` the pair-distance scale
    below which pairs are handled by the local argument instead, and
    ``graph_lip`` the combined plateau constant.  Exactly R when the
    deviation vanishes.  The arguments broadcast like
    ``predicted_reach_bound``'s.
    """
    Rv = _as_real_array(R, "R", "positive")
    e = _as_real_array(epsilon, "epsilon", "nonnegative")
    b = _as_real_array(beta, "beta", "positive")
    L = _as_real_array(graph_lip, "graph_lip", "nonnegative")
    xi = 6.0 * e * (Rv * L + Rv + 1.0) / (b * b)
    return _number_or_array(Rv / (1.0 + 2.0 * Rv * xi))


def effective_radius_drop(R, xi):
    """Rewrite a ratio penalty as a radius drop.

    Solves 1/(2R) + xi = 1/(2R - z) for z, so a penalty xi in the pair
    comparison is the same thing as losing z of radius (and z/2 of
    reach): z = 4 R^2 xi / (1 + 2 R xi).  The arguments broadcast like
    ``predicted_reach_bound``'s.
    """
    Rv = _as_real_array(R, "R", "positive")
    x = _as_real_array(xi, "xi", "nonnegative")
    return _number_or_array(4.0 * Rv * Rv * x / (1.0 + 2.0 * Rv * x))


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the dyadic fourth-difference smoothness probe."""

    passed: bool
    steps: tuple
    ratios: tuple
    limited_by_floor: bool


# smoothness probe: number of dyadic steps, pass threshold on the last
# ratio, evaluation noise behind the flat floor, off-center shift in steps
_PROBE_LEVELS = 4
_PROBE_RATIO_CAP = 2.8
_PROBE_NOISE = 1e-13
_PROBE_OFFSET = 1.0 / 3.0


def smooth_core_probe(evaluator, center, base_step):
    """Detect a surviving derivative kink around a point.

    Fourth differences are taken at steps 4b, 2b, b, b/2 (b =
    ``base_step``), each shifted off-center by a third of the step so a
    symmetric kink cannot cancel out.  For a smooth function the
    normalized differences settle to the fourth derivative, so the last
    dyadic ratio stays near 1 and passes at most ``_PROBE_RATIO_CAP``; a
    surviving curvature jump makes it approach 4.  Differences below the
    cancellation floor (roughly 1e-13 / step^4) count as flat.

    The step should not go below half the mollification radius being
    checked: beyond that the floor swallows every signal.
    """
    b = as_positive_float(base_step, "base_step")
    steps = tuple(b * 2.0 ** (2 - j) for j in range(_PROBE_LEVELS))
    stencil = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    diffs = []
    for h in steps:
        xs = center + h * (np.arange(-2.0, 3.0) + _PROBE_OFFSET)
        vals = np.asarray(evaluator(xs), dtype=float)
        diffs.append(float(abs(stencil @ vals)) / h ** 4)
    ratios = tuple(d2 / d1 if d1 > 0 else math.inf
                   for d1, d2 in zip(diffs, diffs[1:]))
    floor = 64.0 * _PROBE_NOISE / steps[-1] ** 4
    flat = max(diffs) <= floor
    passed = flat or (ratios[-1] <= _PROBE_RATIO_CAP)
    return ProbeResult(passed=passed, steps=steps, ratios=ratios,
                       limited_by_floor=flat)

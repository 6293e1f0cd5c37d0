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
measured value comes from the pair scan of the final curve.  Both appear
in the report; acceptance binds the measured number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from . import _accel
from ._util import as_positive_float
from .curves import (AppliedPatch, BaseShape, ClosedCurve, local_graph_at,
                     make_shape, sample_manifold)
from .errors import ConvergenceError, GeometryError, InvalidInputError
from .kernels import BumpKernel, _halving_search, convolve, convolve_grid
from .partition import (PlateauFunction, make_reference_plateau,
                        rescale_plateau, smoothing_window_radius)
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
    """The localized blend of a 1-D graph, evaluated by live quadrature.

    ``graph`` is what gets blended: any object with ``value(y)`` and
    ``value_and_slope(y)`` (a ``LocalGraph``, or a function and its
    slope wrapped to look like one).  Outside the plateau support the
    blend returns the original values exactly (the convolution is not
    even evaluated there); inside, value and slope come from fresh
    discrete-tap quadrature rather than any tabulation, which is what
    the lemma checkers and the smoothness probe need.  ``value`` reads
    the graph's values only; ``value_and_derivative`` reads value and
    slope together, with one graph evaluation at ``y`` and one on the
    tap grid.
    """

    def __init__(self, graph, psi, kernel, taps=64):
        self.graph = graph
        self.psi = psi
        self.kernel = kernel
        self.taps = taps

    def value(self, y):
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        base = np.asarray(self.graph.value(yv), dtype=float)
        out = base.copy()
        w = self.psi(yv)
        hot = w > 0.0
        if np.any(hot):
            conv = convolve(self.graph.value, self.kernel, yv[hot],
                            taps=self.taps)
            out[hot] = base[hot] + w[hot] * (conv - base[hot])
        return out if np.asarray(y).ndim else float(out[0])

    def derivative(self, y):
        return self.value_and_derivative(y)[1]

    def value_and_derivative(self, y):
        """Both fields in one pass; shares the quadrature between them."""
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        base, dbase = self.graph.value_and_slope(yv)
        base = np.asarray(base, dtype=float)
        dbase = np.asarray(dbase, dtype=float)
        val = base.copy()
        der = dbase.copy()
        w = self.psi(yv)
        dw = self.psi.derivative(yv)
        hot = (w > 0.0) | (dw != 0.0)
        if np.any(hot):
            conv, dconv = convolve(self.graph.value_and_slope, self.kernel,
                                   yv[hot], taps=self.taps)
            diff = conv - base[hot]
            val[hot] = base[hot] + w[hot] * diff
            der[hot] = dbase[hot] + dw[hot] * diff + w[hot] * (dconv - dbase[hot])
        if np.asarray(y).ndim:
            return val, der
        return float(val[0]), float(der[0])


@dataclass(frozen=True)
class PatchRecord:
    """Ledger row for one patch center visit."""

    index: int
    base_arc: float
    applied: bool
    sigma: float
    deviation: float
    shift: float
    halvings: int
    lip_graph: float
    lip_slope: float


def smooth_patch(curve, base_arc, *, delta, R, rho, psi, sigma_max,
                 max_halvings=14):
    """Apply one localized smoothing step at a patch center.

    The patch takes the next index of the curve's stack.  Returns
    ``(new_curve, patch_or_None, record)``.  The patch is None when the
    window is already flat to machine precision (straight stretches), in
    which case the curve is returned unchanged.

    Raises
    ------
    GeometryError
        If the window [-w, w], w = sqrt(delta R)/2, is not a graph (first
        seen where its slope is read at 257 points for ``lip_graph`` and
        ``lip_slope``) or the pushed-forward center drifted past the
        shift budget sqrt(delta R)/32.
    ConvergenceError
        If ``max_halvings`` halvings of the support radius cannot meet
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
    lip_slope = float(np.abs(np.diff(slopes) / np.diff(ys)).max())
    shift = float(np.linalg.norm(graph.center - curve.shape.point(np.array(base_arc))))
    if shift > budget:
        raise GeometryError(
            f"patch center drifted {shift:.3e}, over the budget {budget:.3e}")

    def measure(sigma):
        # tabulate the graph at sigma/16 and convolve values and slopes
        h = sigma / 16
        m_half = int(math.ceil((r2 + sigma) / h)) + 2
        xs = np.arange(-m_half, m_half + 1) * h
        fv, dfv = graph.value_and_slope(xs)
        kern = BumpKernel(sigma)
        conv0, m = convolve_grid(fv, kern, h)
        conv1, _ = convolve_grid(dfv, kern, h)
        mid = slice(m, xs.size - m)
        dev = max(float(np.abs(conv0 - fv[mid]).max()),
                  float(np.abs(conv1 - dfv[mid]).max()))
        return dev, (xs, fv, dfv, kern, conv0, conv1, mid)

    start = min(as_positive_float(sigma_max, "sigma_max"), (w - r2) * (1.0 - 1e-9))
    sigma, halvings, dev, (xs, fv, dfv, kern, conv0, conv1, mid) = _halving_search(
        measure, start, rho, start * 2.0 ** -max_halvings,
        f"patch at arc {base_arc:.6f}")

    xs_mid = xs[mid]
    if dev <= 1e-13 * max(1.0, w):
        record = PatchRecord(index=index, base_arc=float(base_arc), applied=False,
                             sigma=sigma, deviation=dev, shift=shift,
                             halvings=halvings, lip_graph=lip_graph,
                             lip_slope=lip_slope)
        return curve, None, record

    pv = psi(xs_mid)
    dpv = psi.derivative(xs_mid)
    delta_vals = pv * (conv0 - fv[mid])
    slope_vals = dpv * (conv0 - fv[mid]) + pv * (conv1 - dfv[mid])
    disp = CubicHermiteSpline(xs_mid, delta_vals, slope_vals)
    blend = BlendedMap(graph, psi, kern)
    patch = AppliedPatch(
        index=index, base_arc=float(base_arc), center=graph.center,
        tangent=graph.tangent, normal=graph.normal, inner_radius=r1,
        transition_radius=r2, window_radius=w, sigma=sigma, rho_target=rho,
        deviation=dev, lip_graph=lip_graph, lip_slope=lip_slope,
        displacement=disp, blend=blend)
    record = PatchRecord(index=index, base_arc=float(base_arc), applied=True,
                         sigma=sigma, deviation=dev, shift=shift,
                         halvings=halvings, lip_graph=lip_graph,
                         lip_slope=lip_slope)
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
    backend: str

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


def smooth_manifold(shape, epsilon, *, reach=None, delta=None, rho=None,
                    sigma_max=None):
    """Smooth a closed curve, certifying the reach loss stays under epsilon.

    Parameters
    ----------
    shape : dict or BaseShape
        Curve to smooth; dicts go through ``make_shape``.
    epsilon : float
        Reach-loss budget.  Also the scale the default window delta =
        epsilon/2 is derived from.
    reach : float, optional
        Reach lower bound of the input; defaults to the analytic value.
    delta, rho, sigma_max : float, optional
        Schedule overrides: window scale, deviation budget, support cap.
        The final verification scan samples at sqrt(delta R)/32.

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
    R = as_positive_float(reach, "reach") if reach is not None else analytic_reach(shape)
    if eps >= 0.9 * R:
        raise InvalidInputError(f"epsilon={eps} too close to the reach {R}")

    if delta is None:
        delta = min(0.5 * eps, 0.45 * R)
    delta = as_positive_float(delta, "delta")
    if delta > 0.5 * R:
        raise InvalidInputError(f"delta={delta} exceeds half the reach {R}")
    # halve until the slope-of-slope constant dominates, which the
    # combined-constant bookkeeping assumes; a no-op at practical sizes
    for _ in range(64):
        psi = rescale_plateau(make_reference_plateau(), delta, R)
        if psi.lip_derivative >= psi.lip_value:
            break
        delta *= 0.5
    else:
        raise ConvergenceError("window normalization did not settle")

    if rho is None:
        rho = 0.8 / (1.0 + psi.combined_lipschitz)
    rho = as_positive_float(rho, "rho")
    if rho >= 1.0 / (1.0 + psi.combined_lipschitz):
        raise InvalidInputError(
            f"rho={rho} violates rho < 1/(1 + combined plateau constant) "
            f"= {1.0 / (1.0 + psi.combined_lipschitz):.6g}")
    w = smoothing_window_radius(delta, R)
    if sigma_max is None:
        sigma_max = w / 128.0  # sqrt(delta R)/256
    sigma_max = as_positive_float(sigma_max, "sigma_max")

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
        c1 = max(c1,
                 float(np.abs(patch.displacement(ys)).max()),
                 float(np.abs(patch.displacement(ys, 1)).max()))

    # final scan at spacing sqrt(delta R)/32
    w = smoothing_window_radius(delta, R)
    sample = sample_manifold(curve, math.ceil(curve.length / (w / 16.0)))
    est = estimate_reach_federer(sample.points, sample.tangents,
                                 2.0 * sample.spacing)

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
        backend=_accel.IMPLEMENTATION,
    )
    return SmoothingResult(curve=curve, report=report, records=tuple(records),
                           psi=psi, scan=est)


def predicted_reach_bound(R, delta, rho):
    """Closed-form lower bound for the reach after a full run.

    Two mechanisms compete: inside a window the blended slope budget
    costs a factor 1/(1 - delta/R) plus the plateau-times-deviation
    curvature term; across windows the far-pair comparison costs the
    deviation relative to the transition scale.  The bound is the worse
    of the two.  With a zero deviation budget it reduces exactly to
    R (1 - delta/R): only the window geometry is paid for.
    """
    Rv = as_positive_float(R, "R")
    d = as_positive_float(delta, "delta")
    if d > 0.5 * Rv:
        raise InvalidInputError(f"delta={d} exceeds half of R={Rv}")
    r = float(rho)
    if r < 0 or not math.isfinite(r):
        raise InvalidInputError(f"rho must be finite and >= 0, got {rho}")
    if r == 0.0:
        return Rv * (1.0 - d / Rv)
    L0d = make_reference_plateau().lip_derivative
    omega_near = 192.0 * L0d * r / d + 1.0 / (1.0 - d / Rv)
    omega_far = 1.0 + 192.0 * (r / d) * (64.0 * L0d / d + Rv + 1.0)
    return Rv / max(omega_near, omega_far)


def far_away_reach_bound(R, epsilon, beta, graph_lip):
    """Reach bound from the far-pair comparison alone.

    ``epsilon`` is the graph deviation, ``beta`` the pair-distance scale
    below which pairs are handled by the local argument instead, and
    ``graph_lip`` the combined plateau constant.  Exactly R when the
    deviation vanishes.
    """
    Rv = as_positive_float(R, "R")
    e = float(epsilon)
    if e < 0 or not math.isfinite(e):
        raise InvalidInputError(f"epsilon must be finite and >= 0, got {epsilon}")
    b = as_positive_float(beta, "beta")
    L = float(graph_lip)
    if L < 0:
        raise InvalidInputError("graph_lip must be >= 0")
    xi = 6.0 * e * (Rv * L + Rv + 1.0) / (b * b)
    return Rv / (1.0 + 2.0 * Rv * xi)


def effective_radius_drop(R, xi):
    """Rewrite a ratio penalty as a radius drop.

    Solves 1/(2R) + xi = 1/(2R - z) for z, so a penalty xi in the pair
    comparison is the same thing as losing z of radius (and z/2 of
    reach): z = 4 R^2 xi / (1 + 2 R xi).
    """
    Rv = as_positive_float(R, "R")
    x = float(xi)
    if x < 0 or not math.isfinite(x):
        raise InvalidInputError(f"xi must be finite and >= 0, got {xi}")
    return 4.0 * Rv * Rv * x / (1.0 + 2.0 * Rv * x)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the dyadic fourth-difference smoothness probe."""

    passed: bool
    steps: tuple
    fourth_diffs: tuple
    ratios: tuple
    floor: float
    limited_by_floor: bool


# smoothness probe: number of dyadic steps, pass threshold on the last
# ratio, evaluation noise behind the flat floor, off-center shift in steps
_PROBE_LEVELS = 4
_PROBE_RATIO_CAP = 2.8
_PROBE_NOISE = 1e-13
_PROBE_OFFSET = 1.0 / 3.0


def _probe_stencils(center, base_step):
    """Steps of the smoothness probe, largest first, and the five points
    its evaluator is asked for at each; callers that evaluate the points
    ahead of the probe read them here."""
    b = as_positive_float(base_step, "base_step")
    steps = tuple(b * 2.0 ** (2 - j) for j in range(_PROBE_LEVELS))
    return steps, [center + h * (np.arange(-2.0, 3.0) + _PROBE_OFFSET) for h in steps]


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
    steps, points = _probe_stencils(center, base_step)
    stencil = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    diffs = []
    for h, xs in zip(steps, points):
        vals = np.asarray(evaluator(xs), dtype=float)
        diffs.append(float(abs(stencil @ vals)) / h ** 4)
    ratios = tuple(d2 / d1 if d1 > 0 else math.inf
                   for d1, d2 in zip(diffs, diffs[1:]))
    floor = 64.0 * _PROBE_NOISE / steps[-1] ** 4
    flat = max(diffs) <= floor
    passed = flat or (ratios[-1] <= _PROBE_RATIO_CAP)
    return ProbeResult(passed=passed, steps=steps, fourth_diffs=tuple(diffs),
                       ratios=ratios, floor=floor, limited_by_floor=flat)

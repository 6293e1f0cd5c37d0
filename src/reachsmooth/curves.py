"""Closed plane curves: catalog shapes, applied patches, graph windows.

A curve is an immutable pair (base shape, tuple of applied patches).  The
base shape is parametrized by arc length; a patch nudges nearby points
along a fixed normal direction by a tabulated displacement of their
tangent coordinate, and patches compose in application order.  Points
farther than the patch transition radius (in tangent coordinate) are
left bit-identical, which is what makes the surgery local in the exact,
testable sense.

Each layer has one evaluator: a chain segment and a base shape
implement only ``point_and_tangent`` and a curve only
``point_and_velocity``; ``point`` is the first half of either.
Evaluation reads the base shape once with ``point_and_tangent`` for the
whole batch, in its own order, and lets each patch nudge the rows inside
its window, picked by one mask over the batch.  A stack holds one patch
a junction, so a batch meets few of them.  Tangent coordinates are
per-row sums rather than matrix products, so a row's bytes do not
depend on its batch: an arc evaluated alone or among thousands gives
the same point and velocity.

The arc chain is the one layer whose cost depends on batch order: it
makes one segment call per run of one segment index.  A batch whose
arcs are not non-decreasing is sorted by segment once, so it takes one
run a segment; a sorted batch inside one period has one run a segment
and one that wraps the period one more, unsorted.  The bytes are the
same either way.  The ellipse inverts arc length from a
``ppoly.HermiteTable`` start and one Newton step.  A patch holds one
displacement table; the stack reads its value and slope from one cell
of its coefficients.

Local graph windows rewrite a stretch of curve as a 1-D graph over its
tangent line at a base arc; slopes come from the chain rule through the
patch stack, not finite differences.  Opening a window, by its
half-width, evaluates the curve at the base arc for the frame, and
callers measure what they need.  A read of a window is one Newton loop,
each step one curve evaluation of the read's points, in which each row
stops where it would stop alone and every frame product is a per-row
sum: a row's bytes do not depend on its batch either.  The window's
first sorted solve becomes a table that later solves start from, so a
read inside it usually takes one or two curve evaluations instead of
three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import as_float, as_positive_float, as_vector, require_fields
from .errors import GeometryError, InvalidInputError
from .kernels import Interval
from .ppoly import _GL4_W, _GL4_X, HermiteTable, integral_table

__all__ = [
    "BaseShape",
    "CircleShape",
    "EllipseShape",
    "ArcChainShape",
    "LineSegment",
    "ArcSegment",
    "make_shape",
    "rounded_rectangle_segments",
    "stadium_segments",
    "AppliedPatch",
    "ClosedCurve",
    "CurveSample",
    "sample_manifold",
    "LocalGraph",
    "local_graph_at",
]

class BaseShape:
    """Arc-length parametrized closed plane curve."""

    length: float

    def point_and_tangent(self, s):
        """Points and unit tangents at arc parameters ``s``."""
        raise NotImplementedError

    def point(self, s):
        return self.point_and_tangent(s)[0]

    def junction_arcs(self):
        """Arc parameters where the curvature jumps (empty when C^2)."""
        return ()

    def describe(self):
        raise NotImplementedError


class CircleShape(BaseShape):
    """Origin-centered circle of radius r, counterclockwise."""

    def __init__(self, r):
        self.r = as_positive_float(r, "r")
        self.length = 2.0 * math.pi * self.r

    def point_and_tangent(self, s):
        a = np.asarray(s, dtype=float) / self.r
        c, sn = np.cos(a), np.sin(a)
        return (np.stack([self.r * c, self.r * sn], axis=-1),
                np.stack([-sn, c], axis=-1))

    def describe(self):
        return {"kind": "circle", "r": self.r}


class EllipseShape(BaseShape):
    """Origin-centered axis-aligned ellipse, semi-axes a >= b.

    Arc length is inverted through a table of the cumulative length
    ``_cum`` at 16385 uniform nodes of the angle theta, built once by
    ``ppoly.integral_table`` from the speed.  An arc ``s`` starts from
    ``_inverse``, the ``ppoly.HermiteTable`` of theta over ``_cum`` with
    slopes d theta / ds = 1/speed; one Newton step on the 4-point
    Gauss-Legendre length of the remainder past the node below, the left
    knot of the cell that read found, polishes it to rounding level.
    """

    _GRID = 16384

    def __init__(self, a, b):
        self.a = as_positive_float(a, "a")
        self.b = as_positive_float(b, "b")
        if self.b > self.a:
            raise InvalidInputError(f"semi-axes must satisfy a >= b, got a={a}, b={b}")
        th, self._cum, speed = integral_table(self._speed, 0.0, 2.0 * math.pi,
                                              self._GRID)
        self._th = th
        self._inverse = HermiteTable(self._cum, th, 1.0 / speed)
        self.length = float(self._cum[-1])

    def _speed(self, theta):
        return np.sqrt((self.a * np.sin(theta)) ** 2 + (self.b * np.cos(theta)) ** 2)

    def _theta_of(self, s):
        sv = np.mod(np.asarray(s, dtype=float), self.length)
        th, i = self._inverse.value_and_cell(sv)
        # the table is exact at nodes; 4-point Gauss on [t0, th] gives
        # the remainder, and the Hermite start is close enough that one
        # Newton step lands at rounding level
        t0 = self._th[i]
        mid = 0.5 * (t0 + th)
        half = 0.5 * (th - t0)
        seg = (half[..., None] * _GL4_W
               * self._speed(mid[..., None] + half[..., None] * _GL4_X)).sum(axis=-1)
        return th - (self._cum[i] + seg - sv) / self._speed(th)

    def point_and_tangent(self, s):
        th = self._theta_of(s)
        c, sn = np.cos(th), np.sin(th)
        sp = np.sqrt((self.a * sn) ** 2 + (self.b * c) ** 2)
        return (np.stack([self.a * c, self.b * sn], axis=-1),
                np.stack([-self.a * sn / sp, self.b * c / sp], axis=-1))

    def describe(self):
        return {"kind": "ellipse", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class LineSegment:
    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", as_vector(self.start, "start"))
        object.__setattr__(self, "end", as_vector(self.end, "end"))
        if self.length <= 0:
            raise InvalidInputError("zero-length line segment")

    @property
    def length(self):
        return float(np.linalg.norm(self.end - self.start))

    def point_and_tangent(self, t):
        t = np.asarray(t, dtype=float)
        d = (self.end - self.start) / self.length
        return self.start + t[..., None] * d, np.broadcast_to(d, t.shape + (2,)).copy()

    def curvature_value(self):
        return 0.0


@dataclass(frozen=True)
class ArcSegment:
    center: np.ndarray
    radius: float
    start_angle: float
    sweep: float  # signed; positive = counterclockwise

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, "center"))
        object.__setattr__(self, "radius", as_positive_float(self.radius, "radius"))
        object.__setattr__(self, "start_angle", as_float(self.start_angle, "start_angle"))
        sw = as_float(self.sweep, "sweep")
        if sw == 0 or abs(sw) > 2.0 * math.pi + 1e-12:
            raise InvalidInputError(f"arc sweep must be nonzero and at most a full turn, got {sw}")
        object.__setattr__(self, "sweep", sw)

    @property
    def length(self):
        return self.radius * abs(self.sweep)

    def point_and_tangent(self, t):
        sgn = np.sign(self.sweep)
        a = self.start_angle + sgn * np.asarray(t, dtype=float) / self.radius
        c, sn = np.cos(a), np.sin(a)
        return (self.center + self.radius * np.stack([c, sn], axis=-1),
                np.stack([-sgn * sn, sgn * c], axis=-1))

    def curvature_value(self):
        return float(np.sign(self.sweep) / self.radius)


class ArcChainShape(BaseShape):
    """Closed chain of lines and circular arcs, validated C^1.

    Consecutive segments must meet with matching positions and matching
    unit tangents (within 1e-9 of the profile scale); the chain must
    close.  Curvature is piecewise constant, so the junction list is just
    the boundaries where it changes.
    """

    def __init__(self, segments, label=None):
        if len(segments) < 2:
            raise InvalidInputError("an arc chain needs at least two segments")
        self.label = dict(label) if label else None
        self.segments = tuple(segments)
        lengths = np.array([seg.length for seg in self.segments])
        self._bounds = np.concatenate([[0.0], np.cumsum(lengths)])
        self.length = float(self._bounds[-1])
        # (points, tangents) of each segment at its start and its end
        ends = [seg.point_and_tangent(np.array([0.0, seg.length]))
                for seg in self.segments]
        scale = max(1.0, max(float(np.abs(pts[0]).max()) for pts, _ in ends))
        # positions closer than this count as one point of the chain
        self.gap_tol = 1e-9 * scale
        for i, (pts, tans) in enumerate(ends):
            nxt_pts, nxt_tans = ends[(i + 1) % len(ends)]
            gap = np.linalg.norm(pts[1] - nxt_pts[0])
            if gap > self.gap_tol:
                raise InvalidInputError(
                    f"chain breaks between segment {i} and {i + 1}: gap {gap:.3e}")
            tdiff = np.linalg.norm(tans[1] - nxt_tans[0])
            if tdiff > 1e-9:
                raise InvalidInputError(
                    f"tangent jump of {tdiff:.3e} between segment {i} and {i + 1}; "
                    "the profile is not C^1")

    def _locate(self, s):
        sv = np.mod(np.asarray(s, dtype=float), self.length)
        idx = np.clip(np.searchsorted(self._bounds, sv, side="right") - 1,
                      0, len(self.segments) - 1)
        return sv, idx

    def point_and_tangent(self, s):
        raw = np.asarray(s, dtype=float)
        sv, idx = self._locate(raw)
        shape = sv.shape + (2,)
        sv, idx, raw = sv.ravel(), idx.ravel(), raw.ravel()
        # each run of one segment index is one segment call; a batch whose
        # arcs are not non-decreasing is put in segment order once, so it
        # takes one run a segment, and its rows are written back in place
        order = None
        if not np.all(raw[1:] >= raw[:-1]):
            order = np.argsort(idx, kind="stable")
            sv, idx = sv[order], idx[order]
        pts = np.empty((sv.size, 2))
        tans = np.empty((sv.size, 2))
        starts = np.flatnonzero(np.diff(idx, prepend=-1)).tolist()
        for a, b in zip(starts, starts[1:] + [sv.size]):
            i = idx[a]
            rows = slice(a, b) if order is None else order[a:b]
            pts[rows], tans[rows] = self.segments[i].point_and_tangent(
                sv[a:b] - self._bounds[i])
        return pts.reshape(shape), tans.reshape(shape)

    def junction_arcs(self):
        out = []
        for i, seg in enumerate(self.segments):
            nxt = self.segments[(i + 1) % len(self.segments)]
            if seg.curvature_value() != nxt.curvature_value():
                out.append(float(self._bounds[i + 1] % self.length))
        return tuple(sorted(out))

    def min_arc_radius(self):
        radii = [seg.radius for seg in self.segments if isinstance(seg, ArcSegment)]
        return min(radii) if radii else math.inf

    def describe(self):
        if self.label is not None:
            return dict(self.label)
        return {"kind": "cad_profile", "segments": len(self.segments)}


def stadium_segments(r, l):
    """Counterclockwise stadium: straights of length l, caps of radius r."""
    r = as_positive_float(r, "r")
    l = as_positive_float(l, "l")
    hl = 0.5 * l
    return [
        LineSegment(np.array([-hl, -r]), np.array([hl, -r])),
        ArcSegment(np.array([hl, 0.0]), r, -0.5 * math.pi, math.pi),
        LineSegment(np.array([hl, r]), np.array([-hl, r])),
        ArcSegment(np.array([-hl, 0.0]), r, 0.5 * math.pi, math.pi),
    ]


def rounded_rectangle_segments(width, height, corner_radius):
    """Counterclockwise rounded rectangle centered at the origin."""
    w = as_positive_float(width, "width")
    h = as_positive_float(height, "height")
    rc = as_positive_float(corner_radius, "corner_radius")
    if rc >= 0.5 * min(w, h):
        raise InvalidInputError(
            f"corner radius {rc} must be below half the smaller side {0.5 * min(w, h)}")
    hw, hh = 0.5 * w, 0.5 * h
    return [
        LineSegment(np.array([-hw + rc, -hh]), np.array([hw - rc, -hh])),
        ArcSegment(np.array([hw - rc, -hh + rc]), rc, -0.5 * math.pi, 0.5 * math.pi),
        LineSegment(np.array([hw, -hh + rc]), np.array([hw, hh - rc])),
        ArcSegment(np.array([hw - rc, hh - rc]), rc, 0.0, 0.5 * math.pi),
        LineSegment(np.array([hw - rc, hh]), np.array([-hw + rc, hh])),
        ArcSegment(np.array([-hw + rc, hh - rc]), rc, 0.5 * math.pi, 0.5 * math.pi),
        LineSegment(np.array([-hw, hh - rc]), np.array([-hw, -hh + rc])),
        ArcSegment(np.array([-hw + rc, -hh + rc]), rc, math.pi, 0.5 * math.pi),
    ]


def _parse_segment(spec, index):
    what = f"segment {index}"
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind not in ("line", "arc"):
        raise InvalidInputError(
            f"{what} must be an object whose 'type' is 'line' or 'arc', got {spec!r}")
    if kind == "line":
        require_fields(spec, what, ("type", "start", "end"), ())
        return LineSegment(as_vector(spec["start"], f"{what}: start"),
                           as_vector(spec["end"], f"{what}: end"))
    require_fields(spec, what, ("type", "center", "radius", "start_angle",
                                "end_angle"), ("orientation",))
    start_angle = as_float(spec["start_angle"], f"{what}: start_angle")
    sweep = as_float(spec["end_angle"], f"{what}: end_angle") - start_angle
    orientation = spec.get("orientation", "ccw")
    if orientation not in ("ccw", "cw"):
        raise InvalidInputError(f"{what}: orientation must be 'ccw' or 'cw'")
    if orientation == "ccw" and sweep <= 0:
        sweep += 2.0 * math.pi
    if orientation == "cw" and sweep >= 0:
        sweep -= 2.0 * math.pi
    return ArcSegment(as_vector(spec["center"], f"{what}: center"),
                      as_float(spec["radius"], f"{what}: radius"),
                      start_angle, sweep)


def make_shape(spec):
    """Build a catalog shape from a JSON-style description.

    Supported kinds::

        {"kind": "circle",  "r": 1.0}
        {"kind": "ellipse", "a": 2.0, "b": 1.0}
        {"kind": "stadium", "r": 1.0, "l": 2.0}
        {"kind": "cad_profile", "segments": [...]}
        {"kind": "cad_profile", "preset": "rounded_rect",
         "width": 2.0, "height": 1.0, "corner_radius": 0.2}

    Each form and each segment takes exactly its own fields, an arc's
    ``orientation`` the one optional one.  Raises InvalidInputError for
    anything malformed, including chains that fail closure or
    tangent-continuity validation.
    """
    if not isinstance(spec, dict):
        raise InvalidInputError(f"shape must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "circle":
        return CircleShape(require_fields(spec, "circle", ("kind", "r"), ())["r"])
    if kind == "ellipse":
        require_fields(spec, "ellipse", ("kind", "a", "b"), ())
        return EllipseShape(spec["a"], spec["b"])
    if kind == "stadium":
        require_fields(spec, "stadium", ("kind", "r", "l"), ())
        return ArcChainShape(stadium_segments(spec["r"], spec["l"]),
                             label={"kind": "stadium",
                                    "r": float(spec["r"]),
                                    "l": float(spec["l"])})
    if kind == "cad_profile" and "preset" in spec:
        if spec["preset"] != "rounded_rect":
            raise InvalidInputError(f"unknown preset {spec['preset']!r}")
        require_fields(spec, "rounded_rect preset", (
            "kind", "preset", "width", "height", "corner_radius"), ())
        return ArcChainShape(
            rounded_rectangle_segments(
                spec["width"], spec["height"], spec["corner_radius"]),
            label={"kind": "cad_profile", "preset": "rounded_rect",
                   "width": float(spec["width"]),
                   "height": float(spec["height"]),
                   "corner_radius": float(spec["corner_radius"])})
    if kind == "cad_profile":
        segs = require_fields(spec, "cad_profile", ("kind", "segments"), ())["segments"]
        if not isinstance(segs, list) or not segs:
            raise InvalidInputError("cad_profile needs a nonempty 'segments' list")
        return ArcChainShape([_parse_segment(s, i) for i, s in enumerate(segs)])
    raise InvalidInputError(f"unknown shape kind {kind!r}")


@dataclass(frozen=True)
class AppliedPatch:
    """One surgery step: a normal-direction displacement of a window.

    ``displacement`` maps the tangent coordinate y (relative to the
    frozen frame center/tangent) to the normal nudge; it vanishes
    identically for |y| >= transition_radius.  It is a cubic Hermite
    table (``ppoly.HermiteTable``) whose knots span more than the
    transition radius; the patch stack reads its value and slope from
    one cell of its coefficients, so a patch holds one table.
    ``rho_target`` is the dimensionless deviation budget, value
    deviations in units of the run's reach bound ``reach``.  ``blend`` is
    the live ``smoothing.BlendedMap`` the table was taken from, which
    every patch checker re-evaluates.
    """

    index: int
    base_arc: float
    center: np.ndarray = field(repr=False)
    tangent: np.ndarray = field(repr=False)
    normal: np.ndarray = field(repr=False)
    inner_radius: float
    transition_radius: float
    sigma: float
    rho_target: float
    lip_graph: float
    lip_slope: float
    reach: float
    displacement: object = field(repr=False)
    blend: object = field(repr=False)

    @property
    def arc_window(self):
        # conservative base-arc prefilter radius for candidate points
        return 2.0 * self.transition_radius


def _circular_gap(d, L):
    """|d| measured around a circle of length L."""
    return np.abs(np.mod(d + 0.5 * L, L) - 0.5 * L)


def _in_arc_window(s, patch, L):
    """Whether base arcs ``s`` lie within ``patch.arc_window`` of its
    base arc, around a curve of length ``L``: the rows the patch may
    nudge."""
    return _circular_gap(s - patch.base_arc, L) <= patch.arc_window


def _nudge_constants(patch):
    """What nudging reads of a patch, read once when the patch joins a
    stack: its center and tangent as floats, then its displacement."""
    return (*patch.center.tolist(), *patch.tangent.tolist(), patch.displacement)


class ClosedCurve:
    """Base shape plus an ordered stack of applied patches."""

    def __init__(self, shape, patches=()):
        if not isinstance(shape, BaseShape):
            raise InvalidInputError("shape must be a BaseShape")
        self.shape = shape
        self.patches = tuple(patches)
        self.length = shape.length
        self._patch_arcs = np.array([p.base_arc for p in self.patches])
        self._patch_spans = np.array([p.arc_window for p in self.patches])
        self._patch_constants = tuple(_nudge_constants(p) for p in self.patches)

    def with_patch(self, patch):
        if patch.index != len(self.patches):
            raise InvalidInputError(
                f"patch index {patch.index} does not extend stack of "
                f"{len(self.patches)}")
        return ClosedCurve(self.shape, self.patches + (patch,))

    def _nudge(self, sv, pts, vel, k):
        """Apply patch ``k`` to the rows of the batch inside its window.

        One mask over the batch takes the rows whose base arc is within
        ``arc_window`` of the patch's around the period; of those, the
        rows whose tangent coordinate is within the transition radius are
        nudged.  Value and slope of the displacement come from one cell
        lookup of its table (``HermiteTable.value_and_slope``).  The knots
        span more than the transition radius, so every nudged row reads a
        cell of its own.
        """
        patch = self.patches[k]
        c0, c1, t0, t1, disp = self._patch_constants[k]
        rows = _in_arc_window(sv, patch, self.length).nonzero()[0]
        q = pts[rows]
        y = (q[:, 0] - c0) * t0 + (q[:, 1] - c1) * t1
        near = np.abs(y) < patch.transition_radius
        rows, y = rows[near], y[near]
        d, dd = disp.value_and_slope(y)
        pts[rows] += d[:, None] * patch.normal
        v = vel[rows]
        dd *= v[:, 0] * t0 + v[:, 1] * t1
        vel[rows] += dd[:, None] * patch.normal

    def point_and_velocity(self, s):
        """Position and (unnormalized) parameter velocity at base arcs.

        The batch is flattened and the base shape evaluated once for all
        of it; then every patch near it, in stack order, nudges the rows
        inside its window.  Tangent coordinates are per-row sums, not
        matrix products, so a row's bytes do not depend on its batch or
        its order.
        """
        s = np.asarray(s, dtype=float)
        sv = s.ravel()
        pts, vel = self.shape.point_and_tangent(sv)
        if self.patches and sv.size:
            L = self.length
            lo, hi = float(sv.min()), float(sv.max())
            # narrow batches touch few patches; the circular triangle
            # inequality makes the skip exact, so results match a full loop
            half = 0.5 * (hi - lo)
            if half < 0.25 * L:
                gap = _circular_gap(self._patch_arcs - 0.5 * (lo + hi), L)
                chosen = np.nonzero(gap <= half + self._patch_spans)[0]
            else:
                chosen = range(len(self.patches))
            for k in chosen:
                self._nudge(sv, pts, vel, k)
        return pts.reshape(s.shape + (2,)), vel.reshape(s.shape + (2,))

    def point(self, s):
        return self.point_and_velocity(s)[0]

    def in_patch_windows(self, s):
        """Whether each base arc of ``s`` lies in the arc window of some
        patch.  No patch nudges any other arc, so there the curve is
        its base shape bit for bit."""
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape, dtype=bool)
        for patch in self.patches:
            out |= _in_arc_window(s, patch, self.length)
        return out


@dataclass(frozen=True)
class CurveSample:
    """Uniform-parameter sample of a curve with unit tangents."""

    points: np.ndarray = field(repr=False)
    tangents: np.ndarray = field(repr=False)
    params: np.ndarray = field(repr=False)
    spacing: float
    max_gap: float

    @property
    def count(self):
        return self.points.shape[0]


MIN_SAMPLES = 8


def sample_manifold(curve, n):
    """Sample a closed curve at ``n`` uniform steps of its base parameter.

    ``max_gap`` is the measured largest chord between neighbors (wrap
    included), which bounds the true sample density on the curve.  ``n``
    is a whole number: strings, booleans and floats with a fractional
    part are refused, as ``as_float`` refuses strings and booleans.
    """
    v = as_float(n, "sample count")
    if not v.is_integer():
        raise InvalidInputError(f"sample count must be an integer, got {n!r}")
    n = int(v)
    if n < MIN_SAMPLES:
        raise InvalidInputError(f"need at least {MIN_SAMPLES} samples, got {n}")
    params = np.arange(n) * (curve.length / n)
    pts, vel = curve.point_and_velocity(params)
    tans = vel / np.linalg.norm(vel, axis=-1, keepdims=True)
    gaps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    return CurveSample(points=pts, tangents=tans, params=params,
                       spacing=curve.length / n, max_gap=float(gaps.max()))


class LocalGraph:
    """A stretch of curve written as a graph over its tangent line.

    value/slope are vectorized in the tangent coordinate y; the graph
    value f satisfies f(0) = 0 and slope(0) = 0 by construction of the
    frame.  Slopes are exact chain-rule quantities of the underlying
    patched curve, not difference quotients.  The frame (center,
    tangent, normal) is read from one curve evaluation at the base arc
    when the window opens.

    Every read solves y(theta) = y for the base arc theta by Newton's
    method.  The first solve of a strictly increasing batch of at least
    two points (in ``smooth_patch``, the 257-point slope grid over the
    whole window) becomes the window's warm-start table ``_table``, the
    ``ppoly.HermiteTable`` of theta over y with slopes
    d theta / dy = 1 / (velocity . tangent), which the last Newton pass
    already computed.  Later solves start points inside the table's span
    from ``_table(y)``, and the rest from ``base_arc + y``.  The table
    is set once and never replaced, so a repeated read returns the same
    bytes; the stopping test and the fold checks do not depend on the
    start.  ``value``, ``slope`` and
    ``value_and_slope`` are parts of one read, ``_read``.

    A read is pointwise.  A row whose residual is within tolerance steps
    by zero and the loop ends when no row steps, so each row stops where
    it would stop alone, and the residual, its slope and f, f' are
    per-row sums, as the nudge's tangent coordinates are, not matrix
    products: a point read alone or in any batch gives the same bytes.
    """

    def __init__(self, curve, base_arc, window):
        self.curve = curve
        self.base_arc = float(base_arc)
        self.window = window
        center, vel = curve.point_and_velocity(self.base_arc)
        t = vel / np.linalg.norm(vel)
        self.center = center
        self.tangent = t
        self.normal = np.array([-t[1], t[0]])
        self._table = None

    def _start(self, yv):
        """Newton start for the base arcs above ``yv``."""
        theta = self.base_arc + yv
        if self._table is None:
            return theta
        ty = self._table.x
        return np.where((yv >= ty[0]) & (yv <= ty[-1]), self._table(yv), theta)

    def _along(self, pts, vel, u):
        """Per row: the offset of ``pts`` from the center, and ``vel``,
        dotted with the unit vector ``u``, as sums rather than products."""
        (c0, c1), (u0, u1) = self.center, u
        return ((pts[:, 0] - c0) * u0 + (pts[:, 1] - c1) * u1,
                vel[:, 0] * u0 + vel[:, 1] * u1)

    def _solve(self, y):
        """``(points, velocities, velocities . tangent, shape)`` of the
        reads at ``y``.  A row whose residual is within 1e-14 of the
        window's scale steps by zero, and the loop ends when no row
        steps, so each row stops where it would stop alone."""
        yv = np.asarray(y, dtype=float)
        shape = yv.shape
        yv = np.atleast_1d(yv).ravel()
        if not self.window.contains(yv, margin=1e-9 * max(1.0, self.window.length)):
            raise InvalidInputError("tangent coordinate outside the graph window")
        theta = self._start(yv)
        scale = max(1.0, float(np.linalg.norm(self.center)) + self.window.length)
        for _ in range(40):
            pts, vel = self.curve.point_and_velocity(theta)
            g, dg = self._along(pts, vel, self.tangent)
            g -= yv
            if np.any(dg < 0.05):
                raise GeometryError(
                    "curve folds against the tangent frame inside the window; "
                    "the stretch is not a graph")
            step = g / dg
            step[np.abs(g) <= 1e-14 * scale] = 0.0
            if not step.any():
                break
            theta = theta - step
        else:
            raise GeometryError("graph parameter solve did not converge")
        if self._table is None and yv.size >= 2 and np.all(yv[1:] > yv[:-1]):
            self._table = HermiteTable(yv.copy(), theta, 1.0 / dg)
        return pts, vel, dg, shape

    def _read(self, y):
        """``(f, f')`` at ``y``: floats for a scalar, else shaped like ``y``."""
        pts, vel, dg, shape = self._solve(y)
        f, dn = self._along(pts, vel, self.normal)
        df = dn / dg
        if shape == ():
            return float(f[0]), float(df[0])
        return f.reshape(shape), df.reshape(shape)

    def value(self, y):
        return self._read(y)[0]

    def slope(self, y):
        return self._read(y)[1]

    def value_and_slope(self, y):
        return self._read(y)


def local_graph_at(curve, arc, window_radius):
    """Graph window [-window_radius, window_radius] of a curve around the
    point at base parameter ``arc``.

    Opening a window evaluates the curve at ``arc`` only.  A fold
    against the tangent frame raises ``GeometryError`` from the first
    evaluation that reaches it; a radius that is not a positive finite
    number raises ``InvalidInputError``.
    """
    w = as_positive_float(window_radius, "window_radius")
    return LocalGraph(curve, float(arc), Interval(-w, w))

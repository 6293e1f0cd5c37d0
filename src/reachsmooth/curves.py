"""Closed plane curves: catalog shapes, applied patches, graph windows.

A curve is an immutable pair (base shape, tuple of applied patches).  The
base shape is parametrized by arc length; a patch nudges nearby points
along a fixed normal direction by a tabulated displacement of their
tangent coordinate, and patches compose in application order.  Points
farther than the patch transition radius (in tangent coordinate) are
left bit-identical, which is what makes the surgery local in the exact,
testable sense.

Local graph windows rewrite a stretch of curve as a 1-D graph over its
tangent line at a base arc; slopes come from the chain rule through the
patch stack, not finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import as_float, as_positive_float, as_vector
from .errors import GeometryError, InvalidInputError
from .kernels import _GL_W, _GL_X, Interval

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

    def point(self, s):
        raise NotImplementedError

    def tangent(self, s):
        raise NotImplementedError

    def curvature(self, s):
        raise NotImplementedError

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

    def point(self, s):
        a = np.asarray(s, dtype=float) / self.r
        return np.stack([self.r * np.cos(a), self.r * np.sin(a)], axis=-1)

    def tangent(self, s):
        a = np.asarray(s, dtype=float) / self.r
        return np.stack([-np.sin(a), np.cos(a)], axis=-1)

    def curvature(self, s):
        return np.full(np.asarray(s, dtype=float).shape, 1.0 / self.r)

    def describe(self):
        return {"kind": "circle", "r": self.r}


class EllipseShape(BaseShape):
    """Origin-centered axis-aligned ellipse, semi-axes a >= b."""

    _GRID = 16384

    def __init__(self, a, b):
        self.a = as_positive_float(a, "a")
        self.b = as_positive_float(b, "b")
        if self.b > self.a:
            raise InvalidInputError(f"semi-axes must satisfy a >= b, got a={a}, b={b}")
        th = np.linspace(0.0, 2.0 * math.pi, self._GRID + 1)
        h = 2.0 * math.pi / self._GRID
        nodes = th[:-1, None] + h * _GL_X[None, :]
        cell = (h * _GL_W[None, :] * self._speed(nodes)).sum(axis=1)
        self._cum = np.concatenate([[0.0], np.cumsum(cell)])
        self._th = th
        self.length = float(self._cum[-1])

    def _speed(self, theta):
        return np.sqrt((self.a * np.sin(theta)) ** 2 + (self.b * np.cos(theta)) ** 2)

    def _theta_of(self, s):
        sv = np.mod(np.asarray(s, dtype=float), self.length)
        th = np.interp(sv, self._cum, self._th)
        # cumulative length along the table is exact at nodes; three
        # Newton steps on the local Gauss-Legendre remainder polish to ulp
        for _ in range(3):
            idx = np.clip(np.searchsorted(self._th, th, side="right") - 1, 0, self._GRID - 1)
            t0 = self._th[idx]
            mid = 0.5 * (t0 + th)
            half = 0.5 * (th - t0)
            # 4-point Gauss on [t0, th] for the residual arc
            g4x = np.array([-0.8611363115940526, -0.3399810435848563,
                            0.3399810435848563, 0.8611363115940526])
            g4w = np.array([0.3478548451374538, 0.6521451548625461,
                            0.6521451548625461, 0.3478548451374538])
            seg = (half[..., None] * g4w * self._speed(mid[..., None] + half[..., None] * g4x)).sum(axis=-1)
            resid = self._cum[idx] + seg - sv
            th = th - resid / self._speed(th)
        return th

    def point(self, s):
        th = self._theta_of(s)
        return np.stack([self.a * np.cos(th), self.b * np.sin(th)], axis=-1)

    def tangent(self, s):
        th = self._theta_of(s)
        sp = self._speed(th)
        return np.stack([-self.a * np.sin(th) / sp, self.b * np.cos(th) / sp], axis=-1)

    def curvature(self, s):
        th = self._theta_of(s)
        return self.a * self.b / self._speed(th) ** 3

    def describe(self):
        return {"kind": "ellipse", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class LineSegment:
    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", as_vector(self.start, "start", dim=2))
        object.__setattr__(self, "end", as_vector(self.end, "end", dim=2))
        if self.length <= 0:
            raise InvalidInputError("zero-length line segment")

    @property
    def length(self):
        return float(np.linalg.norm(self.end - self.start))

    @property
    def direction(self):
        return (self.end - self.start) / self.length

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self.start + t[..., None] * self.direction

    def tangent(self, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(self.direction, t.shape + (2,)).copy()

    def curvature_value(self):
        return 0.0

    def start_tangent(self):
        return self.direction

    def end_tangent(self):
        return self.direction

    def end_point(self):
        return self.end


@dataclass(frozen=True)
class ArcSegment:
    center: np.ndarray
    radius: float
    start_angle: float
    sweep: float  # signed; positive = counterclockwise

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, "center", dim=2))
        object.__setattr__(self, "radius", as_positive_float(self.radius, "radius"))
        object.__setattr__(self, "start_angle", as_float(self.start_angle, "start_angle"))
        sw = as_float(self.sweep, "sweep")
        if sw == 0 or abs(sw) > 2.0 * math.pi + 1e-12:
            raise InvalidInputError(f"arc sweep must be nonzero and at most a full turn, got {sw}")
        object.__setattr__(self, "sweep", sw)

    @property
    def length(self):
        return self.radius * abs(self.sweep)

    def _angle(self, t):
        return self.start_angle + np.sign(self.sweep) * np.asarray(t, dtype=float) / self.radius

    def point(self, t):
        a = self._angle(t)
        return self.center + self.radius * np.stack([np.cos(a), np.sin(a)], axis=-1)

    def tangent(self, t):
        a = self._angle(t)
        sgn = np.sign(self.sweep)
        return np.stack([-sgn * np.sin(a), sgn * np.cos(a)], axis=-1)

    def curvature_value(self):
        return float(np.sign(self.sweep) / self.radius)

    def start_tangent(self):
        return self.tangent(np.array(0.0))

    def end_tangent(self):
        return self.tangent(np.array(self.length))

    def end_point(self):
        return self.point(np.array(self.length))


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
        scale = max(1.0, max(float(np.abs(seg.point(np.array(0.0))).max())
                             for seg in self.segments))
        for i, seg in enumerate(self.segments):
            nxt = self.segments[(i + 1) % len(self.segments)]
            gap = np.linalg.norm(seg.end_point() - nxt.point(np.array(0.0)))
            if gap > 1e-9 * scale:
                raise InvalidInputError(
                    f"chain breaks between segment {i} and {i + 1}: gap {gap:.3e}")
            tdiff = np.linalg.norm(seg.end_tangent() - nxt.start_tangent())
            if tdiff > 1e-9:
                raise InvalidInputError(
                    f"tangent jump of {tdiff:.3e} between segment {i} and {i + 1}; "
                    "the profile is not C^1")

    def _locate(self, s):
        sv = np.mod(np.asarray(s, dtype=float), self.length)
        idx = np.clip(np.searchsorted(self._bounds, sv, side="right") - 1,
                      0, len(self.segments) - 1)
        return sv, idx

    def point(self, s):
        sv, idx = self._locate(s)
        out = np.empty(sv.shape + (2,))
        for i, seg in enumerate(self.segments):
            m = idx == i
            if np.any(m):
                out[m] = seg.point(sv[m] - self._bounds[i])
        return out

    def tangent(self, s):
        sv, idx = self._locate(s)
        out = np.empty(sv.shape + (2,))
        for i, seg in enumerate(self.segments):
            m = idx == i
            if np.any(m):
                out[m] = seg.tangent(sv[m] - self._bounds[i])
        return out

    def curvature(self, s):
        sv, idx = self._locate(s)
        vals = np.array([seg.curvature_value() for seg in self.segments])
        return vals[idx]

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
    if not isinstance(spec, dict) or "type" not in spec:
        raise InvalidInputError(f"segment {index}: expected an object with a 'type' field")
    kind = spec["type"]
    if kind == "line":
        try:
            return LineSegment(np.asarray(spec["start"], dtype=float),
                               np.asarray(spec["end"], dtype=float))
        except KeyError as exc:
            raise InvalidInputError(f"segment {index}: missing field {exc}")
    if kind == "arc":
        try:
            start_angle = float(spec["start_angle"])
            end_angle = float(spec["end_angle"])
            orientation = spec.get("orientation", "ccw")
        except KeyError as exc:
            raise InvalidInputError(f"segment {index}: missing field {exc}")
        if orientation not in ("ccw", "cw"):
            raise InvalidInputError(f"segment {index}: orientation must be 'ccw' or 'cw'")
        sweep = end_angle - start_angle
        if orientation == "ccw" and sweep <= 0:
            sweep += 2.0 * math.pi
        if orientation == "cw" and sweep >= 0:
            sweep -= 2.0 * math.pi
        try:
            return ArcSegment(np.asarray(spec["center"], dtype=float),
                              float(spec["radius"]), start_angle, sweep)
        except KeyError as exc:
            raise InvalidInputError(f"segment {index}: missing field {exc}")
    raise InvalidInputError(f"segment {index}: unknown type {kind!r}")


def make_shape(spec):
    """Build a catalog shape from a JSON-style description.

    Supported kinds::

        {"kind": "circle",  "r": 1.0}
        {"kind": "ellipse", "a": 2.0, "b": 1.0}
        {"kind": "stadium", "r": 1.0, "l": 2.0}
        {"kind": "cad_profile", "segments": [...]}
        {"kind": "cad_profile", "preset": "rounded_rect",
         "width": 2.0, "height": 1.0, "corner_radius": 0.2}

    Raises InvalidInputError for anything malformed, including chains
    that fail closure or tangent-continuity validation.
    """
    if not isinstance(spec, dict):
        raise InvalidInputError("shape description must be a mapping")
    kind = spec.get("kind")
    if kind == "circle":
        _require(spec, {"r"})
        return CircleShape(spec["r"])
    if kind == "ellipse":
        _require(spec, {"a", "b"})
        return EllipseShape(spec["a"], spec["b"])
    if kind == "stadium":
        _require(spec, {"r", "l"})
        return ArcChainShape(stadium_segments(spec["r"], spec["l"]),
                             label={"kind": "stadium",
                                    "r": float(spec["r"]),
                                    "l": float(spec["l"])})
    if kind == "cad_profile":
        if "preset" in spec:
            if spec["preset"] != "rounded_rect":
                raise InvalidInputError(f"unknown preset {spec['preset']!r}")
            _require(spec, {"preset", "width", "height", "corner_radius"})
            return ArcChainShape(
                rounded_rectangle_segments(
                    spec["width"], spec["height"], spec["corner_radius"]),
                label={"kind": "cad_profile", "preset": "rounded_rect",
                       "width": float(spec["width"]),
                       "height": float(spec["height"]),
                       "corner_radius": float(spec["corner_radius"])})
        segs = spec.get("segments")
        if not isinstance(segs, list) or not segs:
            raise InvalidInputError("cad_profile needs a nonempty 'segments' list")
        return ArcChainShape([_parse_segment(s, i) for i, s in enumerate(segs)])
    raise InvalidInputError(f"unknown shape kind {kind!r}")


def _require(spec, allowed):
    missing = allowed - set(spec)
    if missing:
        raise InvalidInputError(f"missing shape fields: {sorted(missing)}")
    extra = set(spec) - allowed - {"kind"}
    if extra:
        raise InvalidInputError(f"unexpected shape fields: {sorted(extra)}")


@dataclass(frozen=True)
class AppliedPatch:
    """One surgery step: a normal-direction displacement of a window.

    ``displacement`` maps the tangent coordinate y (relative to the
    frozen frame center/tangent) to the normal nudge; it vanishes
    identically for |y| >= transition_radius.  ``slope_displacement`` is
    its derivative, tabulated at the same accuracy rather than taken
    from the displacement spline.
    """

    index: int
    base_arc: float
    center: np.ndarray = field(repr=False)
    tangent: np.ndarray = field(repr=False)
    normal: np.ndarray = field(repr=False)
    inner_radius: float
    transition_radius: float
    window_radius: float
    sigma: float
    rho_target: float
    deviation: float
    lip_graph: float
    lip_slope: float
    displacement: object = field(repr=False)
    slope_displacement: object = field(repr=False)
    blend: object = field(repr=False, default=None)

    @property
    def arc_window(self):
        # conservative base-arc prefilter radius for candidate points
        return 2.0 * self.transition_radius


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

    def with_patch(self, patch):
        if patch.index != len(self.patches):
            raise InvalidInputError(
                f"patch index {patch.index} does not extend stack of "
                f"{len(self.patches)}")
        return ClosedCurve(self.shape, self.patches + (patch,))

    def _nudge(self, sv, pts, vel, patch):
        L = self.length
        dist = np.abs(np.mod(sv - patch.base_arc + 0.5 * L, L) - 0.5 * L)
        cand = dist <= patch.arc_window
        if not np.any(cand):
            return
        q = pts[cand]
        y = (q - patch.center) @ patch.tangent
        hit = np.abs(y) < patch.transition_radius
        if not np.any(hit):
            return
        sel = np.nonzero(cand)[0][hit]
        yh = y[hit]
        pts[sel] += patch.displacement(yh)[:, None] * patch.normal
        if vel is not None:
            dy = vel[sel] @ patch.tangent
            vel[sel] += (patch.slope_displacement(yh) * dy)[:, None] * patch.normal

    def point_and_velocity(self, s, *, velocity=True):
        """Position and (unnormalized) parameter velocity at base arcs."""
        sv = np.asarray(s, dtype=float)
        scalar = sv.ndim == 0
        sv = np.atleast_1d(sv)
        pts = self.shape.point(sv)
        vel = self.shape.tangent(sv) if velocity else None
        # narrow batches touch few patches; the circular triangle
        # inequality makes the skip exact, so results match a full loop
        lo, hi = (float(sv.min()), float(sv.max())) if sv.size else (0.0, 0.0)
        half = 0.5 * (hi - lo)
        if self.patches and sv.size and half < 0.25 * self.length:
            mid = 0.5 * (lo + hi)
            L = self.length
            gap = np.abs(np.mod(self._patch_arcs - mid + 0.5 * L, L) - 0.5 * L)
            for k in np.nonzero(gap <= half + self._patch_spans)[0]:
                self._nudge(sv, pts, vel, self.patches[k])
        else:
            for patch in self.patches:
                self._nudge(sv, pts, vel, patch)
        if scalar:
            return pts[0], (vel[0] if velocity else None)
        return pts, vel

    def point(self, s):
        pts, _ = self.point_and_velocity(s, velocity=False)
        return pts


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


def sample_manifold(curve, n=None, spacing=None):
    """Sample a closed curve uniformly in its base parameter.

    Exactly one of ``n`` and ``spacing`` must be given.  ``max_gap`` is
    the measured largest chord between neighbors (wrap included), which
    bounds the true sample density on the curve.
    """
    if (n is None) == (spacing is None):
        raise InvalidInputError("give exactly one of n and spacing")
    if n is None:
        n = int(math.ceil(curve.length / as_positive_float(spacing, "spacing")))
    n = int(n)
    if n < 8:
        raise InvalidInputError(f"need at least 8 samples, got {n}")
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
    patched curve, not difference quotients.
    """

    def __init__(self, curve, base_arc, window, measure_grid=257):
        self.curve = curve
        self.base_arc = float(base_arc)
        self.window = window
        center, vel = curve.point_and_velocity(self.base_arc)
        t = vel / np.linalg.norm(vel)
        self.center = center
        self.tangent = t
        self.normal = np.array([-t[1], t[0]])
        ys = np.linspace(window.lo, window.hi, int(measure_grid))
        slopes = self.slope(ys)
        self.lip_graph = float(np.abs(slopes).max())
        self.lip_slope = float(np.abs(np.diff(slopes) / np.diff(ys)).max())

    def _solve(self, y):
        yv = np.asarray(y, dtype=float)
        shape = yv.shape
        yv = np.atleast_1d(yv).ravel()
        if not self.window.contains(yv, margin=1e-9 * max(1.0, self.window.length)):
            raise InvalidInputError("tangent coordinate outside the graph window")
        theta = self.base_arc + yv
        scale = max(1.0, float(np.linalg.norm(self.center)) + self.window.length)
        for it in range(40):
            pts, vel = self.curve.point_and_velocity(theta)
            g = (pts - self.center) @ self.tangent - yv
            dg = vel @ self.tangent
            if np.any(dg < 0.05):
                raise GeometryError(
                    "curve folds against the tangent frame inside the window; "
                    "the stretch is not a graph")
            if np.abs(g).max() <= 1e-14 * scale:
                break
            theta = theta - g / dg
        else:
            raise GeometryError("graph parameter solve did not converge")
        return theta, pts, vel, shape

    def value(self, y):
        theta, pts, _, shape = self._solve(y)
        f = (pts - self.center) @ self.normal
        return float(f[0]) if shape == () else f.reshape(shape)

    def slope(self, y):
        theta, _, vel, shape = self._solve(y)
        df = (vel @ self.normal) / (vel @ self.tangent)
        return float(df[0]) if shape == () else df.reshape(shape)

    def value_and_slope(self, y):
        theta, pts, vel, shape = self._solve(y)
        f = (pts - self.center) @ self.normal
        df = (vel @ self.normal) / (vel @ self.tangent)
        if shape == ():
            return float(f[0]), float(df[0])
        return f.reshape(shape), df.reshape(shape)


def local_graph_at(curve, arc, *, delta=None, reach=None, window_radius=None,
                   measure_grid=257):
    """Graph window of a curve around the point at base parameter ``arc``.

    The window half-width defaults to sqrt(delta * reach)/2.

    Raises
    ------
    GeometryError
        If the curve is not a graph over the tangent line there.
    InvalidInputError
        If the window parameters are missing or out of range.
    """
    if window_radius is None:
        if delta is None or reach is None:
            raise InvalidInputError("need delta and reach (or an explicit window_radius)")
        d = as_positive_float(delta, "delta")
        r = as_positive_float(reach, "reach")
        if d > 0.5 * r:
            raise InvalidInputError(f"delta={d} exceeds half the reach bound {r}")
        window_radius = 0.5 * math.sqrt(d * r)
    w = as_positive_float(window_radius, "window_radius")
    return LocalGraph(curve, float(arc), Interval(-w, w),
                      measure_grid=measure_grid)

"""Small shared helpers: validation, deterministic formatting."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidInputError


def require_fields(obj, what, required, optional):
    """``obj``, a JSON object holding every field of ``required`` and no
    field outside ``required`` and ``optional``.  Anything else raises
    one error that names ``what``, every unknown and every missing
    field."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {obj!r}")
    wrong = [f"{label} fields {keys}" for label, keys in (
        ("unknown", [k for k in obj if k not in required and k not in optional]),
        ("missing", [k for k in required if k not in obj])) if keys]
    if wrong:
        raise InvalidInputError(f"{what}: {' and '.join(wrong)}; allowed: "
                                + ", ".join((*required, *optional)))
    return obj


def as_float(x, name):
    """Coerce a number to a finite Python float or raise.

    Strings, bytes and booleans are refused, not converted: a config's
    ``"1.5"`` or ``true`` is a malformed number, not 1.5 or 1.0.
    """
    if isinstance(x, (str, bytes, bool, np.bool_)):
        raise InvalidInputError(f"{name} must be a real number, got {x!r}")
    try:
        v = float(x)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{name} must be a real number, got {x!r}")
    if not math.isfinite(v):
        raise InvalidInputError(f"{name} must be finite, got {v!r}")
    return v


def as_positive_float(x, name):
    v = as_float(x, name)
    if v <= 0:
        raise InvalidInputError(f"{name} must be positive, got {v!r}")
    return v


def _as_real_array(x, name, sign):
    """Numbers as a float64 array of finite entries, each ``"positive"``
    or ``"nonnegative"`` as ``sign`` asks (``"any"`` asks nothing).
    Strings, booleans and ragged or object arrays are refused like
    ``as_float`` refuses them."""
    try:
        raw = np.asarray(x)
    except ValueError:
        raw = None
    if raw is None or raw.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must be real numbers, got {x!r}")
    a = raw.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} must be finite, got {x!r}")
    if sign != "any" and not (a > 0 if sign == "positive" else a >= 0).all():
        raise InvalidInputError(f"{name} must be {sign}, got {x!r}")
    return a


def as_vector(v, name):
    """Plane vector: a float64 array of two finite entries."""
    a = _as_real_array(v, name, "any")
    if a.shape != (2,):
        raise InvalidInputError(f"{name} must be a plane vector, got shape {a.shape}")
    return a


def as_points(p, name):
    """(n, 2) float64 array of plane points with finite entries."""
    a = _as_real_array(p, name, "any")
    if a.ndim != 2 or a.shape[1] != 2:
        raise InvalidInputError(f"{name} must be an (n, 2) array, got shape {a.shape}")
    return a


def fmt17(x):
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def json_dumps_stable(obj):
    """Deterministic JSON: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)

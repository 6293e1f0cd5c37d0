"""Small shared helpers: validation, deterministic formatting."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidInputError


# the common number types skip ``as_float``'s type test, which costs a
# float subclass such as np.float64 about 0.1 us a call
_PLAIN_NUMBERS = frozenset((float, int, np.float64))


def as_float(x, name):
    """Coerce a number to a finite Python float or raise.

    Strings, bytes and booleans are refused, not converted: a config's
    ``"1.5"`` or ``true`` is a malformed number, not 1.5 or 1.0.
    """
    if type(x) not in _PLAIN_NUMBERS and isinstance(x, (str, bytes, bool, np.bool_)):
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


def as_vector(v, name):
    """Plane vector: a float64 array of two finite entries.

    Entries must be numbers: strings and booleans are refused like
    ``as_float`` refuses them.
    """
    try:
        raw = np.asarray(v)
    except ValueError:
        raw = None
    if raw is None or raw.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must be a vector of real numbers, got {v!r}")
    a = raw.astype(float, copy=False)
    if a.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-D vector, got shape {a.shape}")
    if a.shape[0] != 2:
        raise InvalidInputError(f"{name} must have length 2, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def as_points(p, name):
    """(n, 2) float64 array of plane points with finite entries."""
    a = np.asarray(p, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2:
        raise InvalidInputError(f"{name} must be an (n, 2) array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def fmt17(x):
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _round17(obj):
    if isinstance(obj, float):
        # float(fmt17(x)) == x; normalizes -0.0 and keeps full precision
        return float(fmt17(obj))
    if isinstance(obj, dict):
        return {k: _round17(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round17(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round17(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return _round17(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def json_dumps_stable(obj):
    """Deterministic JSON: sorted keys, full-precision floats, no locale."""
    return json.dumps(_round17(obj), indent=2, sort_keys=True, allow_nan=False)

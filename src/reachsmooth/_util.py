"""Small shared helpers: validation, deterministic formatting."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidInputError


def as_float(x, name):
    """Coerce to a finite Python float or raise."""
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


def as_vector(v, name, dim=None):
    """1-D float64 array with finite entries."""
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-D vector, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise InvalidInputError(f"{name} must have length {dim}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def as_points(p, name, dim=2):
    """(n, dim) float64 array with finite entries."""
    a = np.asarray(p, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise InvalidInputError(f"{name} must be an (n, {dim}) array, got shape {a.shape}")
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

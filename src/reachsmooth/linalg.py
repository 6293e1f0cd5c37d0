"""Point-set distances used by the patch checkers.

The Hausdorff distance between two sampled curves bounds how far one
patch moved the curve; it works in any ambient dimension, although the
pipeline only ever passes plane points.
"""

from __future__ import annotations

import numpy as np

from . import _accel
from ._util import as_points
from .errors import InvalidInputError

__all__ = ["hausdorff_distance_sampled"]


def hausdorff_distance_sampled(a, b):
    """Hausdorff distance between two finite point sets.

    Parameters
    ----------
    a, b : array_like, shape (n, d) and (m, d)

    Returns
    -------
    float
        max(sup_a dist(a, B), sup_b dist(b, A)).
    """
    pa = np.asarray(a, dtype=float)
    if pa.ndim != 2:
        raise InvalidInputError(f"a must be an (n, d) array, got shape {pa.shape}")
    pb = as_points(b, "b", dim=pa.shape[1])
    pa = as_points(pa, "a", dim=pa.shape[1])
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise InvalidInputError("point sets must be nonempty")
    dab, _ = _accel.directed_hausdorff(pa, pb)
    dba, _ = _accel.directed_hausdorff(pb, pa)
    return max(dab, dba)

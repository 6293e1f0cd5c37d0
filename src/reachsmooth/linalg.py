"""Point-set distances used by the patch checkers.

The Hausdorff distance between two sampled curves bounds how far one
patch moved the curve.
"""

from __future__ import annotations

from . import _accel
from ._util import as_points
from .errors import InvalidInputError

__all__ = ["hausdorff_distance_sampled"]


def hausdorff_distance_sampled(a, b):
    """Hausdorff distance between two finite sets of plane points.

    Parameters
    ----------
    a, b : array_like, shape (n, 2) and (m, 2)

    Returns
    -------
    float
        max(sup_a dist(a, B), sup_b dist(b, A)).
    """
    pa = as_points(a, "a")
    pb = as_points(b, "b")
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise InvalidInputError("point sets must be nonempty")
    dab, _ = _accel.directed_hausdorff(pa, pb)
    dba, _ = _accel.directed_hausdorff(pb, pa)
    return max(dab, dba)

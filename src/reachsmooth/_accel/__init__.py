"""The three scan kernels behind the reach scan and the checkers.

Callers reach every kernel through this module (``_accel.federer_scan``
and so on), which is also where the benchmark's tracer wraps them.  The
one implementation is the NumPy code in ``_slow``;
``IMPLEMENTATION`` names it; the package exports it as
``reachsmooth.accel_backend``.  ``DEGENERATE_REL`` is the flat-pair
threshold of the pair scan, shared with ``reach.federer_ratio``.
"""

from ._slow import (DEGENERATE_REL, directed_hausdorff, federer_scan,
                    max_abs_diff_quotient)

IMPLEMENTATION = "python"

__all__ = [
    "IMPLEMENTATION",
    "DEGENERATE_REL",
    "federer_scan",
    "max_abs_diff_quotient",
    "directed_hausdorff",
]

"""The three scan kernels behind the reach scan and the checkers.

Callers reach every kernel through this module (``_accel.federer_scan``
and so on), which is also where the benchmark's tracer wraps them.  The
one implementation is the NumPy code in ``_slow``;
``IMPLEMENTATION`` names it; the package exports it as
``reachsmooth.accel_backend``.  ``DEGENERATE_REL`` is the flat-pair
threshold of the pair scan, shared with ``reach.federer_ratio``.

The pair scan takes a mask of hot points and reads only the pairs with
a hot end; the final scan of a smoothing run passes the samples in a
patch window, and every other caller passes None, every pair.
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

"""Certified smoothing of closed plane curves.

The library takes a curve whose tangent is Lipschitz but whose
curvature may jump (circles, ellipses, stadium tracks, rounded CAD
profiles), mollifies it into an infinitely smooth curve, and certifies
that the reach, the largest radius at which nearest-point projection
stays single valued, drops by no more than a requested budget.

Entry points
------------
``smooth_manifold``
    The full pipeline: localized blends at the junctions, final scan.
``scan_curve_reach`` / ``analytic_reach``
    Measured and closed-form reach of the shape catalog.
``make_shape``
    Shape construction from plain dictionaries (also the CLI config).
``run_suite`` (in :mod:`reachsmooth.checks`)
    Numerical verification of every supporting estimate.

The command-line interface lives in :mod:`reachsmooth.cli` and is
installed as ``reachsmooth``.
"""

from ._accel import IMPLEMENTATION as accel_backend
from .curves import (ArcChainShape, ArcSegment, CircleShape, ClosedCurve,
                     EllipseShape, LineSegment, LocalGraph, local_graph_at,
                     make_shape, rounded_rectangle_segments, sample_manifold,
                     stadium_segments)
from .errors import ConvergenceError, GeometryError, InvalidInputError
from .kernels import (BumpKernel, Interval, convolve_grid,
                      find_support_radius, sup_deviation_ck)
from .linalg import hausdorff_distance_sampled
from .partition import (PlateauFunction, make_reference_plateau,
                        rescale_plateau, smoothing_window_radius)
from .reach import (ReachEstimate, analytic_reach, estimate_reach_federer,
                    federer_ratio, scan_curve_reach)
from .smoothing import (BlendedMap, ProbeResult, SmoothingReport,
                        SmoothingResult, effective_radius_drop,
                        far_away_reach_bound, predicted_reach_bound,
                        smooth_core_probe, smooth_manifold, smooth_patch)

__version__ = "0.1.0"

__all__ = [
    "accel_backend",
    "ArcChainShape", "ArcSegment", "CircleShape", "ClosedCurve",
    "EllipseShape", "LineSegment", "LocalGraph", "local_graph_at",
    "make_shape", "rounded_rectangle_segments", "sample_manifold",
    "stadium_segments",
    "ConvergenceError", "GeometryError", "InvalidInputError",
    "BumpKernel", "Interval", "convolve_grid",
    "find_support_radius", "sup_deviation_ck",
    "hausdorff_distance_sampled",
    "PlateauFunction", "make_reference_plateau", "rescale_plateau",
    "smoothing_window_radius",
    "ReachEstimate", "analytic_reach", "estimate_reach_federer",
    "federer_ratio", "scan_curve_reach",
    "BlendedMap", "ProbeResult", "SmoothingReport", "SmoothingResult",
    "effective_radius_drop",
    "far_away_reach_bound", "predicted_reach_bound", "smooth_core_probe",
    "smooth_manifold", "smooth_patch",
    "__version__",
]

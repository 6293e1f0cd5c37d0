"""Small dense linear-algebra helpers used by the geometric layers.

Everything here works in arbitrary ambient dimension even though the
smoothing pipeline currently drives it with d = 2: the reach scan and the
patch checkers only ever need norms, principal angles, and distances to
affine tangent lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import _accel
from ._util import as_points, as_vector
from .errors import InvalidInputError

__all__ = [
    "operator_two_norm",
    "orthonormal_columns",
    "Subspace",
    "AffineSubspace",
    "subspace_angle",
    "dist_point_to_affine",
    "hausdorff_distance_sampled",
]


def operator_two_norm(m):
    """Largest singular value of a matrix.

    Parameters
    ----------
    m : array_like, shape (p, q)

    Returns
    -------
    float
        sup_{|v| = 1} |m v|, computed via LAPACK singular values.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"matrix expected, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix has non-finite entries")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def orthonormal_columns(vectors, tol=1e-12):
    """Orthonormalize the columns of ``vectors`` by modified Gram-Schmidt.

    A second orthogonalization pass keeps the result orthonormal to
    machine precision even for badly conditioned inputs.  Raises if the
    columns are linearly dependent relative to ``tol``.
    """
    a = np.asarray(vectors, dtype=float)
    if a.ndim != 2 or a.shape[1] == 0:
        raise InvalidInputError(f"nonempty (d, k) column matrix expected, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("basis vectors have non-finite entries")
    d, k = a.shape
    if k > d:
        raise InvalidInputError(f"{k} vectors cannot be independent in dimension {d}")
    scale = max(np.abs(a).max(), 1.0)
    q = a.copy()
    for _ in range(2):
        for i in range(k):
            for j in range(i):
                q[:, i] -= (q[:, j] @ q[:, i]) * q[:, j]
            nrm = np.linalg.norm(q[:, i])
            if nrm <= tol * scale:
                raise InvalidInputError("basis vectors are linearly dependent")
            q[:, i] /= nrm
    return q


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^d stored as an orthonormal column basis."""

    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise InvalidInputError(f"basis must be a (d, k) matrix, got shape {b.shape}")
        gram = b.T @ b
        if not np.allclose(gram, np.eye(b.shape[1]), atol=1e-10):
            raise InvalidInputError("basis columns are not orthonormal; "
                                    "use Subspace.from_vectors to orthonormalize")
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_vectors(cls, vectors):
        """Span of the given (d, k) columns, orthonormalized."""
        return cls(orthonormal_columns(vectors))

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def project(self, v):
        """Orthogonal projection of a vector (or (n, d) stack) onto the span."""
        a = np.asarray(v, dtype=float)
        return (a @ self.basis) @ self.basis.T


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace: base point plus a linear direction space."""

    base: np.ndarray = field(repr=False)
    direction: Subspace

    def __post_init__(self):
        b = as_vector(self.base, "base", dim=self.direction.ambient_dim)
        object.__setattr__(self, "base", b)

    @classmethod
    def through(cls, base, vectors):
        return cls(np.asarray(base, dtype=float), Subspace.from_vectors(vectors))


def subspace_angle(a, b):
    """Largest principal angle between two equal-dimensional subspaces.

    Symmetric in its arguments and valued in [0, pi/2].  Raises for
    subspaces of different dimension (the comparison is not meaningful).
    """
    if not isinstance(a, Subspace) or not isinstance(b, Subspace):
        raise InvalidInputError("subspace_angle expects two Subspace instances")
    if a.ambient_dim != b.ambient_dim:
        raise InvalidInputError("subspaces live in different ambient dimensions")
    if a.dim != b.dim:
        raise InvalidInputError(f"subspace dimensions differ: {a.dim} vs {b.dim}")
    angles = scipy.linalg.subspace_angles(a.basis, b.basis)
    return float(angles[0]) if angles.size else 0.0


def dist_point_to_affine(q, affine):
    """Euclidean distance from a point to an affine subspace."""
    if not isinstance(affine, AffineSubspace):
        raise InvalidInputError("affine must be an AffineSubspace")
    v = as_vector(q, "q", dim=affine.direction.ambient_dim)
    r = v - affine.base
    return float(np.linalg.norm(r - affine.direction.project(r)))


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

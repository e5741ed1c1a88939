"""Small dense linear algebra: orthonormal bases, projections and
minimum-norm solutions of (typically underdetermined) systems."""

from __future__ import annotations

import numpy as np

from .errors import DomainError, RankError

__all__ = ["Basis", "orthonormalize", "project", "min_norm_solution"]

_GRAM_TOL = 1e-12
_DEFAULT_RANK_TOL = 1e-10


class Basis:
    """Orthonormal columns spanning a subspace of R^d."""

    __slots__ = ("columns",)

    def __init__(self, columns: np.ndarray):
        columns = np.ascontiguousarray(columns, dtype=float)
        if columns.ndim != 2 or not 1 <= columns.shape[1] <= columns.shape[0]:
            raise DomainError(f"basis must be d x m with 1 <= m <= d, got {columns.shape}")
        require_orthonormal(columns)
        columns.flags.writeable = False
        self.columns = columns

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def __repr__(self):
        return f"Basis(dim={self.dim}, ambient_dim={self.ambient_dim})"


def require_orthonormal(frames: np.ndarray) -> None:
    """Raise DomainError unless every (..., d, m) frame has orthonormal columns."""
    gram = np.swapaxes(frames, -1, -2) @ frames
    gram -= np.eye(frames.shape[-1])
    if np.max(np.abs(gram)) > _GRAM_TOL:
        raise DomainError("columns are not orthonormal to 1e-12")


def orthonormalize(vectors, tol: float = _DEFAULT_RANK_TOL) -> Basis:
    """Orthonormal basis of span(vectors) via pivoted Gram-Schmidt.

    A second orthogonalization pass keeps the Gram matrix within 1e-12 of
    the identity.  Raises RankError when a pivot falls below tol relative
    to the largest pivot.
    """
    cols = np.array(vectors, dtype=float).T  # (d, m)
    if cols.ndim != 2 or cols.shape[1] == 0:
        raise DomainError("need a non-empty list of equal-length vectors")
    d, m = cols.shape
    if m > d:
        raise RankError(f"{m} vectors cannot be independent in dimension {d}")
    work = cols.copy()
    out = np.empty((d, m))
    first_pivot = None
    for j in range(m):
        norms = np.linalg.norm(work[:, j:], axis=0)
        pick = j + int(np.argmax(norms))
        work[:, [j, pick]] = work[:, [pick, j]]
        pivot = norms[pick - j]
        if first_pivot is None:
            first_pivot = pivot
        if pivot <= tol * first_pivot or pivot == 0.0:
            raise RankError(
                f"rank deficient: pivot {pivot} below tolerance at column {j}"
            )
        v = work[:, j] / pivot
        out[:, j] = v
        work[:, j + 1:] -= np.outer(v, v @ work[:, j + 1:])
    # re-orthogonalization pass
    for j in range(m):
        v = out[:, j]
        v = v - out[:, :j] @ (out[:, :j].T @ v)
        out[:, j] = v / np.linalg.norm(v)
    return Basis(out)


def project(basis: Basis, v) -> np.ndarray:
    """Orthogonal projection of v onto span(basis)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (basis.ambient_dim,):
        raise DomainError(
            f"vector of length {v.shape} does not match ambient dimension "
            f"{basis.ambient_dim}"
        )
    B = basis.columns
    return B @ (B.T @ v)


def min_norm_solution(M, b, rank_tol: float = _DEFAULT_RANK_TOL):
    """Minimum-Euclidean-norm solution of M c = b, or None when inconsistent.

    One least-squares solve (np.linalg.lstsq, singular values below rank_tol
    times the largest dropped), so rank-deficient and ill-conditioned rows
    take the same path.  Consistency is judged by the residual against
    rank_tol (1 + |b|).
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    if M.ndim != 2 or b.shape != (M.shape[0],):
        raise DomainError(f"shape mismatch: M {M.shape}, b {b.shape}")
    c, *_ = np.linalg.lstsq(M, b, rcond=rank_tol)
    if np.linalg.norm(M @ c - b) > rank_tol * (1.0 + np.linalg.norm(b)):
        return None
    return c

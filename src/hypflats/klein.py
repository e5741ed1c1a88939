"""Flats in the Beltrami-Klein model and their hyperbolic intersections.

A flat is stored by an orthonormal basis W of its normal space together
with the offset x = projection of the origin onto the flat, i.e. the point
set {y : P_W y = x}.  This is exactly the coordinate system in which the
invariant measure decomposes, and the hitting criterion for the radius-u
ball is simply |x| <= R(u).
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, DomainError
from .linalg import Basis, min_norm_solutions, project
# re-exported: perfbench's traced run looks it up on this module
from .linalg import min_norm_solution  # noqa: F401
from .special import Curvature

__all__ = ["AffineFlat", "IntersectionOutcome", "flat_from_normal_offset",
           "intersect_with_central_subspace", "intersect_batch"]

_OFFSET_TOL = 1e-6
_BOUNDARY_TOL = 1e-14


class AffineFlat:
    """Affine flat {y : P_W y = x} with x in span(W)."""

    __slots__ = ("normal_basis", "offset")

    def __init__(self, normal_basis: Basis, offset: np.ndarray):
        self.normal_basis = normal_basis
        offset = np.ascontiguousarray(offset, dtype=float)
        offset.flags.writeable = False
        self.offset = offset

    @property
    def dim(self) -> int:
        return self.normal_basis.ambient_dim - self.normal_basis.dim

    def __repr__(self):
        return f"AffineFlat(dim={self.dim}, |offset|={np.linalg.norm(self.offset):.6g})"


class IntersectionOutcome:
    """Empty, or Meets with Euclidean and hyperbolic origin distances."""

    __slots__ = ("euclid_dist", "hyper_dist")

    def __init__(self, euclid_dist=None, hyper_dist=None):
        if (euclid_dist is None) != (hyper_dist is None):
            raise DomainError("both distances or neither")
        self.euclid_dist = euclid_dist
        self.hyper_dist = hyper_dist

    @classmethod
    def empty(cls):
        return cls()

    @property
    def meets(self) -> bool:
        return self.euclid_dist is not None

    def __repr__(self):
        if not self.meets:
            return "IntersectionOutcome.empty()"
        return (f"IntersectionOutcome(euclid_dist={self.euclid_dist:.6g}, "
                f"hyper_dist={self.hyper_dist:.6g})")


def flat_from_normal_offset(normal_basis: Basis, offset) -> AffineFlat:
    """Construct a flat, requiring the offset to lie in span(normal_basis)."""
    offset = np.asarray(offset, dtype=float)
    if offset.shape != (normal_basis.ambient_dim,):
        raise DomainError("offset length does not match ambient dimension")
    proj = project(normal_basis, offset)
    residual = np.linalg.norm(offset - proj)
    if residual > _OFFSET_TOL * (1.0 + np.linalg.norm(offset)):
        raise ConstructionError(
            f"offset is {residual:.3g} away from the normal space"
        )
    return AffineFlat(normal_basis, proj)


def intersect_with_central_subspace(E: AffineFlat, L: Basis,
                                    K: Curvature) -> IntersectionOutcome:
    """Intersection of a flat E with the central subspace L inside the Klein ball.

    The one-flat case of intersect_batch.
    """
    euclid, hyper = intersect_batch(E.normal_basis.columns[None], E.offset[None],
                                    L.columns[None], K)
    if not np.isfinite(euclid[0]):
        return IntersectionOutcome.empty()
    return IntersectionOutcome(float(euclid[0]), float(hyper[0]))


def intersect_batch(W, x, B, K: Curvature):
    """Intersections of n flats {y : P_W y = x} with n central subspaces span(B).

    W is (n, d, m) with orthonormal columns, x is (n, d) in span(W), and B
    is (n, d, q) with orthonormal columns.  Row i solves P_W (B c) = x over
    coefficients c of B; the minimum-norm solution is the Euclidean-closest
    intersection point, which is also the hyperbolically closest one since
    the hyperbolic distance to the origin increases with Euclidean norm.
    Returns the Euclidean and hyperbolic distances of that point from the
    origin, both +inf where the row misses.
    """
    K.require_hyperbolic()
    if W.shape[1] != B.shape[1]:
        raise DomainError("ambient dimensions of E and L differ")
    edge = K.ball_radius * (1.0 - _BOUNDARY_TOL)
    Wt = np.swapaxes(W, 1, 2)
    c, ok = min_norm_solutions(Wt @ B, (Wt @ x[:, :, None])[:, :, 0])
    # the offset is the flat's closest point to the origin, so a flat whose
    # offset falls outside the open ball misses the model space entirely
    ok &= np.linalg.norm(x, axis=1) < edge
    euclid = np.full(len(x), np.inf)
    euclid[ok] = np.linalg.norm((B[ok] @ c[ok, :, None])[:, :, 0], axis=1)
    # the Klein ball is open; boundary grazing counts as empty
    euclid[euclid >= edge] = np.inf
    hyper = np.full(len(x), np.inf)
    meets = np.isfinite(euclid)
    hyper[meets] = np.arctanh(K.scale * euclid[meets]) / K.scale
    return euclid, hyper

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
from .linalg import Basis, min_norm_solution, project
from .special import Curvature, klein_radius_inv

__all__ = ["AffineFlat", "IntersectionOutcome", "flat_from_normal_offset",
           "intersect_with_central_subspace"]

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

    With W the normal basis of E, x its offset and B the basis of L, the
    intersection points are B c with W^T B c = W^T x.  The minimum-norm
    solution is the Euclidean-closest intersection point, which is also
    the hyperbolically closest one since the hyperbolic distance to the
    origin increases with Euclidean norm.
    """
    K.require_hyperbolic()
    W, x, B = E.normal_basis.columns, E.offset, L.columns
    if W.shape[0] != B.shape[0]:
        raise DomainError("ambient dimensions of E and L differ")
    edge = K.ball_radius * (1.0 - _BOUNDARY_TOL)
    # the offset is the flat's closest point to the origin, so a flat whose
    # offset falls outside the open ball misses the model space entirely
    if np.linalg.norm(x) >= edge:
        return IntersectionOutcome.empty()
    c = min_norm_solution(W.T @ B, W.T @ x)
    if c is None:
        return IntersectionOutcome.empty()
    r = float(np.linalg.norm(B @ c))
    # the Klein ball is open; boundary grazing counts as empty
    if r >= edge:
        return IntersectionOutcome.empty()
    return IntersectionOutcome(r, klein_radius_inv(K, r))

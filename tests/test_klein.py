import math

import numpy as np
import pytest

from hypflats import (
    Basis,
    ConstructionError,
    Curvature,
    DomainError,
    flat_from_normal_offset,
    intersect_with_central_subspace,
    klein_radius_inv,
    min_norm_solution,
)

K1 = Curvature(-1.0)
E1 = Basis(np.eye(2)[:, :1])          # normal = span(e1)
X_AXIS = Basis(np.array([[1.0], [0.0]]))
Y_AXIS = Basis(np.array([[0.0], [1.0]]))


def vertical_line(x):
    return flat_from_normal_offset(E1, np.array([x, 0.0]))


class TestConstruction:
    def test_vertical_line(self):
        E = vertical_line(0.5)
        assert E.dim == 1
        np.testing.assert_allclose(E.offset, [0.5, 0.0])

    def test_offset_outside_span_rejected(self):
        with pytest.raises(ConstructionError):
            flat_from_normal_offset(E1, np.array([0.5, 0.3]))

    def test_zero_offset_through_origin(self):
        E = flat_from_normal_offset(E1, np.zeros(2))
        assert np.linalg.norm(E.offset) == 0.0

    def test_tiny_residual_reprojected(self):
        E = flat_from_normal_offset(E1, np.array([0.5, 1e-9]))
        np.testing.assert_allclose(E.offset, [0.5, 0.0], atol=1e-12)

    def test_shape_check(self):
        with pytest.raises(DomainError):
            flat_from_normal_offset(E1, np.array([0.5, 0.0, 0.0]))


class TestIntersect:
    def test_meets_hand_computed(self):
        out = intersect_with_central_subspace(vertical_line(0.5), X_AXIS, K1)
        assert out.meets
        assert out.euclid_dist == pytest.approx(0.5, abs=1e-12)
        assert out.hyper_dist == pytest.approx(math.atanh(0.5), abs=1e-12)

    def test_empty_parallel(self):
        out = intersect_with_central_subspace(vertical_line(0.5), Y_AXIS, K1)
        assert not out.meets

    def test_empty_outside_ball(self):
        # the line x = 1.2 never enters the open unit Klein ball
        out = intersect_with_central_subspace(vertical_line(1.2), X_AXIS, K1)
        assert not out.meets

    def test_distance_consistency(self):
        K = Curvature(-2.0)
        out = intersect_with_central_subspace(vertical_line(0.3), X_AXIS, K)
        assert out.hyper_dist == pytest.approx(
            klein_radius_inv(K, out.euclid_dist), abs=1e-12
        )

    def test_offset_on_ball_boundary_is_empty(self):
        out = intersect_with_central_subspace(vertical_line(0.5), X_AXIS,
                                              Curvature(-4.0))
        assert not out.meets

    def test_dimension_mismatch(self):
        L3 = Basis(np.eye(3)[:, :1])
        with pytest.raises(DomainError):
            intersect_with_central_subspace(vertical_line(0.5), L3, K1)

    def test_containment_when_meets(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(3, 7))
            q = int(rng.integers(1, d))
            g = int(rng.integers(0, q))
            m = q - g
            W = np.linalg.qr(rng.standard_normal((d, m)))[0]
            x = W @ (0.3 * rng.standard_normal(m))
            if np.linalg.norm(x) >= 0.999:
                continue
            E = flat_from_normal_offset(Basis(W), x)
            L = Basis(np.linalg.qr(rng.standard_normal((d, q)))[0])
            out = intersect_with_central_subspace(E, L, K1)
            if not out.meets:
                continue
            B = L.columns
            c = np.linalg.lstsq(W.T @ B, W.T @ x, rcond=None)[0]
            y = B @ c
            # y* lies in L by construction; P_W y* = x within 1e-10
            np.testing.assert_allclose(W.T @ y, W.T @ x, atol=1e-10)
            assert abs(np.linalg.norm(y) - out.euclid_dist) <= 1e-10

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            q = int(rng.integers(1, d))
            m = int(rng.integers(1, q + 1))
            W = np.linalg.qr(rng.standard_normal((d, m)))[0]
            x = W @ (0.4 * rng.standard_normal(m) / math.sqrt(m))
            if np.linalg.norm(x) >= 0.999:
                continue
            E = flat_from_normal_offset(Basis(W), x)
            L = Basis(np.linalg.qr(rng.standard_normal((d, q)))[0])
            out = intersect_with_central_subspace(E, L, K1)
            O = np.linalg.qr(rng.standard_normal((d, d)))[0]
            E2 = flat_from_normal_offset(Basis(O @ W), O @ x)
            L2 = Basis(O @ L.columns)
            out2 = intersect_with_central_subspace(E2, L2, K1)
            assert out.meets == out2.meets
            if out.meets:
                assert out.euclid_dist == pytest.approx(out2.euclid_dist, abs=1e-10)
                assert out.hyper_dist == pytest.approx(out2.hyper_dist, abs=1e-10)


def reference_intersection(W, x, B, K):
    """The per-flat intersection by a minimum-norm solve, kept apart from the
    library; the Monte Carlo tests rebuild the full geometry with it."""
    edge = K.ball_radius * (1.0 - 1e-14)
    if np.linalg.norm(x) >= edge:
        return None
    c = min_norm_solution(W.T @ B, W.T @ x)
    if c is None:
        return None
    r = float(np.linalg.norm(B @ c))
    if r >= edge:
        return None
    return r, klein_radius_inv(K, r)


def random_rows(rng, n, d, q, m, ball):
    """Flats and subspaces with misses, grazing offsets and parallel cases."""
    W = np.stack([np.linalg.qr(rng.standard_normal((d, m)))[0] for _ in range(n)])
    B = np.stack([np.linalg.qr(rng.standard_normal((d, q)))[0] for _ in range(n)])
    g = rng.standard_normal((n, m))
    unit = g / np.linalg.norm(g, axis=1, keepdims=True)
    radius = ball * rng.uniform(0.0, 1.2, n)
    radius[:6] = ball * np.array([1 - 1e-13, 1 - 1e-15, 1 + 1e-13, 1.0, 0.0, 1e-9])
    x = np.einsum("nij,nj->ni", W, radius[:, None] * unit)
    if q + m <= d:
        # L inside the orthogonal complement of W: parallel, or through the
        # origin when the offset is zero
        for i in (6, 7):
            B[i] = np.linalg.qr(
                (np.eye(d) - W[i] @ W[i].T) @ rng.standard_normal((d, q)))[0]
        x[7] = 0.0
    return W, x, B


class TestIntersectBatch:
    """Batches of rows from random_rows, solved one flat at a time."""

    @pytest.mark.parametrize("d,q,m", [(2, 1, 1), (3, 2, 1), (5, 2, 3), (6, 3, 2),
                                       (6, 4, 4), (9, 5, 7), (12, 8, 8)])
    def test_rows_match_reference_and_scalar(self, d, q, m):
        # each row of random_rows through the one-flat solve and the reference
        K = Curvature(-2.0)
        rng = np.random.default_rng(100 * d + 10 * q + m)
        W, x, B = random_rows(rng, 40, d, q, m, K.ball_radius)
        outcomes = 0
        for i in range(len(x)):
            ref = reference_intersection(W[i], x[i], B[i], K)
            one = intersect_with_central_subspace(
                flat_from_normal_offset(Basis(W[i]), x[i]), Basis(B[i]), K)
            assert (ref is not None) == one.meets
            if one.meets:
                outcomes += 1
                assert one.euclid_dist == pytest.approx(ref[0], rel=1e-12, abs=1e-15)
                assert one.hyper_dist == pytest.approx(ref[1], rel=1e-12, abs=1e-15)
        # both outcomes occur in every group
        assert 0 < outcomes < len(x)

    def test_dimension_mismatch(self):
        E = flat_from_normal_offset(Basis(np.eye(3)[:, :1]), np.zeros(3))
        with pytest.raises(DomainError):
            intersect_with_central_subspace(E, Basis(np.eye(2)[:, :1]), K1)


class TestOutcome:
    def test_empty_repr_and_flags(self):
        from hypflats import IntersectionOutcome

        e = IntersectionOutcome.empty()
        assert not e.meets
        with pytest.raises(DomainError):
            IntersectionOutcome(euclid_dist=0.5)

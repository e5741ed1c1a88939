import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypflats import (
    Basis,
    DomainError,
    RankError,
    min_norm_solution,
    orthonormalize,
    project,
)
from hypflats.linalg import require_orthonormal


class TestBasis:
    def test_accepts_orthonormal(self):
        b = Basis(np.eye(4)[:, :2])
        assert b.ambient_dim == 4 and b.dim == 2

    def test_rejects_non_orthonormal(self):
        with pytest.raises(DomainError):
            Basis(np.ones((3, 2)))

    def test_stack_check_finds_one_bad_frame(self):
        frames = np.stack([np.eye(4)[:, :2]] * 3)
        require_orthonormal(frames)
        frames[1, 0, 1] = 1e-11
        with pytest.raises(DomainError):
            require_orthonormal(frames)

    def test_immutable(self):
        b = Basis(np.eye(3)[:, :1])
        with pytest.raises(ValueError):
            b.columns[0, 0] = 2.0


class TestOrthonormalize:
    def test_simple(self):
        b = orthonormalize([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        G = b.columns.T @ b.columns
        np.testing.assert_allclose(G, np.eye(2), atol=1e-13)

    def test_spans_same_space(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((4, 7))
        b = orthonormalize(list(V))
        # each input vector reproduced by its projection
        for v in V:
            np.testing.assert_allclose(project(b, v), v, atol=1e-10)

    def test_rank_deficient_raises(self):
        with pytest.raises(RankError):
            orthonormalize([[1.0, 0.0], [2.0, 0.0]])

    def test_too_many_vectors(self):
        with pytest.raises(RankError):
            orthonormalize([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gram_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, d + 1))
        V = rng.standard_normal((m, d))
        b = orthonormalize(list(V))
        G = b.columns.T @ b.columns
        assert np.max(np.abs(G - np.eye(m))) <= 1e-12


class TestProject:
    def test_idempotent(self):
        rng = np.random.default_rng(5)
        b = orthonormalize(list(rng.standard_normal((3, 6))))
        v = rng.standard_normal(6)
        p1 = project(b, v)
        np.testing.assert_allclose(project(b, p1), p1, atol=1e-12)

    def test_in_span_fixed(self):
        b = Basis(np.eye(4)[:, :2])
        v = np.array([1.0, 2.0, 0.0, 0.0])
        np.testing.assert_allclose(project(b, v), v)

    def test_shape_check(self):
        with pytest.raises(DomainError):
            project(Basis(np.eye(3)[:, :1]), np.ones(4))


class TestMinNormSolution:
    def test_underdetermined(self):
        M = np.array([[1.0, 1.0, 0.0]])
        b = np.array([2.0])
        c = min_norm_solution(M, b)
        np.testing.assert_allclose(c, [1.0, 1.0, 0.0], atol=1e-12)

    def test_minimum_norm_among_solutions(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((2, 5))
        b = rng.standard_normal(2)
        c = min_norm_solution(M, b)
        # any perturbation in the null space only grows the norm
        N = rng.standard_normal(5)
        N -= np.linalg.lstsq(M, M @ N, rcond=None)[0] * 0  # keep N generic
        null = N - M.T @ np.linalg.solve(M @ M.T, M @ N)
        assert np.linalg.norm(c + 0.1 * null) >= np.linalg.norm(c) - 1e-12

    def test_inconsistent_returns_none(self):
        M = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([1.0, 2.0])
        assert min_norm_solution(M, b) is None

    def test_consistent_rank_deficient(self):
        M = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([1.5, 1.5])
        c = min_norm_solution(M, b)
        np.testing.assert_allclose(M @ c, b, atol=1e-10)

    def test_zero_rhs(self):
        M = np.array([[1.0, 2.0]])
        c = min_norm_solution(M, np.zeros(1))
        np.testing.assert_allclose(c, np.zeros(2), atol=1e-12)

    def test_shape_check(self):
        with pytest.raises(DomainError):
            min_norm_solution(np.eye(2), np.ones(3))

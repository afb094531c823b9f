"""Eigendecomposition contract, eigenspace selection, projections."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ugspectral.config import numeric_config
from ugspectral.linalg import (
    NumericError,
    eigendecompose,
    project_split,
    select_eigenspace,
    symmetrize,
)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


class TestSymmetrize:
    def test_rejects_non_square(self):
        with pytest.raises(NumericError):
            symmetrize(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            symmetrize(np.array([[0.0, np.inf], [0.0, 0.0]]))

    def test_symmetric_output(self):
        A = np.arange(9.0).reshape(3, 3)
        S = symmetrize(A)
        assert np.array_equal(S, S.T)


class TestEigendecompose:
    @given(st.integers(0, 10**6), st.integers(2, 30))
    @settings(max_examples=20, deadline=None)
    def test_residual_and_orthonormality(self, seed, n):
        A = random_symmetric(n, seed)
        vals, vecs = eigendecompose(A)
        tol = numeric_config().residual_tol
        scale = max(1.0, np.abs(vals).max())
        assert np.linalg.norm(A @ vecs - vecs * vals, axis=0).max() <= tol * scale
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= tol
        assert np.all(np.diff(vals) <= 0)  # sorted descending

    def test_reconstruction(self):
        A = random_symmetric(12, 7)
        vals, vecs = eigendecompose(A)
        assert np.abs((vecs * vals) @ vecs.T - A).max() <= numeric_config().aggregate_tol

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.array([[0.0, np.nan], [np.nan, 0.0]]),
                                     np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]])])
    def test_rejects_non_square_non_finite_and_non_symmetric(self, bad):
        """The input is decomposed as given, never re-symmetrised, so a
        matrix that is not exactly symmetric is an error."""
        with pytest.raises(NumericError):
            eigendecompose(bad)

    def test_deterministic(self):
        A = random_symmetric(9, 3)
        v1 = eigendecompose(A)
        v2 = eigendecompose(A.copy())
        assert np.array_equal(v1[0], v2[0]) and np.array_equal(v1[1], v2[1])


class TestSelectEigenspace:
    def test_high_window_boundary_inclusive(self):
        A = np.diag([3.0, 2.0, 1.0])
        W = select_eigenspace(A, 2.0, "adjacency-high")
        assert W.dim == 2
        assert set(np.round(W.eigenvalues, 12)) == {3.0, 2.0}

    def test_low_window_boundary_inclusive(self):
        A = np.diag([3.0, 2.0, 1.0])
        W = select_eigenspace(A, 2.0, "laplacian-low")
        assert W.dim == 2
        assert set(np.round(W.eigenvalues, 12)) == {1.0, 2.0}

    @pytest.mark.parametrize("mode,offset,dropped", [("adjacency-high", -1e-12, 1.0),
                                                     ("laplacian-low", 1e-12, 3.0)])
    def test_rounding_below_tolerance_stays_in_window(self, mode, offset, dropped):
        """An eigenvalue a rounding error past the threshold is kept, and
        the nearest eigenvalue outside the window is reported, one cut gap
        past the kept eigenvalue nearest the threshold."""
        W = select_eigenspace(np.diag([3.0, 2.0 + offset, 1.0]), 2.0, mode)
        assert W.dim == 2
        assert W.nearest_dropped == dropped
        assert W.cut_gap == pytest.approx(1.0, abs=1e-11)

    def test_nothing_dropped(self):
        W = select_eigenspace(np.diag([3.0, 2.0]), 1.0, "adjacency-high")
        assert W.dim == 2 and W.nearest_dropped == -np.inf
        assert W.cut_gap is None

    def test_empty_window(self):
        W = select_eigenspace(np.diag([1.0, 0.5]), 5.0, "adjacency-high")
        assert W.dim == 0
        assert W.cut_gap is None

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            select_eigenspace(np.eye(2), 0.5, "sideways")

    def test_basis_spans_invariant_subspace(self):
        A = random_symmetric(10, 11)
        W = select_eigenspace(A, 0.0, "adjacency-high")
        # A maps span(W) into itself: A B = B (B^T A B)
        B = W.basis
        assert np.abs(A @ B - B @ (B.T @ A @ B)).max() <= 1e-9


class TestProjectSplit:
    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_pythagoras(self, seed):
        A = random_symmetric(14, seed)
        W = select_eigenspace(A, 0.0, "adjacency-high")
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(14)
        s = project_split(x, W)
        assert s.alpha**2 + s.beta**2 == pytest.approx(np.dot(x, x), rel=1e-12)
        if s.parallel is not None and s.orthogonal is not None:
            assert np.dot(s.parallel, s.orthogonal) == pytest.approx(0.0, abs=1e-9)
            recon = s.alpha * s.parallel + s.beta * s.orthogonal
            assert np.abs(recon - x).max() <= 1e-9

    def test_vector_inside_space(self):
        A = random_symmetric(8, 2)
        W = select_eigenspace(A, 0.0, "adjacency-high")
        x = W.basis[:, 0]
        s = project_split(x, W)
        assert s.alpha == pytest.approx(1.0)
        assert s.beta == pytest.approx(0.0, abs=1e-12)
        assert s.orthogonal is None

    def test_zero_vector_rejected(self):
        A = random_symmetric(4, 0)
        W = select_eigenspace(A, 0.0, "adjacency-high")
        with pytest.raises(NumericError):
            project_split(np.zeros(4), W)

    def test_shape_mismatch(self):
        A = random_symmetric(4, 0)
        W = select_eigenspace(A, 0.0, "adjacency-high")
        with pytest.raises(NumericError):
            project_split(np.zeros(5), W)

    def test_basis_invariance(self):
        """alpha/beta depend only on the span, not on the basis chosen."""
        A = random_symmetric(10, 5)
        W = select_eigenspace(A, 0.0, "adjacency-high")
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((W.dim, W.dim)))
        W2 = type(W)(
            dim_ambient=W.dim_ambient,
            basis=W.basis @ Q,
            eigenvalues=W.eigenvalues,
            threshold=W.threshold,
            mode=W.mode,
        )
        x = rng.standard_normal(10)
        s1, s2 = project_split(x, W), project_split(x, W2)
        assert s1.alpha == pytest.approx(s2.alpha, abs=1e-10)
        assert s1.beta == pytest.approx(s2.beta, abs=1e-10)

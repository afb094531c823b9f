"""Eigendecomposition contract, eigenspace selection, projections."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import eigsh

from ugspectral.core import UGInstance
from ugspectral.generators import perturb, planted_regular_instance
from ugspectral.label_extended import build_label_extended, build_laplacian
from ugspectral.linalg import (
    RESIDUAL_TOL,
    NumericError,
    _sparse_window,
    eigendecompose,
    project_split,
    select_eigenspace,
)


# Largest entry of V diag(lambda) V^T - A for a 12 x 12 reconstruction.
RECONSTRUCTION_TOL = 1e-8


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


class TestEigendecompose:
    @given(st.integers(0, 10**6), st.integers(2, 30))
    @settings(max_examples=20, deadline=None)
    def test_residual_and_orthonormality(self, seed, n):
        A = random_symmetric(n, seed)
        vals, vecs = eigendecompose(A)
        tol = RESIDUAL_TOL
        scale = max(1.0, np.abs(vals).max())
        assert np.linalg.norm(A @ vecs - vecs * vals, axis=0).max() <= tol * scale
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= tol
        assert np.all(np.diff(vals) <= 0)  # sorted descending

    def test_reconstruction(self):
        A = random_symmetric(12, 7)
        vals, vecs = eigendecompose(A)
        assert np.abs((vecs * vals) @ vecs.T - A).max() <= RECONSTRUCTION_TOL

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


def _maxlin_operator(n, k, frac, seed):
    """Label-extended matrix of a planted Z_k Max-Lin instance on a random
    4-regular graph: its characters chi_j and chi_(k-j) give exactly
    degenerate eigenvalue pairs."""
    inst, planted, _ = planted_regular_instance(n, 4, k, seed=seed, constraint_family="maxlin")
    inst = perturb(inst, planted, frac, seed=seed + 1, constraint_family="maxlin")
    return build_label_extended(inst).matrix, "adjacency-high"


def _components_operator(n, k, frac, seed):
    """Laplacian of three disjoint planted instances on random 3-regular
    graphs with random permutations: one zero eigenvalue per component of
    the label-extended graph, k of them per unperturbed component."""
    parts = []
    for c in range(3):
        inst, planted, _ = planted_regular_instance(n // 6 * 2, 3, k, seed=seed + c)
        if c:
            inst = perturb(inst, planted, frac, seed=seed + 10 + c)
        parts.append(inst)
    offs = np.cumsum([0] + [p.n for p in parts])
    inst = UGInstance.from_arrays(
        int(offs[-1]), k,
        np.concatenate([p.u + o for p, o in zip(parts, offs)]),
        np.concatenate([p.v + o for p, o in zip(parts, offs)]),
        np.concatenate([p.w for p in parts]),
        np.concatenate([p.perm for p in parts]),
    )
    return build_laplacian(inst).matrix, "laplacian-low"


class TestSparseWindow:
    """The ARPACK window against the dense LAPACK one on the same matrix,
    passed to the sparse routine as CSR."""

    @given(st.sampled_from([_maxlin_operator, _components_operator]),
           st.sampled_from([(64, 4), (48, 6), (40, 8)]), st.sampled_from([0.0, 0.04]),
           st.integers(0, 10**4), st.integers(0, 11), st.booleans())
    @settings(max_examples=30, deadline=None)
    # The first call returns 6 of the 8 copies of 3.02875; when every call
    # restarted from one vector, the certificate call missed the other 2.
    @example(family=_maxlin_operator, size=(40, 8), frac=0.0, seed=544, j=8, on_cluster=False)
    def test_matches_dense(self, family, size, frac, seed, j, on_cluster):
        """Same dim W, eigenvalues and nearest dropped eigenvalue within
        residual_tol, same cut_gap sign and the same projector, with the
        threshold either on the j-th eigenvalue (its cluster sits on the
        threshold) or midway to the next distinct one."""
        A, mode = family(*size, frac, seed)
        vals = np.sort(np.linalg.eigvalsh(A))
        if mode == "adjacency-high":
            vals = vals[::-1]
        tol = RESIDUAL_TOL * max(1.0, np.abs(vals).max())
        t = vals[j]
        if not on_cluster:
            t = (t + vals[j:][np.abs(vals[j:] - t) > 1e-6][0]) / 2
        dense = select_eigenspace(A, t, mode)
        sparse = _sparse_window(scipy.sparse.csr_array(A), t, mode)
        assert sparse is not None
        assert sparse.dim == dense.dim >= j + 1
        assert np.abs(sparse.eigenvalues - dense.eigenvalues).max() <= tol
        assert abs(sparse.nearest_dropped - dense.nearest_dropped) <= tol
        assert np.sign(sparse.cut_gap) == np.sign(dense.cut_gap) == 1
        P = sparse.basis @ sparse.basis.T - dense.basis @ dense.basis.T
        assert np.abs(P).max() <= 1e-8
        assert np.abs(sparse.basis.T @ sparse.basis - np.eye(sparse.dim)).max() <= tol
        for W in (dense, sparse):
            assert W.max_residual <= tol

    def test_missed_copy_found_by_certificate(self, monkeypatch):
        """On this matrix the first eigsh call, for 16 pairs, returns 14
        inside the window at 3.3, which holds 16: Lanczos skipped copies of
        repeated eigenvalues.  The calls on the deflated operator find
        them."""
        calls = []

        def spy(*args, **kwargs):
            out = eigsh(*args, **kwargs)
            calls.append(out[0] - 4.0)  # op = A + cI with c = d = 4
            return out

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
        A, _ = _maxlin_operator(64, 8, 0.0, 3)
        sparse = _sparse_window(scipy.sparse.csr_array(A), 3.3, "adjacency-high")
        dense = select_eigenspace(A, 3.3, "adjacency-high")
        assert (calls[0] >= 3.3).sum() < dense.dim == sparse.dim
        assert np.abs(sparse.eigenvalues - dense.eigenvalues).max() <= 1e-9

    def test_large_window_falls_back_to_dense(self):
        A = scipy.sparse.csr_array(random_symmetric(40, 1))
        assert _sparse_window(A, 0.0, "adjacency-high") is None
        W = select_eigenspace(A, 0.0, "adjacency-high")
        dense = select_eigenspace(A.toarray(), 0.0, "adjacency-high")
        assert np.array_equal(W.eigenvalues, dense.eigenvalues)
        assert np.array_equal(W.basis, dense.basis)

    @pytest.mark.parametrize("threshold,dim", [(0.0, 600), (1.0, 0)])
    def test_zero_matrix_falls_back_to_dense(self, threshold, dim):
        """ARPACK stops on the zero operator (its Krylov space is empty); the
        dense path answers."""
        A = scipy.sparse.csr_array((600, 600))
        assert _sparse_window(A, threshold, "adjacency-high") is None
        assert select_eigenspace(A, threshold, "adjacency-high").dim == dim

    def test_rejects_non_symmetric_and_non_finite(self):
        A = scipy.sparse.csr_array(np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))
        with pytest.raises(NumericError):
            select_eigenspace(A, 0.0, "adjacency-high")
        A = scipy.sparse.csr_array(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(NumericError):
            select_eigenspace(A, 0.0, "adjacency-high")

    def test_deterministic(self):
        A = scipy.sparse.csr_array(_maxlin_operator(64, 4, 0.04, 7)[0])
        W1, W2 = (_sparse_window(A, 3.0, "adjacency-high") for _ in range(2))
        assert np.array_equal(W1.eigenvalues, W2.eigenvalues)
        assert np.array_equal(W1.basis, W2.basis)

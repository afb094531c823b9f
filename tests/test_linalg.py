"""Eigendecomposition contract, eigenspace selection, projections."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

import ugspectral.linalg as linalg_mod
from ugspectral.core import UGInstance
from ugspectral.generators import perturb, planted_regular_instance
from ugspectral.label_extended import build_label_extended, build_laplacian
from ugspectral.linalg import (
    RESIDUAL_TOL,
    SPARSE_BLOCK,
    DimensionAbortError,
    Eigenspace,
    NumericError,
    _sparse_window,
    eigendecompose,
    narrow_window,
    project_split,
    select_eigenspace,
)


# Largest entry of V diag(lambda) V^T - A for a 12 x 12 reconstruction.
RECONSTRUCTION_TOL = 1e-8

# A window side's sign: the low window of A is the window of -A.
SIGN = {"adjacency-high": 1.0, "laplacian-low": -1.0}


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
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(NumericError, match="threshold must be finite"):
            select_eigenspace(np.eye(3), threshold)

    def test_high_window_boundary_inclusive(self):
        A = np.diag([3.0, 2.0, 1.0])
        W = select_eigenspace(A, 2.0)
        assert W.dim == 2
        assert set(np.round(W.eigenvalues, 12)) == {3.0, 2.0}

    def test_low_window_boundary_inclusive(self):
        A = np.diag([3.0, 2.0, 1.0])
        W = select_eigenspace(-A, -2.0)
        assert W.dim == 2
        assert set(np.round(W.eigenvalues, 12)) == {-1.0, -2.0}

    @pytest.mark.parametrize("mode,offset,dropped", [("adjacency-high", -1e-12, 1.0),
                                                     ("laplacian-low", 1e-12, 3.0)])
    def test_rounding_below_tolerance_stays_in_window(self, mode, offset, dropped):
        """An eigenvalue a rounding error past the threshold is kept, and
        the nearest eigenvalue outside the window is reported, one cut gap
        past the kept eigenvalue nearest the threshold."""
        s = SIGN[mode]
        W = select_eigenspace(s * np.diag([3.0, 2.0 + offset, 1.0]), s * 2.0)
        assert W.dim == 2
        assert W.nearest_dropped == s * dropped
        assert W.cut_gap == pytest.approx(1.0, abs=1e-11)

    def test_nothing_dropped(self):
        W = select_eigenspace(np.diag([3.0, 2.0]), 1.0)
        assert W.dim == 2 and W.nearest_dropped == -np.inf
        assert W.cut_gap is None and W.dropped is None

    def test_empty_window(self):
        W = select_eigenspace(np.diag([1.0, 0.5]), 5.0)
        assert W.dim == 0
        assert W.cut_gap is None
        assert W.nearest_dropped == 1.0 and np.abs(W.dropped).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("mode, threshold, nearest", [("adjacency-high", 2.5, 2.0),
                                                          ("laplacian-low", 1.5, 2.0)])
    def test_dropped_is_the_nearest_eigenvector(self, mode, threshold, nearest):
        """On both sides the eigenvector of the dropped value nearest the
        cut, also where a narrower window is read off a wider one."""
        s = SIGN[mode]
        A = s * np.diag([3.0, 1.0, 2.0, 0.5])
        W = select_eigenspace(A, s * threshold)
        assert W.nearest_dropped == s * nearest and np.abs(W.dropped).tolist() == [0, 0, 1, 0]
        wide = select_eigenspace(A, s * (0.0 if mode == "adjacency-high" else 4.0))
        narrow = linalg_mod.narrow_window(A, wide, s * threshold)
        assert narrow.dim == W.dim and narrow.nearest_dropped == s * nearest
        assert np.abs(narrow.dropped).tolist() == [0, 0, 1, 0]

    @pytest.mark.parametrize("mode, threshold", [("adjacency-high", 0.5),
                                                 ("laplacian-low", -0.5)])
    def test_dense_window_narrows_the_full_decomposition(self, mode, threshold):
        """The dense window is narrow_window of every eigenpair, a window with
        nothing dropped, field for field and bit for bit, and aborts on
        max_dim with the same message."""
        A, threshold = SIGN[mode] * random_symmetric(12, 3), SIGN[mode] * threshold
        vals, vecs = eigendecompose(A)
        full = Eigenspace(vecs, vals, -np.inf)
        W, want = select_eigenspace(A, threshold), narrow_window(A, full, threshold)
        assert 0 < W.dim < 12
        for f in dataclasses.fields(Eigenspace):
            assert np.array_equal(getattr(W, f.name), getattr(want, f.name)), f.name
        with pytest.raises(DimensionAbortError) as dense:
            select_eigenspace(A, threshold, max_dim=1)
        with pytest.raises(DimensionAbortError) as narrow:
            narrow_window(A, full, threshold, max_dim=1)
        assert str(dense.value) == str(narrow.value) == f"dim(W)={W.dim} exceeds max_dim=1"

    def test_basis_spans_invariant_subspace(self):
        A = random_symmetric(10, 11)
        W = select_eigenspace(A, 0.0)
        # A maps span(W) into itself: A B = B (B^T A B)
        B = W.basis
        assert np.abs(A @ B - B @ (B.T @ A @ B)).max() <= 1e-9


class TestProjectSplit:
    @given(st.integers(0, 10**6), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_pythagoras(self, seed, hermitian):
        """Also for the complex window of a Hermitian matrix, which projects
        with the conjugate transpose of its basis."""
        A = random_hermitian(14, seed, 0.5) if hermitian else random_symmetric(14, seed)
        W = select_eigenspace(A, 0.0)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(14)
        alpha, beta = project_split(x, W)
        assert alpha**2 + beta**2 == pytest.approx(np.dot(x, x), rel=1e-12)
        # alpha is the norm of the coefficients in the orthonormal basis.
        assert alpha == pytest.approx(np.linalg.norm(W.basis.conj().T @ x), rel=1e-12)

    def test_vector_inside_space(self):
        A = random_symmetric(8, 2)
        W = select_eigenspace(A, 0.0)
        x = W.basis[:, 0]
        alpha, beta = project_split(x, W)
        assert alpha == pytest.approx(1.0)
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        A = random_symmetric(4, 0)
        W = select_eigenspace(A, 0.0)
        with pytest.raises(NumericError):
            project_split(np.zeros(4), W)

    def test_shape_mismatch(self):
        A = random_symmetric(4, 0)
        W = select_eigenspace(A, 0.0)
        with pytest.raises(NumericError):
            project_split(np.zeros(5), W)

    def test_basis_invariance(self):
        """alpha/beta depend only on the span, not on the basis chosen."""
        A = random_symmetric(10, 5)
        W = select_eigenspace(A, 0.0)
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((W.dim, W.dim)))
        W2 = type(W)(basis=W.basis @ Q, eigenvalues=W.eigenvalues)
        x = rng.standard_normal(10)
        assert project_split(x, W) == pytest.approx(project_split(x, W2), abs=1e-10)


def _maxlin_operator(n, k, frac, seed):
    """Label-extended matrix of a planted Z_k Max-Lin instance on a random
    4-regular graph: its characters chi_j and chi_(k-j) give exactly
    degenerate eigenvalue pairs."""
    inst, planted, _ = planted_regular_instance(n, 4, k, seed=seed, constraint_family="maxlin")
    inst = perturb(inst, planted, frac, seed=seed + 1, constraint_family="maxlin")
    return build_label_extended(inst).matrix


def _components_operator(n, k, frac, seed):
    """Negated Laplacian of three disjoint planted instances on random
    3-regular graphs with random permutations: one zero eigenvalue per
    component of the label-extended graph, k of them per unperturbed
    component."""
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
    return -build_laplacian(inst).matrix


class TestSparseWindow:
    """The filtered window against the dense LAPACK one on the same matrix,
    passed to the sparse routine as CSR."""

    @given(st.sampled_from([_maxlin_operator, _components_operator]),
           st.sampled_from([(64, 4), (48, 6), (40, 8)]), st.sampled_from([0.0, 0.04]),
           st.integers(0, 10**4), st.integers(0, 11), st.booleans())
    @settings(max_examples=30, deadline=None)
    # Eight copies of 3.02875 at the window's edge, of which a Lanczos run
    # from one start vector returned only 6.
    @example(family=_maxlin_operator, size=(40, 8), frac=0.0, seed=544, j=8, on_cluster=False)
    # Six copies of 3.0344, the nearest dropped eigenvalue, straddle column
    # 16.  The filter damps up to the block's smallest Ritz value, one of
    # them, so unless the block grows the cluster never converges.
    @example(family=_maxlin_operator, size=(48, 6), frac=0.0, seed=0, j=6, on_cluster=False)
    def test_matches_dense(self, family, size, frac, seed, j, on_cluster):
        """Same dim W, eigenvalues and nearest dropped eigenvalue within
        residual_tol, same cut_gap sign and the same projector, with the
        threshold either on the j-th eigenvalue (its cluster sits on the
        threshold) or midway to the next distinct one."""
        A = family(*size, frac, seed)
        vals = np.sort(np.linalg.eigvalsh(A))[::-1]
        tol = RESIDUAL_TOL * max(1.0, np.abs(vals).max())
        t = vals[j]
        if not on_cluster:
            t = (t + vals[j:][np.abs(vals[j:] - t) > 1e-6][0]) / 2
        dense = select_eigenspace(A, t)
        sparse = _sparse_window(scipy.sparse.csr_array(A), t)
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
            # dropped is a unit eigenvector of nearest_dropped outside W.
            x = W.dropped
            assert np.linalg.norm(A @ x - W.nearest_dropped * x) <= tol
            assert abs(np.linalg.norm(x) - 1) <= tol and np.abs(W.basis.T @ x).max() <= 1e-8

    def test_narrow_window_keeps_the_solver_record(self):
        """A window read off a filtered solve carries that solve's record."""
        A = _maxlin_operator(64, 8, 0.0, 3)
        wide = select_eigenspace(A, 3.3)
        narrow = linalg_mod.narrow_window(A, wide, 3.9)
        assert wide.solver["path"] == "filtered" and wide.solver["passes"] > 0
        assert narrow.dim < wide.dim and narrow.solver == wide.solver

    def test_missed_copy_found_by_certificate(self):
        """The window at 3.3 holds 16 eigenvalues, the width of the first
        block, so every Ritz value is kept and nothing certifies the cut:
        the block grows, and every copy is found with the dense eigenvalues."""
        A = _maxlin_operator(64, 8, 0.0, 3)
        sparse = _sparse_window(A, 3.3)
        dense = select_eigenspace(A.toarray(), 3.3)
        assert sparse.dim == dense.dim == SPARSE_BLOCK
        assert sparse.solver["block"] > SPARSE_BLOCK and sparse.solver["passes"] > 0
        assert (dense.solver["passes"], dense.solver["block"]) == (0, 0)
        assert np.abs(sparse.eigenvalues - dense.eigenvalues).max() <= 1e-9
        assert np.abs(sparse.basis.T @ dense.basis @ dense.basis.T @ sparse.basis
                      - np.eye(dense.dim)).max() <= 1e-8

    def test_pass_cap_falls_back_to_dense(self, monkeypatch):
        """One filter pass does not converge this window, so the capped solve
        gives up after exactly that pass and select_eigenspace answers as the
        dense path does."""
        A = _maxlin_operator(64, 8, 0.04, 7)
        monkeypatch.setattr(linalg_mod, "SPARSE_MAX_PASSES", 1)
        filters = []
        chebyshev = linalg_mod._chebyshev
        monkeypatch.setattr(linalg_mod, "_chebyshev",
                            lambda *args: filters.append(1) or chebyshev(*args))
        assert _sparse_window(A, 3.0) is None
        assert len(filters) == 1
        W = select_eigenspace(A, 3.0)
        dense = select_eigenspace(A.toarray(), 3.0)
        assert np.array_equal(W.eigenvalues, dense.eigenvalues)
        assert np.array_equal(W.basis, dense.basis)

    def test_singular_gram_falls_back_to_householder_qr(self, monkeypatch):
        """Where Cholesky QR fails on a numerically singular Gram matrix, the
        block is orthonormalised by np.linalg.qr and the window still matches
        the dense one."""
        A = _maxlin_operator(64, 4, 0.04, 7)
        failed = []
        cholesky = np.linalg.cholesky

        def fail_once(G):
            if not failed:
                failed.append(1)
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(G)

        monkeypatch.setattr(np.linalg, "cholesky", fail_once)
        sparse = _sparse_window(scipy.sparse.csr_array(A), 3.0)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        dense = select_eigenspace(A, 3.0)
        assert failed and sparse is not None
        assert sparse.dim == dense.dim > 0
        assert np.abs(sparse.eigenvalues - dense.eigenvalues).max() <= 1e-9
        P = sparse.basis @ sparse.basis.T - dense.basis @ dense.basis.T
        assert np.abs(P).max() <= 1e-8
        assert np.abs(sparse.basis.T @ sparse.basis - np.eye(sparse.dim)).max() <= 1e-9

    def test_sparse_solve_leaves_scipy_sparse_linalg_unloaded(self):
        """A solve on the filtered path, of a real symmetric matrix or of a
        Max-Lin pair's complex Hermitian block, imports scipy.sparse only;
        loading scipy.sparse.linalg as well costs about 10 MiB of memory."""
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from ugspectral.generators import planted_regular_instance
            from ugspectral.label_extended import build_label_extended
            from ugspectral.linalg import select_eigenspace
            inst, _, _ = planted_regular_instance(64, 4, 8, seed=3, constraint_family="maxlin")
            W = select_eigenspace(build_label_extended(inst).matrix, 3.3)
            assert W.solver["block"] > 0, "expected the filtered path"
            from ugspectral.maxlin import MaxLinInstance, character_blocks
            inst, _, _ = planted_regular_instance(400, 4, 8, seed=3, constraint_family="maxlin")
            j, H = next(character_blocks(MaxLinInstance.from_instance(inst)))
            W = select_eigenspace(H, 3.6)
            assert H.format == "csr" and np.iscomplexobj(W.basis), "expected a Hermitian block"
            assert W.solver["block"] > 0, "expected the filtered path"
            print("scipy.sparse" in sys.modules, "scipy.sparse.linalg" in sys.modules)
        """)
        src = str(Path(linalg_mod.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.split() == ["True", "False"]

    def test_large_window_falls_back_to_dense(self):
        A = scipy.sparse.csr_array(random_symmetric(40, 1))
        assert _sparse_window(A, 0.0) is None
        W = select_eigenspace(A, 0.0)
        dense = select_eigenspace(A.toarray(), 0.0)
        assert np.array_equal(W.eigenvalues, dense.eigenvalues)
        assert np.array_equal(W.basis, dense.basis)

    @pytest.mark.parametrize("threshold,dim", [(0.0, 600), (1.0, 0)])
    def test_zero_matrix_falls_back_to_dense(self, threshold, dim):
        """The zero matrix has Gershgorin bound c = 0, so op = A + cI carries
        no spectrum to filter; the dense path answers."""
        A = scipy.sparse.csr_array((600, 600))
        assert _sparse_window(A, threshold) is None
        assert select_eigenspace(A, threshold).dim == dim

    def test_rejects_non_symmetric_and_non_finite(self):
        A = scipy.sparse.csr_array(np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))
        with pytest.raises(NumericError):
            select_eigenspace(A, 0.0)
        A = scipy.sparse.csr_array(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(NumericError):
            select_eigenspace(A, 0.0)
        # nan != nan fails the symmetry check first; inf reaches the finiteness
        # check, which the filtered path runs itself rather than leaving to
        # the dense fallback.
        A = scipy.sparse.csr_array(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        with pytest.raises(NumericError, match="non-finite"):
            _sparse_window(A, 0.0)

    def test_dense_and_sparse_storage_share_the_window(self):
        """Both paths widen the cut by RESIDUAL_TOL * max(1, c), c the
        Gershgorin bound.  A 3-leaf star Laplacian of weight 100 (lambda_max
        400, c 600) beside diag(1..300), cut 5e-7 below the eigenvalue 10,
        keeps it whichever way it is stored; widened by max|lambda|, the
        dense path dropped it."""
        A = np.diag(np.r_[np.zeros(4), np.arange(1.0, 301.0)])
        A[:4, :4] = 100.0 * np.array([[3, -1, -1, -1], [-1, 1, 0, 0],
                                      [-1, 0, 1, 0], [-1, 0, 0, 1]])
        assert np.abs(A).sum(axis=1).max() == 600.0
        t = 10 - 5e-7
        dense = select_eigenspace(-A, -t)
        sparse = select_eigenspace(scipy.sparse.csr_array(-A), -t)
        assert dense.dim == sparse.dim == 11
        assert dense.nearest_dropped == -11.0
        assert sparse.nearest_dropped == pytest.approx(-11.0, abs=1e-9)

    def test_deterministic(self):
        A = scipy.sparse.csr_array(_maxlin_operator(64, 4, 0.04, 7))
        W1, W2 = (_sparse_window(A, 3.0) for _ in range(2))
        assert np.array_equal(W1.eigenvalues, W2.eigenvalues)
        assert np.array_equal(W1.basis, W2.basis)


def random_hermitian(n, seed, fill):
    """A random complex Hermitian matrix with about ``fill`` of its entries
    nonzero, a real diagonal and exactly A == A^H."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A *= rng.random((n, n)) < fill
    return (A + A.conj().T) / 2


class TestHermitian:
    """select_eigenspace on complex Hermitian matrices, whose dense and
    filtered paths solve in complex arithmetic, against np.linalg.eigh."""

    @given(seed=st.integers(0, 10**6), n=st.sampled_from([12, 40, 160]), csr=st.booleans(),
           mode=st.sampled_from(["adjacency-high", "laplacian-low"]), j=st.integers(0, 5),
           on_value=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_eigh(self, seed, n, csr, mode, j, on_value):
        """Same dim W, eigenvalues within the residual contract, the same
        projector B B^H onto W, and an orthonormal complex basis, with the
        threshold on the j-th eigenvalue from the kept end or midway to the
        next one."""
        H = random_hermitian(n, seed, 0.05 if n > 40 else 0.5)
        vals, vecs = np.linalg.eigh(H)  # ascending
        if mode == "adjacency-high":
            vals, vecs = vals[::-1], vecs[:, ::-1]
        t = vals[j] if on_value else (vals[j] + vals[j + 1]) / 2
        s = SIGN[mode]
        W = select_eigenspace(scipy.sparse.csr_array(s * H) if csr else s * H, s * t)
        tol = RESIDUAL_TOL * max(1.0, np.abs(vals).max())
        assert W.dim == j + 1 and np.iscomplexobj(W.basis)
        assert np.abs(W.eigenvalues - np.sort(s * vals[:j + 1])[::-1]).max() <= tol  # descending
        assert W.max_residual <= tol
        assert np.abs(W.basis.conj().T @ W.basis - np.eye(W.dim)).max() <= tol
        P = W.basis @ W.basis.conj().T - vecs[:, :j + 1] @ vecs[:, :j + 1].conj().T
        assert np.abs(P).max() <= 1e-8
        assert abs(W.nearest_dropped - s * vals[j + 1]) <= tol

    def test_block_has_the_real_width(self):
        """A Hermitian CSR matrix iterates on SPARSE_BLOCK // 2 complex
        columns, reported as SPARSE_BLOCK real ones, as its real embedding's
        block would be."""
        H = scipy.sparse.csr_array(random_hermitian(400, 1, 0.01))
        W = select_eigenspace(H, np.linalg.eigvalsh(H.toarray())[-2])
        assert W.dim == 2 and W.solver["path"] == "filtered"
        assert W.solver["block"] == SPARSE_BLOCK

    @pytest.mark.parametrize("csr", [False, True])
    @pytest.mark.parametrize("bad", [np.array([[0.0, 1j], [1j, 0.0]]),  # A == A^T, not A^H
                                     np.array([[1j, 0.0], [0.0, 0.0]]),
                                     np.array([[complex(np.inf, 0), 1j], [-1j, 0.0]]),
                                     np.array([[0.0, complex(1, np.nan)], [1.0, 0.0]])])
    def test_rejects_non_hermitian_and_non_finite(self, bad, csr):
        """Symmetric but not Hermitian, a non-real diagonal, and a
        non-finite entry: NumericError on the dense and the filtered path."""
        with pytest.raises(NumericError):
            select_eigenspace(scipy.sparse.csr_array(bad) if csr else bad, 0.0)

"""Symmetric eigendecomposition, eigenspace selection and projections.

A dense matrix is decomposed whole by LAPACK's symmetric solver
(numpy.linalg.eigh), the small-size path and the reference.  For a
scipy.sparse matrix select_eigenspace finds the window with ARPACK
(scipy.sparse.linalg.eigsh) instead, asking only for the eigenpairs inside
it and one certificate past its edge, and falls back to eigh on the
densified matrix when the window is a large share of the spectrum.  Both
paths meet the residual/orthonormality contract below and are
deterministic for a fixed input.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .core import AbortError

# Relative tolerance of the eigenpair contract (residual, orthonormality)
# and of the window cut.
RESIDUAL_TOL = 1e-9


class NumericError(AbortError):
    pass


@dataclass
class Eigenspace:
    """Orthonormal basis of a spectral window of a symmetric matrix.

    mode 'adjacency-high' keeps eigenvalues >= threshold; 'laplacian-low'
    keeps eigenvalues <= threshold.  ``basis`` has shape (dim_ambient, dim).
    """

    dim_ambient: int
    basis: np.ndarray
    eigenvalues: np.ndarray
    threshold: float
    mode: str
    # Nearest eigenvalue outside the window; -inf/+inf (high/low) if none.
    nearest_dropped: float = float("nan")
    # Largest eigenpair residual ||A x - lambda x|| over the basis.
    max_residual: float = float("nan")

    @property
    def dim(self):
        return self.basis.shape[1]

    @property
    def cut_gap(self) -> float | None:
        """Distance from the kept eigenvalue nearest the threshold to
        ``nearest_dropped``, positive for a clean cut; None if nothing was
        kept or nothing dropped."""
        if self.dim == 0 or not np.isfinite(self.nearest_dropped):
            return None
        if self.mode == "adjacency-high":
            return float(self.eigenvalues.min() - self.nearest_dropped)
        return float(self.nearest_dropped - self.eigenvalues.max())


@dataclass
class ProjectionSplit:
    """Norms of the components of x inside (alpha) and orthogonal to
    (beta) a subspace; alpha^2 + beta^2 = ||x||^2."""

    alpha: float
    beta: float


def eigendecompose(A):
    """All eigenpairs of a symmetric matrix, sorted descending by eigenvalue.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns, as
    reversed views of LAPACK's ascending output.  A is decomposed as given
    (a sparse matrix densified): NumericError unless it is square, finite
    and exactly symmetric.
    """
    A = np.asarray(A.toarray() if _is_sparse(A) else A, dtype=np.float64)
    if not np.all(np.isfinite(A)):
        raise NumericError("matrix has non-finite entries")
    if A.ndim != 2 or not np.array_equal(A, A.T):  # unequal shapes if not square
        raise NumericError(f"expected an exactly symmetric matrix, got shape {A.shape}")
    vals, vecs = np.linalg.eigh(A)
    return vals[::-1], vecs[:, ::-1]


def select_eigenspace(A, threshold, mode) -> Eigenspace:
    """Maximal eigenspace of A on one side of a threshold.

    mode 'adjacency-high': eigenvalues >= threshold (the high window W of an
    adjacency matrix); 'laplacian-low': eigenvalues <= threshold.  Values
    within RESIDUAL_TOL * max(1, c) of the threshold, c the Gershgorin bound
    of A (``_window_cut``), count as on the kept side, so a cluster of
    numerically equal eigenvalues sitting on the threshold is kept whole
    rather than split by rounding, and a dense and a sparse A get the same
    window.  A sparse A takes the windowed ARPACK path (``_sparse_window``)
    unless the window is too large a share of the spectrum.
    """
    if mode not in ("adjacency-high", "laplacian-low"):
        raise ValueError(f"unknown mode {mode!r}")
    if not np.isfinite(threshold):
        raise NumericError("threshold must be finite")
    if _is_sparse(A):
        W = _sparse_window(A, float(threshold), mode)
        if W is not None:
            return W
    else:
        A = np.asarray(A, dtype=np.float64)
    vals, vecs = eigendecompose(A)
    sign, c, cut = _window_cut(A, threshold, mode)
    keep = sign * vals + c >= cut
    nearest = sign * (sign * vals[~keep]).max(initial=-np.inf)
    return _eigenspace(A, vals[keep], np.ascontiguousarray(vecs[:, keep]), threshold, mode, nearest)


def _window_cut(A, threshold, mode):
    """(sign, c, cut): the window is the top of the operator sign*A + cI,
    c = max_i sum_j |A_ij| >= max|lambda| the Gershgorin bound, and keeps
    the eigenvalues mu of that operator with mu >= cut."""
    sign = 1.0 if mode == "adjacency-high" else -1.0
    c = float(abs(A).sum(axis=1).max(initial=0.0))
    return sign, c, sign * threshold + c - RESIDUAL_TOL * max(1.0, c)


def _eigenspace(A, vals, basis, threshold, mode, nearest) -> Eigenspace:
    residual = np.linalg.norm(A @ basis - basis * vals, axis=0).max(initial=0.0)
    return Eigenspace(
        dim_ambient=basis.shape[0],
        basis=basis,
        eigenvalues=vals,
        threshold=float(threshold),
        mode=mode,
        nearest_dropped=float(nearest),
        max_residual=float(residual),
    )


def _is_sparse(A) -> bool:
    # A matrix can only be sparse once scipy.sparse is loaded; checking
    # sys.modules keeps the dense path from importing it.
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(A)


SPARSE_BLOCK = 16        # eigenpairs asked of the first eigsh call
SPARSE_MAX_SHARE = 0.25  # densify once the pairs asked for exceed this share of dim


def _sparse_window(A, threshold, mode) -> Eigenspace | None:
    """select_eigenspace for a sparse A by ARPACK, or None where the dense
    path should take over.

    Both modes search the top of one positive semidefinite operator,
    op = A + cI (adjacency-high) or cI - A (laplacian-low), with the c and
    cut of ``_window_cut``.  Each eigsh call asks the operator deflated by
    the pairs kept so far (op restricted to their orthogonal complement)
    for a block of eigenpairs and keeps those inside the window.  Lanczos
    can return one copy too few of a repeated eigenvalue, so the cut is
    certified only by a call that finds nothing left inside the window: the
    largest eigenvalue of the deflated operator then lies outside it, and it
    is ``nearest_dropped``.  The block doubles after a call that kept all it
    found, and is one pair after a call that kept some.  Each call starts
    from a new draw of one seeded generator, so a solve is deterministic:
    the copies one Lanczos run misses are, in exact arithmetic, orthogonal
    to its start vector, so a rerun from it would see them only through
    rounding.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import ArpackError, eigsh

    A = sp.csr_array(A)
    dim = A.shape[0]
    if A.shape != (dim, dim) or (A != A.T).nnz:
        raise NumericError(f"expected an exactly symmetric matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.data)):
        raise NumericError("matrix has non-finite entries")
    sign, c, cut = _window_cut(A, threshold, mode)
    op = (sign * A + c * sp.eye_array(dim, format="csr")).tocsr()
    rng = np.random.default_rng(0)
    basis, mu = np.zeros((dim, 0)), np.zeros(0)
    block = SPARSE_BLOCK
    while True:
        if basis.shape[1] + block > SPARSE_MAX_SHARE * dim:
            return None
        try:
            found, X = eigsh(_deflated(op, basis), k=block, which="LA",
                             v0=rng.standard_normal(dim))
        except ArpackError:  # no convergence, or a zero operator's Krylov space
            return None
        keep = found >= cut
        if not keep.any():
            break
        basis, mu = np.hstack([basis, X[:, keep]]), np.concatenate([mu, found[keep]])
        block = 2 * block if keep.all() else 1
    order = np.argsort(-sign * mu, kind="stable")  # descending eigenvalue
    vals = sign * (mu[order] - c)
    nearest = sign * (found.max() - c)
    return _eigenspace(A, vals, np.ascontiguousarray(basis[:, order]), threshold, mode, nearest)


def _deflated(op, V):
    """op restricted to the orthogonal complement of V's columns (zero on
    span V); op itself when V is empty."""
    from scipy.sparse.linalg import LinearOperator

    if not V.shape[1]:
        return op

    def matvec(x):
        x = x.ravel()
        y = op @ (x - V @ (V.T @ x))
        return y - V @ (V.T @ y)

    return LinearOperator(op.shape, matvec=matvec, dtype=np.float64)


def project_split(x, S: Eigenspace) -> ProjectionSplit:
    """Split x into its components inside and orthogonal to span(S)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (S.dim_ambient,):
        raise NumericError(f"vector shape {x.shape} != ambient dim {S.dim_ambient}")
    if np.linalg.norm(x) == 0:
        raise NumericError("cannot split the zero vector")
    parallel = S.basis @ (S.basis.T @ x)
    return ProjectionSplit(alpha=float(np.linalg.norm(parallel)),
                           beta=float(np.linalg.norm(x - parallel)))

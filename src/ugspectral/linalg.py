"""Symmetric or Hermitian eigendecomposition, eigenspace selection and
projections.

select_eigenspace converts its input once, any scipy.sparse matrix to a CSR
array and anything else to an ndarray.  A dense matrix is decomposed whole
by LAPACK (numpy.linalg.eigh), the small-size path and the reference; a
sparse one by Chebyshev-filtered block subspace iteration (Zhou, Saad, Tiago
and Chelikowsky, J. Comput. Phys. 2006) on sparse-times-block products and
numpy.linalg, or by eigh where that does not pay or converge.  Either solve
is cut in one place, narrow_window's rule, which reports the nearest
eigenpair past the window's edge with its residual.  Both paths meet the
residual and orthonormality contract below on the kept pairs and are
deterministic for a fixed input.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .core import AbortError

# Relative tolerance of the eigenpair contract (residual, orthonormality)
# and of the window cut.
RESIDUAL_TOL = 1e-9


class NumericError(AbortError):
    pass


class DimensionAbortError(AbortError):
    """dim W exceeds max_dim: ``dim`` is its count, or with ``at_least`` a
    lower bound on it."""

    def __init__(self, dim, max_dim, at_least=False):
        self.dim, self.max_dim, self.at_least = dim, max_dim, at_least
        super().__init__(f"dim(W){' >= ' if at_least else '='}{dim} exceeds max_dim={max_dim}")


@dataclass(frozen=True, eq=False)
class Eigenspace:
    """Orthonormal basis of the eigenvalues >= a threshold of a symmetric or
    Hermitian matrix, complex for a complex one; a low window of A is the
    top of -A.  ``basis`` has shape (dim_ambient, dim).  A frozen record,
    built whole; ``narrow_window`` builds every window of one matrix.

    Every kept pair has residual at most RESIDUAL_TOL * max(1, r), r the
    largest |eigenvalue| found.  The nearest dropped pair is an eigenpair
    to rounding on the dense path; a filtered solve only certifies it
    below the cut (``_sparse_window``), so an eigenvalue lies within
    ``dropped_residual`` of ``nearest_dropped``, and ``cut_gap`` is
    accurate to that residual."""

    basis: np.ndarray
    eigenvalues: np.ndarray
    # Nearest eigenvalue outside the window; -inf if none.
    nearest_dropped: float = float("nan")
    dropped: np.ndarray | None = None  # an eigenvector of nearest_dropped; None if none
    # ||A x - nearest_dropped x|| of x = dropped; None if none.
    dropped_residual: float | None = None
    # Largest eigenpair residual ||A x - lambda x|| over the basis.
    max_residual: float = float("nan")
    # Its solve, as SolveReport.eigensolver prints it; dense by default.
    solver: dict = field(default_factory=lambda: dict(path="dense", passes=0, block=0,
                                                      products=0))

    @property
    def dim_ambient(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    @property
    def cut_gap(self) -> float | None:
        """The least kept eigenvalue minus ``nearest_dropped``, positive for
        a clean cut; None if nothing was kept or nothing dropped."""
        if self.dim == 0 or not np.isfinite(self.nearest_dropped):
            return None
        return float(self.eigenvalues.min() - self.nearest_dropped)


def dense_symmetric(A) -> np.ndarray:
    """A as a float64 or, if complex, complex128 array (a sparse matrix
    densified): NumericError unless square, finite and exactly A == A^H."""
    A = np.asarray(A.toarray() if _is_sparse(A) else A, dtype=_field(A))
    if not np.all(np.isfinite(A)):
        raise NumericError("matrix has non-finite entries")
    if A.ndim != 2 or not np.array_equal(A, A.conj().T):  # unequal shapes if not square
        raise NumericError(f"expected an exactly symmetric matrix, got shape {A.shape}")
    return A


def _field(A):
    """The dtype A is solved in: complex128 for a complex A, else float64."""
    return np.complex128 if np.iscomplexobj(A) else np.float64


def eigendecompose(A):
    """All eigenpairs of A, checked by ``dense_symmetric``, sorted descending
    by eigenvalue: (eigenvalues, eigenvectors in columns), as reversed views
    of LAPACK's ascending output."""
    vals, vecs = np.linalg.eigh(dense_symmetric(A))
    return vals[::-1], vecs[:, ::-1]


def select_eigenspace(A, threshold, max_dim=None) -> Eigenspace:
    """Maximal eigenspace of A with eigenvalues >= threshold (the high window
    W of an adjacency matrix; the low window of a Laplacian L is this window
    of -L at the negated threshold), A an array or any scipy.sparse matrix.
    Values within RESIDUAL_TOL * max(1, c) below the threshold, c the
    Gershgorin bound of A (``_window_cut``), are kept, so a cluster of
    numerically equal eigenvalues sitting on the threshold is kept whole
    rather than split by rounding, and a dense and a sparse A get the same
    window.  A sparse A takes the filtered path (``_sparse_window``), which
    converges the kept pairs and only certifies the nearest dropped one
    below the cut (``Eigenspace.dropped_residual``), unless it falls back to
    the full dense decomposition; narrow_window's rule cuts either.  With
    ``max_dim`` either path raises DimensionAbortError once it knows
    dim W > max_dim, from the Ritz values (filtered) or the kept count.
    """
    if not np.isfinite(threshold):
        raise NumericError("threshold must be finite")
    A = _converted(A)
    W = _sparse_window(A, float(threshold), max_dim) if _is_sparse(A) else None
    if W is None:
        vals, vecs = eigendecompose(A)
        W = narrow_window(A, Eigenspace(vecs, vals, -np.inf), threshold, max_dim)
    return W


def narrow_window(A, S: Eigenspace, threshold, max_dim=None) -> Eigenspace:
    """select_eigenspace(A, threshold, max_dim) read off S, a window of A whose
    threshold is at or below this one, its eigenvalues descending as every
    window's are: S's eigenpairs at or above the threshold by the window's
    cut, with nearest_dropped (and dropped) the nearest of the rest of S, or
    S's own if none is left, the residuals of both and S's solver, A
    converted as select_eigenspace converts it.  DimensionAbortError on more
    than ``max_dim`` kept, before any residual is computed."""
    A = _converted(A)
    return _narrow(A, S, *_window_cut(A, threshold), max_dim)


def _narrow(A, S: Eigenspace, c, cut, max_dim) -> Eigenspace:
    """narrow_window of a converted A at the cut of ``_window_cut``, c its
    Gershgorin bound, in one product of A with the kept columns and the
    nearest dropped one."""
    count = int(np.count_nonzero(S.eigenvalues + c >= cut))  # a prefix, as S's values descend
    if max_dim is not None and count > max_dim:
        raise DimensionAbortError(count, max_dim)
    vals, basis = S.eigenvalues[:count], np.ascontiguousarray(S.basis[:, :count])
    if count == S.dim:
        near, dropped, r_d = S.nearest_dropped, S.dropped, S.dropped_residual
        res = _residual_norms(A @ basis - basis * vals, c)
    else:
        near, dropped = float(S.eigenvalues[count]), S.basis[:, count].copy()
        X = np.column_stack([basis, dropped])
        res = _residual_norms(A @ X - X * np.append(vals, near), c)
        res, r_d = res[:-1], float(res[-1])
    return Eigenspace(basis, vals, float(near), dropped, r_d, float(res.max(initial=0.0)),
                      S.solver)


def _residual_norms(R, c):
    """The column norms of a residual block R of a matrix of Gershgorin
    bound c, taken of R / c and scaled back, so that no square overflows
    where the entries pass about 1e154 (R = 0 where c = 0)."""
    c = c or 1.0
    return np.linalg.norm(R / c, axis=0) * c


def _converted(A):
    """A in its field (``_field``): a CSR array if sparse, else an ndarray."""
    convert = sys.modules["scipy.sparse"].csr_array if _is_sparse(A) else np.asarray
    return convert(A, dtype=_field(A))


def _window_cut(A, threshold):
    """(c, cut): the window keeps the eigenvalues mu >= cut of the operator
    A + cI, c = max_i sum_j |A_ij| >= max|lambda| the Gershgorin bound."""
    c = float(abs(A).sum(axis=1).max(initial=0.0))
    return c, threshold + c - RESIDUAL_TOL * max(1.0, c)


def _is_sparse(A) -> bool:
    # A matrix can only be sparse once scipy.sparse is loaded; checking
    # sys.modules keeps the dense path from importing it.
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(A)


SPARSE_BLOCK = 16        # columns of the first filtered block
SPARSE_MAX_SHARE = 0.25  # densify once the block would exceed this share of dim
SPARSE_MAX_PASSES = 50   # densify after this many filter passes


def _sparse_window(A, threshold, max_dim=None) -> Eigenspace | None:
    """The window of a CSR array A by Chebyshev-filtered subspace
    iteration, its converged Ritz block cut by narrow_window's rule, or
    None where the dense path should take over.

    It searches the top of op = A + cI, c and cut from ``_window_cut``,
    whose spectrum lies in [0, 2c].  Each pass filters a seeded random
    block, damping [0, b] for b its smallest Ritz value, and runs
    Rayleigh-Ritz.  It stops once every Ritz pair at or past the cut has
    residual at most tol = RESIDUAL_TOL * max(1, r), r the largest |Ritz
    value| as an eigenvalue of A, so r <= max|lambda| as in the dense
    contract, and the largest one below it, the window's nearest dropped
    (mu_d, r_d), has r_d <= max(tol, (cut - mu_d) / 2): an eigenvalue lies
    in [mu_d - r_d, mu_d + r_d], below the cut, which is all the window
    needs of that pair.  Where no Ritz value reaches the cut the window
    keeps nothing, and its top pair converges to tol all the same, as
    ``maxlin.character_net`` rounds that eigenvector.
    The block doubles while every Ritz value is kept or the nearest dropped
    one lies within 1% of the Ritz spread above b, where the filter cannot
    part its cluster from those below.  By Cauchy interlacing the i-th
    largest Ritz value is at most the i-th largest eigenvalue of op, so
    more than ``max_dim`` Ritz values at or past the cut prove dim W >
    max_dim and raise DimensionAbortError.  None if c = 0, if the block would
    pass SPARSE_MAX_SHARE of dim or after SPARSE_MAX_PASSES passes.  Like a
    Krylov start vector, the seeded block misses an eigenvector inside the
    window only if it is orthogonal to it.  A complex Hermitian A iterates
    on complex columns, each drawn as two real ones and counted as two in
    block widths, so its first block has SPARSE_BLOCK // 2 of them.  The
    solver record counts the sparse block products: the Rayleigh-Ritz and
    filter ones, and the cut's residual product.
    """
    import scipy.sparse as sp

    dim, r = A.shape[0], 1 + np.iscomplexobj(A)  # r: real columns per column
    if A.shape != (dim, dim) or (A != A.conj().T).nnz:
        raise NumericError(f"expected an exactly symmetric matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.data)):
        raise NumericError("matrix has non-finite entries")
    c, cut = _window_cut(A, threshold)
    # op stores its whole diagonal, zeros too, for _chebyshev to shift.
    diag = np.arange(dim)
    op = sp.csr_array((np.r_[A.data, np.full(dim, c)],
                       (np.r_[np.repeat(diag, np.diff(A.indptr)), diag], np.r_[A.indices, diag])),
                      shape=A.shape)
    rng = np.random.default_rng(0)
    X, passes, products = rng.standard_normal((dim, SPARSE_BLOCK)).view(A.dtype), 0, 0
    while c and X.shape[1] <= SPARSE_MAX_SHARE * dim:
        try:  # Cholesky QR, twice, on unit-norm columns
            for _ in range(2):
                X = X / np.linalg.norm(X, axis=0)
                X = X @ np.linalg.inv(np.linalg.cholesky(X.conj().T @ X)).conj().T
        except np.linalg.LinAlgError:  # a numerically singular Gram matrix
            X = np.linalg.qr(X)[0]
        AX = op @ X
        mu, Y = np.linalg.eigh(X.conj().T @ AX)  # ascending Ritz values
        X, AX, products = X @ Y, AX @ Y, products + 1
        edge = np.searchsorted(mu - c + c, cut) - 1  # nearest dropped by narrow_window; -1: none
        if max_dim is not None and len(mu) - 1 - edge > max_dim:
            raise DimensionAbortError(len(mu) - 1 - edge, max_dim, at_least=True)
        res = _residual_norms(AX - X * mu, c)
        tol = RESIDUAL_TOL * max(1.0, np.abs(mu - c).max())
        # The kept pairs converged, the nearest dropped one certified below
        # the cut (converged where nothing is kept).
        if edge >= 0 and res[edge + 1:].max(initial=0.0) <= tol and (
                res[edge] <= tol or edge < len(mu) - 1 and res[edge] <= (cut - mu[edge]) / 2):
            solver = dict(path="filtered", passes=passes, block=r * X.shape[1],
                          products=products + 1)  # + the cut's residual product
            return _narrow(A, Eigenspace(X[:, ::-1], mu[::-1] - c, -np.inf, solver=solver),
                           c, cut, max_dim)
        if edge < 0 or mu[edge] - mu[0] <= 0.01 * (mu[-1] - mu[0]):
            X = np.hstack([X, rng.standard_normal((dim, r * X.shape[1])).view(A.dtype)])
        elif passes < SPARSE_MAX_PASSES:
            X, m = _chebyshev(op, X, mu[0], mu[-1])
            passes, products = passes + 1, products + m
        else:  # the Ritz pairs of the last allowed pass did not converge
            return None
    return None


def _chebyshev(op, X, b, top):
    """(T_m(t(op)) X, m) for t mapping [0, b] onto [-1, 1], op a CSR array
    storing its whole diagonal: the three-term recurrence
    T_(j+1) = 2 t T_j - T_(j-1), one product and one subtraction per
    degree, on one CSR of 2 t(op) built from op's arrays.  It damps the
    components in [0, b], and its degree amplifies top, the largest Ritz
    value, ~1e8 over them; unscaled, the block grows by that factor, which
    the next pass's orthonormalisation divides out."""
    import scipy.sparse as sp

    e = max(b, 1e-3 * top) / 2  # a b rounded to 0 or below damps [0, top/1000]
    m = int(min(np.ceil(np.arccosh(1e8) / np.arccosh((top - e) / e)), 100))  # the degree
    data = op.data * (2 / e)  # 2 t(op) = (2 / e) op - 2 I
    data[op.indices == np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))] -= 2
    S = sp.csr_array((data, op.indices, op.indptr), shape=op.shape)
    Z0, Z = X, S @ X
    Z *= 0.5  # T_1 = t
    for _ in range(m - 1):
        T = S @ Z
        T -= Z0
        Z0, Z = Z, T
    return Z, m


def project_split(x, S: Eigenspace) -> tuple[float, float]:
    """(alpha, beta): the norms of the components of x inside and orthogonal
    to span(S), so alpha^2 + beta^2 = ||x||^2; x and S real or complex."""
    x = np.asarray(x, dtype=_field(x))
    if x.shape != (S.dim_ambient,):
        raise NumericError(f"vector shape {x.shape} != ambient dim {S.dim_ambient}")
    if np.linalg.norm(x) == 0:
        raise NumericError("cannot split the zero vector")
    parallel = S.basis @ (S.basis.conj().T @ x)
    return float(np.linalg.norm(parallel)), float(np.linalg.norm(x - parallel))

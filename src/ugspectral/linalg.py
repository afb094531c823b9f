"""Symmetric or Hermitian eigendecomposition, eigenspace selection and
projections.

A dense real symmetric or complex Hermitian matrix is decomposed whole by
LAPACK (numpy.linalg.eigh), the small-size path and the reference.  For a
scipy.sparse matrix select_eigenspace finds the window by Chebyshev-filtered
block subspace iteration instead (Zhou, Saad, Tiago and Chelikowsky, J.
Comput. Phys. 2006), which needs only sparse-times-block products and
numpy.linalg, and certifies the cut by the nearest eigenpair past its edge.
It falls back to eigh on the densified matrix when the window is a large
share of the spectrum or the iteration does not converge.  Both paths meet
the residual/orthonormality contract below and are deterministic for a
fixed input.
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


@dataclass
class Eigenspace:
    """Orthonormal basis of a spectral window of a symmetric or Hermitian
    matrix, complex for a complex one.

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
    dropped: np.ndarray | None = None  # an eigenvector of nearest_dropped; None if none
    # Largest eigenpair residual ||A x - lambda x|| over the basis.
    max_residual: float = float("nan")
    # Its solve, as SolveReport.eigensolver prints it; dense by default.
    solver: dict = field(default_factory=lambda: dict(path="dense", passes=0, block=0))

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


def select_eigenspace(A, threshold, mode, max_dim=None) -> Eigenspace:
    """Maximal eigenspace of A on one side of a threshold.

    mode 'adjacency-high': eigenvalues >= threshold (the high window W of an
    adjacency matrix); 'laplacian-low': eigenvalues <= threshold.  Values
    within RESIDUAL_TOL * max(1, c) of the threshold, c the Gershgorin bound
    of A (``_window_cut``), count as on the kept side, so a cluster of
    numerically equal eigenvalues sitting on the threshold is kept whole
    rather than split by rounding, and a dense and a sparse A get the same
    window.  A sparse A takes the filtered path (``_sparse_window``) unless
    it falls back to the dense one, which cuts the full decomposition, a
    window with nothing dropped, by ``narrow_window``.  With ``max_dim``
    either path raises DimensionAbortError once it knows dim W > max_dim:
    from the Ritz values (filtered) or the kept count (dense).
    """
    if mode not in ("adjacency-high", "laplacian-low"):
        raise ValueError(f"unknown mode {mode!r}")
    if not np.isfinite(threshold):
        raise NumericError("threshold must be finite")
    if _is_sparse(A):
        W = _sparse_window(A, float(threshold), mode, max_dim)
        if W is not None:
            return W
    else:
        A = np.asarray(A, dtype=_field(A))
    vals, vecs = eigendecompose(A)
    edge = -np.inf if mode == "adjacency-high" else np.inf  # past every eigenvalue
    return narrow_window(A, Eigenspace(len(vals), vecs, vals, edge, mode, edge), threshold, max_dim)


def narrow_window(A, S: Eigenspace, threshold, max_dim=None) -> Eigenspace:
    """select_eigenspace(A, threshold, S.mode, max_dim) read off S, a window
    of A on the same side whose threshold is at or outside this one, its
    eigenvalues descending as every window's are: S's eigenpairs past the
    threshold by the same cut, with nearest_dropped (and dropped) the nearest
    of the rest of S, or S's own if none is left, and S's solver.  Raises
    DimensionAbortError on more than ``max_dim`` kept, before any residual
    is computed."""
    sign, c, cut = _window_cut(A, threshold, S.mode)
    keep = sign * S.eigenvalues + c >= cut
    count = int(np.count_nonzero(keep))
    if max_dim is not None and count > max_dim:
        raise DimensionAbortError(count, max_dim)
    # The dropped values run descending (high) or ascending (low) from the cut.
    out = np.flatnonzero(~keep)[:: int(sign)]
    i = out[0] if len(out) else None  # the nearest of them
    W = _eigenspace(A, S.eigenvalues[keep], np.ascontiguousarray(S.basis[:, keep]), threshold,
                    S.mode, S.nearest_dropped if i is None else S.eigenvalues[i])
    W.dropped = S.dropped if i is None else S.basis[:, i].copy()
    W.solver = S.solver
    return W


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


SPARSE_BLOCK = 16        # columns of the first filtered block
SPARSE_MAX_SHARE = 0.25  # densify once the block would exceed this share of dim
SPARSE_MAX_PASSES = 50   # densify after this many filter passes


def _sparse_window(A, threshold, mode, max_dim=None) -> Eigenspace | None:
    """select_eigenspace for a sparse A by Chebyshev-filtered subspace
    iteration, or None where the dense path should take over.

    Both modes search the top of op = A + cI (adjacency-high) or cI - A
    (laplacian-low), c and cut from ``_window_cut``, whose spectrum lies in
    [0, 2c].  Each pass filters a seeded random block, damping [0, b] for b
    its smallest Ritz value, and runs Rayleigh-Ritz.  It stops once every
    Ritz pair inside the window and the largest below it (``nearest_dropped``)
    has residual at most RESIDUAL_TOL * max(1, r), r the largest |Ritz value|
    as an eigenvalue of A, so r <= max|lambda| as in the dense contract.
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
    block widths, so its first block has SPARSE_BLOCK // 2 of them.
    """
    import scipy.sparse as sp

    A = sp.csr_array(A, dtype=_field(A))
    dim, r = A.shape[0], 1 + np.iscomplexobj(A)  # r: real columns per column
    if A.shape != (dim, dim) or (A != A.conj().T).nnz:
        raise NumericError(f"expected an exactly symmetric matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.data)):
        raise NumericError("matrix has non-finite entries")
    sign, c, cut = _window_cut(A, threshold, mode)
    op = (sign * A + c * sp.eye_array(dim, format="csr")).tocsr()
    rng = np.random.default_rng(0)
    X, passes = rng.standard_normal((dim, SPARSE_BLOCK)).view(A.dtype), 0
    while c and X.shape[1] <= SPARSE_MAX_SHARE * dim:
        try:  # Cholesky QR, twice, on unit-norm columns
            for _ in range(2):
                X = X / np.linalg.norm(X, axis=0)
                X = X @ np.linalg.inv(np.linalg.cholesky(X.conj().T @ X)).conj().T
        except np.linalg.LinAlgError:  # a numerically singular Gram matrix
            X = np.linalg.qr(X)[0]
        AX = op @ X
        mu, Y = np.linalg.eigh(X.conj().T @ AX)  # ascending Ritz values
        X, AX = X @ Y, AX @ Y
        edge = np.searchsorted(mu, cut) - 1  # the nearest dropped; -1 if none
        if max_dim is not None and len(mu) - 1 - edge > max_dim:
            raise DimensionAbortError(len(mu) - 1 - edge, max_dim, at_least=True)
        res = np.linalg.norm(AX - X * mu, axis=0)
        if edge >= 0 and res[edge:].max() <= RESIDUAL_TOL * max(1.0, np.abs(mu - c).max()):
            break
        if edge < 0 or mu[edge] - mu[0] <= 0.01 * (mu[-1] - mu[0]):
            X = np.hstack([X, rng.standard_normal((dim, r * X.shape[1])).view(A.dtype)])
        elif passes < SPARSE_MAX_PASSES:
            X, passes = _chebyshev(op, X, mu[0], mu[-1]), passes + 1
        else:  # the Ritz pairs of the last allowed pass did not converge
            return None
    else:
        return None
    keep = np.arange(edge + 1, len(mu))[::-int(sign)]  # descending eigenvalue
    W = _eigenspace(A, sign * (mu[keep] - c), np.ascontiguousarray(X[:, keep]), threshold, mode,
                    sign * (mu[edge] - c))
    W.dropped = X[:, edge].copy()
    W.solver = dict(path="filtered", passes=passes, block=r * X.shape[1])
    return W


def _chebyshev(op, X, b, top):
    """T_m(t(op)) X / T_m(t(top)) for t mapping [0, b] onto [-1, 1], by
    Zhou and Saad's scaled three-term recurrence: it damps the components
    in [0, b], and its degree amplifies top, the largest Ritz value, ~1e8."""
    import scipy.sparse as sp

    e = max(b, 1e-3 * top) / 2  # a b rounded to 0 or below damps [0, top/1000]
    sigma = rho = e / (top - e)  # 1 / t(top)
    S = (op - e * sp.eye_array(op.shape[0], format="csr")) * (1 / (top - e))  # t(op) / t(top)
    m = int(min(np.ceil(np.arccosh(1e8) / np.arccosh(1 / sigma)), 100))  # the degree
    Z0, Z = X, S @ X
    for _ in range(m - 1):  # (2 S Z - sigma rho Z0) / (2 - sigma rho), in place
        T = S @ Z
        T *= 2 / (2 - sigma * rho)
        T -= sigma * rho / (2 - sigma * rho) * Z0
        Z0, Z, rho = Z, T, sigma / (2 - sigma * rho)
    return Z


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

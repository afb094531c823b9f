"""Dense symmetric eigendecomposition, eigenspace selection and projections.

Backed by LAPACK's symmetric solver (numpy.linalg.eigh), which meets the
residual/orthonormality contract below and is deterministic for a fixed
input.  Matrices at desk scale are nk <= ~4096 so dense is fine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import numeric_config
from .core import UGError


class NumericError(UGError):
    pass


def symmetrize(A) -> np.ndarray:
    """Return (A + A^T)/2 after validating shape and finiteness."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NumericError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NumericError("matrix has non-finite entries")
    return (A + A.T) / 2.0


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
    """Decomposition x = alpha * parallel + beta * orthogonal with both
    components unit length (orthogonal is None when beta == 0)."""

    alpha: float
    beta: float
    parallel: np.ndarray | None
    orthogonal: np.ndarray | None


def eigendecompose(A):
    """All eigenpairs of a symmetric matrix, sorted descending by eigenvalue.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns, as
    reversed views of LAPACK's ascending output.  A is decomposed as given:
    NumericError unless it is square, finite and exactly symmetric.
    """
    A = np.asarray(A, dtype=np.float64)
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
    within residual_tol * max(1, max|lambda|) of the threshold count as on
    the kept side, so a cluster of numerically equal eigenvalues sitting on
    the threshold is kept whole rather than split by rounding.
    """
    if mode not in ("adjacency-high", "laplacian-low"):
        raise ValueError(f"unknown mode {mode!r}")
    if not np.isfinite(threshold):
        raise NumericError("threshold must be finite")
    vals, vecs = eigendecompose(A)
    tol = numeric_config().residual_tol * max(1.0, float(np.abs(vals).max(initial=0.0)))
    if mode == "adjacency-high":
        keep = vals >= threshold - tol
        nearest = vals[~keep].max(initial=-np.inf)
    else:
        keep = vals <= threshold + tol
        nearest = vals[~keep].min(initial=np.inf)
    return Eigenspace(
        dim_ambient=vecs.shape[0],
        basis=np.ascontiguousarray(vecs[:, keep]),
        eigenvalues=vals[keep],
        threshold=float(threshold),
        mode=mode,
        nearest_dropped=float(nearest),
    )


def project_split(x, S: Eigenspace) -> ProjectionSplit:
    """Split x into its components inside and orthogonal to span(S)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (S.dim_ambient,):
        raise NumericError(f"vector shape {x.shape} != ambient dim {S.dim_ambient}")
    norm = np.linalg.norm(x)
    if norm == 0:
        raise NumericError("cannot split the zero vector")
    coeffs = S.basis.T @ x
    parallel = S.basis @ coeffs
    residual = x - parallel
    alpha = float(np.linalg.norm(parallel))
    beta = float(np.linalg.norm(residual))
    tol = numeric_config().residual_tol * norm
    return ProjectionSplit(
        alpha=alpha,
        beta=beta,
        parallel=parallel / alpha if alpha > tol else None,
        orthogonal=residual / beta if beta > tol else None,
    )

"""Eigenspace enumeration and assignment recovery.

The solver selects the high eigenspace W of the label-extended adjacency
matrix (eigenvalues >= (1-gamma)d) or the low eigenspace of its Laplacian
(eigenvalues <= gamma*d_avg) and streams candidates: a lattice epsilon-net
of the unit ball of W with coefficient step sqrt(2*eps/(gamma*dim W)), then
the signed basis vectors, in chunks.  It reads a labeling off each by
per-block argmax, scores each distinct labeling of the whole stream once
and keeps the first candidate of maximum satisfied weight.  The YES/NO
decision compares that value to a threshold derived from the guarantee
1 - O(eps/(gamma-8*eps) + eps).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .config import numeric_config
from .core import UGInstance, UGError, characteristic_vector, validate_labeling, value_batch
from .label_extended import build_label_extended, build_laplacian
from .linalg import Eigenspace, project_split, select_eigenspace


YES_CONSTANT = 10.0  # the O(.) constant of the YES threshold


class NonRegularError(UGError):
    pass


class DegenerateSpectrumError(UGError):
    pass


class DimensionAbortError(UGError):
    pass


class NetTooLargeError(UGError):
    pass


@dataclass
class SolveParams:
    epsilon: float
    gamma: float
    max_dim: int = 8
    mode: str = "adjacency"  # 'adjacency' | 'laplacian'
    net_step_override: float | None = None
    yes_threshold_override: float | None = None

    def validate(self, strict=True):
        if not (0 < self.epsilon < 1):
            raise UGError(f"epsilon must be in (0,1), got {self.epsilon}")
        if strict and not (self.gamma > 8 * self.epsilon):
            raise UGError(
                f"gamma must exceed 8*epsilon (gamma={self.gamma}, 8*eps={8 * self.epsilon})"
            )
        if self.max_dim < 1:
            raise UGError("max_dim must be >= 1")
        if self.mode not in ("adjacency", "laplacian"):
            raise UGError(f"unknown mode {self.mode!r}")
        if self.net_step_override is not None and self.net_step_override <= 0:
            raise UGError("net step override must be positive")


@dataclass
class SolveReport:
    best_labeling: np.ndarray
    best_value: float
    decision: str  # 'YES' | 'NO'
    yes_threshold: float
    dim_W: int
    net_points_evaluated: int
    eigen_time: float
    enumeration_time: float
    net_step: float
    mode: str
    cut_gap: float | None = None  # Eigenspace.cut_gap of W
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        d = {
            "best_labeling": [int(x) for x in self.best_labeling],
            "best_value": self.best_value,
            "decision": self.decision,
            "yes_threshold": self.yes_threshold,
            "dim_W": self.dim_W,
            "net_points_evaluated": self.net_points_evaluated,
            "eigen_time": self.eigen_time,
            "enumeration_time": self.enumeration_time,
            "net_step": self.net_step,
            "mode": self.mode,
            "cut_gap": self.cut_gap,
        }
        d.update(self.extras)
        return d


def read_off_assignment(x, n, k) -> np.ndarray:
    """Per-block argmax labeling; ties break to the smallest label index."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n * k,):
        raise UGError(f"vector length {x.shape} != n*k = {n * k}")
    if not np.all(np.isfinite(x)):
        raise UGError("non-finite entries in read-off vector")
    return read_off_batch(x[None, :], n, k)[0]


def read_off_batch(X, n, k) -> np.ndarray:
    """Per-block argmax labelings of the rows of a (batch, n*k) array."""
    return np.argmax(X.reshape(-1, n, k), axis=2)


def _net_radius2(dim, step):
    """Squared coefficient-space radius of the net: 1/step plus half the
    lattice cell diagonal, so that rounding the coefficients of any vector
    of norm <= 1 lands inside the net.  This is what makes the covering
    radius exactly step*sqrt(dim)/2 over the whole closed unit ball."""
    return (1.0 / step + np.sqrt(dim) / 2.0) ** 2 * (1 + 1e-12)


def net_size(dim, step) -> int:
    """Exact number of lattice points in the net, by dynamic programming
    over the integer sum of squares."""
    if dim < 1 or step <= 0:
        raise UGError("net requires dim >= 1 and step > 0")
    r2 = int(np.floor(_net_radius2(dim, step)))
    m = int(np.floor(np.sqrt(r2)))
    counts = np.zeros(r2 + 1, dtype=object)
    counts[0] = 1
    for _ in range(dim):
        nxt = np.zeros(r2 + 1, dtype=object)
        for z in range(-m, m + 1):
            z2 = z * z
            if z2 <= r2:
                nxt[z2:] += counts[: r2 + 1 - z2]
        counts = nxt
    return int(counts.sum())


def _lattice_chunks(dim, step, chunk=8192) -> Iterator[np.ndarray]:
    """Integer lattice points z with ||z||^2 <= _net_radius2(dim, step), in
    lexicographic order over coordinate tuples, yielded as (batch, dim)
    arrays."""
    limit2 = _net_radius2(dim, step)
    buf = []
    point = [0] * dim

    def rec(i, remaining2):
        m = int(np.floor(np.sqrt(remaining2))) if remaining2 > 0 else 0
        if i == dim - 1:
            for z in range(-m, m + 1):
                point[i] = z
                buf.append(tuple(point))
            return
        for z in range(-m, m + 1):
            point[i] = z
            rec(i + 1, remaining2 - z * z)

    # Chunked driver: enumerate the first coordinate outermost so memory
    # stays bounded for large nets.
    m0 = int(np.floor(np.sqrt(limit2)))
    for z0 in range(-m0, m0 + 1):
        point[0] = z0
        if dim == 1:
            buf.append((z0,))
        else:
            rec(1, limit2 - z0 * z0)
        while len(buf) >= chunk:
            yield np.array(buf[:chunk], dtype=np.int64)
            del buf[:chunk]
    if buf:
        yield np.array(buf, dtype=np.int64)


def enumerate_net(basis: Eigenspace, step: float) -> Iterator[np.ndarray]:
    """Stream every net vector sum_s alpha_s w(s), alpha_s in step*Z, with
    coefficient norm at most 1 + step*sqrt(dim)/2, exactly once in
    lexicographic coefficient order, as (chunk, dim_ambient) arrays.  The
    extra half-cell-diagonal of slack beyond the unit ball guarantees every
    vector of norm <= 1 has a net point within step*sqrt(dim)/2 of it.
    Raises NetTooLargeError before yielding if the net exceeds the cap."""
    dim = basis.dim
    if dim < 1:
        raise UGError("empty basis")
    total = net_size(dim, step)
    cap = numeric_config().net_cap
    if total > cap:
        raise NetTooLargeError(
            f"net would have {total} points (> cap {cap}) at dim={dim}, step={step}"
        )
    for Z in _lattice_chunks(dim, step):
        yield (Z * step) @ basis.basis.T


def select_search_space(inst: UGInstance, params: SolveParams):
    """Build the matrix for the requested mode and select W.

    Returns (eigenspace, d) where d is the degree scale: the regular degree
    in adjacency mode, the average degree in laplacian mode.
    """
    if params.mode == "adjacency":
        if not inst.is_regular():
            raise NonRegularError(
                "adjacency mode requires a d-regular constraint graph; "
                "use laplacian mode for non-regular instances"
            )
        lem = build_label_extended(inst)
        d = lem.d_avg
        W = select_eigenspace(lem.matrix, (1 - params.gamma) * d, "adjacency-high")
    else:
        lem = build_laplacian(inst)
        d = lem.d_avg
        W = select_eigenspace(lem.matrix, params.gamma * d, "laplacian-low")
    return W, d


def default_yes_threshold(params: SolveParams) -> float:
    if params.yes_threshold_override is not None:
        return params.yes_threshold_override
    eps, gamma = params.epsilon, params.gamma
    if gamma <= 8 * eps:
        raise UGError("default yes-threshold needs gamma > 8*epsilon; pass an override")
    t = 1.0 - YES_CONSTANT * (eps / (gamma - 8 * eps) + eps)
    return float(min(max(t, 1e-12), 1.0 - 1e-12))


def recover_solution(inst: UGInstance, params: SolveParams, strict=True) -> SolveReport:
    """The main solver: read off a labeling from every candidate vector (the
    epsilon-net of W, then the signed basis vectors) and return the first
    labeling of maximum value."""
    params.validate(strict=strict)
    threshold = default_yes_threshold(params)
    t0 = time.perf_counter()
    W, d = select_search_space(inst, params)
    eigen_time = time.perf_counter() - t0
    dim = W.dim
    if dim == 0:
        raise DegenerateSpectrumError(
            f"no eigenvalues in the selected window (mode={params.mode}, gamma={params.gamma})"
        )
    if dim > params.max_dim:
        raise DimensionAbortError(
            f"dim(W)={dim} exceeds max_dim={params.max_dim} "
            f"(mode={params.mode}, threshold scale d={d})"
        )
    step = params.net_step_override
    if step is None:
        step = float(np.sqrt(2 * params.epsilon / (params.gamma * dim)))

    n, k = inst.n, inst.k
    narrow = np.min_scalar_type(k - 1)
    row = np.dtype((np.void, n * narrow.itemsize))
    t1 = time.perf_counter()
    # Signed basis vectors follow the net as candidates so a one-dimensional
    # W cannot be missed by lattice misalignment.
    signed = np.concatenate([W.basis.T, -W.basis.T], axis=0)
    distinct, candidates = {}, 0
    for X in itertools.chain(enumerate_net(W, step), [signed]):
        # Each labeling, cast to the narrowest dtype holding k - 1, is one
        # opaque row; the dict keeps first occurrences in stream order.
        labels = np.ascontiguousarray(read_off_batch(X, n, k), dtype=narrow)
        distinct.update(dict.fromkeys(labels.view(row).ravel().tolist()))
        candidates += len(X)
    labelings = np.frombuffer(b"".join(distinct), narrow).reshape(-1, n)
    vals = value_batch(inst, labelings)
    # argmax takes the first maximum: the first candidate in stream order.
    i = int(np.argmax(vals))
    best_value, best_labeling = float(vals[i]), labelings[i].astype(np.int64)
    enumeration_time = time.perf_counter() - t1

    return SolveReport(
        best_labeling=best_labeling,
        best_value=best_value,
        decision="YES" if best_value >= threshold else "NO",
        yes_threshold=threshold,
        dim_W=dim,
        net_points_evaluated=candidates - len(signed),
        eigen_time=eigen_time,
        enumeration_time=enumeration_time,
        net_step=step,
        mode=params.mode,
        cut_gap=W.cut_gap,
    )


def closeness_diagnostic(inst: UGInstance, planted, params: SolveParams):
    """(alpha, beta) split of the normalized planted characteristic vector
    against the selected eigenspace W."""
    params.validate()
    L = validate_labeling(inst, planted)
    W, _ = select_search_space(inst, params)
    if W.dim == 0:
        raise DegenerateSpectrumError("empty eigenspace")
    y = characteristic_vector(L, inst.k, normalized=True)
    split = project_split(y, W)
    return split.alpha, split.beta

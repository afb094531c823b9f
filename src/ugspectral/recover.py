"""Eigenspace enumeration and assignment recovery.

The solver selects the high eigenspace W of the label-extended adjacency
matrix (eigenvalues >= (1-theta)d) or of its negated Laplacian -L (>=
-theta*d_avg, the low window of L), where theta defaults to gamma, and
streams candidates as coefficient rows: the lattice epsilon-net of the
unit ball of W's twisted part (step*Z^t points over the t twisted columns
of W's split basis, ``split_lifted``, step sqrt(2*eps/(theta*dim W))),
then the +-identity rows over the whole split basis, the signed basis
vectors, then any further candidates the window solve supplies as rows over
a basis of their own (Max-Lin's character net).  One coefficient stream owns
the net cap and the chunking, at most core.BATCH_BYTES bytes of ambient
vectors per chunk.

A labeling is read off each candidate by per-vertex-block argmax without
forming the candidate: read_off_batch multiplies a chunk of coefficient rows
by one label's block of the basis at a time (a label-major copy of the basis,
label_blocks) and keeps a running maximum per vertex, so the working set is
a (rows, n) buffer, 1/k of the ambient chunk.  The solver scores each
distinct labeling of the whole stream once and keeps the first candidate of
maximum satisfied weight (without edges, the first net point alone).  The
YES/NO decision compares that value to a threshold derived from the
guarantee 1 - O(eps/(gamma-8*eps) + eps), whatever theta.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import core
from .core import (
    AbortError,
    UGError,
    UGInstance,
    characteristic_vector,
    validate_labeling,
    value_batch,
)
from .label_extended import build_label_extended, build_laplacian
from .linalg import RESIDUAL_TOL, DimensionAbortError, project_split, select_eigenspace


YES_CONSTANT = 10.0  # the O(.) constant of the YES threshold
NET_CAP = 10**8  # most net points net_coefficients streams before NetTooLargeError


class NonRegularError(UGError):
    pass


class DegenerateSpectrumError(AbortError):
    pass


class NetTooLargeError(AbortError):
    pass


@dataclass
class SolveParams:
    epsilon: float
    gamma: float
    max_dim: int = 8
    mode: str = "adjacency"  # 'adjacency' | 'laplacian'
    net_step_override: float | None = None
    theta: float | None = None  # the search window; None searches at gamma

    @property
    def window(self):
        """The search window: W is cut at (1-window)d (adjacency) or
        window*d (laplacian); the YES threshold always comes from gamma."""
        return self.gamma if self.theta is None else self.theta

    def validate(self):
        if not (0 < self.epsilon < 1):
            raise UGError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not (self.gamma > 8 * self.epsilon):
            raise UGError(
                f"gamma must exceed 8*epsilon (gamma={self.gamma}, 8*eps={8 * self.epsilon})"
            )
        if not math.isfinite(self.gamma):
            raise UGError(f"gamma must be finite, got {self.gamma}")
        if not (0 < self.window <= self.gamma):
            raise UGError(f"need 0 < theta <= gamma, got theta={self.theta}, gamma={self.gamma}")
        if not core._is_int(self.max_dim) or self.max_dim < 1:
            raise UGError("max_dim must be >= 1")
        if self.mode not in ("adjacency", "laplacian"):
            raise UGError(f"unknown mode {self.mode!r}")
        step = self.net_step_override
        if step is not None and not 0 < step < math.inf:
            raise UGError(f"net step override must be positive and finite, got {step}")


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
    dropped_residual: float | None = None  # Eigenspace.dropped_residual of W
    max_residual: float = float("nan")  # Eigenspace.max_residual of W
    distinct_labelings: int = 0  # distinct candidate labelings scored
    value_path: str | None = None  # UGInstance.value_path: 'pair-table' | 'edge'
    signed_candidates: int = 0  # signed basis vectors read off after the net
    held_dims: int = 0  # dimension of W's lifted part, which the net leaves out
    # Seconds per stage: operator (its build) and eigensolve, whose sum is
    # eigen_time, then walk (the net's coefficient stream), readoff, dedupe
    # and scoring, whose sum is enumeration_time.
    stages: dict = field(default_factory=dict)
    eigensolver: dict = field(default_factory=dict)  # W.solver: path, passes, block, products
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return core.report_dict(self)


def read_off_assignment(x, n, k) -> np.ndarray:
    """Per-block argmax labeling; ties break to the smallest label index."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n * k,):
        raise UGError(f"vector length {x.shape} != n*k = {n * k}")
    if not np.all(np.isfinite(x)):
        raise UGError("non-finite entries in read-off vector")
    return read_off_batch(np.ones((1, 1)), x.reshape(n, k).T[:, None, :])[0].astype(np.int64)


def label_blocks(basis, k) -> np.ndarray:
    """Label-major copy of an (n*k, dim) basis: blocks[j, :, v] is row
    v*k + j, the coordinates of label j at vertex v, as a (k, dim, n)
    C-ordered array, so that each label's product is row-major."""
    nk, dim = basis.shape
    return np.ascontiguousarray(basis.reshape(nk // k, k, dim).transpose(1, 2, 0))


def split_lifted(basis, k) -> tuple[np.ndarray, np.ndarray]:
    """(B, T): an (n*k, dim) orthonormal basis of W with its lifted part
    split off, and a copy of its t twisted columns.  Column s's lifted mass
    K_ss = ||P1 b_s||^2 = k ||block means of b_s||^2, P1 = I_n (x) J_k/k,
    is 1 for a lift f (x) 1 and 0 for a twisted vector.  Columns with
    K_ss >= 1 - 2 RESIDUAL_TOL are lifted and the others twisted; those
    above 2 RESIDUAL_TOL and below 1 - 2 RESIDUAL_TOL, which mix a lifted
    and a twisted eigenvector of a shared eigenvalue, are first re-based in
    place by the eigenvectors of their block of K = B^T P1 B, ascending.
    A basis already split is returned as it is."""
    means = basis.reshape(-1, k, basis.shape[1]).mean(axis=1)
    mass = k * np.einsum("vs,vs->s", means, means)
    mixed = (mass > 2 * RESIDUAL_TOL) & (mass < 1 - 2 * RESIDUAL_TOL)
    if mixed.any():
        mass[mixed], V = np.linalg.eigh(k * means[:, mixed].T @ means[:, mixed])
        basis = basis.copy()
        basis[:, mixed] = basis[:, mixed] @ V
    return basis, basis[:, mass < 1 - 2 * RESIDUAL_TOL]


def read_off_batch(C, blocks) -> np.ndarray:
    """Per-block argmax labelings of the vectors C @ B.T, B the basis that
    ``blocks = label_blocks(B, k)`` lays out by label, as a (rows, n) array
    of the narrowest dtype holding k - 1.

    Label j's coordinates C @ blocks[j] land in one reused (rows, n)
    buffer; a strictly greater value takes the vertex, so ties go to the
    smallest label, as with np.argmax."""
    k = len(blocks)
    narrow = np.min_scalar_type(k - 1)
    best = C @ blocks[0]
    x, gt = np.empty_like(best), np.empty(best.shape, dtype=bool)
    labels, jgt = np.zeros(best.shape, dtype=narrow), np.empty(best.shape, dtype=narrow)
    for j in range(1, k):
        np.matmul(C, blocks[j], out=x)
        np.greater(x, best, out=gt)
        np.maximum(best, x, out=best)
        # labels = max(labels, j * gt): the masked copy np.copyto(where=)
        # costs over 20 times these two passes.
        np.multiply(gt, j, out=jgt, dtype=narrow)
        np.maximum(labels, jgt, out=labels)
    return labels


def _net_radius2(dim, step):
    """Squared coefficient-space radius of the net: 1/step plus half the
    lattice cell diagonal, so that rounding the coefficients of any vector
    of norm <= 1 lands inside the net.  This is what makes the covering
    radius exactly step*sqrt(dim)/2 over the whole closed unit ball.  It
    overflows to inf for a step below about 1e-154."""
    with np.errstate(over="ignore"):
        return (1.0 / step + np.sqrt(dim) / 2.0) ** 2 * (1 + 1e-12)


def net_size(dim, step, cap=None) -> int:
    """Exact number of lattice points in the net, counted in int64.  With
    ``cap`` a count above cap is returned as cap + 1, as soon as the count
    is known to exceed cap.

    C_j(R), the number of points of Z^j with ||z||^2 <= R, is 2*isqrt(R)+1
    for j = 1 and sum_{|z| <= isqrt(R)} C_(j-1)(R - z^2) above.  The last
    coordinate sums over the 2m+1 values of z, m = isqrt(r2); each one
    before it past the first costs O(m * r2) over a table of C_(j-1) on
    0..r2, whose entries are clipped where a sum of 2m+1 of them would
    overflow.
    """
    if dim < 0 or not step > 0:
        raise UGError("net requires dim >= 0 and step > 0")
    if dim == 0:  # Z^0 is the origin alone, whatever the radius
        return 1
    r2 = _net_radius2(dim, step)
    if not math.isfinite(r2):
        if cap is None:
            raise NetTooLargeError(f"net at dim={dim}, step={step} has an infinite radius")
        return cap + 1
    r2 = int(np.floor(r2))
    m = math.isqrt(r2)
    # The unit cubes around the net's points are disjoint and cover the
    # ball of radius sqrt(r2) - sqrt(dim)/2, so its volume bounds the count;
    # the volume is compared in logs, where no term overflows.
    radius = max(0.0, math.sqrt(r2) - math.sqrt(dim) / 2)
    if dim == 1:
        count = 2 * m + 1
    elif cap is not None and radius > 0 and (
        dim / 2 * math.log(math.pi) - math.lgamma(dim / 2 + 1) + dim * math.log(radius)
        + math.log1p(-1e-9) > math.log(cap)
    ):
        count = cap + 1
    elif r2 >= 2**52:
        raise NetTooLargeError(f"net at dim={dim}, step={step} is beyond exact counting")
    else:

        def c1(R):  # the float square root truncates to isqrt below 2**52
            return 2 * np.sqrt(R).astype(np.int64) + 1

        z = np.arange(-m, m + 1)
        if dim == 2:
            count = int(c1(r2 - z * z).sum())
        else:
            limit = np.iinfo(np.int64).max // (2 * m + 1)
            if cap is not None:
                limit = min(limit, cap + 1)
            table = c1(np.arange(r2 + 1))
            for _ in range(dim - 2):
                nxt = table.copy()
                for y in range(1, m + 1):
                    nxt[y * y :] += 2 * table[: r2 + 1 - y * y]
                table = np.minimum(nxt, limit)
            count = int(table[r2 - z * z].sum())
            if count >= limit and (cap is None or limit <= cap):  # clipped at the int64 bound
                raise NetTooLargeError(
                    f"net at dim={dim}, step={step} has more points than int64 counts"
                )
    return count if cap is None or count <= cap else cap + 1


def _lattice_chunks(dim, step, rows) -> Iterator[np.ndarray]:
    """Integer lattice points z with ||z||^2 <= r2, the integer radius that
    net_size counts, in lexicographic order over coordinate tuples, yielded
    as (rows, dim) arrays (the last may be shorter).

    A depth-first walk over blocks of coordinate prefixes: each step takes
    the next at most ``width`` children of the block on top of the stack, so
    the stack holds at most one block of at most ``width`` prefixes per
    coordinate, whatever the size of the net.  Its numpy work is paid per
    block, so the walk takes the widest blocks whose stack of int64
    prefixes fits core.BATCH_BYTES, and no fewer than ``rows``.  Raises
    NetTooLargeError where r2 >= 2**52 (an infinite radius too)."""
    if dim == 0:  # the origin alone, whatever the radius
        yield np.zeros((1, 0), dtype=np.int64)
        return
    r2 = _net_radius2(dim, step)
    if not r2 < 2**52:  # as in net_size: the walk's square roots are exact below 2**52
        raise NetTooLargeError(f"net at dim={dim}, step={step} is beyond exact counting")
    r2 = int(np.floor(r2))
    width = max(rows, core.BATCH_BYTES // (8 * dim * dim))
    stack = [(np.zeros((1, 0), dtype=np.int64), 0)]  # (prefix block, first child)
    out = np.zeros((0, dim), dtype=np.int64)
    while stack:
        prefixes, lo = stack.pop()
        if prefixes.shape[1] == dim:
            out = np.concatenate([out, prefixes])
            while len(out) >= rows:
                yield out[:rows]
                out = out[rows:]
            continue
        # Prefix p has 2m+1 children p + (z,), -m <= z <= m, m = isqrt(r2 - |p|^2);
        # the float square root truncates to isqrt exactly below 2**52.
        rest = r2 - np.einsum("ij,ij->i", prefixes, prefixes)
        m = np.sqrt(rest).astype(np.int64)
        end = np.cumsum(2 * m + 1)
        hi = min(lo + width, int(end[-1]))
        if hi < end[-1]:
            stack.append((prefixes, hi))
        child = np.arange(lo, hi)
        parent = np.searchsorted(end, child, side="right")
        z = child - (end - m - 1)[parent]
        stack.append((np.column_stack([prefixes[parent], z]), 0))
    if len(out):
        yield out


def net_coefficients(basis: np.ndarray, step: float) -> Iterator[np.ndarray]:
    """The coefficients alpha in step*Z^dim of every net vector
    sum_s alpha_s b_s, b_s the columns of an (ambient, dim) basis (at dim 0,
    the origin alone): coefficient norm at most 1 + step*sqrt(dim)/2, each
    point once, in lexicographic order, as (rows, dim) float64 arrays whose
    ambient vectors take at most core.BATCH_BYTES bytes (or one row).  The
    extra half-cell-diagonal of slack beyond the unit ball guarantees every
    vector of norm <= 1 has a net point within step*sqrt(dim)/2 of it.
    Raises NetTooLargeError before yielding if the net exceeds the cap."""
    ambient, dim = basis.shape
    if net_size(dim, step, NET_CAP) > NET_CAP:
        raise NetTooLargeError(
            f"net would have more than cap {NET_CAP} points at dim={dim}, step={step}"
        )
    rows = max(1, core.BATCH_BYTES // (8 * ambient))
    for Z in _lattice_chunks(dim, step, rows):
        yield Z * step


def search_operator(inst: UGInstance, params: SolveParams):
    """(matrix, threshold): W is select_eigenspace(matrix, threshold), the
    top of M at (1 - window) d in adjacency mode, d the regular degree, and
    in laplacian mode the top of -L at -window * d, d the average degree."""
    d = inst.average_degree
    if params.mode == "laplacian":
        return -build_laplacian(inst).matrix, -params.window * d
    if not inst.is_regular():
        raise NonRegularError(
            "adjacency mode requires a d-regular constraint graph; "
            "use laplacian mode for non-regular instances"
        )
    return build_label_extended(inst).matrix, (1 - params.window) * d


def default_yes_threshold(params: SolveParams) -> float:
    """1 - YES_CONSTANT * (eps/(gamma - 8*eps) + eps), clamped into (0, 1);
    validate() guarantees gamma > 8*eps."""
    eps, gamma = params.epsilon, params.gamma
    t = 1.0 - YES_CONSTANT * (eps / (gamma - 8 * eps) + eps)
    return float(min(max(t, 1e-12), 1.0 - 1e-12))


def solve_window(inst: UGInstance, params: SolveParams, lap):
    """(W, [], {}): the generic W, select_eigenspace on search_operator's
    matrix, its build timed as the operator stage and its solve as the
    eigensolve stage (``lap(stage)`` charges the seconds since the last lap
    to the stage), no further candidates and no report extras."""
    A, level = search_operator(inst, params)
    lap("operator")
    W = select_eigenspace(A, level, params.max_dim)
    lap("eigensolve")
    return W, [], {}


def recover_solution(inst: UGInstance, params: SolveParams, window=solve_window) -> SolveReport:
    """The main solver: read off a labeling from every candidate vector (the
    epsilon-net of W, the signed basis vectors, then any further candidates)
    and return the first labeling of maximum value.  ``window(inst, params,
    lap)`` returns W, the further candidates, a list of (coefficient rows,
    basis) pairs, and the report's extras, and laps the operator and
    eigensolve stages as ``solve_window`` does; solve_maxlin passes its
    character-block solve, character net and diagnostics."""
    params.validate()
    threshold = default_yes_threshold(params)
    stages = dict.fromkeys(("operator", "eigensolve", "walk", "readoff", "dedupe", "scoring"), 0.0)
    t = time.perf_counter()

    def lap(stage):  # the seconds since the last lap go to stage
        nonlocal t
        t, t0 = time.perf_counter(), t
        stages[stage] += t - t0

    if not len(inst.w) and inst.n * inst.k > params.max_dim:
        # Without edges every eigenvalue is 0, so W is the whole space: its
        # dimension is checked before the n*k x n*k operator is built.
        raise DimensionAbortError(inst.n * inst.k, params.max_dim)
    W, more, extras = window(inst, params, lap)
    dim = W.dim
    if dim == 0:
        raise DegenerateSpectrumError(
            f"no eigenvalues in the selected window (mode={params.mode}, window={params.window})"
        )
    step = params.net_step_override
    if step is None:
        step = float(np.sqrt(2 * params.epsilon / (params.window * dim)))

    n, k = inst.n, inst.k
    # M and L_M commute with P1 = I_n (x) J_k/k, the projection onto the
    # lifts f (x) 1, so W splits exactly into the lift of the constraint
    # graph's own window at the same threshold and a twisted part orthogonal
    # to it.  Adding f (x) 1 adds f(v) to every entry of vertex v's block, so
    # no argmax moves: the net walks the split basis's twisted columns alone.
    basis, twisted = split_lifted(W.basis, k)
    blocks, walked = label_blocks(basis, k), label_blocks(twisted, k)
    # The signed basis vectors follow the net as candidates so a
    # one-dimensional W cannot be missed by lattice misalignment; as the
    # +-identity coefficient rows they are read off exactly.
    signed = np.concatenate([np.eye(dim), -np.eye(dim)])
    # The further candidates follow in chunks of the net's row count.
    rows = max(1, core.BATCH_BYTES // (8 * n * k))
    more = [(C, label_blocks(B, k)) for C, B in more]
    chunks = itertools.chain(
        ((C, walked) for C in net_coefficients(twisted, step)), [(signed, blocks)],
        ((C[i:i + rows], L) for C, L in more for i in range(0, len(C), rows)))
    others = len(signed) + sum(len(C) for C, _ in more)
    if not len(inst.w):  # every labeling scores 1.0, so the first net point wins
        first = next(_lattice_chunks(twisted.shape[1], step, 1)) * step  # not counting the net
        chunks, signed, others = [(first, walked)], signed[:0], 0
    narrow = np.min_scalar_type(k - 1)
    row = np.dtype((np.void, n * narrow.itemsize))
    distinct, candidates = {}, 0
    lap("readoff")  # the split and the label-major copy of the basis
    for C, B in chunks:
        lap("walk")
        labels = read_off_batch(C, B)
        lap("readoff")
        # Each labeling is one opaque row; the dict keeps first occurrences
        # in stream order.
        distinct.update(dict.fromkeys(labels.view(row).ravel().tolist()))
        candidates += len(C)
        lap("dedupe")
    labelings = np.frombuffer(b"".join(distinct), narrow).reshape(-1, n)
    lap("dedupe")
    vals = value_batch(inst, labelings)
    # argmax takes the first maximum: the first candidate in stream order.
    i = int(np.argmax(vals))
    best_value, best_labeling = float(vals[i]), labelings[i].astype(np.int64)
    lap("scoring")

    return SolveReport(
        best_labeling=best_labeling,
        best_value=best_value,
        decision="YES" if best_value >= threshold else "NO",
        yes_threshold=threshold,
        dim_W=dim,
        net_points_evaluated=candidates - others,
        eigen_time=stages["operator"] + stages["eigensolve"],
        enumeration_time=sum(stages[s] for s in ("walk", "readoff", "dedupe", "scoring")),
        net_step=step,
        mode=params.mode,
        cut_gap=W.cut_gap,
        dropped_residual=W.dropped_residual,
        max_residual=W.max_residual,
        distinct_labelings=len(labelings),
        value_path=inst.value_path,
        signed_candidates=len(signed),
        held_dims=dim - twisted.shape[1],
        stages=stages,
        eigensolver=W.solver,
        extras=extras,
    )


def closeness_diagnostic(inst: UGInstance, planted, params: SolveParams):
    """(alpha, beta) split of the normalized planted characteristic vector
    against the selected eigenspace W, whatever its dimension: no net is
    built, so max_dim does not apply."""
    params.validate()
    L = validate_labeling(inst, planted)
    W = select_eigenspace(*search_operator(inst, params))
    if W.dim == 0:
        raise DegenerateSpectrumError("empty eigenspace")
    y = characteristic_vector(L, inst.k, normalized=True)
    return project_split(y, W)

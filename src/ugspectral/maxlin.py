"""Group-difference (Gamma-Max-Lin) instances and their spectral theory.

Constraints have the form x_u - x_v = c over a finite abelian group, so
satisfaction is invariant under shifting every label by a group element.
Supported groups: cyclic Z_k and direct products of cyclic factors (powers
of Z_2 cover the Khot-Vishnoi XOR constraints).  Includes the lifted
eigenbasis of a perfectly satisfiable completion, the sin-theta
perturbation diagnostics, the l-infinity uniformity proxy check, and the
Max-Lin solve: the generic solve searching the narrower window (1-theta)d,
plus dim(S), the uniformity check and an expander-regime flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import UGInstance, UGError, shift_image, value
from .label_extended import build_label_extended, constraint_graph_adjacency
from .linalg import Eigenspace, project_split, select_eigenspace
from .recover import NonRegularError, SolveParams, SolveReport, recover_solution


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups; elements are mixed-radix indices
    with factors little-endian (first factor is the least significant)."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors or any(f < 2 for f in self.factors):
            raise UGError(f"bad group factors {self.factors}")

    @property
    def order(self):
        return math.prod(self.factors)

    def shift_table(self) -> np.ndarray:
        """(order, order) array whose row c is the image table of the shift
        by c, the map i -> i - c taken digit by digit (``shift_image``)."""
        places = np.cumprod([1, *self.factors[:-1]])
        digits = np.arange(self.order)[:, None] // places % self.factors
        return (shift_image(digits[None, :], digits[:, None], self.factors) * places).sum(axis=-1)


@dataclass
class MaxLinInstance:
    """A group-difference instance: every edge of ``base`` is a shift of
    ``group``.  ``shifts`` (read-only int64, one per edge) names them."""

    base: UGInstance
    group: AbelianGroup

    def __post_init__(self):
        if self.group.order != self.base.k:
            raise UGError("group order must equal the alphabet size")
        table = self.group.shift_table()
        # The shift by c maps 0 to -c, so the image of 0 names the only
        # candidate shift of an edge; any other image rejects the edge.
        self.shifts = np.argsort(table[:, 0])[self.base.perm[:, 0]]
        self.shifts.flags.writeable = False
        wrong = np.any(self.base.perm != table[self.shifts], axis=1)
        if wrong.any():
            e = int(np.argmax(wrong))
            u, v = self.base.u[e], self.base.v[e]
            raise UGError(f"edge ({u},{v}) is not the shift by {self.shifts[e]}")

    @classmethod
    def from_instance(cls, inst: UGInstance, group: AbelianGroup | None = None):
        """The instance as a difference game over the group (cyclic Z_k by
        default); error if k < 2 or if any edge is not one of its shifts."""
        if inst.k < 2:
            raise UGError(f"Max-Lin needs k >= 2, got k={inst.k}")
        return cls(inst, group or AbelianGroup((inst.k,)))


def shift(labels, i, group: AbelianGroup) -> np.ndarray:
    """Add a group element to every label; satisfaction is invariant.
    Arrays of elements broadcast against the labels."""
    table = group.shift_table()
    # Adding i is the shift by -i, and -i is the image of 0 under the shift by i.
    return table[table[i % group.order, 0], np.asarray(labels, dtype=np.int64)]


def lift_eigenbasis(phi_basis: Eigenspace, ml: MaxLinInstance, planted) -> np.ndarray:
    """Eigenbasis lift of a perfectly satisfiable instance.

    For every constraint-graph eigenvector phi and every group element i,
    the entrywise product of the block-replicated phi with the
    characteristic vector of the i-shifted planted labeling.  Rows are the
    lifted vectors: k * dim(phi_basis) of them, pairwise orthogonal, each an
    eigenvector of the label-extended matrix with phi's eigenvalue.
    """
    planted = np.asarray(planted, dtype=np.int64)
    if value(ml.base, planted) != 1.0:
        raise UGError("lift requires the planted labeling to satisfy everything")
    n, k = ml.base.n, ml.base.k
    # Row i is the planted labeling shifted by i.
    cols = np.arange(n) * k + shift(planted, np.arange(k)[:, None], ml.group)
    out = np.zeros((phi_basis.dim, k, n * k))
    out[:, np.arange(k)[:, None], cols] = phi_basis.basis.T[:, None, :]
    return out.reshape(k * phi_basis.dim, n * k)


def block_norm_vector(w, n, k) -> np.ndarray:
    """Per-vertex Euclidean block norms; preserves the total norm."""
    w = np.asarray(w, dtype=np.float64)
    return np.linalg.norm(w.reshape(n, k), axis=1)


UNIFORMITY_C = 2.0  # uniformity bound C / sqrt(n) on the l-infinity norm of S
UNIFORMITY_SAMPLES = 1000  # random unit combinations uniformity_check samples
UNIFORMITY_SEED = 0  # seed of those samples


@dataclass
class UniformityReport:
    passes: bool
    bound: float            # C / sqrt(n)
    worst_basis_linf: float
    sampled_max_linf: float
    samples: int


def uniformity_check(S: Eigenspace, C) -> UniformityReport:
    """Check the l-infinity uniformity hypothesis on an eigenspace.

    Basis vectors are checked exactly; since the hypothesis quantifies over
    every unit vector of the span, UNIFORMITY_SAMPLES seeded random unit
    combinations are also sampled and the maximum recorded (a necessary
    proxy, not a proof).
    """
    if S.dim == 0:
        raise UGError("uniformity check needs a nonempty eigenspace")
    n = S.dim_ambient
    bound = C / np.sqrt(n)
    worst_basis = float(np.max(np.abs(S.basis)))
    sampled = 0.0
    if S.dim > 1:
        rng = np.random.default_rng(UNIFORMITY_SEED)
        coeffs = rng.standard_normal((UNIFORMITY_SAMPLES, S.dim))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        sampled = float(np.max(np.abs(coeffs @ S.basis.T)))
    return UniformityReport(
        passes=bool(max(worst_basis, sampled) <= bound),
        bound=float(bound),
        worst_basis_linf=worst_basis,
        sampled_max_linf=sampled,
        samples=UNIFORMITY_SAMPLES if S.dim > 1 else 0,
    )


@dataclass
class PerturbationReport:
    lam: float              # eigenvalue of the tested eigenvector of M
    lambda_s: float         # largest eigenvalue of the completion outside Y, -inf if none
    numerator: float        # ||(M~ - M) w||
    beta_bound: float       # numerator / (lam - lambda_s), inf if undefined
    beta_measured: float    # component of w orthogonal to Y
    r_matrix_bound: float   # 2 ||R w_bar||, the block-norm route to the numerator
    R_row_budget: float     # total weight of perturbed edges

    def to_dict(self):
        """The fields as JSON numbers, null where one is not finite (JSON
        has no infinity)."""
        d = {
            "lambda": self.lam,
            "lambda_s": self.lambda_s,
            "numerator": self.numerator,
            "beta_bound": self.beta_bound,
            "beta_measured": self.beta_measured,
            "r_matrix_bound": self.r_matrix_bound,
            "R_row_budget": self.R_row_budget,
        }
        return {key: x if math.isfinite(x) else None for key, x in d.items()}


def perturbed_edge_matrix(inst: UGInstance, completion: UGInstance) -> np.ndarray:
    """n x n matrix R carrying the weight of every edge whose constraint
    differs between the instance and its completion; UGError unless the two
    share n, k and the edge endpoints."""
    if (inst.n, inst.k) != (completion.n, completion.k) or not (
        np.array_equal(inst.u, completion.u) and np.array_equal(inst.v, completion.v)
    ):
        raise UGError("instance and completion must share the edge skeleton")
    changed = np.any(inst.perm != completion.perm, axis=1)
    R = np.zeros((inst.n, inst.n))
    np.maximum.at(R, (inst.u[changed], inst.v[changed]), inst.w[changed])
    # Both orientations of a vertex pair share one entry: the largest weight.
    return np.maximum(R, R.T)


def sin_theta_report(
    ml: MaxLinInstance, completion: MaxLinInstance, w, gamma
) -> PerturbationReport:
    """Davis-Kahan style diagnostics for one unit eigenvector w of the
    perturbed label-extended matrix against the completion's high space Y.
    With w None, the top eigenvector: the first of the window at
    (1-gamma)*d, d the average degree, never empty since the top eigenvalue
    is at least the Rayleigh quotient d of the all-ones vector."""
    R = perturbed_edge_matrix(ml.base, completion.base)  # checks the skeletons first
    M = build_label_extended(ml.base).matrix
    Mt = build_label_extended(completion.base).matrix
    if w is None:
        w = select_eigenspace(M, (1 - gamma) * ml.base.average_degree, "adjacency-high").basis[:, 0]
    w = np.asarray(w, dtype=np.float64)
    lam = float(w @ (M @ w))
    # One decomposition gives Y and lambda_s, the largest eigenvalue it cuts.
    Y = select_eigenspace(Mt, (1 - gamma) * completion.base.average_degree, "adjacency-high")
    lambda_s = Y.nearest_dropped
    numerator = float(np.linalg.norm((Mt - M) @ w))
    beta_bound = numerator / (lam - lambda_s) if lam > lambda_s else np.inf
    beta_measured = project_split(w, Y)[1]
    wbar = block_norm_vector(w, ml.base.n, ml.base.k)
    return PerturbationReport(
        lam=lam,
        lambda_s=lambda_s,
        numerator=numerator,
        beta_bound=float(beta_bound),
        beta_measured=float(beta_measured),
        r_matrix_bound=float(2 * np.linalg.norm(R @ wbar)),
        R_row_budget=float(R[np.triu_indices(ml.base.n)].sum()),
    )


THETA_C1 = 10.0   # default theta >= THETA_C1 * eps * gamma
THETA_C2 = 100.0  # default theta >= gamma^3 / THETA_C2


class MaxLinParams(SolveParams):
    """The generic solver's record searching the adjacency window
    (1-theta)d; theta defaults from epsilon and gamma."""

    @property
    def window(self):
        if self.theta is not None:
            return self.theta
        return min(self.gamma, max(THETA_C1 * self.epsilon * self.gamma,
                                   self.gamma**3 / THETA_C2))

    def validate(self):
        if not self.gamma <= 1:
            raise UGError("gamma must be in (0,1]")
        if self.mode != "adjacency":
            raise UGError(f"Max-Lin searches the adjacency window, not mode {self.mode!r}")
        super().validate()


def solve_maxlin(ml: MaxLinInstance, params: MaxLinParams) -> SolveReport:
    """Gamma-Max-Lin solver: the generic solver searching the label-extended
    high space at (1-theta)d and deciding at gamma, then the constraint
    graph's high space S_(1-gamma) and the uniformity proxy on it.

    The report records dim(S), the dimension check dim(W) <= k * dim(S)
    (a warning, not fatal, when violated) and the expander regime flag
    (dim(S) = 1, the polynomial-time regime; the search is still the net).
    """
    try:
        report = recover_solution(ml.base, params)
    except NonRegularError:  # the generic advice, laplacian mode, is not open to Max-Lin
        raise NonRegularError("Max-Lin needs a d-regular constraint graph") from None
    A = constraint_graph_adjacency(ml.base)
    S = select_eigenspace(A, (1 - params.gamma) * ml.base.average_degree, "adjacency-high")
    uni = uniformity_check(S, UNIFORMITY_C)
    report.extras.update(
        {
            "dim_S": S.dim,
            "k_times_dim_S": ml.base.k * S.dim,
            "dim_check_ok": bool(report.dim_W <= ml.base.k * S.dim),
            "theta": params.window,
            "uniformity_passes": uni.passes,
            "uniformity_worst_linf": max(uni.worst_basis_linf, uni.sampled_max_linf),
            "expander_fast_path": bool(S.dim == 1),
        }
    )
    return report

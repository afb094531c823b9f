"""Group-difference (Gamma-Max-Lin) instances and their spectral theory.

Constraints have the form x_u - x_v = c over a finite abelian group, so
satisfaction is invariant under shifting every label by a group element.
Supported groups: cyclic Z_k and direct products of cyclic factors (powers
of Z_2 cover the Khot-Vishnoi XOR constraints).  Includes the lifted
eigenbasis of a perfectly satisfiable completion, the sin-theta
perturbation diagnostics, the l-infinity uniformity proxy check, and the
Max-Lin solve: the generic solve searching the narrower window (1-theta)d,
whose W (and the constraint graph's S) is solved one character block at a
time, plus dim(S), the uniformity check and an expander-regime flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import UGInstance, UGError, shift_image, value
# constraint_graph_adjacency is imported for perfbench/tracing.py, which
# wraps it on this module; the solve builds the constraint graph as the
# trivial character block.
from .label_extended import build_label_extended, constraint_graph_adjacency, graph_operator
from .linalg import DimensionAbortError, Eigenspace, narrow_window, project_split, select_eigenspace
from .recover import NonRegularError, SolveParams, SolveReport, finite_degree, recover_solution


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

    def _digits(self):
        """(place values, (order, factors) array of every element's digits)."""
        places = np.cumprod([1, *self.factors[:-1]])
        return places, np.arange(self.order)[:, None] // places % self.factors

    def shift_table(self) -> np.ndarray:
        """(order, order) array whose row c is the image table of the shift
        by c, the map i -> i - c taken digit by digit (``shift_image``)."""
        places, digits = self._digits()
        return (shift_image(digits[None, :], digits[:, None], self.factors) * places).sum(axis=-1)

    def characters(self) -> np.ndarray:
        """(order, order) array whose entry [j, a] is the r in 0..order-1
        with chi_j(a) = exp(2 pi i r / order): character j pairs digits,
        chi_j(a) = prod_t exp(2 pi i j_t a_t / k_t), so chi_{-j} is the
        conjugate of chi_j."""
        digits = self._digits()[1]
        factors = np.array(self.factors)
        r = digits[:, None, :] * digits[None, :, :] % factors * (self.order // factors)
        return r.sum(axis=-1) % self.order


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


def character_blocks(ml: MaxLinInstance) -> list:
    """The label-extended matrix M split by the group's characters: one real
    symmetric operator per self-conjugate character and per conjugate pair,
    as (j, operator) pairs in order of j, the pair's smaller index, so the
    trivial character comes first.

    M maps f (x) chi_j, the vector f(u) chi_j(a) at row u*k + a, to
    (H_j f) (x) chi_j: an edge (u, v) of weight w and shift c adds
    w conj(chi_j(c)) to H_j[u, v] and w chi_j(c) to H_j[v, u], a self-loop
    w Re chi_j(c) once, as M's averaged diagonal block does.  A real chi_j
    (2j = 0) gives the n x n graph operator of weights w chi_j(c); a pair
    {j, -j} gives the 2n x 2n one [[Re H_j, -Im H_j], [Im H_j, Re H_j]],
    whose eigenvector [p; q] is H_j's p + iq.  Each is a ``graph_operator``,
    stored by the label-extended storage rule; the trivial block is the
    constraint graph's adjacency."""
    base, k = ml.base, ml.base.k
    n, u, v = base.n, base.u, base.v
    conj = ml.group.shift_table()[:, 0]  # -j
    phases = 2 * np.pi * ml.group.characters()[:, ml.shifts] / k  # chi_j(c) = exp(i phase)
    blocks = []
    for j in np.flatnonzero(np.arange(k) <= conj):
        cw = base.w * np.cos(phases[j])
        if conj[j] == j:
            blocks.append((int(j), graph_operator(n, u, v, cw)))
        else:
            sw = np.where(u == v, 0.0, base.w * np.sin(phases[j]))
            ends = (np.concatenate([u, n + u, u, n + u]), np.concatenate([v, n + v, n + v, v]))
            blocks.append((int(j), graph_operator(2 * n, *ends, np.concatenate([cw, cw, sw, -sw]))))
    return blocks


def _lift(X, phase, n, k) -> np.ndarray:
    """Block eigenvectors, the columns of X, [f] or [p; q], lifted into
    R^(n*k) isometrically: f(u) chi(a) / sqrt(k) for a real chi, and
    Re((p + iq)(u) chi(a)) sqrt(2/k) for a pair; chi(a) = exp(i phase[a])."""
    X = X.reshape(len(X) // n, n, X.shape[1])
    lift = X[0][:, None, :] * np.cos(phase)[:, None]
    if len(X) == 2:
        lift -= X[1][:, None, :] * np.sin(phase)[:, None]
    return lift.reshape(n * k, -1) * np.sqrt(len(X) / k)


def character_window(ml: MaxLinInstance, params: SolveParams,
                     blocks) -> tuple[Eigenspace, Eigenspace, dict]:
    """(W, S, shares) of a d-regular instance from its ``character_blocks``:
    W the label-extended window at (1-theta)d, S the constraint graph's at
    (1-gamma)d, one select_eigenspace per block, and shares[j] block j's
    share of W, the window of the block itself.

    Every non-trivial block is solved at W's cut, charging max_dim across
    the blocks in turn (DimensionAbortError names the total so far).  The
    trivial block comes last, so that an oversized W aborts before S's
    uncapped solve: it is solved at S's cut and W takes its eigenpairs at or
    above (1-theta)d (``narrow_window``).  A block eigenvector is lifted
    into R^(n*k) by ``_lift``, so its residual is the block's.  W's columns
    are sorted by descending eigenvalue, the trivial block's first among
    equals; its nearest_dropped and max_residual are the largest over the
    blocks, its passes their sum and its block the widest."""
    base, k = ml.base, ml.base.k
    n, d = base.n, base.average_degree
    level = (1 - params.window) * d
    phases = 2 * np.pi * ml.group.characters() / k
    used, parts, shares = 0, [], {}
    for j, B in blocks[1:] + blocks[:1]:
        if j == 0:  # the trivial character
            S = select_eigenspace(B, (1 - params.gamma) * d, "adjacency-high")
            E = narrow_window(B, S, level)
            if used + E.dim > params.max_dim:
                raise DimensionAbortError(used + E.dim, params.max_dim)
        else:
            try:
                E = select_eigenspace(B, level, "adjacency-high", params.max_dim - used)
            except DimensionAbortError as e:
                raise DimensionAbortError(used + e.dim, params.max_dim, e.at_least) from None
        used += E.dim
        shares[j] = E
        parts.insert(len(parts) if j else 0, (E, _lift(E.basis, phases[j], n, k)))
    vals = np.concatenate([E.eigenvalues for E, _ in parts])
    order = np.argsort(-vals, kind="stable")
    W = Eigenspace(
        dim_ambient=n * k,
        basis=np.hstack([lift for _, lift in parts])[:, order],
        eigenvalues=vals[order],
        threshold=float(level),
        mode="adjacency-high",
        nearest_dropped=max(E.nearest_dropped for E, _ in parts),
        max_residual=max(E.max_residual for E, _ in parts),
        passes=sum(E.passes for E, _ in parts),
        block=max(E.block for E, _ in parts),
        blocks=len(parts),
    )
    return W, S, shares


def character_net(ml: MaxLinInstance, shares) -> tuple[np.ndarray, np.ndarray]:
    """(C, T): every rounding of the top character lines, the search of the
    expander regime, as coefficient rows C over the lifted basis T
    (``shares`` are ``character_window``'s block solves).

    The unit character of factor t, chi_t(a) = exp(2 pi i a_t / k_t), has a
    block whose top eigenvector f (the first of its share of W, else the
    nearest dropped) is, on an expander, near chi_t(-x_u) times one phase,
    x a best labeling.  T holds the lifts of f and, for a pair block, of
    i f, so a row's (cos phi, sin phi) lifts e^(i phi) f, whose read-off
    rounds the phase of f(u), turned by phi, into k_t sectors.  A turn by
    2 pi / k_t shifts every digit, which no constraint sees; with
    phi = 2 pi tau / k_t, tau in [0, 1), u's digit changes only at
    tau = 1/2 - arg f(u) k_t / (2 pi) mod 1, and C takes one tau between
    each two adjacent breakpoints.  A row turns every factor by its tau (a
    real block, k_t = 2, takes 1): the read-off of a sum of lifts takes
    each digit apart."""
    n, k = ml.base.n, ml.base.k
    phases = 2 * np.pi * ml.group.characters() / k
    places = np.cumprod([1, *ml.group.factors[:-1]])
    cols, turns = [], []
    for j, kt in zip(places, ml.group.factors):
        E = shares[j]
        f = (E.basis[:, 0] if E.dim else E.dropped)[:, None]
        if kt > 2:
            f = np.hstack([f, np.roll(f, n) * np.repeat([-1.0, 1.0], n)[:, None]])  # f, i f
            turns.append((0.5 - np.angle(f[:n, 0] + 1j * f[n:, 0]) * kt / (2 * np.pi)) % 1)
        cols.append(_lift(f, phases[j], n, k))
    b = np.unique(np.concatenate(turns)) if turns else np.zeros(1)
    tau = (b + np.append(b[1:], b[0] + 1)) / 2 % 1
    C = np.hstack([np.column_stack([np.cos(2 * np.pi * tau / kt), np.sin(2 * np.pi * tau / kt)])
                   if kt > 2 else np.ones((len(tau), 1)) for kt in ml.group.factors])
    return C, np.hstack(cols)


def solve_maxlin(ml: MaxLinInstance, params: MaxLinParams) -> SolveReport:
    """Gamma-Max-Lin solver: the generic solver searching the label-extended
    high space at (1-theta)d and deciding at gamma, with W and the
    constraint graph's high space S_(1-gamma) solved one character block
    at a time (``character_window``), then the uniformity proxy on S.
    Where W misses the top line of a character (its block's share of W is
    empty), W's net cannot read that character, and the roundings of the
    top character lines (``character_net``) are read off after the signed
    basis vectors.

    The report records dim(S), the dimension check dim(W) <= k * dim(S)
    (a warning, not fatal, when violated), the expander regime flag
    (dim(S) = 1, the polynomial-time regime) and the number of character
    roundings read off.
    """
    spaces = {}

    def window(inst, params, lap):
        finite_degree(inst)
        if not inst.is_regular():
            raise NonRegularError("Max-Lin needs a d-regular constraint graph")
        blocks = character_blocks(ml)
        lap("operator")
        W, spaces["S"], shares = character_window(ml, params, blocks)
        lap("eigensolve")
        missed = not all(E.dim for E in shares.values())
        spaces["more"] = [character_net(ml, shares)] if missed else []
        lap("walk")
        return W, spaces["more"]

    report = recover_solution(ml.base, params, window)
    S = spaces["S"]
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
            "character_candidates": sum(len(C) for C, _ in spaces["more"]),
        }
    )
    return report

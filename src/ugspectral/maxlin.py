"""Group-difference (Gamma-Max-Lin) instances and their spectral theory.

Constraints have the form x_u - x_v = c over a finite abelian group, so
satisfaction is invariant under shifting every label by a group element.
Supported groups: cyclic Z_k and direct products of cyclic factors (powers
of Z_2 cover the Khot-Vishnoi XOR constraints).  Includes the lifted
eigenbasis of a perfectly satisfiable completion, the sin-theta
perturbation diagnostics of a d-regular instance, the exact l-infinity
uniformity supremum of an eigenspace, and the Max-Lin solve: the generic
solve searching the narrower window (1-theta)d, whose W (and the constraint
graph's S) is solved one character block at a time, a conjugate pair of
characters as one complex Hermitian n x n block, plus dim(S), S's
uniformity against C / sqrt(n) and an expander-regime flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import UGInstance, UGError, shift_image, value
from .label_extended import build_label_extended, constraint_graph_adjacency, graph_operator
from .linalg import (RESIDUAL_TOL, DimensionAbortError, Eigenspace, narrow_window, project_split,
                     select_eigenspace)
from .recover import NonRegularError, SolveParams, SolveReport, recover_solution


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups; elements are mixed-radix indices
    with factors little-endian (first factor is the least significant)."""

    factors: tuple[int, ...]

    def __post_init__(self):
        f = np.asarray(self.factors)
        if not f.size or f.dtype.kind not in "iu" or f.min() < 2:
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
    ``group``.  Read-only arrays: ``shifts`` (int64, one per edge) names them,
    ``conj`` maps j to -j and ``phases`` has chi_j(a) = exp(i phases[j, a])."""

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
        self.conj = table[:, 0].copy()  # the shift by j maps 0 to -j
        self.phases = 2 * np.pi * self.group.characters() / self.base.k
        self.conj.flags.writeable = self.phases.flags.writeable = False

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


def uniformity_check(S: Eigenspace) -> float:
    """The l-infinity uniformity of an eigenspace, exactly: the supremum of
    |x_v| over every unit vector x = Bc of the span, B the orthonormal basis.
    By Cauchy-Schwarz |(Bc)_v| <= ||B[v]||, with equality at
    c = B[v] / ||B[v]||, so it is the largest row norm of B (at dim 1,
    max |B| exactly)."""
    if S.dim == 0:
        raise UGError("uniformity check needs a nonempty eigenspace")
    return float(np.linalg.norm(S.basis, axis=1).max())


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
        """The fields in order, ``lam`` as "lambda", as JSON numbers, null
        where one is not finite (JSON has no infinity)."""
        d = {"lambda" if f.name == "lam" else f.name: getattr(self, f.name) for f in fields(self)}
        return {key: x if math.isfinite(x) else None for key, x in d.items()}


def perturbed_edge_matrix(inst: UGInstance, completion: UGInstance):
    """n x n matrix R carrying the weight of every edge whose constraint
    differs between the instance and its completion, parallel edges summed:
    the ``graph_operator`` of those edges, stored by its rule; UGError
    unless the two share n, k and the edge endpoints."""
    if (inst.n, inst.k) != (completion.n, completion.k) or not (
        np.array_equal(inst.u, completion.u) and np.array_equal(inst.v, completion.v)
    ):
        raise UGError("instance and completion must share the edge skeleton")
    changed = np.any(inst.perm != completion.perm, axis=1)
    return graph_operator(inst.n, inst.u[changed], inst.v[changed], inst.w[changed])


def sin_theta_report(
    ml: MaxLinInstance, completion: MaxLinInstance, w, gamma
) -> PerturbationReport:
    """Davis-Kahan style diagnostics for one unit eigenvector w of the
    perturbed label-extended matrix against the completion's high space Y.
    With w None, the top eigenvector: the first of the window at
    (1-gamma)*d, never empty since the top eigenvalue is at least the
    Rayleigh quotient d of the all-ones vector.  Both windows are cut at the
    degree d, so NonRegularError unless both graphs are d-regular."""
    R = perturbed_edge_matrix(ml.base, completion.base)  # checks the skeletons first
    if not (ml.base.is_regular() and completion.base.is_regular()):
        raise NonRegularError("Max-Lin needs a d-regular constraint graph")
    M = build_label_extended(ml.base).matrix
    Mt = build_label_extended(completion.base).matrix
    if w is None:
        w = select_eigenspace(M, (1 - gamma) * ml.base.average_degree).basis[:, 0]
    w = np.asarray(w, dtype=np.float64)
    lam = float(w @ (M @ w))
    # One decomposition gives Y and lambda_s, the largest eigenvalue it cuts.
    Y = select_eigenspace(Mt, (1 - gamma) * completion.base.average_degree)
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
        R_row_budget=float((R.sum() + R.diagonal().sum()) / 2),  # each edge once
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


def character_blocks(ml: MaxLinInstance):
    """The label-extended matrix M split by the group's characters: one n x n
    operator per self-conjugate character and per conjugate pair, built one
    at a time and yielded as (j, operator) pairs in solve order: by
    ascending j, the pair's smaller index, with the trivial character last.

    M maps f (x) chi_j, the vector f(u) chi_j(a) at row u*k + a, to
    (H_j f) (x) chi_j: an edge (u, v) of weight w and shift c adds
    w conj(chi_j(c)) to H_j[u, v] and w chi_j(c) to H_j[v, u], a self-loop
    w Re chi_j(c) once, as M's averaged diagonal block does.  A real chi_j
    (2j = 0) gives the real symmetric graph operator of weights w chi_j(c);
    a pair {j, -j} gives the complex Hermitian H_j, whose eigenvalues are
    each a pair of M's.  Each is a ``graph_operator``, stored by the
    label-extended storage rule (H_j at the size of its real 2n x 2n
    embedding); the trivial block is ``constraint_graph_adjacency``, the
    same matrix, as w cos 0 = w."""
    base = ml.base
    n, u, v = base.n, base.u, base.v
    for j in np.flatnonzero(np.arange(base.k) <= ml.conj)[1:]:  # 0 first: conj[0] = 0
        phase = ml.phases[j, ml.shifts]  # chi_j(c) = exp(i phase)
        chi = np.cos(phase) if ml.conj[j] == j else np.exp(1j * phase)
        yield int(j), graph_operator(n, u, v, base.w * chi.conj())
    yield 0, constraint_graph_adjacency(base)


def _lift(X, phase, n, k) -> np.ndarray:
    """Block eigenvectors, the columns of X, lifted into R^(n*k)
    isometrically, chi(a) = exp(i phase[a]): a real f as f(u) chi(a) / sqrt(k),
    a complex f (a pair's) as the two columns Re(f(u) chi(a)) sqrt(2/k) and
    Re(i f(u) chi(a)) sqrt(2/k) = -Im(f(u) chi(a)) sqrt(2/k), side by side."""
    if np.iscomplexobj(X):
        lift = X[:, None, :] * np.exp(1j * phase)[:, None]
        return np.stack([lift.real, -lift.imag], axis=3).reshape(n * k, -1) * np.sqrt(2 / k)
    return (X[:, None, :] * np.cos(phase)[:, None]).reshape(n * k, -1) * np.sqrt(1 / k)


def character_window(ml: MaxLinInstance, params: SolveParams,
                     lap) -> tuple[Eigenspace, Eigenspace, dict]:
    """(W, S, shares) of a d-regular instance (NonRegularError otherwise),
    its ``character_blocks`` built and solved by select_eigenspace one at a
    time, each build lapped as the operator stage and each solve, then W's
    assembly, as the eigensolve stage: W the label-extended window at
    (1-theta)d, S the constraint graph's at (1-gamma)d, and shares[j] block
    j's share of W, the window of the block itself, in solve order.

    Every non-trivial block is solved at W's cut, charging max_dim across
    the blocks in turn (DimensionAbortError names the total so far).  The
    trivial block comes last, so that an oversized W aborts before S's
    uncapped solve: it is solved at S's cut and W takes its eigenpairs at or
    above (1-theta)d (``narrow_window``).  A block eigenvector is lifted
    into R^(n*k) by ``_lift``, so its residual is the block's; a pair's,
    complex, is two columns of W and charged as two.  W's columns are sorted
    by descending eigenvalue, then j (the trivial block's first among
    equals); its nearest_dropped and max_residual are the largest over the
    blocks, its dropped the first ``_lift`` column of the dropped vector of
    the first block attaining that nearest_dropped, and its solver record
    sums their passes and takes the widest block."""
    base, k = ml.base, ml.base.k
    n, d = base.n, base.average_degree
    if not base.is_regular():
        raise NonRegularError("Max-Lin needs a d-regular constraint graph")
    level = (1 - params.window) * d
    used, shares, lifts, vals = 0, {}, [], []
    for j, B in character_blocks(ml):
        lap("operator")
        r = 1 + np.iscomplexobj(B)  # columns of W per eigenvalue of B
        try:
            if j == 0:  # the trivial character
                S = select_eigenspace(B, (1 - params.gamma) * d)
                E = narrow_window(B, S, level, params.max_dim - used)
            else:
                E = select_eigenspace(B, level, (params.max_dim - used) // r)
        except DimensionAbortError as e:
            raise DimensionAbortError(used + r * e.dim, params.max_dim, e.at_least) from None
        used += r * E.dim
        shares[j] = E
        lifts.append(_lift(E.basis, ml.phases[j], n, k))
        vals.append(np.repeat(E.eigenvalues, r))
        lap("eigensolve")
    Es = shares.values()
    vals = np.concatenate(vals)
    order = np.lexsort((np.repeat(list(shares), [L.shape[1] for L in lifts]), -vals))
    j, near = max(shares.items(), key=lambda share: share[1].nearest_dropped)
    dropped = near.dropped  # None where no block dropped an eigenvalue
    if dropped is not None:
        dropped = _lift(dropped[:, None], ml.phases[j], n, k)[:, 0]
    W = Eigenspace(np.hstack(lifts)[:, order], vals[order], near.nearest_dropped, dropped,
                   max(E.max_residual for E in Es),
                   dict(path="characters", passes=sum(E.solver["passes"] for E in Es),
                        block=max(E.solver["block"] for E in Es), blocks=len(Es)))
    lap("eigensolve")
    return W, S, shares


def character_net(ml: MaxLinInstance, shares) -> tuple[np.ndarray, np.ndarray]:
    """(C, T): roundings of the top character lines, the search of the
    expander regime, as coefficient rows C over the lifted basis T
    (``shares`` are ``character_window``'s block solves).

    The unit character of factor t, chi_t(a) = exp(2 pi i a_t / k_t), has a
    block whose top eigenvector f (the first of its share of W, else the
    nearest dropped) is, on an expander, near chi_t(-x_u) times one phase,
    x a best labeling.  T holds the lift of f, for a pair block the lifts
    of f and i f (``_lift``), so a row's (cos phi, sin phi) lifts
    e^(i phi) f, whose read-off rounds the phase of f(u), turned by phi,
    into k_t sectors.  A turn by 2 pi / k_t shifts every digit, which no
    constraint sees; with phi = 2 pi tau / k_t, tau in [0, 1), u's digit
    changes only at tau = 1/2 - arg f(u) k_t / (2 pi) mod 1, and C takes
    one tau between each two adjacent breakpoints of all factors, merging
    those closer than RESIDUAL_TOL, as f's phases are only accurate to its
    residual.  A row turns every factor by that tau (a real block, k_t = 2,
    takes 1); the read-off of a sum of lifts takes each digit apart, so the
    rows hold each factor's roundings, but not every combination of two
    factors of order > 2."""
    n, k = ml.base.n, ml.base.k
    places = np.cumprod([1, *ml.group.factors[:-1]])
    cols, turns = [], []
    for j, kt in zip(places, ml.group.factors):
        E = shares[j]
        f = E.basis[:, 0] if E.dim else E.dropped
        if kt > 2:
            turns.append((0.5 - np.angle(f) * kt / (2 * np.pi)) % 1)
        cols.append(_lift(f[:, None], ml.phases[j], n, k))
    b = np.sort(np.concatenate(turns)) if turns else np.zeros(1)
    after = np.append(b[1:], b[0] + 1)  # the next breakpoint, circularly
    tau = (b + after)[after - b >= RESIDUAL_TOL] / 2 % 1
    C = np.hstack([np.column_stack([np.cos(2 * np.pi * tau / kt), np.sin(2 * np.pi * tau / kt)])
                   if kt > 2 else np.ones((len(tau), 1)) for kt in ml.group.factors])
    return C, np.hstack(cols)


def solve_maxlin(ml: MaxLinInstance, params: MaxLinParams) -> SolveReport:
    """Gamma-Max-Lin solver: the generic solver searching the label-extended
    high space at (1-theta)d and deciding at gamma, with W and the
    constraint graph's high space S_(1-gamma) solved one character block
    at a time (``character_window``), then the exact uniformity check on S,
    timed with them as the eigensolve stage.
    Where W misses the top line of a character (its block's share of W is
    empty), W's net cannot read that character, and the roundings of the
    top character lines (``character_net``) are read off after the signed
    basis vectors.

    The window returns the report's extras: dim(S), the dimension check
    dim(W) <= k * dim(S) (a warning, not fatal, when violated), the
    expander regime flag (dim(S) = 1, the polynomial-time regime) and the
    number of character roundings read off.
    """

    def window(inst, params, lap):
        W, S, shares = character_window(ml, params, lap)
        worst = uniformity_check(S)
        lap("eigensolve")
        missed = not all(E.dim for E in shares.values())
        more = [character_net(ml, shares)] if missed else []
        lap("walk")
        return W, more, {
            "dim_S": S.dim,
            "k_times_dim_S": inst.k * S.dim,
            "dim_check_ok": bool(W.dim <= inst.k * S.dim),
            "theta": params.window,
            "uniformity_passes": bool(worst <= UNIFORMITY_C / np.sqrt(inst.n)),
            "uniformity_worst_linf": worst,
            "expander_fast_path": bool(S.dim == 1),
            "character_candidates": sum(len(C) for C, _ in more),
        }

    return recover_solution(ml.base, params, window)

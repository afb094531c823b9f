"""Instance factories.

Covers planted satisfiable instances and their adversarial perturbations,
random regular graph skeletons (pairing model), the Khot-Vishnoi instance
and its label-extended closed form, and the fast Walsh-Hadamard engine for
spectra of Cayley graphs over F_2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .core import (UGInstance, UGError, _int64, _is_int, _unit_scale, shift_image,
                   validate_labeling, value)
from .label_extended import graph_operator
from .linalg import select_eigenspace


def _rng(seed):
    """The seeded generator of every factory here."""
    if not _is_int(seed) or seed < 0:
        raise UGError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _is_maxlin(family):
    """Whether the family is Max-Lin's shifts; UGError if it is neither family."""
    if family not in ("general-permutation", "maxlin"):
        raise UGError(f"unknown constraint family {family!r}")
    return family == "maxlin"


# ---------------------------------------------------------------------------
# Planted instances and perturbation
# ---------------------------------------------------------------------------


@dataclass
class PlantedSpec:
    n: int
    k: int
    skeleton: Sequence[tuple]  # (u, v) or (u, v, weight)
    planted: Sequence[int]
    constraint_family: str = "general-permutation"  # or 'maxlin'
    seed: int = 0


def _random_perm_with_image(rng, k, a, b):
    """Image row of a uniform permutation of [k] conditioned on mapping a to b."""
    rest = np.delete(np.arange(k), b)
    rng.shuffle(rest)
    return np.insert(rest, a, b)


def _other_than(rng, k, x):
    """Uniform element of [k] other than x."""
    return rng.choice(np.delete(np.arange(k), x))


def planted_instance(spec: PlantedSpec):
    """Instance satisfying the planted labeling with value exactly 1.

    The general family draws each edge permutation uniformly conditioned on
    mapping the planted label of u to that of v; the maxlin family uses the
    unique cyclic shift doing so.
    """
    rng = _rng(spec.seed)
    planted = validate_labeling(spec, spec.planted)  # reads the spec's n and k
    u, v = (_int64([e[i] for e in spec.skeleton], UGError, "skeleton endpoint") for i in (0, 1))
    if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= spec.n):
        raise UGError(f"skeleton endpoint out of range [0, {spec.n})")
    w, scale = _unit_scale([float(e[2]) if len(e) > 2 else 1.0 for e in spec.skeleton])
    a, b = planted[u], planted[v]
    if _is_maxlin(spec.constraint_family):
        perm = shift_image(np.arange(spec.k), (a - b)[:, None], spec.k)
    else:
        perm = [_random_perm_with_image(rng, spec.k, x, y) for x, y in zip(a, b)]
    perm = np.reshape(perm, (len(u), spec.k))
    return UGInstance.from_arrays(spec.n, spec.k, u, v, w, perm, scale), planted


def perturb(inst: UGInstance, planted, eps, seed=0, constraint_family="general-permutation"):
    """Adversarial epsilon-perturbation of a perfectly satisfiable instance.

    Picks edges in seeded random order until their cumulative weight first
    reaches eps * total_weight, and rewrites each picked constraint to
    violate the planted pair.  The maxlin family rewrites shifts to wrong
    shifts so the result stays a group-difference instance.
    """
    if not (0 <= eps < 1):
        raise UGError(f"eps must be in [0,1), got {eps}")
    maxlin = _is_maxlin(constraint_family)
    planted = np.asarray(planted, dtype=np.int64)
    if value(inst, planted) != 1.0:
        raise UGError("perturb requires the planted labeling to satisfy everything")
    if eps == 0:
        return inst
    k = inst.k
    if k < 2:
        raise UGError("cannot violate constraints with k=1")
    rng = _rng(seed)
    order = rng.permutation(len(inst.w))
    # picked[j] is the weight picked before pick j, a sequential running total
    # that never decreases; picking stops at the first j reaching the target.
    picked = np.concatenate([[0.0], np.cumsum(inst.w[order])])
    count = np.searchsorted(picked, eps * inst.total_weight)
    perm = inst.perm.copy()
    for i in np.sort(order[:count]):
        a, b = planted[inst.u[i]], planted[inst.v[i]]
        if maxlin:
            perm[i] = shift_image(np.arange(k), _other_than(rng, k, (a - b) % k), k)
        else:
            perm[i] = _random_perm_with_image(rng, k, a, _other_than(rng, k, b))
    return UGInstance.from_arrays(inst.n, k, inst.u, inst.v, inst.w, perm, inst.scale)


PAIRING_TRIES = 10000  # pairings drawn before random_regular_graph repairs one


def _simple_pairs(pairs, n):
    """Per pair of a pairing, whether it is a loop or repeats an earlier pair."""
    keys = pairs.min(axis=1) * n + pairs.max(axis=1)
    bad = np.ones(len(keys), dtype=bool)
    bad[np.unique(keys, return_index=True)[1]] = False
    return bad | (pairs[:, 0] == pairs[:, 1])


def _switch_to_simple(pairs, n, rng):
    """A pairing made simple by degree-preserving switches: a random bad
    pair {a, b} (``_simple_pairs``) and a random other pair {c, e} become
    {a, c} and {b, e}, the other pair's ends in random order, whenever that
    leaves no more bad pairs than before."""
    bad = _simple_pairs(pairs, n)
    while bad.any():
        i = rng.choice(np.flatnonzero(bad))
        j = (i + 1 + rng.integers(len(pairs) - 1)) % len(pairs)
        c, e = pairs[j][rng.permutation(2)]
        trial = pairs.copy()
        trial[i], trial[j] = (pairs[i, 0], c), (pairs[i, 1], e)
        trial_bad = _simple_pairs(trial, n)
        if trial_bad.sum() <= bad.sum():
            pairs, bad = trial, trial_bad
    return pairs


def random_regular_graph(n, d, seed=0):
    """Simple d-regular graph by the pairing model with rejection of loops
    and multi-edges.  Where PAIRING_TRIES pairings in a row are rejected, as
    at a dense d, the last one is repaired by degree-preserving switches
    (``_switch_to_simple``), so every valid (n, d) gets a graph, the same
    for the same seed.  Returns (edge list, second adjacency eigenvalue);
    expansion is measured, never assumed.
    """
    if not (_is_int(n) and _is_int(d)):
        raise UGError(f"n and d must be integers, got {n!r}, {d!r}")
    if (n * d) % 2 != 0:
        raise UGError("n*d must be even")
    if not 0 <= d < n:
        raise UGError("need 0 <= d < n")
    rng = _rng(seed)
    for _ in range(PAIRING_TRIES):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        # A loop rejects most dense pairings, at a fraction of the cost of
        # the full test.
        if not np.any(pairs[:, 0] == pairs[:, 1]) and not _simple_pairs(pairs, n).any():
            break
    else:
        pairs = _switch_to_simple(pairs, n, rng)
    keys = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))  # sorted, one per pair
    # The top eigenvalue of a d-regular graph is d, so lambda_2 is the
    # second eigenvalue of the window at d, or the first one below it.
    W = select_eigenspace(graph_operator(n, keys // n, keys % n, np.ones(len(keys))), d)
    lambda2 = float(W.eigenvalues[1] if W.dim > 1 else W.nearest_dropped)
    return [(int(key // n), int(key % n)) for key in keys], lambda2 if n > 1 else 0.0


def planted_regular_instance(n, d, k, seed=0, constraint_family="general-permutation"):
    """Convenience: planted instance on a fresh random d-regular skeleton.

    Returns (instance, planted labeling, measured second eigenvalue of the
    skeleton adjacency).
    """
    if k < 1:
        raise UGError(f"need k >= 1, got k={k}")
    skeleton, lambda2 = random_regular_graph(n, d, seed=seed)
    planted = _rng(seed + 1).integers(0, k, size=n)
    inst, planted = planted_instance(
        PlantedSpec(n, k, skeleton, planted, constraint_family, seed + 2)
    )
    return inst, planted, lambda2


# ---------------------------------------------------------------------------
# Walsh-Hadamard transform and Cayley spectra over F_2^n
# ---------------------------------------------------------------------------


def walsh_hadamard_spectrum(f) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform, in place on a copy:
    values[omega] = sum_x f(x) * (-1)^<omega, x>, exactly the adjacency
    eigenvalue of the Cayley graph with weight function f for the character
    indexed by omega."""
    a = np.asarray(f, dtype=np.float64).copy()
    N = len(a)
    if N == 0 or (N & (N - 1)) != 0:
        raise UGError(f"length {N} is not a power of two")
    h = 1
    while h < N:
        a = a.reshape(-1, 2, h)
        x, y = a[:, 0, :].copy(), a[:, 1, :].copy()
        a[:, 0, :] = x + y
        a[:, 1, :] = x - y
        a = a.reshape(N)
        h *= 2
    return a


def cayley_matrix(f) -> np.ndarray:
    """Dense adjacency matrix of the Cayley graph of F_2^n with weight
    function f: entry (x, y) = f(x ^ y)."""
    f = np.asarray(f, dtype=np.float64)
    N = len(f)
    idx = np.arange(N)
    return f[idx[:, None] ^ idx[None, :]]


# ---------------------------------------------------------------------------
# The Khot-Vishnoi instance
# ---------------------------------------------------------------------------


@dataclass
class KVSpec:
    """kappa is the log of the alphabet: n = 2^kappa labels / hypercube
    dimension, N = 2^n hypercube vertices, m = N/n constraint-graph cosets."""

    kappa: int
    eps: float

    def __post_init__(self):
        if not _is_int(self.kappa) or self.kappa < 1:
            raise UGError(f"kappa must be an integer >= 1, got {self.kappa!r}")
        if not (0 < self.eps < 0.5):
            raise UGError("eps must be in (0, 1/2)")

    @property
    def n(self):
        return 2**self.kappa

    @property
    def N(self):
        return 2**self.n

    @property
    def m(self):
        return self.N // self.n


def _popcount_table(bits) -> np.ndarray:
    """Number of set bits of every integer in [0, 2^bits)."""
    table = np.zeros(1, dtype=np.int64)
    for _ in range(bits):
        table = np.concatenate([table, table + 1])
    return table


def hadamard_code(kappa) -> np.ndarray:
    """The n = 2^kappa Hadamard codewords as n-bit integers.

    Codeword y has bit x equal to the parity of AND(x, y), with x enumerated
    as kappa-bit integers little-endian.  This bit-position convention pins
    the constraint orientation; the label-extended equivalence test is
    sensitive to it.
    """
    x = np.arange(2**kappa)
    bits = _popcount_table(kappa)[x[:, None] & x[None, :]] & 1  # row y, column x
    return (bits << x).sum(axis=1)


def _kv_weight_table(spec: KVSpec) -> np.ndarray:
    """wt[z] = eps^|z| (1-eps)^(n-|z|) for |z| = 0..n."""
    n = spec.n
    r = np.arange(n + 1)
    return spec.eps**r * (1 - spec.eps) ** (n - r)


def kv_cosets(spec: KVSpec):
    """(representatives, coset index of every hypercube vertex).

    Representative of a coset of the Hadamard code is its lexicographically
    smallest member; cosets are indexed in the order of their smallest
    members.
    """
    # The code is linear, so x ^ H is the whole coset of x.
    smallest = (np.arange(spec.N)[:, None] ^ hadamard_code(spec.kappa)).min(axis=1)
    return np.unique(smallest, return_inverse=True)


def kv_instance(spec: KVSpec) -> UGInstance:
    """The KV Unique Game: vertices are the m cosets, alphabet k = n with
    labels identified with {0,1}^kappa, constraints are XOR shifts.

    For every coset pair (i <= j) and every ordered codeword pair (s, t),
    an edge of weight eps^|p_i + h_s + p_j + h_t| (1-eps)^(n - |..|) with
    permutation x -> x XOR (s XOR t) is emitted.  Self-loop blocks then
    reproduce the closed-form perturbed-hypercube matrix exactly.
    """
    if spec.kappa > 3:
        raise UGError("kv_instance materializes only up to kappa=3")
    reps, _ = kv_cosets(spec)
    H = hadamard_code(spec.kappa)
    wt = _kv_weight_table(spec)
    m, n = spec.m, spec.n
    i, j = np.triu_indices(m)           # coset pairs i <= j, row-major
    s, t = np.divmod(np.arange(n * n), n)  # codeword pairs, s outermost
    z = (reps[i] ^ reps[j])[:, None] ^ (H[s] ^ H[t])[None, :]
    popcount = _popcount_table(n)
    perm = np.arange(n)[None, :] ^ (s ^ t)[:, None]  # x -> x XOR (s XOR t)
    return UGInstance.from_arrays(
        m, n, np.repeat(i, n * n), np.repeat(j, n * n), wt[popcount[z.ravel()]],
        np.tile(perm, (len(i), 1)),
    )


def kv_label_extended(spec: KVSpec) -> np.ndarray:
    """Closed-form label-extended matrix: the eps-perturbed hypercube on
    2^n vertices, entry (u, v) = n * eps^|u^v| (1-eps)^(n-|u^v|)."""
    if spec.n > 12:
        raise UGError("kv_label_extended materializes only up to n=12")
    return cayley_matrix(spec.n * _kv_weight_table(spec)[_popcount_table(spec.n)])


def kv_vertex_bijection(spec: KVSpec) -> np.ndarray:
    """Map (coset i, label y) -> hypercube vertex p_i XOR h_y, as a length
    m*n index array into the closed-form matrix."""
    reps, _ = kv_cosets(spec)
    return (reps[:, None] ^ hadamard_code(spec.kappa)).ravel()


def kv_spectrum(spec: KVSpec):
    """Closed-form spectrum of the KV label-extended graph:
    [(n*(1-2*eps)^r, C(n, r)) for r = 0..n]."""
    n = spec.n
    return [(n * (1 - 2 * spec.eps) ** r, comb(n, r)) for r in range(n + 1)]


def kv_eigenspace_dimension(spec: KVSpec, gamma) -> int:
    """Number of closed-form eigenvalues >= (1-gamma) * n."""
    if not (0 < gamma <= 1):
        raise UGError("gamma must be in (0, 1]")
    return sum(mult for lam, mult in kv_spectrum(spec) if lam >= (1 - gamma) * spec.n)

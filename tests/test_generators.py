"""Planted/perturbed factories, regular skeletons, Walsh-Hadamard engine,
and the perturbed-hypercube construction."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ugspectral.generators as generators_mod
from ugspectral.core import InvalidLabelingError, UGError, serialize_instance, value
from ugspectral.generators import (
    KVSpec,
    _kv_weight_table,
    _popcount_table,
    cayley_matrix,
    hadamard_code,
    kv_cosets,
    kv_eigenspace_dimension,
    kv_instance,
    kv_label_extended,
    kv_spectrum,
    kv_vertex_bijection,
    perturb,
    planted_instance,
    planted_regular_instance,
    PlantedSpec,
    random_regular_graph,
    walsh_hadamard_spectrum,
)
from ugspectral.label_extended import build_label_extended
from ugspectral.maxlin import AbelianGroup, MaxLinInstance

from conftest import complete_skeleton, cycle_skeleton, maxlin_on


def kv_constraint_graph(spec: KVSpec):
    """(coset representatives, m x m weight matrix A) of the KV constraint
    graph; A[i, j] sums eps^|..| (1-eps)^(n-|..|) over all H x H pairs."""
    reps, _ = kv_cosets(spec)
    H = hadamard_code(spec.kappa)
    # The sum over h1, h2 collapses to n * the sum over h of the coset difference.
    diffs = (reps[:, None] ^ reps[None, :])[:, :, None] ^ H
    wt = _kv_weight_table(spec)[_popcount_table(spec.n)[diffs]]
    return reps, spec.n * wt.sum(axis=2)


class TestPlanted:
    @given(st.integers(0, 10**6), st.sampled_from(["general-permutation", "maxlin"]))
    @settings(max_examples=20, deadline=None)
    def test_planted_value_is_one(self, seed, family):
        rng = np.random.default_rng(seed)
        inst, planted = planted_instance(
            PlantedSpec(8, 3, complete_skeleton(8), rng.integers(0, 3, 8), family, seed)
        )
        assert value(inst, planted) == 1.0

    def test_maxlin_family_is_shift_only(self):
        rng = np.random.default_rng(4)
        inst, _ = planted_instance(
            PlantedSpec(6, 4, cycle_skeleton(6), rng.integers(0, 4, 6), "maxlin", 4)
        )
        MaxLinInstance.from_instance(inst)  # raises if any edge is not a shift

    def test_weighted_skeleton(self):
        inst, planted = planted_instance(
            PlantedSpec(3, 2, [(0, 1, 0.25), (1, 2, 0.75)], [0, 1, 0], seed=0)
        )
        assert inst.w.tolist() == [0.25, 0.75]
        assert value(inst, planted) == 1.0

    @pytest.mark.parametrize("family", ["general-permutation", "maxlin"])
    @pytest.mark.parametrize("planted, match", [
        ([0, 5, 1], r"label out of range \[0, 2\)"),
        ([0, -1, 1], r"label out of range \[0, 2\)"),
        ([0.5, 1, 1], "label 0.5 is not an integer"),
        ([0, 1], r"labeling length \(2,\) != n=3"),
    ])
    def test_bad_planted_labels_rejected(self, family, planted, match):
        """Planted labels are checked as a labeling of the instance is: an
        out-of-range label is neither an index error nor, for the maxlin
        family, taken modulo k."""
        with pytest.raises(InvalidLabelingError, match=match):
            planted_instance(PlantedSpec(3, 2, [(0, 1), (1, 2)], planted, family))

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 2)])
    def test_skeleton_endpoint_out_of_range_rejected(self, edge):
        with pytest.raises(UGError, match=r"skeleton endpoint out of range \[0, 3\)"):
            planted_instance(PlantedSpec(3, 2, [(0, 1), edge], [0, 1, 0]))

    def test_unknown_family_rejected(self):
        with pytest.raises(UGError, match="unknown constraint family 'max-lin'"):
            planted_instance(PlantedSpec(5, 2, cycle_skeleton(5), [0] * 5, "max-lin"))
        inst, planted = planted_instance(PlantedSpec(5, 2, cycle_skeleton(5), [0] * 5))
        for eps in (0.0, 0.3):
            with pytest.raises(UGError, match="unknown constraint family 'max-lin'"):
                perturb(inst, planted, eps, constraint_family="max-lin")

    @pytest.mark.parametrize("seed", [-1, 0.5, True, None])
    def test_bad_seed_rejected(self, seed):
        """Every seeded factory takes a non-negative integer seed and names
        any other, where numpy would raise its own error or take None."""
        match = f"seed must be a non-negative integer, got {seed!r}"
        inst, planted = planted_instance(PlantedSpec(5, 2, cycle_skeleton(5), [0] * 5))
        for make in (
            lambda: planted_instance(PlantedSpec(5, 2, cycle_skeleton(5), [0] * 5, seed=seed)),
            lambda: perturb(inst, planted, 0.3, seed=seed),
            lambda: random_regular_graph(10, 3, seed=seed),
            lambda: planted_regular_instance(10, 3, 2, seed=seed),
        ):
            with pytest.raises(UGError, match=match):
                make()

    def test_numpy_integer_seed_draws_the_same(self):
        assert random_regular_graph(10, 3, seed=np.int64(5)) == random_regular_graph(10, 3, 5)


class TestPerturb:
    def test_realized_fraction_near_eps(self):
        inst, planted = planted_instance(
            PlantedSpec(10, 3, complete_skeleton(10), [0] * 10, seed=1)
        )
        pert = perturb(inst, planted, 0.1, seed=2)
        realized = 1 - value(pert, planted)
        # picks edges until cumulative weight first reaches eps * total:
        # overshoot is at most one edge's weight
        wmax = inst.w.max() / inst.total_weight
        assert 0.1 <= realized <= 0.1 + wmax + 1e-12

    def test_eps_zero_is_identity(self):
        inst, planted = planted_instance(
            PlantedSpec(5, 2, cycle_skeleton(5), [0] * 5, seed=0)
        )
        assert perturb(inst, planted, 0.0) is inst

    def test_requires_perfect_planted(self):
        inst, planted = planted_instance(
            PlantedSpec(5, 2, cycle_skeleton(5), [0] * 5, seed=0)
        )
        pert = perturb(inst, planted, 0.3, seed=1)
        with pytest.raises(UGError):
            perturb(pert, planted, 0.1)

    @pytest.mark.parametrize("eps", [-0.1, 1.0])
    def test_eps_outside_unit_interval_rejected(self, eps):
        inst, planted = planted_instance(
            PlantedSpec(5, 2, cycle_skeleton(5), [0] * 5, seed=0)
        )
        with pytest.raises(UGError, match=r"eps must be in \[0,1\)"):
            perturb(inst, planted, eps)

    def test_single_label_rejected(self):
        inst, planted = planted_instance(
            PlantedSpec(5, 1, cycle_skeleton(5), [0] * 5, seed=0)
        )
        with pytest.raises(UGError, match="k=1"):
            perturb(inst, planted, 0.1)

    def test_maxlin_family_stays_maxlin(self):
        rng = np.random.default_rng(7)
        inst, planted = planted_instance(
            PlantedSpec(8, 3, complete_skeleton(8), rng.integers(0, 3, 8), "maxlin", 7)
        )
        pert = perturb(inst, planted, 0.2, seed=8, constraint_family="maxlin")
        MaxLinInstance.from_instance(pert)
        assert 1 - value(pert, planted) >= 0.2

    def test_deterministic(self):
        inst, planted = planted_instance(
            PlantedSpec(8, 3, complete_skeleton(8), [1] * 8, seed=3)
        )
        p1 = perturb(inst, planted, 0.15, seed=5)
        p2 = perturb(inst, planted, 0.15, seed=5)
        assert np.array_equal(p1.perm, p2.perm)


def text_digest(inst):
    """Leading 16 hex digits of the sha256 of the instance's text."""
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:16]


class TestPinnedOutput:
    """Generator output, pinned bit for bit: the seeded RNG draws, their
    order and the weight rescaling must not change without a new pin."""

    @pytest.mark.parametrize(
        "family, planted_digest, perturbed_digest",
        [
            ("general-permutation", "1880db1a211bef65", "cf776852d0bd82e7"),
            ("maxlin", "3c15eb57fe3326b5", "fe6432d1abdc47d8"),
        ],
    )
    def test_planted_regular_and_perturb(self, family, planted_digest, perturbed_digest):
        inst, planted, _ = planted_regular_instance(60, 4, 6, seed=3, constraint_family=family)
        assert text_digest(inst) == planted_digest
        pert = perturb(inst, planted, 0.1, seed=4, constraint_family=family)
        assert text_digest(pert) == perturbed_digest

    def test_kv_instance(self):
        assert text_digest(kv_instance(KVSpec(2, 0.25))) == "3b266342e3ad1a5e"

    def test_weighted_planted_instance(self):
        inst, _ = planted_instance(PlantedSpec(3, 2, [(0, 1, 2.0), (1, 2, 0.5)], [0, 1, 0]))
        assert (text_digest(inst), inst.scale) == ("c36e528a3802b079", 2.0)

    def test_from_constraints(self):
        constraints = [(0, 1, 1.0, 5), (1, 2, 3.0, 2), (2, 3, 0.5, 4), (3, 0, 1.0, 1)]
        ml = maxlin_on(4, AbelianGroup((2, 3)), constraints)
        assert (text_digest(ml.base), ml.base.scale) == ("3bc6ab0734c18d88", 3.0)
        assert ml.shifts.tolist() == [5, 2, 4, 1]


class TestRandomRegular:
    @pytest.mark.parametrize("n,d", [(10, 3), (12, 4), (9, 2)])
    def test_simple_and_regular(self, n, d):
        edges, lam2 = random_regular_graph(n, d, seed=1)
        assert len(edges) == n * d // 2
        assert len(set(edges)) == len(edges)
        deg = np.zeros(n)
        for u, v in edges:
            assert u != v
            deg[u] += 1
            deg[v] += 1
        assert np.all(deg == d)
        assert lam2 < d  # simple connected-ish sanity; exact value measured

    @pytest.mark.parametrize("n,d", [(4, 3), (10, 3), (12, 4), (40, 5)])
    def test_matches_pair_by_pair_reference(self, n, d):
        """The vectorised rejection check accepts exactly the pairings a
        pair-by-pair loop accepts, so every seed gives the same graph."""

        def reference(seed):
            rng = np.random.default_rng(seed)
            while True:
                stubs = np.repeat(np.arange(n), d)
                rng.shuffle(stubs)
                edges = set()
                for u, v in stubs.reshape(-1, 2).tolist():
                    if u == v or (min(u, v), max(u, v)) in edges:
                        break
                    edges.add((min(u, v), max(u, v)))
                else:
                    return sorted(edges)

        for seed in range(4):
            assert random_regular_graph(n, d, seed=seed)[0] == reference(seed)

    def test_lambda2_matches_recomputation(self):
        edges, lam2 = random_regular_graph(12, 3, seed=2)
        A = np.zeros((12, 12))
        for u, v in edges:
            A[u, v] = A[v, u] = 1.0
        assert lam2 == pytest.approx(np.sort(np.linalg.eigvalsh(A))[-2])

    def test_lambda2_on_sparse_path(self):
        """At n = 600 the graph is stored sparse and lambda_2 comes from the
        filtered subspace iteration; it matches the dense spectrum."""
        edges, lam2 = random_regular_graph(600, 4, seed=2)
        A = np.zeros((600, 600))
        for u, v in edges:
            A[u, v] = A[v, u] = 1.0
        assert lam2 == pytest.approx(np.sort(np.linalg.eigvalsh(A))[-2], abs=1e-9)
        assert random_regular_graph(600, 0)[1] == 0.0  # the zero matrix

    def test_odd_total_degree_rejected(self):
        with pytest.raises(UGError):
            random_regular_graph(5, 3)

    @pytest.mark.parametrize("n,d", [(4, 4), (4, 6), (4, -2)])
    def test_degree_outside_range_rejected(self, n, d):
        with pytest.raises(UGError, match="need 0 <= d < n"):
            random_regular_graph(n, d)

    @staticmethod
    def assert_simple_regular(edges, n, d):
        assert len(edges) == len(set(edges)) == n * d // 2
        assert all(0 <= u < v < n for u, v in edges)
        assert np.bincount(np.ravel(edges).astype(int), minlength=n).tolist() == [d] * n

    def test_pairing_failure_repaired(self, monkeypatch):
        """n = 10, d = 6 draws a simple pairing with probability about
        e^-8.75, so three tries fail and the last pairing is repaired by
        switches, into the same graph for the same seed."""
        monkeypatch.setattr(generators_mod, "PAIRING_TRIES", 3)
        edges, lam2 = random_regular_graph(10, 6)
        self.assert_simple_regular(edges, 10, 6)
        assert random_regular_graph(10, 6) == (edges, lam2)

    @pytest.mark.parametrize("n,d", [(10, 6), (300, 6)])
    def test_dense_degree_solves(self, n, d):
        """At d = 6 a pairing is simple with probability about
        e^-(d^2-1)/4 = 2e-4 or less, so PAIRING_TRIES of them are rejected
        and the last is repaired: simple, d-regular and seeded."""
        edges, lam2 = random_regular_graph(n, d, seed=0)
        self.assert_simple_regular(edges, n, d)
        assert random_regular_graph(n, d, seed=0) == (edges, lam2)

    def test_switches_reach_every_dense_degree(self, monkeypatch):
        """With one pairing drawn, every valid (n, d) up to n = 11 is
        repaired, the complete graph d = n - 1 included."""
        monkeypatch.setattr(generators_mod, "PAIRING_TRIES", 1)
        for n in range(2, 12):
            for d in (d for d in range(n) if n * d % 2 == 0):
                for seed in range(3):
                    self.assert_simple_regular(random_regular_graph(n, d, seed)[0], n, d)

    @pytest.mark.parametrize("n, d", [(10.0, 3), (10, 3.0), (10, True), (np.float64(10), 3)])
    def test_non_integer_size_rejected(self, n, d):
        with pytest.raises(UGError, match="n and d must be integers"):
            random_regular_graph(n, d)

    def test_numpy_integer_size_accepted(self):
        assert random_regular_graph(np.int64(10), np.int32(3)) == random_regular_graph(10, 3)

    def test_planted_regular_k_below_one_rejected(self):
        with pytest.raises(UGError, match="need k >= 1"):
            planted_regular_instance(12, 3, 0)

    def test_planted_regular_instance(self):
        inst, planted, lam2 = planted_regular_instance(12, 3, 3, seed=6)
        assert inst.is_regular()
        assert value(inst, planted) == 1.0


class TestWalshHadamard:
    def naive_transform(self, f):
        N = len(f)
        return np.array(
            [
                sum(f[x] * (-1) ** bin(w & x).count("1") for x in range(N))
                for w in range(N)
            ],
            dtype=np.float64,
        )

    @given(st.integers(0, 10**6), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_matches_naive_character_sum(self, seed, dim):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(2**dim)
        spec = walsh_hadamard_spectrum(f)
        assert spec.shape == (2**dim,)
        assert np.abs(spec - self.naive_transform(f)).max() <= 1e-9

    def test_involution_up_to_scale(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(16)
        twice = walsh_hadamard_spectrum(walsh_hadamard_spectrum(f))
        assert np.abs(twice - 16 * f).max() <= 1e-9

    def test_rejects_non_power_of_two(self):
        with pytest.raises(UGError):
            walsh_hadamard_spectrum(np.ones(3))

    def test_cayley_eigenvalues(self):
        """The transform values are exactly the Cayley-graph spectrum."""
        rng = np.random.default_rng(2)
        f = np.abs(rng.standard_normal(8))
        f[0] = 0.0
        A = cayley_matrix(f)
        assert np.array_equal(A, A.T)
        dense = np.sort(np.linalg.eigvalsh(A))
        fwht = np.sort(walsh_hadamard_spectrum(f))
        assert np.abs(dense - fwht).max() <= 1e-9


class TestHadamardCode:
    def test_linear_code(self):
        H = hadamard_code(3)
        for a in range(8):
            for b in range(8):
                assert H[a] ^ H[b] == H[a ^ b]

    def test_codeword_weights(self):
        H = hadamard_code(3)
        weights = [bin(int(h)).count("1") for h in H]
        assert weights[0] == 0
        assert all(w == 4 for w in weights[1:])  # balanced codewords, n/2 ones


class TestKV:
    def test_spec_validation(self):
        with pytest.raises(UGError):
            KVSpec(0, 0.1)
        with pytest.raises(UGError):
            KVSpec(2, 0.5)
        s = KVSpec(2, 0.1)
        assert (s.n, s.N, s.m) == (4, 16, 4)

    @pytest.mark.parametrize("kappa", [2.5, 2.0, True, np.bool_(True), "2"])
    def test_non_integer_kappa_rejected(self, kappa):
        """kappa is an integer of at least 1: a float, even a whole one,
        and a bool are rejected when the spec is made."""
        with pytest.raises(UGError, match="kappa must be an integer >= 1"):
            KVSpec(kappa, 0.1)

    def test_numpy_integer_kappa_accepted(self):
        assert KVSpec(np.int64(2), 0.1).n == 4

    def test_cosets_partition(self):
        spec = KVSpec(2, 0.1)
        reps, coset_of = kv_cosets(spec)
        assert len(reps) == spec.m
        counts = np.bincount(coset_of, minlength=spec.m)
        assert np.all(counts == spec.n)
        H = hadamard_code(2)
        for i, r in enumerate(reps):
            assert r == min(int(r) ^ int(h) for h in H)

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_helpers_match_loop_references(self, kappa):
        """Codewords, cosets, the constraint graph and the bijection equal,
        bit for bit, their definitions written as Python loops."""
        spec = KVSpec(kappa, 0.1)
        n, N, m = spec.n, spec.N, spec.m
        code = [sum(1 << x for x in range(n) if bin(x & y).count("1") % 2) for y in range(n)]
        assert hadamard_code(kappa).tolist() == code
        reps, coset_of = [], [-1] * N
        for x in range(N):  # scan: each new coset is named by its first member
            if coset_of[x] < 0:
                reps.append(min(x ^ h for h in code))
                for h in code:
                    coset_of[x ^ h] = len(reps) - 1
        got_reps, got_coset = kv_cosets(spec)
        assert (got_reps.tolist(), got_coset.tolist()) == (reps, coset_of)
        wt = 0.1 ** np.arange(n + 1) * 0.9 ** (n - np.arange(n + 1))
        A = [[n * wt[[bin(a ^ b ^ h).count("1") for h in code]].sum() for b in reps]
             for a in reps]
        assert np.array_equal(kv_constraint_graph(spec)[1], A)
        bijection = [r ^ h for r in reps for h in code]
        assert kv_vertex_bijection(spec).tolist() == bijection
        assert len(bijection) == m * n

    def test_instance_is_regular_degree_n(self):
        spec = KVSpec(2, 0.1)
        inst = kv_instance(spec)
        assert inst.n == spec.m and inst.k == spec.n
        deg = inst.degrees() * inst.scale
        assert np.allclose(deg, spec.n)

    def test_constraint_graph_matches_instance(self):
        spec = KVSpec(2, 0.2)
        _, A = kv_constraint_graph(spec)
        from ugspectral.label_extended import constraint_graph_adjacency

        inst = kv_instance(spec)
        B = constraint_graph_adjacency(inst) * inst.scale
        assert np.abs(A - B).max() <= 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.25])
    def test_label_extended_equals_closed_form(self, eps):
        spec = KVSpec(2, eps)
        inst = kv_instance(spec)
        M = build_label_extended(inst).matrix * inst.scale
        closed = kv_label_extended(spec)
        b = kv_vertex_bijection(spec)
        assert np.abs(M - closed[np.ix_(b, b)]).max() <= 1e-12

    def test_spectrum_closed_form_small(self):
        spec = KVSpec(2, 0.1)
        vals = np.sort(np.linalg.eigvalsh(kv_label_extended(spec)))[::-1]
        expect = np.sort(
            np.repeat([lam for lam, _ in kv_spectrum(spec)],
                      [m for _, m in kv_spectrum(spec)])
        )[::-1]
        assert np.abs(vals - expect).max() <= 1e-8

    def test_spectrum_trace_identity(self):
        spec = KVSpec(2, 0.2)
        total = sum(lam * mult for lam, mult in kv_spectrum(spec))
        assert total == pytest.approx(np.trace(kv_label_extended(spec)))

    def test_eigenspace_dimension(self):
        spec = KVSpec(2, 0.25)  # eigenvalues 4 * 0.5^r, mult C(4, r)
        assert kv_eigenspace_dimension(spec, 0.4) == 1      # only r=0 (4 >= 2.4)
        assert kv_eigenspace_dimension(spec, 0.5) == 5      # r<=1 (2 >= 2)
        assert kv_eigenspace_dimension(spec, 1.0) == 16     # everything >= 0

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
    def test_eigenspace_dimension_gamma_range(self, gamma):
        with pytest.raises(UGError, match=r"gamma must be in \(0, 1\]"):
            kv_eigenspace_dimension(KVSpec(2, 0.25), gamma)

    def test_materialization_limits(self):
        with pytest.raises(UGError):
            kv_instance(KVSpec(4, 0.1))
        with pytest.raises(UGError):
            kv_label_extended(KVSpec(4, 0.1))

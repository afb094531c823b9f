"""Group-difference instances: groups, lifts, perturbation diagnostics,
and the specialized solver."""

import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

import ugspectral.core as core_mod
from ugspectral.core import UGInstance, UGError, shift_image, value, value_batch
from ugspectral.generators import perturb, planted_regular_instance, random_regular_graph
from ugspectral.label_extended import build_label_extended, constraint_graph_adjacency
from ugspectral.linalg import DimensionAbortError, Eigenspace, eigendecompose, select_eigenspace
import ugspectral.maxlin as maxlin_mod
from ugspectral.maxlin import (
    AbelianGroup,
    MaxLinInstance,
    MaxLinParams,
    PerturbationReport,
    block_norm_vector,
    character_blocks,
    character_net,
    character_window,
    lift_eigenbasis,
    perturbed_edge_matrix,
    shift,
    sin_theta_report,
    solve_maxlin,
    uniformity_check,
)
import ugspectral.recover as recover_mod
from ugspectral.recover import (NonRegularError, SolveParams, label_blocks, read_off_batch,
                                recover_solution)

from conftest import complete_skeleton, from_rows, maxlin_on, planted_on


class TestAbelianGroup:
    """Group arithmetic as array lookups: a - b is shift_table()[b, a], and
    shift(L, i) adds i to every label."""

    def test_cyclic_arithmetic(self):
        g = AbelianGroup((5,))
        table = g.shift_table()
        assert shift([3], 4, g).tolist() == [2]  # 3 + 4
        assert table[2, 0] == 3  # -2 = 0 - 2
        assert table[3, 1] == 3  # 1 - 3

    def test_product_is_componentwise(self):
        g = AbelianGroup((2, 2))  # indices are 2-bit vectors, add = sub = XOR
        table = g.shift_table()
        for a in range(4):
            assert shift(range(4), a, g).tolist() == [a ^ b for b in range(4)]
            assert table[a].tolist() == [a ^ b for b in range(4)]

    def test_mixed_radix_roundtrip(self):
        """Factors are little-endian: in Z_2 x Z_3, 1 is (1, 0) and 2 is
        (0, 1); subtracting an element undoes adding it."""
        g = AbelianGroup((2, 3))
        assert shift(range(6), 1, g).tolist() == [1, 0, 3, 2, 5, 4]
        assert shift(range(6), 2, g).tolist() == [2, 3, 4, 5, 0, 1]
        table = g.shift_table()
        for i in range(6):
            assert table[i, shift(range(6), i, g)].tolist() == list(range(6))

    def test_shift_table_encodes_difference(self):
        g = AbelianGroup((4,))
        table = g.shift_table()
        # pi(x_u) = x_v with pi = table[1] encodes x_u - x_v = 1
        for xu in range(4):
            assert table[table[1, xu], xu] == 1
        assert table.tolist() == [shift_image(np.arange(4), c, 4).tolist() for c in range(4)]

    def test_xor_shift_table(self):
        g = AbelianGroup((2, 2))
        assert g.shift_table()[3].tolist() == [i ^ 3 for i in range(4)]

    def test_rejects_bad_factors(self):
        with pytest.raises(UGError):
            AbelianGroup((1,))


def regular_maxlin(n, d, group, seed, perturbed=False):
    """Max-Lin over the group on a random d-regular graph, every constraint
    satisfied by a random labeling, then 5% of the shifts redrawn if
    perturbed."""
    edges, _ = random_regular_graph(n, d, seed)
    u, v = np.array(edges).T
    rng = np.random.default_rng(seed)
    x = rng.integers(0, group.order, n)
    table = group.shift_table()
    c = table[x[v], x[u]]  # x_u - x_v
    if perturbed:
        redraw = rng.random(len(c)) < 0.05
        c[redraw] = rng.integers(0, group.order, np.count_nonzero(redraw))
    return MaxLinInstance(UGInstance.from_arrays(n, group.order, u, v, np.ones(len(u)), table[c]),
                          group)


def projector_distance(X, Y):
    """||P_X - P_Y||_2 for orthonormal bases of equal dimension: the sine of
    their largest principal angle, ||Y - X X^T Y||_2, formed without the
    ambient x ambient projectors."""
    return np.linalg.norm(Y - X @ (X.T @ Y), 2) if Y.shape[1] else 0.0


def assert_same_window(W, R):
    """W and R, eigenspaces of the same operator and cut, agree: dimension,
    eigenvalues, nearest dropped value and projector within 1e-8."""
    assert W.dim == R.dim
    np.testing.assert_allclose(np.sort(W.eigenvalues), np.sort(R.eigenvalues), rtol=0, atol=1e-8)
    assert W.nearest_dropped == pytest.approx(R.nearest_dropped, rel=0, abs=1e-8)
    assert projector_distance(W.basis, R.basis) <= 1e-8


class TestMaxLinInstance:
    """The record is (base, group); the shifts are derived from the base's
    permutation rows."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(MaxLinInstance)] == ["base", "group"]

    def test_from_constraints(self):
        g = AbelianGroup((3,))
        ml = maxlin_on(3, g, [(0, 1, 1.0, 2), (1, 2, 1.0, 0)])
        assert ml.shifts.tolist() == [2, 0]
        assert value(ml.base, [2, 0, 0]) == 1.0  # x0 - x1 = 2, x1 - x2 = 0

    @pytest.mark.parametrize("factors", [(7,), (2, 3), (2, 2, 2)])
    def test_shifts_are_the_constants(self, factors):
        """shifts is a read-only int64 array equal to the constants the
        base was built from, on cyclic, mixed-radix and XOR groups."""
        g = AbelianGroup(factors)
        c = np.random.default_rng(len(factors)).integers(0, g.order, 20)
        ml = maxlin_on(5, g, [(e % 5, (e * 3 + 1) % 5, 1.0, x) for e, x in enumerate(c)])
        assert ml.shifts.dtype == np.int64
        assert np.array_equal(ml.shifts, c)
        assert np.array_equal(ml.base.perm, g.shift_table()[ml.shifts])
        with pytest.raises(ValueError):
            ml.shifts[0] = 0

    def test_from_instance_detects_shifts(self):
        inst = from_rows(2, 4, [(0, 1, 1.0, shift_image(np.arange(4), 3, 4))])
        assert MaxLinInstance.from_instance(inst).shifts.tolist() == [3]

    def test_from_instance_rejects_non_shift(self):
        inst = from_rows(2, 3, [(0, 1, 1.0, (0, 2, 1))])
        with pytest.raises(UGError):
            MaxLinInstance.from_instance(inst)

    def test_non_shift_edge_named(self):
        """The first edge whose row is not the shift its image of 0 names
        is rejected, by its endpoints and that shift."""
        g = AbelianGroup((2, 2))
        table = g.shift_table()
        rows = [(0, 1, 1.0, table[1]), (2, 1, 1.0, (3, 2, 0, 1)), (0, 2, 1.0, (1, 0, 2, 3))]
        with pytest.raises(UGError, match=re.escape("edge (2,1) is not the shift by 3")):
            MaxLinInstance(from_rows(3, 4, rows), g)

    def test_group_order_must_match(self):
        inst = from_rows(2, 3, [(0, 1, 1.0, shift_image(np.arange(3), 1, 3))])
        with pytest.raises(UGError):
            MaxLinInstance.from_instance(inst, AbelianGroup((4,)))


class TestShiftInvariance:
    def test_identity_shift(self):
        g = AbelianGroup((3,))
        assert shift([0, 1, 2], 0, g).tolist() == [0, 1, 2]

    def test_known_shift(self):
        g = AbelianGroup((3,))
        assert shift([0, 1, 2], 1, g).tolist() == [1, 2, 0]

    @given(st.integers(0, 10**6), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_value_invariant_under_every_shift(self, seed, k):
        inst, planted = planted_on(6, k, complete_skeleton(6), seed=seed, family="maxlin")
        pert = perturb(inst, planted, 0.2, seed=seed + 1, constraint_family="maxlin")
        g = AbelianGroup((k,))
        rng = np.random.default_rng(seed)
        L = rng.integers(0, k, size=6)
        base = value(pert, L)
        for i in range(k):
            assert value(pert, shift(L, i, g)) == pytest.approx(base, abs=1e-12)


class TestLiftEigenbasis:
    def test_two_vertex_example(self):
        """One edge, k=2, shift 0, planted (0,0): the all-ones constraint
        graph eigenvector lifts to the two disjoint-support eigenvectors of
        the label-extended matrix with eigenvalue d."""
        g = AbelianGroup((2,))
        ml = maxlin_on(2, g, [(0, 1, 1.0, 0)])
        phi = Eigenspace(2, np.full((2, 1), 1 / np.sqrt(2)), np.array([1.0]),
                         0.0, "adjacency-high")
        lifted = lift_eigenbasis(phi, ml, [0, 0])
        expect0 = np.array([1, 0, 1, 0]) / np.sqrt(2)
        expect1 = np.array([0, 1, 0, 1]) / np.sqrt(2)
        assert np.allclose(lifted[0], expect0)
        assert np.allclose(lifted[1], expect1)
        M = build_label_extended(ml.base).matrix
        for v in lifted:
            assert np.linalg.norm(M @ v - 1.0 * v) <= 1e-12

    def test_count_and_orthogonality(self):
        inst, planted = planted_on(6, 3, complete_skeleton(6), seed=1, family="maxlin")
        ml = MaxLinInstance.from_instance(inst)
        A = constraint_graph_adjacency(inst)
        phi = select_eigenspace(A, -1e18, "adjacency-high")  # full basis
        lifted = lift_eigenbasis(phi, ml, planted)
        assert lifted.shape == (3 * phi.dim, 18)
        G = lifted @ lifted.T
        assert np.abs(G - np.eye(len(G))).max() <= 1e-9
        # Row s*k + i is phi_s on the i-shifted planted labeling's entries.
        ref = np.zeros_like(lifted)
        for s in range(phi.dim):
            for i in range(3):
                ref[3 * s + i, np.arange(6) * 3 + shift(planted, i, ml.group)] = phi.basis[:, s]
        assert np.array_equal(lifted, ref)

    @pytest.mark.parametrize("seed", range(10))
    def test_criterion_10_lifts(self, seed):
        """On criterion 10's instances, entry (s*k + i, u*k + L_i[u]) of the
        lift is phi_s[u] and every other entry is zero, L_i the planted
        labeling plus i looked up in the shift table."""
        inst, planted, _ = planted_regular_instance(18, 4, 3, seed=seed,
                                                    constraint_family="maxlin")
        ml = MaxLinInstance.from_instance(inst)
        phi = select_eigenspace(constraint_graph_adjacency(inst), -1e18, "adjacency-high")
        table = ml.group.shift_table()
        ref = np.zeros((3 * phi.dim, 18 * 3))
        for s in range(phi.dim):
            for i in range(3):
                for u in range(18):
                    ref[3 * s + i, 3 * u + table[table[i, 0], planted[u]]] = phi.basis[u, s]
        assert np.array_equal(lift_eigenbasis(phi, ml, planted), ref)

    def test_requires_perfect_labeling(self):
        inst, planted = planted_on(6, 3, complete_skeleton(6), seed=1, family="maxlin")
        ml = MaxLinInstance.from_instance(inst)
        phi = select_eigenspace(constraint_graph_adjacency(inst), -1e18, "adjacency-high")
        bad = (np.asarray(planted) + 1) % 3
        bad[0] = planted[0]  # breaks shift structure, value < 1
        with pytest.raises(UGError):
            lift_eigenbasis(phi, ml, bad)


class TestBlockNorm:
    def test_preserves_total_norm(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(12)
        wb = block_norm_vector(w, 4, 3)
        assert np.linalg.norm(wb) == pytest.approx(np.linalg.norm(w))

    def test_characteristic_vector(self):
        from ugspectral.core import characteristic_vector

        y = characteristic_vector([0, 2, 1], 3, normalized=True)
        assert np.allclose(block_norm_vector(y, 3, 3), 1 / np.sqrt(3))


class TestUniformity:
    def _space(self, vecs):
        B = np.column_stack(vecs)
        return Eigenspace(B.shape[0], B, np.zeros(B.shape[1]), 0.0, "adjacency-high")

    def test_empty_space_rejected(self):
        empty = Eigenspace(4, np.zeros((4, 0)), np.zeros(0), 0.0, "adjacency-high")
        with pytest.raises(UGError, match="nonempty eigenspace"):
            uniformity_check(empty, C=1.0)

    def test_all_ones_passes_c1(self):
        n = 16
        rep = uniformity_check(self._space([np.full(n, 1 / np.sqrt(n))]), C=1.0)
        assert rep.passes

    def test_standard_basis_fails(self):
        e0 = np.zeros(9)
        e0[0] = 1.0
        rep = uniformity_check(self._space([e0]), C=2.0)
        assert not rep.passes
        assert rep.worst_linf == 1.0

    def test_characters_are_exactly_uniform(self):
        """Each +-1/sqrt(n) character vector of F_2^4 meets the bound with
        C=1 exactly."""
        n = 16
        H = np.array([[(-1) ** bin(x & y).count("1") for x in range(n)]
                      for y in range(n)]) / np.sqrt(n)
        for row in H:
            rep = uniformity_check(self._space([row]), C=1.0)
            assert rep.passes
            assert rep.worst_linf == pytest.approx(1 / np.sqrt(n))

    def test_span_of_two_characters_is_exact(self):
        """Every row of two characters has norm sqrt(2/16): the unit
        combination (H[0] +- H[1]) / sqrt(2) reaches it, above 1/sqrt(n)."""
        n = 16
        H = np.array([[(-1) ** bin(x & y).count("1") for x in range(n)]
                      for y in range(n)]) / np.sqrt(n)
        rep = uniformity_check(self._space([H[0], H[1]]), C=1.0)
        assert rep.worst_linf == pytest.approx(np.sqrt(2 / 16), rel=1e-15)
        assert not rep.passes

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_worst_is_the_supremum(self, n, dim, seed):
        """On an orthonormal B (the QR of a random matrix) worst_linf is the
        largest row norm, no seeded unit combination exceeds it, and it is
        attained at c = B[v*] / ||B[v*]||; at dim 1 it is max |B| exactly."""
        dim = min(dim, n)
        rng = np.random.default_rng(seed)
        B = np.linalg.qr(rng.standard_normal((n, dim)))[0]
        rep = uniformity_check(self._space(list(B.T)), C=1.0)
        rows = np.linalg.norm(B, axis=1)
        assert rep.worst_linf == rows.max()
        c = rng.standard_normal((1000, dim))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        assert np.abs(c @ B.T).max() <= rep.worst_linf * (1 + 1e-12)
        v = int(np.argmax(rows))
        assert np.abs(B @ (B[v] / rows[v])).max() == pytest.approx(rep.worst_linf, abs=1e-12)
        if dim == 1:
            assert rep.worst_linf == np.abs(B).max()


class TestSinTheta:
    def _planted(self, seed=0, k=2):
        inst, planted = planted_on(8, k, complete_skeleton(8), seed=seed, family="maxlin")
        return MaxLinInstance.from_instance(inst), planted

    def test_unperturbed_is_exact(self):
        ml, planted = self._planted()
        M = build_label_extended(ml.base)
        w = eigendecompose(M.matrix)[1][:, 0]
        rep = sin_theta_report(ml, ml, w, gamma=0.5)
        assert rep.numerator == 0.0
        assert rep.beta_measured <= 1e-9

    def test_single_flipped_edge_bound(self):
        ml, planted = self._planted(seed=5)
        base = ml.base
        perm = base.perm.copy()
        perm[0] = shift_image(np.arange(2), ml.shifts[0] + 1, 2)
        pert = MaxLinInstance.from_instance(
            UGInstance.from_arrays(base.n, base.k, base.u, base.v, base.w, perm, base.scale)
        )
        M = build_label_extended(pert.base)
        vals, vecs = eigendecompose(M.matrix)
        for j in range(4):
            rep = sin_theta_report(pert, ml, vecs[:, j], gamma=0.5)
            if rep.lam > rep.lambda_s:
                assert rep.beta_measured <= rep.beta_bound + 1e-8
            assert rep.numerator <= rep.r_matrix_bound + 1e-8

    def test_default_vector_is_top_eigenvector(self):
        """With w None the report is the one for the first eigenvector of a
        full decomposition (the top eigenvalue d is simple here)."""
        ml, planted = self._planted(seed=5)
        pert = MaxLinInstance.from_instance(
            perturb(ml.base, planted, 0.1, seed=1, constraint_family="maxlin")
        )
        w = eigendecompose(build_label_extended(pert.base).matrix)[1][:, 0]
        want = sin_theta_report(pert, ml, w, gamma=0.5).to_dict()
        got = sin_theta_report(pert, ml, None, gamma=0.5).to_dict()
        assert got == pytest.approx(want, rel=0, abs=1e-9)

    def test_r_matrix_budget(self):
        ml, planted = self._planted(seed=2)
        pert_inst = perturb(ml.base, planted, 0.1, seed=9, constraint_family="maxlin")
        R = perturbed_edge_matrix(pert_inst, ml.base)
        changed = pert_inst.w[np.any(pert_inst.perm != ml.base.perm, axis=1)].sum()
        assert R[np.triu_indices(8)].sum() == pytest.approx(changed)

    def test_parallel_edges_are_summed(self):
        """K_8 with every pair doubled, Z_3, both copies of three pairs
        shifted by 1: R sums parallel weights, so the budget is the six
        perturbed edges and 2 ||R wbar|| bounds the numerator of each of the
        top six eigenvectors."""
        group, pairs = AbelianGroup((3,)), complete_skeleton(8) * 2
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 3, 8)
            hit = rng.choice(28, 3, replace=False)
            c = [x[u] - x[v] for u, v in pairs]
            shifted = [c[e] + (e % 28 in hit) for e in range(len(pairs))]
            ml = maxlin_on(8, group, [(u, v, 1.0, s) for (u, v), s in zip(pairs, shifted)])
            completion = maxlin_on(8, group, [(u, v, 1.0, s) for (u, v), s in zip(pairs, c)])
            vecs = eigendecompose(build_label_extended(ml.base).matrix)[1]
            for j in range(6):
                rep = sin_theta_report(ml, completion, vecs[:, j], gamma=0.5)
                assert rep.numerator <= rep.r_matrix_bound + 1e-8
            assert rep.R_row_budget == 6.0

    def test_non_finite_values_written_as_null(self):
        """lam <= lambda_s leaves beta_bound undefined (inf); to_dict writes
        null for it, as for lambda_s = -inf, and keeps the finite values."""
        rep = PerturbationReport(1.0, -np.inf, 0.5, np.inf, 0.1, 1.0, 2.0)
        assert rep.to_dict() == {
            "lambda": 1.0, "lambda_s": None, "numerator": 0.5, "beta_bound": None,
            "beta_measured": 0.1, "r_matrix_bound": 1.0, "R_row_budget": 2.0,
        }

    def test_skeleton_mismatch_rejected(self):
        ml, _ = self._planted()
        other = from_rows(ml.base.n, 2, [(0, 1, 1.0, (0, 1))])
        with pytest.raises(UGError):
            perturbed_edge_matrix(ml.base, other)


class TestParamsAndSolver:
    def test_theta_default(self):
        assert MaxLinParams(0.02, 0.5).window == pytest.approx(0.1)
        # gamma^3 branch dominates for tiny epsilon
        assert MaxLinParams(1e-6, 0.5).window == pytest.approx(0.5**3 / 100)
        # never above gamma
        assert MaxLinParams(0.2, 0.3).window == 0.3

    def test_explicit_theta_validated(self):
        with pytest.raises(UGError):
            MaxLinParams(0.01, 0.3, theta=0.4).validate()
        p = MaxLinParams(0.01, 0.3, theta=0.2, max_dim=5, net_step_override=0.7)
        p.validate()
        assert p.window == 0.2

    def test_gamma_above_one_rejected(self):
        with pytest.raises(UGError, match=r"gamma must be in \(0,1\]"):
            MaxLinParams(0.01, 1.5).validate()

    def test_laplacian_mode_rejected(self):
        with pytest.raises(UGError, match="adjacency window"):
            MaxLinParams(0.01, 0.5, mode="laplacian").validate()

    @pytest.mark.parametrize("theta", [None, 0.3])
    def test_solve_is_the_generic_solve(self, theta, monkeypatch):
        """solve_maxlin searches the window recover_solution searches on the
        same record: the same dim W and decision, and the same eigenvalues
        and projector within 1e-8.  Its W comes from the character blocks,
        whose basis is another one of the same space, so the net and the
        first labeling of the best value may differ; the character net read
        off after it keeps the value at least the generic solve's.  The
        default theta is 10 * epsilon * gamma = 0.05, where W is the
        all-ones line alone, whose read-off is a tie at every vertex: only
        the character net reads a labeling there."""
        inst, planted = planted_on(7, 3, complete_skeleton(7), seed=3, family="maxlin")
        ml = MaxLinInstance.from_instance(
            perturb(inst, planted, 0.1, seed=2, constraint_family="maxlin"))
        p = MaxLinParams(0.01, 0.5, theta=theta)
        spaces = []

        def kept(solve):
            def wrapped(*args):
                spaces.append(solve(*args))
                return spaces[-1]
            return wrapped

        monkeypatch.setattr(maxlin_mod, "character_window", kept(character_window))
        monkeypatch.setattr(recover_mod, "select_eigenspace", kept(select_eigenspace))
        got, want = solve_maxlin(ml, p), recover_solution(ml.base, p)
        (W, _, _), R = spaces
        assert (got.dim_W, got.decision) == (want.dim_W, want.decision) == (W.dim, "YES")
        assert W.dim == R.dim == (1 if theta is None else 3)
        np.testing.assert_allclose(W.eigenvalues, R.eigenvalues, rtol=0, atol=1e-8)
        np.testing.assert_allclose(W.basis @ W.basis.T, R.basis @ R.basis.T, rtol=0, atol=1e-8)
        assert got.best_value >= want.best_value
        assert got.extras["theta"] == p.window

    def test_gamma_over_8eps_checked_before_eigensolve(self, monkeypatch):
        """gamma <= 8*epsilon, where the YES threshold is undefined, raises
        before the constraint graph's eigenspace is computed."""

        def unreachable(*args, **kwargs):
            raise AssertionError("eigensolve before the parameter check")

        monkeypatch.setattr(maxlin_mod, "select_eigenspace", unreachable)
        inst, _ = planted_on(7, 3, complete_skeleton(7), seed=3, family="maxlin")
        with pytest.raises(UGError, match=r"gamma must exceed 8\*epsilon"):
            solve_maxlin(MaxLinInstance.from_instance(inst), MaxLinParams(0.1, 0.5))

    def test_perfect_instance_solves_to_one(self):
        inst, planted = planted_on(7, 4, complete_skeleton(7), seed=3, family="maxlin")
        rep = solve_maxlin(MaxLinInstance.from_instance(inst), MaxLinParams(0.01, 0.5))
        assert rep.best_value == 1.0
        assert rep.decision == "YES"

    def test_report_extras(self):
        inst, planted = planted_on(7, 3, complete_skeleton(7), seed=3, family="maxlin")
        rep = solve_maxlin(MaxLinInstance.from_instance(inst), MaxLinParams(0.01, 0.5))
        for key in ("dim_S", "k_times_dim_S", "dim_check_ok", "theta",
                    "uniformity_passes", "uniformity_worst_linf", "expander_fast_path",
                    "character_candidates"):
            assert key in rep.extras
        # complete graph: spectral gap puts exactly one eigenvalue in S
        assert rep.extras["dim_S"] == 1
        assert rep.extras["expander_fast_path"] is True
        assert rep.extras["dim_check_ok"] is True

    def test_requires_regular(self):
        g = AbelianGroup((2,))
        ml = maxlin_on(3, g, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 0.5, 0)])
        with pytest.raises(NonRegularError):
            solve_maxlin(ml, MaxLinParams(0.01, 0.5))

    def test_regularity_tolerance_from_config(self, monkeypatch):
        """core.REGULARITY_REL_TOL holds on the Max-Lin path as in
        recover_solution."""
        inst, _ = planted_on(7, 3, complete_skeleton(7), seed=3, family="maxlin")
        w = inst.w.copy()
        w[0] += 1e-7
        skewed = UGInstance.from_arrays(inst.n, inst.k, inst.u, inst.v, w, inst.perm)
        ml = MaxLinInstance.from_instance(skewed)
        with pytest.raises(UGError, match="d-regular"):
            solve_maxlin(ml, MaxLinParams(0.01, 0.5))
        monkeypatch.setattr(core_mod, "REGULARITY_REL_TOL", 1e-6)
        assert solve_maxlin(ml, MaxLinParams(0.01, 0.5)).best_value == 1.0
        assert recover_solution(skewed, SolveParams(0.01, 0.5)).best_value == 1.0


GROUPS = [(2,), (3,), (4,), (5,), (8,), (2, 2, 2), (2, 4)]


def skip_lap(stage):
    """A ``character_window`` lap that times nothing."""


class TestCharacterBlocks:
    """W from one eigensolve per character block against select_eigenspace
    on the whole label-extended matrix."""

    @pytest.mark.parametrize("factors, count", [((8,), 5), ((5,), 3), ((2, 2, 2), 8),
                                                ((2, 4), 6), ((6,), 4)])
    def test_block_count(self, factors, count):
        """One n x n block per self-conjugate character and per conjugate
        pair: floor(k/2) + 1 for Z_k, 2^kappa real ones for (Z_2)^kappa; a
        pair's block is complex and exactly Hermitian, a real one exactly
        symmetric."""
        ml = regular_maxlin(10, 3, AbelianGroup(factors), seed=1)
        blocks = list(character_blocks(ml))
        assert len(blocks) == count
        assert [j for j, _ in blocks] == sorted(j for j, _ in blocks if j) + [0]  # solve order
        conj = ml.group.shift_table()[:, 0]
        for j, B in blocks:
            assert j <= conj[j] and B.shape == (10, 10)
            assert np.iscomplexobj(B) == (conj[j] != j)
            assert np.array_equal(B, B.conj().T)

    @pytest.mark.parametrize("n, csr", [(191, False), (192, True)])
    def test_pair_block_stored_as_its_real_embedding(self, n, csr):
        """A pair block is stored by the label-extended rule at the size of
        its real 2n x 2n embedding with four times the entries, so on a
        4-regular graph it is dense below n = 192 (2n < 384) and CSR from
        there, as that embedding was; a real block is dense below n = 384."""
        for _, B in character_blocks(regular_maxlin(n, 4, AbelianGroup((8,)), seed=1)):
            assert scipy.sparse.issparse(B) == (csr and np.iscomplexobj(B))

    @pytest.mark.parametrize("factors", GROUPS)
    def test_characters_are_homomorphisms(self, factors):
        """chi_j(a + b) = chi_j(a) chi_j(b) and chi_{-j} = conj(chi_j), on
        the exponents r of exp(2 pi i r / k)."""
        g = AbelianGroup(factors)
        R, table, k = g.characters(), g.shift_table(), g.order
        plus = table[table[np.arange(k), 0][:, None], np.arange(k)]  # plus[b, a] = a + b
        assert np.array_equal(R[:, plus], (R[:, None, :] + R[:, :, None]) % k)
        assert np.array_equal(R[table[:, 0]], -R % k)

    def test_trivial_block_is_the_constraint_graph(self):
        ml = regular_maxlin(400, 4, AbelianGroup((4,)), seed=2, perturbed=True)
        j, B = list(character_blocks(ml))[-1]
        assert j == 0
        A = constraint_graph_adjacency(ml.base)
        assert B.format == A.format == "csr" and (B != A).nnz == 0

    @given(factors=st.sampled_from(GROUPS), csr=st.booleans(), perturbed=st.booleans(),
           seed=st.integers(0, 10**6), gamma=st.floats(0.02, 1.0), share=st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_window_matches_full_operator(self, factors, csr, perturbed, seed, gamma, share):
        """Regular Max-Lin over Z_k and products, dense (n <= 16) and CSR
        (n = 400, every pair block and the full matrix sparse) sizes: W
        matches the label-extended window at (1-theta)d for theta <= gamma,
        and S is the constraint graph's window at (1-gamma)d."""
        group = AbelianGroup(factors)
        if csr:
            n, gamma = 400, min(gamma, 0.1)  # a narrow window keeps the full solve small
        else:
            n = 6 + seed % 11
        ml = regular_maxlin(n, 4, group, seed, perturbed)
        p = MaxLinParams(0.001, gamma, theta=gamma * share, max_dim=10**6)
        W, S, _ = character_window(ml, p, skip_lap)
        d = ml.base.average_degree
        R = select_eigenspace(build_label_extended(ml.base).matrix, (1 - p.window) * d,
                              "adjacency-high")
        assert_same_window(W, R)
        assert W.max_residual <= 1e-8
        S0 = select_eigenspace(constraint_graph_adjacency(ml.base), (1 - gamma) * d,
                               "adjacency-high")
        assert S.dim == S0.dim and np.array_equal(S.basis, S0.basis)
        assert np.array_equal(S.eigenvalues, S0.eigenvalues)

    @pytest.mark.parametrize("factors", [(5,), (2, 4)])
    def test_parallel_edges_and_loops(self, factors):
        """Each pair of K_6 joined twice with different shifts and a
        self-loop at every vertex: the blocks sum parallel edges and count a
        loop once, as M does."""
        group = AbelianGroup(factors)
        rng = np.random.default_rng(0)
        pairs = np.array(complete_skeleton(6) * 2 + [(u, u) for u in range(6)])
        c = rng.integers(0, group.order, len(pairs))
        inst = UGInstance.from_arrays(6, group.order, pairs[:, 0], pairs[:, 1],
                                      np.ones(len(pairs)), group.shift_table()[c])
        ml = MaxLinInstance(inst, group)
        for theta in (0.2, 0.6, 1.0):
            p = MaxLinParams(0.001, 1.0, theta=theta, max_dim=10**6)
            W = character_window(ml, p, skip_lap)[0]
            M = build_label_extended(inst).matrix
            d = inst.average_degree
            assert_same_window(W, select_eigenspace(M, (1 - theta) * d, "adjacency-high"))

    @pytest.mark.parametrize("n, message", [(16, r"^dim\(W\)=6 exceeds max_dim=5$"),
                                            (400, r"^dim\(W\) >= \d+ exceeds max_dim=5$")])
    def test_max_dim_charged_across_blocks(self, n, message):
        """Z_8 with dim S = 1 puts 2, 2, 2 and 1 dimensions of W in its
        non-trivial blocks in turn, and 1 in the trivial block, solved last.
        At max_dim 5 the first two fit, so the third aborts, naming the
        total so far: exactly 4 + 2 where the block is dense, at least 6
        from the Ritz values of a sparse one."""
        ml = regular_maxlin(n, 4, AbelianGroup((8,)), seed=3)
        p = MaxLinParams(0.001, 0.1, theta=0.05, max_dim=5)
        with pytest.raises(DimensionAbortError, match=message) as err:
            character_window(ml, p, skip_lap)
        assert err.value.dim > 5 and err.value.max_dim == 5
        p.max_dim = 8
        assert character_window(ml, p, skip_lap)[0].dim == 8

    def test_oversized_window_aborts_before_wide_s(self, monkeypatch):
        """At gamma = 1 the trivial block's S cut is 0, half its spectrum;
        a W over max_dim aborts on the capped blocks, and that uncapped
        solve never runs."""
        ml = regular_maxlin(400, 4, AbelianGroup((8,)), seed=3)
        p = MaxLinParams(0.001, 1.0, theta=0.05, max_dim=5)
        levels = []

        def recorded(A, level, *args):
            levels.append(level)
            return select_eigenspace(A, level, *args)

        monkeypatch.setattr(maxlin_mod, "select_eigenspace", recorded)
        with pytest.raises(DimensionAbortError, match=r"^dim\(W\) >= \d+ exceeds max_dim=5$"):
            solve_maxlin(ml, p)
        assert levels and set(levels) == {(1 - 0.05) * 4}

    def test_one_lap_pair_per_block(self, monkeypatch):
        """Each block's build is lapped as the operator stage and its solve
        as the eigensolve stage, in turn: the four non-trivial blocks of Z_8
        at W's cut, then the trivial block at S's.  A report's eigen_time is
        the sum of those two stages."""
        ml = regular_maxlin(400, 4, AbelianGroup((8,)), seed=1, perturbed=True)
        p = MaxLinParams(0.005, 0.1, theta=0.05, net_step_override=1.0)
        events = []

        def recorded(A, level, *args):
            events.append(level)
            return select_eigenspace(A, level, *args)

        monkeypatch.setattr(maxlin_mod, "select_eigenspace", recorded)
        character_window(ml, p, events.append)
        W_cut, S_cut = (1 - 0.05) * 4, (1 - 0.1) * 4
        assert events == ["operator", W_cut, "eigensolve"] * 4 + ["operator", S_cut, "eigensolve"]
        rep = solve_maxlin(ml, p)
        assert rep.stages["operator"] > 0 and rep.stages["eigensolve"] > 0
        assert rep.stages["operator"] + rep.stages["eigensolve"] == rep.eigen_time

    def test_one_character_table_per_instance(self, monkeypatch):
        """An instance computes its characters once, keeping -j and the
        phases read-only, and the solve, character net included, reads them
        from there."""
        calls = []
        characters = AbelianGroup.characters
        monkeypatch.setattr(AbelianGroup, "characters",
                            lambda g: calls.append(g) or characters(g))
        group = AbelianGroup((3, 3))
        ml = regular_maxlin(60, 4, group, seed=4, perturbed=True)
        assert len(calls) == 1
        assert np.array_equal(ml.conj, group.shift_table()[:, 0])
        assert np.array_equal(ml.phases, 2 * np.pi * characters(group) / 9)
        assert not ml.conj.flags.writeable and not ml.phases.flags.writeable
        rep = solve_maxlin(ml, MaxLinParams(0.001, 0.1, theta=0.001, max_dim=100))
        assert rep.extras["character_candidates"] > 0
        assert len(calls) == 1


class TestSolveBuilds:
    """What solve_maxlin computes: the character blocks and one eigensolve
    of each, and neither the n*k operator nor a second constraint-graph
    solve."""

    @pytest.mark.parametrize("factors", [(8,), (2, 2, 2)])
    def test_one_eigensolve_per_block(self, monkeypatch, factors):
        def unreachable(*args, **kwargs):
            raise AssertionError("solve_maxlin built or solved the n*k operator")

        # maxlin imports constraint_graph_adjacency only for the benchmark's
        # tracer and the solve has no call to it (the trivial block is that
        # graph), so patching it only guards against a call coming back.
        for module, name in [(maxlin_mod, "build_label_extended"),
                             (maxlin_mod, "constraint_graph_adjacency"),
                             (recover_mod, "build_label_extended"),
                             (recover_mod, "search_operator"),
                             (recover_mod, "select_eigenspace")]:
            monkeypatch.setattr(module, name, unreachable)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return select_eigenspace(*args, **kwargs)

        monkeypatch.setattr(maxlin_mod, "select_eigenspace", counted)
        ml = regular_maxlin(400, 4, AbelianGroup(factors), seed=1, perturbed=True)
        rep = solve_maxlin(ml, MaxLinParams(0.005, 0.1, theta=0.05, net_step_override=1.0))
        assert len(calls) == len(list(character_blocks(ml))) == rep.eigensolver["blocks"]
        assert rep.eigensolver["path"] == "characters"
        assert rep.dim_W == 8 and rep.extras["dim_S"] == 1 and rep.decision == "YES"
        # W holds every character's top line, so its net reads them all.
        assert rep.extras["character_candidates"] == 0

    def test_report_prints_w_solver(self, monkeypatch):
        """The report's eigensolver is W's own record: the character path,
        the blocks' passes summed, the widest block and the block count."""
        spaces = []

        def kept(*args):
            spaces.append(character_window(*args))
            return spaces[-1]

        monkeypatch.setattr(maxlin_mod, "character_window", kept)
        ml = regular_maxlin(400, 4, AbelianGroup((8,)), seed=1, perturbed=True)
        rep = solve_maxlin(ml, MaxLinParams(0.005, 0.1, theta=0.05, net_step_override=1.0))
        (W, _, shares), = spaces
        assert rep.eigensolver == W.solver
        assert list(rep.eigensolver) == ["path", "passes", "block", "blocks"]
        solvers = [E.solver for E in shares.values()]
        assert W.solver == {"path": "characters",
                            "passes": sum(s["passes"] for s in solvers),
                            "block": max(s["block"] for s in solvers), "blocks": 5}
        assert W.solver["passes"] > 0


class TestCharacterNet:
    """The roundings of the top character lines, read off after W's net."""

    @pytest.mark.parametrize("factors", GROUPS + [(3, 3)])
    def test_rounds_a_satisfiable_game_exactly(self, factors):
        """Unperturbed, block t's top eigenvector is chi_t(-x_u) times one
        phase, so one rounding reads x up to a shift, of value 1."""
        group = AbelianGroup(factors)
        ml = regular_maxlin(60, 4, group, seed=1)
        p = MaxLinParams(0.001, 0.1, theta=0.001, max_dim=100)
        C, T = character_net(ml, character_window(ml, p, skip_lap)[2])
        labels = read_off_batch(C, label_blocks(T, group.order)).astype(np.int64)
        assert value_batch(ml.base, labels).max() == 1.0

    def test_rows_span_every_rounding(self):
        """Z_5 on 40 vertices: the rows are n turns between adjacent
        breakpoints, n distinct labelings, and any turn reads off one of
        them up to a shift (a labeling less its label at vertex 0)."""
        ml = regular_maxlin(40, 4, AbelianGroup((5,)), seed=4, perturbed=True)
        p = MaxLinParams(0.001, 0.1, theta=0.001, max_dim=100)
        C, T = character_net(ml, character_window(ml, p, skip_lap)[2])
        blocks = label_blocks(T, 5)

        def unshifted(labels):
            return {row.tobytes() for row in (labels.astype(np.int64) - labels[:, :1]) % 5}

        assert len(C) == 40 and len(unshifted(read_off_batch(C, blocks))) == 40
        tau = np.random.default_rng(0).random(200)
        turned = np.column_stack([np.cos(2 * np.pi * tau / 5), np.sin(2 * np.pi * tau / 5)])
        assert unshifted(read_off_batch(turned, blocks)) <= unshifted(read_off_batch(C, blocks))

    @pytest.mark.parametrize("seed, rows", [(4, 31), (1, 59)])
    def test_breakpoints_within_tolerance_merge(self, seed, rows):
        """Z_3 x Z_3: breakpoints closer than RESIDUAL_TOL are one (seed 4:
        the second factor's 30 all equal 0.75 to ~1e-16; seed 1: two lie
        within 1e-9), so no row sits in a gap narrower than f's accuracy,
        and every row reads a distinct labeling."""
        ml = regular_maxlin(30, 4, AbelianGroup((3, 3)), seed=seed, perturbed=True)
        p = MaxLinParams(0.001, 0.1, theta=0.001, max_dim=100)
        C, T = character_net(ml, character_window(ml, p, skip_lap)[2])
        labels = read_off_batch(C, label_blocks(T, 9))
        assert len(C) == rows and len({row.tobytes() for row in labels}) == rows

    def test_default_theta_reaches_planted(self):
        """The default theta on n = 600, 4-regular, k = 8, 2% perturbed is
        0.005, below the cluster of character tops, so W is the all-ones
        line; the character net still reads planted - 0.05."""
        for seed in range(3):
            inst, planted, _ = planted_regular_instance(600, 4, 8, seed=seed,
                                                        constraint_family="maxlin")
            inst = perturb(inst, planted, 0.02, seed=seed, constraint_family="maxlin")
            rep = solve_maxlin(MaxLinInstance.from_instance(inst), MaxLinParams(0.005, 0.1))
            assert rep.dim_W == 1 and rep.extras["theta"] == pytest.approx(0.005)
            assert rep.best_value >= value(inst, planted) - 0.05
            assert 1 <= rep.extras["character_candidates"] <= 600
            assert rep.distinct_labelings <= (rep.net_points_evaluated + rep.signed_candidates
                                              + rep.extras["character_candidates"])

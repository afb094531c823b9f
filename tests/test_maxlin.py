"""Group-difference instances: groups, lifts, perturbation diagnostics,
and the specialized solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ugspectral.core as core_mod
from ugspectral.core import UGInstance, UGError, shift_image, value
from ugspectral.generators import perturb
from ugspectral.label_extended import build_label_extended, constraint_graph_adjacency
from ugspectral.linalg import Eigenspace, eigendecompose, select_eigenspace
import ugspectral.maxlin as maxlin_mod
from ugspectral.maxlin import (
    UNIFORMITY_SAMPLES,
    AbelianGroup,
    MaxLinInstance,
    MaxLinParams,
    block_norm_vector,
    lift_eigenbasis,
    perturbed_edge_matrix,
    shift,
    sin_theta_report,
    solve_maxlin,
    uniformity_check,
)
from ugspectral.recover import NonRegularError, SolveParams, recover_solution

from conftest import complete_skeleton, from_rows, planted_on


class TestAbelianGroup:
    """Group arithmetic as array lookups: a - b is shift_table()[b, a], and
    shift(L, i) adds i to every label."""

    def test_cyclic_arithmetic(self):
        g = AbelianGroup.cyclic(5)
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
        g = AbelianGroup.cyclic(4)
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


class TestMaxLinInstance:
    def test_from_constraints(self):
        g = AbelianGroup.cyclic(3)
        ml = MaxLinInstance.from_constraints(3, g, [(0, 1, 1.0, 2), (1, 2, 1.0, 0)])
        assert ml.shifts == (2, 0)
        assert value(ml.base, [2, 0, 0]) == 1.0  # x0 - x1 = 2, x1 - x2 = 0

    def test_from_instance_detects_shifts(self):
        inst = from_rows(2, 4, [(0, 1, 1.0, shift_image(np.arange(4), 3, 4))])
        assert MaxLinInstance.from_instance(inst).shifts == (3,)

    def test_from_instance_rejects_non_shift(self):
        inst = from_rows(2, 3, [(0, 1, 1.0, (0, 2, 1))])
        with pytest.raises(UGError):
            MaxLinInstance.from_instance(inst)

    def test_group_order_must_match(self):
        inst = from_rows(2, 3, [(0, 1, 1.0, shift_image(np.arange(3), 1, 3))])
        with pytest.raises(UGError):
            MaxLinInstance.from_instance(inst, AbelianGroup.cyclic(4))


class TestShiftInvariance:
    def test_identity_shift(self):
        g = AbelianGroup.cyclic(3)
        assert shift([0, 1, 2], 0, g).tolist() == [0, 1, 2]

    def test_known_shift(self):
        g = AbelianGroup.cyclic(3)
        assert shift([0, 1, 2], 1, g).tolist() == [1, 2, 0]

    @given(st.integers(0, 10**6), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_value_invariant_under_every_shift(self, seed, k):
        inst, planted = planted_on(6, k, complete_skeleton(6), seed=seed, family="maxlin")
        pert = perturb(inst, planted, 0.2, seed=seed + 1, constraint_family="maxlin")
        g = AbelianGroup.cyclic(k)
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
        g = AbelianGroup.cyclic(2)
        ml = MaxLinInstance.from_constraints(2, g, [(0, 1, 1.0, 0)])
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

    def test_all_ones_passes_c1(self):
        n = 16
        rep = uniformity_check(self._space([np.full(n, 1 / np.sqrt(n))]), C=1.0)
        assert rep.passes

    def test_standard_basis_fails(self):
        e0 = np.zeros(9)
        e0[0] = 1.0
        rep = uniformity_check(self._space([e0]), C=2.0)
        assert not rep.passes
        assert rep.worst_basis_linf == 1.0

    def test_characters_are_exactly_uniform(self):
        """Each +-1/sqrt(n) character vector of F_2^4 meets the bound with
        C=1 exactly."""
        n = 16
        H = np.array([[(-1) ** bin(x & y).count("1") for x in range(n)]
                      for y in range(n)]) / np.sqrt(n)
        for row in H:
            rep = uniformity_check(self._space([row]), C=1.0)
            assert rep.passes
            assert rep.worst_basis_linf == pytest.approx(1 / np.sqrt(n))

    def test_sampled_combinations_recorded(self):
        n = 16
        H = np.array([[(-1) ** bin(x & y).count("1") for x in range(n)]
                      for y in range(n)]) / np.sqrt(n)
        rep = uniformity_check(self._space([H[0], H[1]]), C=1.0)
        assert rep.samples == UNIFORMITY_SAMPLES
        # random unit combinations of two characters exceed 1/sqrt(n)
        assert rep.sampled_max_linf > 1 / np.sqrt(n)
        assert not rep.passes


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
        changed = sum(
            e.weight for e, ec in zip(pert_inst.edges, ml.base.edges) if e.perm != ec.perm
        )
        assert R[np.triu_indices(8)].sum() == pytest.approx(changed)

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

    def test_laplacian_mode_rejected(self):
        with pytest.raises(UGError, match="adjacency window"):
            MaxLinParams(0.01, 0.5, mode="laplacian").validate()

    @pytest.mark.parametrize("theta", [None, 0.3])
    def test_solve_is_the_generic_solve(self, theta):
        """solve_maxlin answers exactly as recover_solution on the same
        record, which searches at the Max-Lin window."""
        inst, planted = planted_on(7, 3, complete_skeleton(7), seed=3, family="maxlin")
        ml = MaxLinInstance.from_instance(
            perturb(inst, planted, 0.1, seed=2, constraint_family="maxlin"))
        p = MaxLinParams(0.01, 0.5, theta=theta)
        got, want = solve_maxlin(ml, p), recover_solution(ml.base, p)
        assert got.best_value == want.best_value
        assert np.array_equal(got.best_labeling, want.best_labeling)
        assert (got.dim_W, got.decision, got.net_points_evaluated) == (
            want.dim_W, want.decision, want.net_points_evaluated)
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
                    "uniformity_passes", "uniformity_worst_linf", "expander_fast_path"):
            assert key in rep.extras
        # complete graph: spectral gap puts exactly one eigenvalue in S
        assert rep.extras["dim_S"] == 1
        assert rep.extras["expander_fast_path"] is True
        assert rep.extras["dim_check_ok"] is True

    def test_requires_regular(self):
        g = AbelianGroup.cyclic(2)
        ml = MaxLinInstance.from_constraints(
            3, g, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 0.5, 0)]
        )
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

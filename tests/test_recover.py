"""Net enumeration, read-off, and the end-to-end solver."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ugspectral.core as core_mod
import ugspectral.recover as recover_mod
from ugspectral.config import NumericConfig, reset_numeric_config, set_numeric_config
from ugspectral.core import UGError, characteristic_vector, value, value_batch
from ugspectral.generators import (
    KVSpec,
    kv_eigenspace_dimension,
    kv_instance,
    kv_spectrum,
    perturb,
)
from ugspectral.linalg import Eigenspace
from ugspectral.recover import (
    DegenerateSpectrumError,
    DimensionAbortError,
    NetTooLargeError,
    NonRegularError,
    SolveParams,
    _lattice_chunks,
    _net_radius2,
    closeness_diagnostic,
    default_yes_threshold,
    enumerate_net,
    net_size,
    read_off_assignment,
    recover_solution,
    select_search_space,
)

from conftest import complete_skeleton, cycle_skeleton, from_rows, planted_on, random_instance


def orthonormal_space(dim_ambient, dim, seed=0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim_ambient, dim)))
    return Eigenspace(
        dim_ambient=dim_ambient,
        basis=Q[:, :dim],
        eigenvalues=np.zeros(dim),
        threshold=0.0,
        mode="adjacency-high",
    )


class TestParams:
    def test_strict_requires_gamma_over_8eps(self):
        with pytest.raises(UGError):
            SolveParams(epsilon=0.01, gamma=0.05).validate()
        SolveParams(epsilon=0.01, gamma=0.05).validate(strict=False)

    @pytest.mark.parametrize("bad", [dict(epsilon=0.0, gamma=0.5),
                                     dict(epsilon=0.01, gamma=0.5, max_dim=0),
                                     dict(epsilon=0.01, gamma=0.5, mode="diag"),
                                     dict(epsilon=0.01, gamma=0.5, net_step_override=0.0)])
    def test_invalid(self, bad):
        with pytest.raises(UGError):
            SolveParams(**bad).validate(strict=False)


class TestReadOff:
    def test_argmax_per_block(self):
        x = np.array([0.1, 0.9, 0.3, -1.0, -0.2, -0.5])
        assert read_off_assignment(x, 2, 3).tolist() == [1, 1]

    def test_tie_breaks_to_smallest_label(self):
        assert read_off_assignment(np.array([0.5, 0.5, 0.0, 0.0]), 2, 2).tolist() == [0, 0]

    def test_rejects_wrong_length_and_nan(self):
        with pytest.raises(UGError):
            read_off_assignment(np.zeros(5), 2, 3)
        with pytest.raises(UGError):
            read_off_assignment(np.array([np.nan, 0.0]), 1, 2)

    def test_inverts_characteristic_vector(self):
        L = np.array([2, 0, 1])
        assert read_off_assignment(characteristic_vector(L, 3), 3, 3).tolist() == L.tolist()


class TestNet:
    @pytest.mark.parametrize("dim,step", [(1, 0.3), (2, 0.4), (3, 0.4), (3, 0.25)])
    def test_size_matches_brute_count(self, dim, step):
        r2 = _net_radius2(dim, step)
        m = int(np.floor(np.sqrt(r2)))
        brute = sum(
            1
            for z in itertools.product(range(-m, m + 1), repeat=dim)
            if sum(c * c for c in z) <= r2
        )
        assert net_size(dim, step) == brute

    def test_lattice_lexicographic_and_unique(self):
        pts = np.concatenate(list(_lattice_chunks(2, 0.5, 8192)))
        as_tuples = [tuple(p) for p in pts]
        assert as_tuples == sorted(as_tuples)
        assert len(set(as_tuples)) == len(as_tuples)
        assert len(as_tuples) == net_size(2, 0.5)

    @given(st.integers(1, 5), st.floats(0.0, 1.0), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_lattice_walk_matches_product(self, dim, t, rows):
        """The walk yields the points of [-m, m]^dim with |z|^2 <= r2, in
        itertools.product's lexicographic order, in chunks of exactly
        ``rows`` points but the last, net_size of them in all."""
        step = 0.1 * dim + 1.9 * t  # nets of at most 7^5 candidate points
        r2 = int(np.floor(_net_radius2(dim, step)))
        m = int(np.floor(np.sqrt(r2)))
        reference = [z for z in itertools.product(range(-m, m + 1), repeat=dim)
                     if sum(c * c for c in z) <= r2]
        chunks = list(_lattice_chunks(dim, step, rows))
        assert [len(Z) for Z in chunks[:-1]] == [rows] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= rows
        assert np.concatenate(chunks).tolist() == [list(z) for z in reference]
        assert len(reference) == net_size(dim, step)

    @pytest.mark.parametrize("budget", [1, 8 * 6 * 5 + 7, 8 * 6 * 64, core_mod.BATCH_BYTES])
    def test_net_chunks_within_byte_budget(self, budget, monkeypatch):
        """Every chunk holds at most BATCH_BYTES of float64, or is one row,
        and the stream is the same whatever the budget (up to rounding: the
        projection's matrix product may round by batch size)."""
        basis = orthonormal_space(6, 3, seed=3)
        whole = np.concatenate(list(enumerate_net(basis, 0.4)))
        monkeypatch.setattr(core_mod, "BATCH_BYTES", budget)
        chunks = list(enumerate_net(basis, 0.4))
        assert all(X.dtype == np.float64 for X in chunks)
        assert all(X.nbytes <= budget or len(X) == 1 for X in chunks)
        np.testing.assert_allclose(np.concatenate(chunks), whole, rtol=0, atol=1e-14)

    def test_enumerate_net_count_and_norms(self):
        vecs = np.concatenate(list(enumerate_net(orthonormal_space(6, 2, seed=1), 0.5)))
        assert vecs.shape == (net_size(2, 0.5), 6)
        rmax = np.sqrt(_net_radius2(2, 0.5)) * 0.5
        assert np.linalg.norm(vecs, axis=1).max() <= rmax + 1e-12

    def test_covering_radius(self):
        """Every vector of norm <= 1 has a net point within step*sqrt(dim)/2."""
        dim, step = 3, 0.4
        basis = orthonormal_space(5, dim, seed=2)
        pts = np.concatenate(list(enumerate_net(basis, step)))
        rng = np.random.default_rng(0)
        C = rng.standard_normal((200, dim))
        C /= np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1.0)
        V = C @ basis.basis.T
        d2 = (V**2).sum(1)[:, None] - 2 * V @ pts.T + (pts**2).sum(1)[None, :]
        assert np.sqrt(np.maximum(d2.min(1), 0)).max() <= step * np.sqrt(dim) / 2 + 1e-12

    def test_cap_enforced(self):
        set_numeric_config(NumericConfig(net_cap=10))
        try:
            with pytest.raises(NetTooLargeError):
                list(enumerate_net(orthonormal_space(4, 3, seed=0), 0.2))
        finally:
            reset_numeric_config()

    def test_invalid_args(self):
        with pytest.raises(UGError):
            net_size(0, 0.5)
        with pytest.raises(UGError):
            net_size(2, 0.0)


class TestThreshold:
    def test_default_formula(self):
        p = SolveParams(epsilon=0.01, gamma=0.5)
        assert default_yes_threshold(p) == pytest.approx(
            1 - 10 * (0.01 / (0.5 - 0.08) + 0.01)
        )

    def test_clamped_into_unit_interval(self):
        p = SolveParams(epsilon=0.09, gamma=0.73)
        assert 0.0 < default_yes_threshold(p) < 1.0

    def test_override_wins(self):
        p = SolveParams(epsilon=0.3, gamma=0.9, yes_threshold_override=0.42)
        assert default_yes_threshold(p) == 0.42

    def test_needs_gamma_over_8eps(self):
        with pytest.raises(UGError):
            default_yes_threshold(SolveParams(epsilon=0.2, gamma=0.9))


class TestSearchSpace:
    def test_adjacency_requires_regular(self):
        inst = random_instance(8, 3, p=0.4, seed=3)
        assert not inst.is_regular()
        with pytest.raises(NonRegularError):
            select_search_space(inst, SolveParams(epsilon=0.01, gamma=0.5))

    def test_laplacian_accepts_non_regular(self):
        inst = random_instance(8, 3, p=0.4, seed=3)
        W, d = select_search_space(
            inst, SolveParams(epsilon=0.01, gamma=0.5, mode="laplacian")
        )
        assert W.dim >= 1  # eigenvalue ~0 is always inside the low window
        assert d == pytest.approx(inst.average_degree)

    def test_degenerate_cluster_on_threshold_kept_whole(self):
        """On KV kappa=2, eps=0.25 the threshold (1-gamma)d = 2 falls on a
        4-fold eigenvalue; a bare >= cut split it, giving dim W = 2.  The
        reported cut gap is the closed-form distance from that eigenvalue
        to the next one down."""
        inst = kv_instance(KVSpec(2, 0.25))
        params = SolveParams(epsilon=0.01, gamma=0.5, net_step_override=0.9)
        expected = kv_eigenspace_dimension(KVSpec(2, 0.25), 0.5)
        assert expected == 5
        W, _ = select_search_space(inst, params)
        assert W.dim == expected
        rep = recover_solution(inst, params)
        assert rep.dim_W == expected
        lam = [lam for lam, _ in kv_spectrum(KVSpec(2, 0.25))]  # 4, 2, 1, ...
        assert rep.cut_gap == pytest.approx(lam[1] - lam[2], abs=1e-9)
        assert rep.to_dict()["cut_gap"] == rep.cut_gap

    def test_perfect_planted_in_high_window(self):
        inst, planted = planted_on(8, 3, complete_skeleton(8), seed=1, family="maxlin")
        W, d = select_search_space(inst, SolveParams(epsilon=0.01, gamma=0.5))
        y = characteristic_vector(planted, 3, normalized=True)
        proj = W.basis @ (W.basis.T @ y)
        assert np.linalg.norm(proj - y) <= 1e-9


class TestRecover:
    def test_perfect_maxlin_recovers_exactly(self):
        inst, planted = planted_on(7, 3, complete_skeleton(7), seed=4, family="maxlin")
        rep = recover_solution(inst, SolveParams(epsilon=0.01, gamma=0.5, max_dim=8))
        assert rep.best_value == 1.0
        assert rep.decision == "YES"
        assert value(inst, rep.best_labeling) == 1.0

    def test_perturbed_beats_threshold(self):
        inst, planted = planted_on(7, 3, complete_skeleton(7), seed=4, family="maxlin")
        pert = perturb(inst, planted, 0.03, seed=11, constraint_family="maxlin")
        rep = recover_solution(pert, SolveParams(epsilon=0.05, gamma=0.5, max_dim=8))
        assert rep.best_value >= value(pert, planted) - 1e-12
        assert rep.decision == "YES"

    def test_denser_net_never_worse(self):
        inst, planted = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
        pert = perturb(inst, planted, 0.1, seed=2, constraint_family="maxlin")
        coarse = recover_solution(
            pert, SolveParams(epsilon=0.05, gamma=0.5, net_step_override=0.9)
        )
        fine = recover_solution(
            pert, SolveParams(epsilon=0.05, gamma=0.5, net_step_override=0.3)
        )
        assert fine.best_value >= coarse.best_value - 1e-12
        assert fine.net_points_evaluated > coarse.net_points_evaluated

    def test_dimension_abort(self):
        inst, _ = planted_on(7, 3, complete_skeleton(7), seed=4, family="maxlin")
        with pytest.raises(DimensionAbortError):
            recover_solution(inst, SolveParams(epsilon=0.01, gamma=0.5, max_dim=2))

    def test_window_never_empty_on_real_instances(self):
        """The label-extended graph is degree-regular row-wise, so its top
        eigenvalue is exactly d and the high window always holds at least
        the all-ones vector, whatever the constraints are."""
        rng = np.random.default_rng(7)
        inst = from_rows(6, 3, [(u, v, 1.0, rng.permutation(3)) for u, v in complete_skeleton(6)])
        W, d = select_search_space(inst, SolveParams(epsilon=0.0001, gamma=0.01))
        assert W.dim >= 1
        assert W.eigenvalues.max() == pytest.approx(d)

    def test_degenerate_spectrum_diagnosed(self, monkeypatch):
        """The empty-window guard raises the dedicated error (reachable only
        through pathological search spaces, so exercised directly)."""
        import ugspectral.recover as recover_mod
        from ugspectral.linalg import Eigenspace

        inst, _ = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
        empty = Eigenspace(18, np.zeros((18, 0)), np.zeros(0), 0.0, "adjacency-high")
        monkeypatch.setattr(
            recover_mod, "select_search_space", lambda i, p: (empty, 5.0)
        )
        with pytest.raises(DegenerateSpectrumError):
            recover_mod.recover_solution(
                inst, SolveParams(epsilon=0.01, gamma=0.5, max_dim=8)
            )

    def test_net_too_large(self):
        set_numeric_config(NumericConfig(net_cap=5))
        try:
            inst, _ = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
            with pytest.raises(NetTooLargeError):
                recover_solution(inst, SolveParams(epsilon=0.01, gamma=0.5, max_dim=8))
        finally:
            reset_numeric_config()

    def test_edgeless_instance_solves(self):
        """Every labeling of an edgeless instance has value 1, so the solve
        returns a labeling and its report serialises."""
        rep = recover_solution(from_rows(1, 2, []), SolveParams(0.01, 0.5))
        d = rep.to_dict()
        assert d["best_value"] == 1.0 and d["decision"] == "YES"
        assert len(d["best_labeling"]) == 1

    def test_bad_yes_threshold_fails_before_eigensolve(self, monkeypatch):
        """strict=False with gamma <= 8*eps and no override raises before
        any search space is built."""
        import ugspectral.recover as recover_mod

        def unreachable(inst, params):
            raise AssertionError("search space built before the threshold check")

        monkeypatch.setattr(recover_mod, "select_search_space", unreachable)
        inst, _ = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
        with pytest.raises(UGError, match="yes-threshold"):
            recover_mod.recover_solution(inst, SolveParams(0.1, 0.5), strict=False)

    def test_report_fields(self):
        inst, _ = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
        rep = recover_solution(inst, SolveParams(epsilon=0.01, gamma=0.5, max_dim=8))
        d = rep.to_dict()
        for key in ("best_labeling", "best_value", "decision", "yes_threshold",
                    "dim_W", "net_points_evaluated", "eigen_time",
                    "enumeration_time", "net_step", "mode"):
            assert key in d
        assert d["net_step"] == pytest.approx(np.sqrt(2 * 0.01 / (0.5 * rep.dim_W)))

    def test_deterministic_reports(self):
        inst, _ = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
        p = SolveParams(epsilon=0.01, gamma=0.5, max_dim=8)
        r1, r2 = recover_solution(inst, p), recover_solution(inst, p)
        assert r1.best_labeling.tolist() == r2.best_labeling.tolist()
        assert r1.best_value == r2.best_value


def reference_labelings(inst, params):
    """Every candidate in stream order (the net, then the signed basis
    vectors), each read off by per-block argmax."""
    W, _ = select_search_space(inst, params)
    step = params.net_step_override
    if step is None:
        step = float(np.sqrt(2 * params.epsilon / (params.gamma * W.dim)))
    cands = np.concatenate(list(enumerate_net(W, step)) + [W.basis.T, -W.basis.T])
    return [np.argmax(x.reshape(inst.n, inst.k), axis=1) for x in cands]


def reference_search(inst, params):
    """Every candidate labeling scored with value; the first maximum wins."""
    labelings = reference_labelings(inst, params)
    vals = [value(inst, L) for L in labelings]
    i = int(np.argmax(vals))
    return vals[i], labelings[i]


def assert_matches_reference(inst, params):
    rep = recover_solution(inst, params)
    best_value, best_labeling = reference_search(inst, params)
    assert rep.best_value == best_value
    assert rep.best_labeling.tolist() == best_labeling.tolist()
    return rep


@pytest.fixture
def small_chunks(monkeypatch):
    """A byte budget of seven net vectors of the 7-vertex, k = 3 instances
    below (nk = 21), so a small net spans many chunks."""
    monkeypatch.setattr(core_mod, "BATCH_BYTES", 7 * 8 * 21)


class TestSearchMatchesReference:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_perfect_maxlin_ties(self, seed):
        """Every group shift of the planted labeling has value 1, so the
        maximum is tied many times over; the first candidate must win."""
        inst, _ = planted_on(7, 3, complete_skeleton(7), seed=seed, family="maxlin")
        rep = assert_matches_reference(inst, SolveParams(epsilon=0.01, gamma=0.5))
        assert rep.best_value == 1.0

    @pytest.mark.parametrize("seed", [1, 4])
    def test_perfect_maxlin_ties_across_chunks(self, seed, small_chunks):
        """The first candidate wins also when the ties span many chunks."""
        inst, _ = planted_on(7, 3, complete_skeleton(7), seed=seed, family="maxlin")
        rep = assert_matches_reference(inst, SolveParams(epsilon=0.01, gamma=0.5))
        assert rep.best_value == 1.0
        assert rep.net_points_evaluated > 7

    def test_each_distinct_labeling_scored_once(self, small_chunks, monkeypatch):
        """One value_batch call per solve, on the distinct labelings of the
        whole candidate stream, also when they repeat across chunks."""
        inst, planted = planted_on(7, 3, complete_skeleton(7), seed=6, family="maxlin")
        pert = perturb(inst, planted, 0.1, seed=11, constraint_family="maxlin")
        params = SolveParams(0.05, 0.5, net_step_override=0.3)
        rows = []

        def counting(inst, labels):
            rows.append(len(labels))
            return value_batch(inst, labels)

        monkeypatch.setattr(recover_mod, "value_batch", counting)
        rep = recover_solution(pert, params)
        distinct = {tuple(L) for L in reference_labelings(pert, params)}
        assert rep.net_points_evaluated > 7
        assert rows == [len(distinct)]

    @pytest.mark.parametrize("seed,frac,step", [(4, 0.03, None), (6, 0.1, 0.9), (6, 0.1, 0.3)])
    def test_perturbed_maxlin(self, seed, frac, step):
        inst, planted = planted_on(7, 3, complete_skeleton(7), seed=seed, family="maxlin")
        pert = perturb(inst, planted, frac, seed=11, constraint_family="maxlin")
        assert_matches_reference(pert, SolveParams(0.05, 0.5, net_step_override=step))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturbed_general_laplacian(self, seed):
        inst, planted = planted_on(8, 3, cycle_skeleton(8), seed=seed)
        pert = perturb(inst, planted, 0.1, seed=seed)
        params = SolveParams(0.01, 0.2, mode="laplacian", net_step_override=0.5)
        assert_matches_reference(pert, params)

    @given(st.integers(0, 2**31 - 1), st.integers(3, 7), st.integers(2, 3),
           st.sampled_from([0.1, 0.3, 0.6]), st.sampled_from([0.4, 0.7]))
    @settings(max_examples=30, deadline=None)
    def test_random_instances(self, seed, n, k, gamma, step):
        inst = random_instance(n, k, p=0.6, seed=seed)
        params = SolveParams(0.01, gamma, mode="laplacian", max_dim=4,
                             net_step_override=step)
        assume(select_search_space(inst, params)[0].dim <= params.max_dim)
        assert_matches_reference(inst, params)


class TestClosenessDiagnostic:
    def test_perfect_instance_beta_zero(self):
        inst, planted = planted_on(8, 3, complete_skeleton(8), seed=2, family="maxlin")
        alpha, beta = closeness_diagnostic(inst, planted, SolveParams(0.01, 0.5))
        assert alpha == pytest.approx(1.0)
        assert beta <= 1e-9

    def test_alpha_beta_norm(self):
        inst, planted = planted_on(8, 3, complete_skeleton(8), seed=2, family="maxlin")
        pert = perturb(inst, planted, 0.1, seed=5, constraint_family="maxlin")
        alpha, beta = closeness_diagnostic(pert, planted, SolveParams(0.05, 0.5))
        assert alpha**2 + beta**2 == pytest.approx(1.0)

"""Net enumeration, read-off, and the end-to-end solver."""

import itertools
import json
import time

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import ugspectral.core as core_mod
import ugspectral.label_extended as label_extended_mod
import ugspectral.linalg as linalg_mod
import ugspectral.recover as recover_mod
from ugspectral.core import UGError, characteristic_vector, value, value_batch
from ugspectral.generators import (
    KVSpec,
    kv_eigenspace_dimension,
    kv_instance,
    kv_spectrum,
    perturb,
    planted_regular_instance,
)
from ugspectral.label_extended import build_label_extended
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
    label_blocks,
    net_size,
    read_off_assignment,
    read_off_batch,
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
        """gamma > 8*epsilon is required strictly, whatever the window."""
        for theta in (None, 0.05, 0.09):
            with pytest.raises(UGError, match=r"gamma must exceed 8\*epsilon"):
                SolveParams(epsilon=0.01, gamma=0.08, theta=theta).validate()
        SolveParams(epsilon=0.01, gamma=0.09, theta=0.05).validate()

    @pytest.mark.parametrize("bad", [dict(epsilon=0.0, gamma=0.5),
                                     dict(epsilon=0.01, gamma=0.5, max_dim=0),
                                     dict(epsilon=0.01, gamma=0.5, mode="diag"),
                                     dict(epsilon=0.01, gamma=0.5, net_step_override=0.0),
                                     dict(epsilon=0.01, gamma=0.5, theta=0.0),
                                     dict(epsilon=0.01, gamma=0.5, theta=0.6),
                                     dict(epsilon=0.01, gamma=0.5, theta=float("nan"))])
    def test_invalid(self, bad):
        with pytest.raises(UGError):
            SolveParams(**bad).validate()


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

    @given(st.integers(2, 8), st.integers(1, 5), st.integers(1, 4), st.integers(0, 9), st.data())
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_argmax(self, k, n, dim, rows, data):
        """The label-major kernel equals np.argmax on the ambient vectors,
        bit for bit: small integers make every product exact and ties
        common, so the first-maximum tie-break is pinned, on drawn rows and
        the +-identity rows of the signed basis alike, and reading off any
        split of the rows gives the same labelings."""
        ints = st.integers(-2, 2).map(float)
        B = data.draw(hnp.arrays(np.float64, (n * k, dim), elements=ints))
        drawn = data.draw(hnp.arrays(np.float64, (rows, dim), elements=ints))
        C = np.concatenate([drawn, np.eye(dim), -np.eye(dim)])
        expected = np.argmax((C @ B.T).reshape(-1, n, k), axis=2)
        got = read_off_batch(C, label_blocks(B, k))
        assert got.dtype == np.min_scalar_type(k - 1)
        assert np.array_equal(got, expected)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(C)), max_size=3)))
        parts = [read_off_batch(part, label_blocks(B, k)) for part in np.split(C, cuts)]
        assert np.array_equal(np.concatenate(parts), got)


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

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(recover_mod, "NET_CAP", 10)
        with pytest.raises(NetTooLargeError):
            list(enumerate_net(orthonormal_space(4, 3, seed=0), 0.2))

    def test_invalid_args(self):
        with pytest.raises(UGError):
            net_size(0, 0.5)
        with pytest.raises(UGError):
            net_size(2, 0.0)


def python_int_net_size(dim, step):
    """The exact count by the object-dtype (Python int) dynamic programme
    over the integer sum of squares."""
    r2 = int(np.floor(_net_radius2(dim, step)))
    m = int(np.floor(np.sqrt(r2)))
    counts = np.zeros(r2 + 1, dtype=object)
    counts[0] = 1
    for _ in range(dim):
        nxt = np.zeros(r2 + 1, dtype=object)
        for z in range(-m, m + 1):
            nxt[z * z:] += counts[: r2 + 1 - z * z]
        counts = nxt
    return int(counts.sum())


class TestNetSize:
    @given(st.integers(1, 16), st.floats(0.0, 1.0))
    @example(dim=2, t=0.015625)  # 1,009 points: a cap of 1,000 gives 1,001
    @settings(max_examples=80, deadline=None)
    def test_matches_python_int_count(self, dim, t):
        """The int64 count equals the Python-int one on a grid reaching
        counts above 2**31 (dim 12 at step 0.25 has 1.57e9 points, dim 16 at
        step 0.3 has 1.0e11), and a cap only replaces counts above it by
        cap + 1."""
        step = [0.05, 0.15, 0.25, 0.3][min(dim // 4, 3)] + 0.5 * t
        exact = python_int_net_size(dim, step)
        assert net_size(dim, step) == exact
        for cap in (1000, 2**31 - 1):
            assert net_size(dim, step, cap) == (exact if exact <= cap else cap + 1)

    def test_above_int32(self):
        assert net_size(12, 0.25) == python_int_net_size(12, 0.25) == 1566324569
        assert net_size(16, 0.3) == python_int_net_size(16, 0.3) > 2**36

    def test_fast_at_large_radius(self):
        """A 1,001-point net at r2 = 250,000, and nets far over the cap,
        are counted or rejected without an O(m * r2) table."""
        t0 = time.perf_counter()
        assert net_size(1, 0.002) == 1001
        assert net_size(1, 0.001, cap=1000) == 1001  # 2,001 points
        assert net_size(2, 1e-5, cap=10**8) == 10**8 + 1
        assert net_size(5, 1e-4, cap=10**8) == 10**8 + 1
        assert time.perf_counter() - t0 < 0.1

    def test_count_beyond_int64_rejected(self):
        with pytest.raises(NetTooLargeError):
            net_size(40, 0.2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dim, step", [(1, 1e-200), (20, 1e-300), (20, 1e-100), (400, 0.5)])
    def test_overflowing_sizes_exceed_cap(self, dim, step):
        """A net whose radius (steps below ~1e-154) or ball volume (a huge
        radius, or gamma(dim/2 + 1) at dim 400) overflows a float is over
        any cap, and too large to count without one."""
        assert net_size(dim, step, cap=10**8) == 10**8 + 1
        with pytest.raises(NetTooLargeError):
            net_size(dim, step)


class TestThreshold:
    def test_default_formula(self):
        p = SolveParams(epsilon=0.01, gamma=0.5)
        assert default_yes_threshold(p) == pytest.approx(
            1 - 10 * (0.01 / (0.5 - 0.08) + 0.01)
        )

    def test_clamped_into_unit_interval(self):
        p = SolveParams(epsilon=0.09, gamma=0.73)
        assert 0.0 < default_yes_threshold(p) < 1.0

    def test_theta_searches_window_decides_at_gamma(self):
        """theta < gamma cuts W at (1-theta)d and takes the default net step
        from theta; the YES threshold stays the one of gamma."""
        spec = KVSpec(2, 0.25)  # spectrum 4, 2, 1, ... with d = 4
        inst = kv_instance(spec)
        rep = recover_solution(inst, SolveParams(0.01, 0.5, theta=0.25))
        at_theta = recover_solution(inst, SolveParams(0.01, 0.25))
        assert rep.dim_W == kv_eigenspace_dimension(spec, 0.25) == 1
        assert kv_eigenspace_dimension(spec, 0.5) == 5
        assert rep.net_step == at_theta.net_step == np.sqrt(2 * 0.01 / 0.25)
        assert rep.best_value == at_theta.best_value
        assert rep.yes_threshold == default_yes_threshold(SolveParams(0.01, 0.5))
        assert rep.yes_threshold > at_theta.yes_threshold

    def test_needs_gamma_over_8eps(self):
        """The threshold's formula needs gamma > 8*epsilon; a solve checks
        that before anything else, and a narrower window does not lift it."""
        for theta in (None, 0.1):
            with pytest.raises(UGError, match=r"gamma must exceed 8\*epsilon"):
                recover_solution(from_rows(1, 2, []), SolveParams(0.2, 0.9, theta=theta))


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
        assert rep.to_dict()["value_path"] == "pair-table"  # 10 pairs, 160 edges, k = 4

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

    def test_net_too_large(self, monkeypatch):
        monkeypatch.setattr(recover_mod, "NET_CAP", 5)
        inst, _ = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
        with pytest.raises(NetTooLargeError):
            recover_solution(inst, SolveParams(epsilon=0.01, gamma=0.5, max_dim=8))

    def test_edgeless_instance_solves(self):
        """Every labeling of an edgeless instance has value 1, so the solve
        returns a labeling and its report serialises."""
        rep = recover_solution(from_rows(1, 2, []), SolveParams(0.01, 0.5))
        d = rep.to_dict()
        assert d["best_value"] == 1.0 and d["decision"] == "YES"
        assert len(d["best_labeling"]) == 1

    def test_bad_yes_threshold_fails_before_eigensolve(self, monkeypatch):
        """gamma <= 8*eps, where the YES threshold is undefined, raises
        before any search space is built."""
        import ugspectral.recover as recover_mod

        def unreachable(inst, params):
            raise AssertionError("search space built before the threshold check")

        monkeypatch.setattr(recover_mod, "select_search_space", unreachable)
        inst, _ = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
        with pytest.raises(UGError, match=r"gamma must exceed 8\*epsilon"):
            recover_mod.recover_solution(inst, SolveParams(0.1, 0.5))

    def test_report_fields(self):
        inst, _ = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
        rep = recover_solution(inst, SolveParams(epsilon=0.01, gamma=0.5, max_dim=8))
        d = rep.to_dict()
        assert list(d) == ["best_labeling", "best_value", "decision", "yes_threshold",
                           "dim_W", "net_points_evaluated", "eigen_time",
                           "enumeration_time", "net_step", "mode", "cut_gap",
                           "max_residual", "distinct_labelings", "value_path",
                           "signed_candidates", "stages"]
        assert all(type(x) is int for x in d["best_labeling"])
        stages = d["stages"]
        assert list(stages) == ["search_space", "readoff", "dedupe", "scoring"]
        assert all(type(s) is float and s >= 0 for s in stages.values())
        assert d["eigen_time"] == stages["search_space"]
        assert d["enumeration_time"] == stages["readoff"] + stages["dedupe"] + stages["scoring"]
        assert d["signed_candidates"] == 2 * d["dim_W"]
        assert d["value_path"] == "edge"  # 15 pairs, one edge each
        assert 1 <= d["distinct_labelings"] <= d["net_points_evaluated"] + 2 * d["dim_W"]
        assert 0 <= d["max_residual"] <= linalg_mod.RESIDUAL_TOL * 5  # d = 5
        assert d["net_step"] == pytest.approx(np.sqrt(2 * 0.01 / (0.5 * rep.dim_W)))

    def test_deterministic_reports(self):
        inst, _ = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
        p = SolveParams(epsilon=0.01, gamma=0.5, max_dim=8)
        r1, r2 = recover_solution(inst, p), recover_solution(inst, p)
        assert r1.best_labeling.tolist() == r2.best_labeling.tolist()
        assert r1.best_value == r2.best_value

    def test_sparse_solves_bitwise_equal(self, monkeypatch):
        """Two solves on the sparse path in one process return equal
        reports, bit for bit but the timers, with the answer, dim W and
        cut_gap sign of the dense path."""
        inst, planted, _ = planted_regular_instance(128, 4, 4, seed=1, constraint_family="maxlin")
        inst = perturb(inst, planted, 0.02, seed=1, constraint_family="maxlin")
        assert scipy.sparse.issparse(build_label_extended(inst).matrix)
        p = SolveParams(0.005, 0.05, max_dim=8, net_step_override=1.0)
        timers = ("eigen_time", "enumeration_time", "stages")
        r1, r2 = (recover_solution(inst, p).to_dict() for _ in range(2))
        for r in (r1, r2):
            for key in timers:
                del r[key]
        assert json.dumps(r1) == json.dumps(r2)
        assert r1["max_residual"] <= linalg_mod.RESIDUAL_TOL * 4
        monkeypatch.setattr(label_extended_mod, "SPARSE_MIN_DIM", 10**9)
        dense = recover_solution(inst, p)
        assert (dense.dim_W, dense.best_value) == (r1["dim_W"], r1["best_value"])
        assert r1["cut_gap"] == pytest.approx(dense.cut_gap, abs=1e-9) and dense.cut_gap > 0


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
        assert rows == [len(distinct)] == [rep.distinct_labelings]

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


# The seeded instances and parameters of TestSearchMatchesReference.
SEARCH_CASES = [
    pytest.param(lambda seed=seed: planted_on(7, 3, complete_skeleton(7), seed=seed,
                                              family="maxlin")[0],
                 SolveParams(0.01, 0.5), id=f"perfect-{seed}")
    for seed in (1, 4)
] + [
    pytest.param(lambda seed=seed, frac=frac: perturb(
                     *planted_on(7, 3, complete_skeleton(7), seed=seed, family="maxlin"),
                     frac, seed=11, constraint_family="maxlin"),
                 SolveParams(0.05, 0.5, net_step_override=step), id=f"perturbed-{seed}-{step}")
    for seed, frac, step in [(4, 0.03, None), (6, 0.1, 0.9), (6, 0.1, 0.3)]
] + [
    pytest.param(lambda seed=seed: perturb(*planted_on(8, 3, cycle_skeleton(8), seed=seed),
                                           0.1, seed=seed),
                 SolveParams(0.01, 0.2, mode="laplacian", net_step_override=0.5),
                 id=f"laplacian-{seed}")
    for seed in (0, 1, 2)
]


@pytest.mark.parametrize("make, params", SEARCH_CASES)
def test_answer_independent_of_chunk_size(make, params, monkeypatch):
    """A solve at a byte budget of one row, of seven rows and the default
    returns the same answer.  This pins, on these instances, that the BLAS
    products' rounding by row count does not reach the read-off."""
    inst = make()
    answers = []
    for budget in (1, 7 * 8 * inst.n * inst.k, core_mod.BATCH_BYTES):
        monkeypatch.setattr(core_mod, "BATCH_BYTES", budget)
        rep = recover_solution(inst, params)
        answers.append((rep.best_value, rep.best_labeling.tolist(), rep.distinct_labelings))
    assert answers[0] == answers[1] == answers[2]


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

"""Net enumeration, read-off, and the end-to-end solver."""

import dataclasses
import itertools
import json
import time
from pathlib import Path
from unittest import mock

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
    PlantedSpec,
    kv_eigenspace_dimension,
    kv_instance,
    kv_spectrum,
    perturb,
    planted_instance,
    planted_regular_instance,
)
from ugspectral.label_extended import build_label_extended, constraint_graph_adjacency
from ugspectral.linalg import Eigenspace, project_split, select_eigenspace
from ugspectral.maxlin import MaxLinInstance, MaxLinParams, solve_maxlin
from ugspectral.oracle import brute_force
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
    label_blocks,
    net_coefficients,
    net_size,
    read_off_assignment,
    read_off_batch,
    recover_solution,
    search_operator,
    split_lifted,
)

from conftest import complete_skeleton, cycle_skeleton, from_rows, planted_on, random_instance


def select_search_space(inst, params):
    """(W, d): the eigenspace a solve selects for params, and its degree scale."""
    return select_eigenspace(*search_operator(inst, params)), inst.average_degree


def enumerate_net(basis, step):
    """The net vectors of net_coefficients, as (rows, dim_ambient) arrays."""
    for C in net_coefficients(basis.basis, step):
        yield C @ basis.basis.T


def orthonormal_space(dim_ambient, dim, seed=0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim_ambient, dim)))
    return Eigenspace(basis=Q[:, :dim], eigenvalues=np.zeros(dim))


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
                                     dict(epsilon=0.01, gamma=0.5, theta=float("nan")),
                                     dict(epsilon=0.01, gamma=float("inf")),
                                     dict(epsilon=0.01, gamma=0.5, max_dim=2.5)])
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

    def test_complex_vector_is_an_error_in_the_suite(self):
        """The test configuration turns numpy's ComplexWarning into an
        error, so a complex vector cast to a real one, here a read-off
        candidate, cannot drop its imaginary part unnoticed."""
        with pytest.raises(Warning, match="imaginary part"):
            read_off_assignment(np.array([1j, 0.0]), 1, 2)

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

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(1, 4), st.integers(1, 6),
           st.integers(-2, 2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_constant_column_never_moves_a_label(self, k, n, dim, rows, const, data):
        """A basis column that is constant adds one number to all k entries of
        every vertex block, so whatever integer its coefficient is, every
        label is the same, bit for bit (small integers keep products exact)."""
        ints = st.integers(-2, 2).map(float)
        B = data.draw(hnp.arrays(np.float64, (n * k, dim), elements=ints))
        c = data.draw(st.integers(0, dim - 1))
        B[:, c] = const
        C = data.draw(hnp.arrays(np.float64, (rows, dim), elements=ints))
        C[:, c] = 0
        blocks = label_blocks(B, k)
        held = read_off_batch(C, blocks)
        for t in data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4)):
            C[:, c] = t
            assert np.array_equal(read_off_batch(C, blocks), held)


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

    def test_cap_counts_the_twisted_net(self, monkeypatch):
        """NET_CAP counts the net the solve walks, that of W's twisted part:
        a perfectly satisfiable Max-Lin instance, whose 3-dim W has one
        lifted column and a 2-dim twisted net of 277 of the full net's 3,695
        points, solves with the cap at 277 and aborts at 276, naming the
        walked dimension."""
        inst, _ = planted_on(7, 3, complete_skeleton(7), seed=4, family="maxlin")
        params = SolveParams(0.01, 0.5)
        monkeypatch.setattr(recover_mod, "NET_CAP", 277)
        rep = recover_solution(inst, params)
        assert (rep.dim_W, rep.held_dims, rep.net_points_evaluated) == (3, 1, 277)
        assert net_size(rep.dim_W, rep.net_step) == 3695
        monkeypatch.setattr(recover_mod, "NET_CAP", 276)
        with pytest.raises(NetTooLargeError, match="cap 276 points at dim=2,"):
            recover_solution(inst, params)

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

    def test_empty_basis_net_is_the_origin(self):
        """A 0-column basis, an empty twisted part, has one net point, the
        origin, whatever the step: net_size counts it and the walk yields
        it as one empty row."""
        for step in (0.5, 1e-200):
            chunks = list(net_coefficients(orthonormal_space(4, 0).basis, step))
            assert [C.shape for C in chunks] == [(1, 0)]
            assert net_size(0, step) == net_size(0, step, cap=1) == 1
            assert [Z.shape for Z in _lattice_chunks(0, step, 7)] == [(1, 0)]

    def test_invalid_args(self):
        with pytest.raises(UGError):
            net_size(-1, 0.5)
        with pytest.raises(UGError):
            net_size(2, 0.0)

    def test_nan_step_rejected(self):
        """NaN fails the step test as a step <= 0 does, with or without a
        cap, rather than counting as an infinite net."""
        for cap in (None, 10):
            with pytest.raises(UGError, match="step > 0"):
                net_size(2, float("nan"), cap)


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

    @pytest.mark.parametrize("solver", ["solve", "diagnose"])
    def test_wide_sparse_window_aborts_on_ritz_values(self, solver, monkeypatch):
        """20 disjoint planted 6-cycles (k = 4, CSR at dim 480) have a Laplacian
        window of hundreds of eigenvalues.  More than max_dim Ritz values past
        the cut prove dim W > max_dim (Cauchy interlacing), so the filtered
        solve aborts after one pass on its first block, neither doubling the
        block nor falling back to dense eigh.  diagnose builds no net, so it
        takes no cap: it splits the planted vector against the whole window,
        as against the window of the densified Laplacian."""
        skeleton = [(6 * c + u, 6 * c + (u + 1) % 6) for c in range(20) for u in range(6)]
        inst, planted = planted_on(120, 4, skeleton, seed=0)
        params = SolveParams(0.01, 0.5, mode="laplacian")
        if solver == "diagnose":
            A, threshold = search_operator(inst, params)
            assert scipy.sparse.issparse(A)
            reference = select_eigenspace(A.toarray(), threshold)
            assert reference.dim > params.max_dim
            y = characteristic_vector(planted, 4, normalized=True)
            split = closeness_diagnostic(inst, planted, params)
            assert split == pytest.approx(project_split(y, reference), rel=0, abs=1e-8)
            return
        passes = []

        def counting(op, X, b, top):
            passes.append(X.shape[1])
            return chebyshev(op, X, b, top)

        def unreachable(A):
            raise AssertionError("the solve fell back to dense eigh")

        chebyshev = linalg_mod._chebyshev
        monkeypatch.setattr(linalg_mod, "_chebyshev", counting)
        monkeypatch.setattr(linalg_mod, "eigendecompose", unreachable)
        with pytest.raises(DimensionAbortError, match=r"^dim\(W\) >= 16 exceeds max_dim=8$"):
            recover_solution(inst, params)
        assert passes == [linalg_mod.SPARSE_BLOCK]

    def test_wide_dense_window_aborts_on_its_count(self, monkeypatch):
        """5 disjoint planted 6-cycles (k = 4, dense at dim 120) have a
        Laplacian window of 54 eigenvalues.  The solve aborts in
        select_eigenspace as soon as eigh's kept count is known, before any
        residual is computed; diagnose, which builds no net, splits the
        planted vector against the whole window."""
        skeleton = [(6 * c + u, 6 * c + (u + 1) % 6) for c in range(5) for u in range(6)]
        inst, planted = planted_on(30, 4, skeleton, seed=0)
        params = SolveParams(0.01, 0.5, mode="laplacian")
        A, threshold = search_operator(inst, params)
        assert isinstance(A, np.ndarray)
        reference = select_eigenspace(A, threshold)
        assert reference.dim == 54
        y = characteristic_vector(planted, 4, normalized=True)
        split = closeness_diagnostic(inst, planted, params)
        assert split == pytest.approx(project_split(y, reference), rel=0, abs=1e-8)

        def unreachable(*args):
            raise AssertionError("the solve computed the residuals of W")

        monkeypatch.setattr(linalg_mod, "_eigenspace", unreachable)
        with pytest.raises(DimensionAbortError, match=r"^dim\(W\)=54 exceeds max_dim=8$"):
            recover_solution(inst, params)

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
        from ugspectral.linalg import Eigenspace, select_eigenspace

        inst, _ = planted_on(6, 3, complete_skeleton(6), seed=6, family="maxlin")
        empty = Eigenspace(np.zeros((18, 0)), np.zeros(0))
        monkeypatch.setattr(recover_mod, "select_eigenspace", lambda A, t, max_dim: empty)
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

    @pytest.mark.parametrize("n, k", [(3, 2), (2, 3)])
    def test_edgeless_reads_off_one_candidate(self, n, k, monkeypatch):
        """Without edges every labeling scores 1.0, so the first candidate
        in stream order wins: the solve reads off the first row of its
        twisted part's net alone, not the rest of that net, nor the signed
        basis."""
        inst, params = from_rows(n, k, []), SolveParams(0.01, 0.5)
        W, _ = select_search_space(inst, params)
        step = float(np.sqrt(2 * 0.01 / (0.5 * W.dim)))
        _, twisted = split_lifted(W.basis, k)
        first = next(recover_mod.net_coefficients(twisted, step))[:1]
        expected = read_off_batch(first, label_blocks(twisted, k))[0].tolist()
        calls = []

        def counting(C, blocks):
            calls.append(len(C))
            return read_off_batch(C, blocks)

        monkeypatch.setattr(recover_mod, "read_off_batch", counting)
        rep = recover_solution(inst, params)
        assert calls == [1]
        assert rep.best_labeling.tolist() == expected
        assert rep.best_value == value(inst, expected) == 1.0
        assert rep.decision == ("YES" if 1.0 >= rep.yes_threshold else "NO")
        assert (rep.net_points_evaluated, rep.signed_candidates) == (1, 0)
        assert rep.distinct_labelings == 1 and rep.dim_W == n * k and rep.held_dims == n

    @pytest.mark.parametrize("n, k", [(4, 2), (7, 1)])
    def test_edgeless_net_over_cap_reads_first_point(self, n, k):
        """At dim 8 (and 7) this net is over NET_CAP; the solve reads off
        its first point alone and never counts the rest."""
        params = SolveParams(0.01, 0.5)
        step = float(np.sqrt(2 * 0.01 / (0.5 * n * k)))
        assert net_size(n * k, step, recover_mod.NET_CAP) > recover_mod.NET_CAP
        rep = recover_solution(from_rows(n, k, []), params)
        assert rep.best_value == 1.0 and rep.dim_W == n * k
        assert (rep.net_points_evaluated, rep.distinct_labelings) == (1, 1)

    def test_edgeless_overflowing_radius_too_large(self):
        """A step whose net radius overflows stays a net over the cap, also
        where only the first point is read off."""
        with pytest.raises(NetTooLargeError):
            recover_solution(from_rows(3, 2, []), SolveParams(0.01, 0.5, net_step_override=1e-200))

    @pytest.mark.parametrize("mode, step", [("adjacency", 1e-10), ("adjacency", 1e-9),
                                            ("laplacian", 1e-12)])
    def test_edgeless_radius_beyond_exact_walk_too_large(self, mode, step):
        """A finite radius with r2 >= 2**52, where the walk's float square
        roots are no longer exact (below a step of about 3e-10, past int64), is a net too
        large, as net_size has it; a step just inside still solves.  At
        k = 2 the walk has a coordinate, the vertex's twisted direction."""
        inst = from_rows(1, 2, [])
        with pytest.raises(NetTooLargeError, match="beyond exact counting"):
            recover_solution(inst, SolveParams(0.01, 0.5, mode=mode, net_step_override=step))
        rep = recover_solution(inst, SolveParams(0.01, 0.5, mode=mode, net_step_override=3e-8))
        assert rep.best_value == 1.0 and rep.net_points_evaluated == 1

    def test_table_and_degrees_built_once_per_solve(self, monkeypatch):
        """A solve of a dense pair-table instance finds its pairs once (one
        np.unique) and calls np.bincount three times: twice for the pair
        table, which the operator is scattered from and value_batch reads,
        and once for the degrees, which the regularity test, the average
        degree and the build share."""
        inst = kv_instance(KVSpec(2, 0.25))
        calls = {"unique": 0, "bincount": 0}

        def counted(name):
            real = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np, name, counted(name))
        rep = recover_solution(inst, SolveParams(0.01, 0.5, net_step_override=0.9))
        assert rep.value_path == "pair-table"
        assert isinstance(build_label_extended(inst).matrix, np.ndarray)
        assert calls == {"unique": 1, "bincount": 3}
        assert not inst.degrees().flags.writeable

    def test_bad_yes_threshold_fails_before_eigensolve(self, monkeypatch):
        """gamma <= 8*eps, where the YES threshold is undefined, raises
        before any search space is built."""
        import ugspectral.recover as recover_mod

        def unreachable(inst, params):
            raise AssertionError("search space built before the threshold check")

        monkeypatch.setattr(recover_mod, "search_operator", unreachable)
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
                           "signed_candidates", "held_dims", "stages", "eigensolver"]
        assert all(type(x) is int for x in d["best_labeling"])
        stages = d["stages"]
        assert list(stages) == ["operator", "eigensolve", "walk", "readoff", "dedupe", "scoring"]
        assert all(type(s) is float and s >= 0 for s in stages.values())
        assert d["eigen_time"] == stages["operator"] + stages["eigensolve"]
        assert d["eigensolver"] == {"path": "dense", "passes": 0, "block": 0}
        assert d["enumeration_time"] == (stages["walk"] + stages["readoff"] + stages["dedupe"]
                                         + stages["scoring"])
        assert d["signed_candidates"] == 2 * d["dim_W"]
        assert d["held_dims"] == 1  # the constant's lift, in d's 3-fold eigenspace
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
        assert r1["eigensolver"]["path"] == "filtered" and r1["eigensolver"]["passes"] > 0
        monkeypatch.setattr(label_extended_mod, "SPARSE_MIN_DIM", 10**9)
        dense = recover_solution(inst, p)
        assert dense.eigensolver == {"path": "dense", "passes": 0, "block": 0}
        assert (dense.dim_W, dense.best_value) == (r1["dim_W"], r1["best_value"])
        assert r1["cut_gap"] == pytest.approx(dense.cut_gap, abs=1e-9) and dense.cut_gap > 0

    @pytest.mark.parametrize("path", ["dense", "filtered", "fallback"])
    def test_report_prints_w_solver(self, monkeypatch, path):
        """The report's eigensolver is W's own record, keys in order: a dense
        operator, a CSR one on the filtered path, and a CSR one whose block
        would pass SPARSE_MAX_SHARE, so that the dense path solves it."""
        inst, planted, _ = planted_regular_instance(128, 4, 4, seed=1, constraint_family="maxlin")
        inst = perturb(inst, planted, 0.02, seed=1, constraint_family="maxlin")
        if path == "dense":
            monkeypatch.setattr(label_extended_mod, "SPARSE_MIN_DIM", 10**9)
        if path == "fallback":
            monkeypatch.setattr(linalg_mod, "SPARSE_MAX_SHARE", 0.0)
        spaces = []

        def kept(*args):
            spaces.append(select_eigenspace(*args))
            return spaces[-1]

        monkeypatch.setattr(recover_mod, "select_eigenspace", kept)
        rep = recover_solution(inst, SolveParams(0.005, 0.05, max_dim=8, net_step_override=1.0))
        (W,) = spaces
        assert rep.eigensolver == W.solver
        assert list(rep.eigensolver) == ["path", "passes", "block"]
        if path == "filtered":
            assert W.solver["path"] == "filtered" and W.solver["passes"] > 0
        else:
            assert W.solver == {"path": "dense", "passes": 0, "block": 0}
        assert scipy.sparse.issparse(build_label_extended(inst).matrix) == (path != "dense")


class TestHeldWalk:
    """M and L_M commute with P1 = I_n (x) J_k/k, so W splits exactly into
    the lift f (x) 1 of the constraint graph's window at the same threshold
    and a twisted part orthogonal to it.  Adding a lift moves no per-block
    argmax, so the solve walks the net of the twisted columns of the split
    basis (``split_lifted``) alone, at their own radius."""

    def test_one_dimensional_window_reads_the_origin(self):
        """KV kappa = 2 at gamma 0.25 keeps only the simple top eigenvalue d,
        whose eigenvector is the all-ones vector: the solve reads the origin
        and the two signed rows, and returns the best of those three."""
        inst, params = kv_instance(KVSpec(2, 0.25)), SolveParams(0.01, 0.25)
        col = select_search_space(inst, params)[0].basis[:, 0]
        rep = recover_solution(inst, params)
        assert rep.dim_W == 1
        assert (rep.net_points_evaluated, rep.signed_candidates) == (1, 2)
        assert net_size(1, rep.net_step) > 1
        assert rep.best_value == max(value(inst, read_off_assignment(x, inst.n, inst.k))
                                     for x in (0 * col, col, -col))

    def test_repeated_top_eigenvalue_is_rebased_and_held(self):
        """A perfectly satisfiable Max-Lin instance has the top eigenvalue d
        k times over, so eigh's basis of W mixes the all-ones vector into
        every column: the split re-bases the three columns, leaves out the
        one along it and walks the 277 points of the other two's net, not
        the full net's 3,695."""
        inst, _ = planted_on(7, 3, complete_skeleton(7), seed=4, family="maxlin")
        W = select_search_space(inst, SolveParams(0.01, 0.5))[0]
        mass = 3 * (W.basis.reshape(7, 3, 3).mean(axis=1) ** 2).sum(axis=0)
        assert np.all((mass > 0.01) & (mass < 0.99))
        rep = recover_solution(inst, SolveParams(0.01, 0.5))
        assert (rep.dim_W, rep.held_dims) == (3, 1)
        assert net_size(rep.dim_W, rep.net_step) == 3695
        assert rep.net_points_evaluated == net_size(2, rep.net_step) == 277

    def test_laplacian_clustered_count(self, monkeypatch):
        """The benchmark's laplacian-clustered seed 1 leaves out the lifts of
        its four clusters, 4 of its 8 dimensions, and reads the 297 points
        of the other 4's net, not the full net's 47,921."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        workload = workloads.WORKLOADS["laplacian-clustered"]
        rep = workload.solve(core_mod.parse_instance(workload.make(1).text))
        assert net_size(rep.dim_W, rep.net_step) == 47921
        assert (rep.dim_W, rep.held_dims) == (8, 4)
        assert rep.net_points_evaluated == net_size(4, rep.net_step) == 297

    def test_laplacian_clustered_default_step_solves(self, monkeypatch):
        """At its default step, 0.129, laplacian-clustered seed 1's full
        8-dim net passes NET_CAP, but the 4-dim twisted net the solve
        walks has 28,769 points, and it reaches the planted value."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        workload = workloads.WORKLOADS["laplacian-clustered"]
        params = dataclasses.replace(workloads.LAPLACIAN_PARAMS, net_step_override=None)
        rep = recover_solution(core_mod.parse_instance(workload.make(1).text), params)
        assert net_size(rep.dim_W, rep.net_step, recover_mod.NET_CAP) > recover_mod.NET_CAP
        assert (rep.dim_W, rep.held_dims, rep.net_points_evaluated) == (8, 4, 28769)
        assert rep.best_value == 0.9891640866873065


def reference_labelings(inst, params):
    """Every candidate in stream order (the net of the twisted columns of
    W's split basis, ``split_lifted``, then the signed vectors of the whole
    split basis), each read off by per-block argmax."""
    W, _ = select_search_space(inst, params)
    step = params.net_step_override
    if step is None:
        step = float(np.sqrt(2 * params.epsilon / (params.gamma * W.dim)))
    B, T = split_lifted(W.basis, inst.k)
    C = np.concatenate(list(net_coefficients(T, step)))
    cands = np.concatenate([C @ T.T, B.T, -B.T])
    return [np.argmax(x.reshape(inst.n, inst.k), axis=1) for x in cands]


@st.composite
def clustered_instances(draw):
    """(instance, Laplacian-mode params, parts, bridged): a planted
    general-permutation or Max-Lin instance, perturbed or not, on 2-4
    complete graphs of 3-5 vertices, as components or, bridged, as
    clusters joined by one edge between consecutive ones.  The weights are
    random: unit weights give eigenvectors that vanish on most vertices,
    where every read-off is a tie broken by rounding."""
    family = draw(st.sampled_from(["general-permutation", "maxlin"]))
    sizes = draw(st.lists(st.integers(3, 5), min_size=2, max_size=4))
    bridged, k = draw(st.booleans()), draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    starts = np.cumsum([0, *sizes])
    skeleton = [(a + u, a + v) for a, size in zip(starts, sizes) for u, v in complete_skeleton(size)]
    if bridged:
        skeleton += [(a, b + 1) for a, b in zip(starts[:-2], starts[1:-1])]
    n, rng = int(starts[-1]), np.random.default_rng(seed)
    labels, weights = rng.integers(0, k, n), rng.uniform(0.1, 1.0, len(skeleton))
    skeleton = [(u, v, w) for (u, v), w in zip(skeleton, weights)]
    inst, planted = planted_instance(PlantedSpec(n, k, skeleton, labels, family, seed))
    inst = perturb(inst, planted, draw(st.sampled_from([0.0, 0.2, 0.5])), seed=seed,
                   constraint_family=family)
    params = SolveParams(0.001, draw(st.sampled_from([0.02, 0.1, 0.3])), mode="laplacian",
                         max_dim=6, net_step_override=draw(st.sampled_from([0.6, 0.9])))
    return inst, params, len(sizes), bridged


class TestLiftedSplit:
    @given(clustered_instances())
    @settings(max_examples=80, deadline=None)
    def test_held_part_is_the_lifted_window(self, case):
        """On instances of 2-4 components or clusters, whose windows hold at
        least as many lifts (a perfectly satisfiable one shares each of their
        eigenvalues with k - 1 twisted vectors, so its basis is mixed): the
        lifted columns of the split basis span the lift of the constraint
        graph's window at the same threshold, and the twisted part it hands
        back is the others; adding any vector of that span moves no label
        whose top-two margin exceeds 1e-9; and the twisted walk finds the
        best value of the full net over the split basis's points whose
        twisted coefficients lie in the twisted net.  That net's lifted
        columns are taken as their exact lifts (block means): a lift known
        to rounding, read off alone, breaks every tie by its rounding."""
        inst, params, parts, bridged = case
        n, k, step = inst.n, inst.k, params.net_step_override
        A, level = search_operator(inst, params)
        W = select_eigenspace(A, level)
        assume(W.dim <= params.max_dim)
        B, T = split_lifted(W.basis, k)
        held = np.flatnonzero(k * (B.reshape(n, k, -1).mean(axis=1) ** 2).sum(axis=0) >= 0.5)
        assert np.array_equal(np.delete(B, held, axis=1), T)
        H = B[:, held]
        S = select_eigenspace(constraint_graph_adjacency(inst) - np.diag(inst.degrees()), level)
        lift = np.repeat(S.basis, k, axis=0) / np.sqrt(k)
        assert len(held) == S.dim >= (1 if bridged else parts)
        assert np.abs(H @ H.T - lift @ lift.T).max() <= 1e-8

        rng = np.random.default_rng(0)
        C = rng.standard_normal((200, W.dim))
        C[:, held] = 0
        moved = C.copy()
        moved[:, held] = rng.standard_normal((200, len(held)))
        x = np.sort((C @ B.T).reshape(200, n, k), axis=2)
        clear = x[:, :, -1] - x[:, :, -2] > 1e-9
        blocks = label_blocks(B, k)
        assert np.array_equal(read_off_batch(C, blocks)[clear],
                              read_off_batch(moved, blocks)[clear])

        rep = recover_solution(inst, params)
        assert rep.held_dims == len(held)
        exact = B.copy()
        exact[:, held] = np.repeat(H.reshape(n, k, -1).mean(axis=1), k, axis=0)
        exact[:, held] /= np.linalg.norm(exact[:, held], axis=0)
        Z = np.concatenate(list(_lattice_chunks(W.dim, step, 8192)))
        r2 = np.floor(_net_radius2(T.shape[1], step))
        Z = Z[(np.delete(Z, held, axis=1) ** 2).sum(axis=1) <= r2] * step
        cands = np.concatenate([Z @ exact.T, B.T, -B.T])
        assert rep.best_value == max(value(inst, np.argmax(x.reshape(n, k), axis=1))
                                     for x in cands)


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

    def test_empty_window_rejected(self, monkeypatch):
        """The adjacency and Laplacian windows of an instance always hold
        the all-ones vector, so an empty W is substituted to reach the guard."""
        inst, planted = planted_on(8, 3, complete_skeleton(8), seed=2, family="maxlin")
        monkeypatch.setattr(recover_mod, "select_eigenspace",
                            lambda *args: orthonormal_space(inst.n * inst.k, 0))
        with pytest.raises(DegenerateSpectrumError, match="empty eigenspace"):
            closeness_diagnostic(inst, planted, SolveParams(0.01, 0.5))


class TestAlphabetIndependence:
    """The paper's guarantee does not depend on the alphabet size k: on
    planted instances with 2% of the constraints perturbed, dim W and the
    recovered value hold steady as k grows from 2 to 32."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_and_window_independent_of_k(self, seed):
        params = SolveParams(0.005, 0.1, theta=0.05, max_dim=8, net_step_override=1.0)
        dims = set()
        for k in (2, 4, 8, 16, 32):
            inst, planted, _ = planted_regular_instance(200, 4, k, seed=seed)
            pert = perturb(inst, planted, 0.02, seed=seed)
            rep = recover_solution(pert, params)
            assert rep.best_value >= value(pert, planted) - 0.05, k
            dims.add(rep.dim_W)
        assert len(dims) == 1, dims


class TestYesConstant:
    """recover.YES_CONSTANT, the c of the YES threshold 1 - c*(eps/(gamma -
    8*eps) + eps), measured: the largest (OPT - best)/(eps/(gamma - 8*eps) +
    eps) over planted instances of both families that the oracle solves
    exactly, with 2 or 3 constraints violated and eps the realized
    violation.  gamma = 1, the largest normalised gap, gives the smallest
    denominator; theta is halved from gamma until dim W fits max_dim."""

    def test_measured_ratio_within_constant(self):
        gamma, worst, solves = 1.0, 0.0, 0
        for family, n, d, k, m, seed in itertools.product(
            ("general-permutation", "maxlin"), (8, 10, 12), (3, 4, 5), (2, 3, 4), (2, 3), (0, 1, 2)
        ):
            edges, shift = n * d // 2, family == "maxlin"  # the oracle pins a shift game's vertex
            if n * d % 2 or 8 * m >= edges * gamma or k ** (n - shift) > 2 * 10**5:
                continue
            inst, planted, _ = planted_regular_instance(n, d, k, seed=seed,
                                                        constraint_family=family)
            pert = perturb(inst, planted, m / edges, seed=seed + 17, constraint_family=family)
            eps = 1 - value(pert, planted)
            assert eps == pytest.approx(m / edges)
            for theta in gamma / 2.0 ** np.arange(8):
                try:
                    rep = recover_solution(pert, SolveParams(eps, gamma, theta=theta,
                                                             net_step_override=0.5))
                    break
                except DimensionAbortError:
                    continue
            else:
                raise AssertionError(f"no theta fits max_dim: {family}, n={n}, d={d}, k={k}")
            opt = brute_force(pert).best_value
            worst = max(worst, (opt - rep.best_value) / (eps / (gamma - 8 * eps) + eps))
            solves += 1
        assert solves == 90
        assert worst <= recover_mod.YES_CONSTANT


def _robustness_instance(kind, n, k, seed):
    """A small instance: general permutations on random endpoints, self-loops
    and parallel edges included; no edges; or a planted Z_k shift game on a
    cycle, once or twice over, which is regular."""
    rng = np.random.default_rng(seed)
    pairs = [tuple(e) for e in rng.integers(0, n, (int(rng.integers(1, 3 * n + 1)), 2))]
    if kind == "edgeless":
        return from_rows(n, k, [])
    if kind == "shift":
        skeleton = cycle_skeleton(n) * int(rng.integers(1, 3))
        return planted_on(n, k, skeleton, seed=seed, family="maxlin")[0]
    return from_rows(n, k, [(u, v, float(rng.uniform(0.1, 1.0)), rng.permutation(k))
                            for u, v in pairs])


@given(kind=st.sampled_from(["general", "edgeless", "shift"]), n=st.integers(1, 6),
       k=st.integers(1, 4), seed=st.integers(0, 2**16), epsilon=st.floats(1e-3, 1.2),
       gamma=st.floats(0.01, 1.0), theta=st.none() | st.floats(0.01, 1.0),
       max_dim=st.integers(1, 20), step=st.sampled_from([None, 1e-12, 1e-3, 0.5, 2.0, 1e6]))
@example(kind="edgeless", n=5, k=3, seed=0, epsilon=0.16, gamma=0.5, theta=None, max_dim=20,
         step=1e-12)
@settings(max_examples=100, deadline=None)
def test_solvers_answer_or_raise_ug_errors(kind, n, k, seed, epsilon, gamma, theta, max_dim,
                                           step):
    """recover_solution in both modes and solve_maxlin either return a report
    whose best_value is the value of its best_labeling, or raise a UGError
    (an AbortError is one).  epsilon is drawn as a share of gamma / 8, theta
    as a share of gamma, so that most draws pass validation.  NET_CAP is
    lowered so that no example walks a net of millions of points: a net
    over it raises NetTooLargeError, one of the allowed outcomes."""
    inst = _robustness_instance(kind, n, k, seed)
    epsilon, theta = epsilon * gamma / 8, None if theta is None else theta * gamma
    calls = [(recover_solution, inst, SolveParams(epsilon, gamma, max_dim, mode, step, theta))
             for mode in ("adjacency", "laplacian")]
    calls.append((lambda i, p: solve_maxlin(MaxLinInstance.from_instance(i), p), inst,
                  MaxLinParams(epsilon, gamma, max_dim, "adjacency", step, theta)))
    with mock.patch.object(recover_mod, "NET_CAP", 20_000):
        for solve, instance, params in calls:
            try:
                rep = solve(instance, params)
            except UGError:
                continue
            assert value(instance, rep.best_labeling) == rep.best_value

"""Net enumeration, read-off, and the end-to-end solver."""

import itertools
import json
import time
from pathlib import Path

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
from ugspectral.linalg import Eigenspace, project_split, select_eigenspace
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
)

from conftest import complete_skeleton, cycle_skeleton, from_rows, planted_on, random_instance


def select_search_space(inst, params):
    """(W, d): the eigenspace a solve selects for params, and its degree scale."""
    return select_eigenspace(*search_operator(inst, params)), inst.average_degree


def enumerate_net(basis, step):
    """The net vectors of net_coefficients, as (rows, dim_ambient) arrays."""
    for C in net_coefficients(basis, step):
        yield C @ basis.basis.T


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
                                     dict(epsilon=0.01, gamma=0.5, theta=float("nan")),
                                     dict(epsilon=0.01, gamma=float("inf"))])
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

    @pytest.mark.parametrize("dim,step", [(1, 0.3), (1, 2.5), (2, 0.4), (3, 0.4), (4, 0.7)])
    @pytest.mark.parametrize("rows", [1, 7, 8192])
    def test_held_walk_is_the_full_nets_zero_slice(self, dim, step, rows):
        """Holding coordinate c walks exactly the full net's points with
        z_c = 0, at the full net's radius, in lexicographic order and in
        chunks of ``rows``; at dim 1 that is the origin alone."""
        r2 = _net_radius2(dim, step)
        m = int(np.floor(np.sqrt(r2)))
        full = [z for z in itertools.product(range(-m, m + 1), repeat=dim)
                if sum(x * x for x in z) <= r2]
        for c in range(dim):
            chunks = list(_lattice_chunks(dim, step, rows, hold=c))
            assert all(len(Z) == rows for Z in chunks[:-1]) and 1 <= len(chunks[-1]) <= rows
            assert np.concatenate(chunks).tolist() == [list(z) for z in full if z[c] == 0]

    def test_held_net_keeps_the_full_cap(self, monkeypatch):
        """NET_CAP counts the full net, so holding a coordinate aborts
        wherever the full net would, also when the held points fit the cap."""
        basis = orthonormal_space(6, 3, seed=3)
        held = sum(len(C) for C in net_coefficients(basis, 0.4, hold=1))
        assert held < net_size(3, 0.4)
        monkeypatch.setattr(recover_mod, "NET_CAP", held)
        with pytest.raises(NetTooLargeError):
            next(net_coefficients(basis, 0.4, hold=1))

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

    def test_empty_basis_rejected(self):
        with pytest.raises(UGError, match="empty basis"):
            next(net_coefficients(orthonormal_space(4, 0), 0.5))

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
            A, threshold, side = search_operator(inst, params)
            assert scipy.sparse.issparse(A)
            reference = select_eigenspace(A.toarray(), threshold, side)
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
        A, threshold, side = search_operator(inst, params)
        assert isinstance(A, np.ndarray)
        reference = select_eigenspace(A, threshold, side)
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
        empty = Eigenspace(18, np.zeros((18, 0)), np.zeros(0), 0.0, "adjacency-high")
        monkeypatch.setattr(recover_mod, "select_eigenspace", lambda A, t, side, max_dim: empty)
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
        in stream order wins: the solve reads off the first net row alone,
        not the 30,826,865 points of this net, nor the signed basis."""
        inst, params = from_rows(n, k, []), SolveParams(0.01, 0.5)
        W, _ = select_search_space(inst, params)
        step = float(np.sqrt(2 * 0.01 / (0.5 * W.dim)))
        first = next(recover_mod.net_coefficients(W, step))[:1]
        expected = read_off_batch(first, label_blocks(W.basis, k))[0].tolist()
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
        assert rep.distinct_labelings == 1 and rep.dim_W == n * k

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
                           "signed_candidates", "stages", "eigensolver"]
        assert all(type(x) is int for x in d["best_labeling"])
        stages = d["stages"]
        assert list(stages) == ["operator", "eigensolve", "walk", "readoff", "dedupe", "scoring"]
        assert all(type(s) is float and s >= 0 for s in stages.values())
        assert d["eigen_time"] == stages["operator"] + stages["eigensolve"]
        assert d["eigensolver"] == {"path": "dense", "passes": 0, "block": 0}
        assert d["enumeration_time"] == (stages["walk"] + stages["readoff"] + stages["dedupe"]
                                         + stages["scoring"])
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
    """Adding a multiple of the all-ones vector moves no per-block argmax,
    so where it is a basis column of W (its eigenvalue is simple) the solve
    reads off only the net points whose coefficient on it is 0."""

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

    def test_repeated_top_eigenvalue_walks_the_full_net(self):
        """A perfectly satisfiable Max-Lin instance has the top eigenvalue d
        k times over, so no basis column is the all-ones vector."""
        inst, _ = planted_on(7, 3, complete_skeleton(7), seed=4, family="maxlin")
        rep = recover_solution(inst, SolveParams(0.01, 0.5))
        assert rep.dim_W == 3
        assert rep.net_points_evaluated == net_size(rep.dim_W, rep.net_step)

    def test_laplacian_clustered_count(self, monkeypatch):
        """The benchmark's laplacian-clustered seed 1 reads 16,859 of its
        47,921 net points."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        workload = workloads.WORKLOADS["laplacian-clustered"]
        rep = workload.solve(core_mod.parse_instance(workload.make(1).text))
        assert net_size(rep.dim_W, rep.net_step) == 47921
        assert rep.net_points_evaluated == 16859


def reference_labelings(inst, params):
    """Every candidate in stream order (the net, then the signed basis
    vectors), each read off by per-block argmax.  Where a basis column w is
    the normalised all-ones vector 1^ up to sign, |<w, 1^>| >= 1 -
    RESIDUAL_TOL or ||w -+ 1^||^2 <= 2 RESIDUAL_TOL, the net is the full
    net's points with coefficient 0 on it, in the full net's order."""
    W, _ = select_search_space(inst, params)
    step = params.net_step_override
    if step is None:
        step = float(np.sqrt(2 * params.epsilon / (params.gamma * W.dim)))
    C = np.concatenate(list(net_coefficients(W, step)))
    ones = np.full(inst.n * inst.k, 1 / np.sqrt(inst.n * inst.k))
    held = [j for j, w in enumerate(W.basis.T)
            if min(np.sum((w - ones) ** 2), np.sum((w + ones) ** 2)) <= 2 * linalg_mod.RESIDUAL_TOL]
    if held:
        C = C[C[:, held[0]] == 0]
    cands = np.concatenate([C @ W.basis.T, W.basis.T, -W.basis.T])
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

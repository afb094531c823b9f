"""Label-extended matrix and Laplacian construction."""

import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

from ugspectral import label_extended
from ugspectral.core import UGError, UGInstance, characteristic_vector, value
from ugspectral.generators import KVSpec, kv_instance, planted_regular_instance
from ugspectral.label_extended import (
    build_label_extended,
    build_laplacian,
    constraint_graph_adjacency,
)
from ugspectral.linalg import eigendecompose
from ugspectral.recover import SolveParams, recover_solution

from conftest import complete_skeleton, from_rows, planted_on, random_instance, random_multigraph


class TestBlocks:
    def test_single_edge_block(self):
        P = np.eye(3)[[1, 2, 0]]  # P[i, j] = 1 iff i maps to j under (1, 2, 0)
        inst = from_rows(2, 3, [(0, 1, 0.5, (1, 2, 0))])
        M = build_label_extended(inst).matrix
        expect = np.zeros((6, 6))
        expect[0:3, 3:6] = 0.5 * P
        expect[3:6, 0:3] = 0.5 * P.T
        assert np.array_equal(M, expect)

    def test_symmetric(self):
        M = build_label_extended(random_instance(8, 4, seed=1)).matrix
        assert np.array_equal(M, M.T)

    def test_parallel_edges_accumulate(self):
        e = (0, 1, 0.3, (0, 1))
        inst = from_rows(2, 2, [e, e])
        M = build_label_extended(inst).matrix
        assert M[0, 2] == pytest.approx(0.6)

    def test_self_loop_counted_once(self):
        inst = from_rows(1, 2, [(0, 0, 1.0, (1, 0))])
        M = build_label_extended(inst).matrix
        # w * Pi symmetrized once: row sums equal the degree (= 1)
        assert np.allclose(M.sum(axis=1), 1.0)

    def test_row_sums_equal_degrees(self):
        inst = random_instance(7, 3, seed=5)
        lem = build_label_extended(inst)
        deg = np.repeat(inst.degrees(), inst.k)
        assert np.abs(lem.matrix.sum(axis=1) - deg).max() <= 1e-12


@st.composite
def multigraphs(draw):
    """Small instances with parallel edges stored in both orientations,
    self-loops and (mostly) non-dyadic weights."""
    n, k, E = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 10))
    ends = st.lists(st.integers(0, n - 1), min_size=E, max_size=E)
    w = draw(st.lists(st.floats(0.01, 1.0), min_size=E, max_size=E))
    perm = [draw(st.permutations(range(k))) for _ in range(E)]
    return UGInstance.from_arrays(n, k, draw(ends), draw(ends), w, np.reshape(perm, (E, k)))


def loop_operators(inst):
    """(M, L, constraint-graph adjacency, degrees) summed edge by edge in
    edge order: each edge's forward entries, then its reverse entries (none
    for a self-loop); M is (A + A^T)/2 and L is diag(D) - M."""
    n, k = inst.n, inst.k
    A, G, deg = np.zeros((n * k, n * k)), np.zeros((n, n)), np.zeros(n)
    for u, v, w, perm in zip(inst.u, inst.v, inst.w, inst.perm):
        for i in range(k):
            A[u * k + i, v * k + perm[i]] += w
        G[u, v] += w
        deg[u] += w
        if u != v:
            for i in range(k):
                A[v * k + perm[i], u * k + i] += w
            G[v, u] += w
            deg[v] += w
    M = (A + A.T) / 2
    return M, np.diag(np.repeat(deg, k)) - M, (G + G.T) / 2, deg


def loop_graph(n, u, v, w):
    """graph_operator summed edge by edge in edge order: w at (u, v), then
    its conjugate at (v, u) unless a self-loop; averaged with the conjugate
    transpose.  For real weights, loop_operators' constraint graph."""
    G = np.zeros((n, n), dtype=w.dtype)
    for a, b, x in zip(u, v, w):
        G[a, b] += x
        if a != b:
            G[b, a] += np.conj(x)
    return (G + G.conj().T) / 2


@st.composite
def simple_graphs(draw):
    """(instance, complex weights): each vertex pair, self-loops included,
    carries at most one edge, stored in either orientation."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(ends, max_size=8, unique_by=lambda e: (min(e), max(e))))
    E = len(pairs)
    w = draw(st.lists(st.floats(0.01, 1.0), min_size=E, max_size=E))
    z = draw(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=E, max_size=E))
    perm = [draw(st.permutations(range(k))) for _ in range(E)]
    u, v = np.reshape(np.array(pairs, dtype=np.int64), (E, 2)).T
    return UGInstance.from_arrays(n, k, u, v, w, np.reshape(perm, (E, k))), np.array(z, complex)


_K17 = np.random.default_rng(17).permuted(np.tile(np.arange(17), (18, 1)), axis=1)

# Instances on value_batch's pair-table path (P*k <= E), whose dense
# operators are scattered from the table: parallel edges stored in both
# orientations, self-loops, zero weights, and k = 17 (uint16 table cells).
PAIR_TABLE_EXAMPLES = (
    UGInstance.from_arrays(2, 2, [0, 1, 0, 1], [1, 0, 1, 0],
                           [0.1, 0.2, 0.3, 0.7], [[1, 0], [1, 0], [0, 1], [1, 0]]),
    UGInstance.from_arrays(2, 2, [0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 1, 1],
                           [0.1, 0.3, 0.7, 0.9, 0.2, 0.6], [[1, 0], [0, 1], [1, 0]] * 2),
    UGInstance.from_arrays(2, 3, [0, 1, 0, 1], [1, 0, 1, 0], [0.0, 0.3, 0.0, 0.1],
                           [[1, 2, 0], [0, 2, 1], [2, 1, 0], [1, 2, 0]]),
    UGInstance.from_arrays(2, 17, [0, 1] * 9, [1, 0] * 9, np.linspace(0.0, 0.9, 18), _K17),
)

# Instances on value_batch's edge path (P*k > E), whose dense operators are
# scattered from the table all the same: a self-loop, a pair stored in both
# orientations, k = 3 and k = 17.
EDGE_PATH_EXAMPLES = (
    UGInstance.from_arrays(3, 3, [0, 1, 2, 1], [1, 0, 2, 2], [0.1, 0.2, 0.3, 0.7],
                           [[1, 2, 0], [2, 0, 1], [0, 2, 1], [1, 0, 2]]),
    UGInstance.from_arrays(3, 17, [0, 1, 1, 2], [1, 0, 1, 0], [0.3, 0.1, 0.7, 0.9], _K17[:4]),
)


class TestSummationContract:
    @given(multigraphs())
    @example(UGInstance.from_arrays(2, 2, [0, 1, 0, 1, 0], [1, 0, 1, 1, 0],
                                    [0.1, 0.2, 0.3, 0.7, 0.9], [[1, 0]] * 5))
    @example(PAIR_TABLE_EXAMPLES[0])
    @example(PAIR_TABLE_EXAMPLES[1])
    @example(PAIR_TABLE_EXAMPLES[2])
    @example(PAIR_TABLE_EXAMPLES[3])
    @example(EDGE_PATH_EXAMPLES[0])
    @example(EDGE_PATH_EXAMPLES[1])
    @settings(max_examples=60, deadline=None)
    def test_dense_builds_equal_edge_loop(self, inst):
        """Every dense operator and the degrees are bitwise the sums of the
        edge loop, so no summation order changes with the build."""
        built = (build_label_extended(inst).matrix, build_laplacian(inst).matrix,
                 constraint_graph_adjacency(inst), inst.degrees())
        for got, want in zip(built, loop_operators(inst)):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("inst", PAIR_TABLE_EXAMPLES)
    def test_examples_on_pair_table_path(self, inst):
        """The examples above reach the table scatter, not the edge list."""
        assert inst.value_path == "pair-table"
        assert isinstance(build_label_extended(inst).matrix, np.ndarray)

    @pytest.mark.parametrize("inst", EDGE_PATH_EXAMPLES)
    def test_examples_on_edge_path(self, inst):
        """The examples above score edge by edge, and their dense build
        reads the pair table, which the instance then keeps."""
        assert inst.value_path == "edge"
        assert isinstance(build_label_extended(inst).matrix, np.ndarray)
        assert vars(inst).get("pair_table") is not None

    def test_table_built_only_for_a_dense_operator(self):
        """Choosing the scoring path, a CSR build and the constraint graph
        leave the pair table unbuilt."""
        inst, _, _ = planted_regular_instance(128, 4, 4, seed=2, constraint_family="maxlin")
        assert inst.value_path == "edge"
        assert scipy.sparse.issparse(build_laplacian(inst).matrix)
        constraint_graph_adjacency(inst)
        assert "pair_table" not in vars(inst)

    @pytest.mark.parametrize("mode", ["adjacency", "laplacian"])
    def test_overflowing_parallel_edges_rejected(self, mode):
        """Two parallel edges of weight 1e308 sum to inf: the instance is
        rejected with UGError, without a warning, when it is built, so no
        solve in either mode meets a non-finite degree or operator."""
        with pytest.raises(UGError, match="overflow"), warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = UGInstance.from_arrays(2, 2, [0, 0], [1, 1], [1e308, 1e308], [[0, 1], [0, 1]])
            recover_solution(inst, SolveParams(0.01, 0.5, mode=mode))


class TestEigenvectorIdentity:
    @given(st.integers(0, 10**6), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_perfect_labeling_is_eigenvector(self, seed, k):
        """On a regular graph, the characteristic vector of a perfectly
        satisfying labeling is an eigenvector of M with eigenvalue d."""
        n = 8
        inst, planted = planted_on(n, k, complete_skeleton(n), seed=seed)
        assert value(inst, planted) == 1.0
        lem = build_label_extended(inst)
        d = inst.average_degree
        y = characteristic_vector(planted, k)
        assert np.linalg.norm(lem.matrix @ y - d * y) <= 1e-9 * d

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_laplacian_annihilates_perfect_labeling(self, seed):
        """L_M y = 0 for perfect labelings, regular or not."""
        rng = np.random.default_rng(seed)
        skel = [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.4]
        skel = skel or [(0, 1)]
        inst, planted = planted_on(9, 3, skel, seed=seed)
        lap = build_laplacian(inst)
        y = characteristic_vector(planted, 3)
        assert np.linalg.norm(lap.matrix @ y) <= 1e-9 * max(1.0, inst.average_degree)


class TestLaplacian:
    def test_psd(self):
        lap = build_laplacian(random_instance(8, 3, seed=9))
        vals, _ = eigendecompose(lap.matrix)
        assert vals.min() >= -1e-10

    def test_diagonal_is_degree(self):
        inst = random_instance(6, 2, seed=4)
        lap = build_laplacian(inst)
        adj = build_label_extended(inst)
        D = np.repeat(inst.degrees(), inst.k)
        assert np.abs(np.diag(lap.matrix) - (D - np.diag(adj.matrix))).max() <= 1e-12


class TestConstraintGraph:
    def test_forgets_permutations(self):
        inst = random_instance(6, 3, seed=8)
        A = constraint_graph_adjacency(inst)
        assert np.array_equal(A, A.T)
        assert A.sum(axis=1) == pytest.approx(inst.degrees(), abs=1e-12)

    def test_self_loop_on_diagonal(self):
        inst = from_rows(2, 2, [(0, 0, 0.5, (0, 1)), (0, 1, 1.0, (0, 1))])
        A = constraint_graph_adjacency(inst)
        assert A[0, 0] == 0.5 and A[0, 1] == 1.0


class TestStorageRule:
    def test_small_or_full_operators_stay_dense(self):
        """Below SPARSE_MIN_DIM rows, or with more stored entries than
        SPARSE_MAX_FILL of the matrix (the KV gap instance fills it), the
        build is the dense array."""
        assert isinstance(build_label_extended(random_instance(8, 4, seed=1)).matrix, np.ndarray)
        kv = kv_instance(KVSpec(3, 0.25))
        assert kv.n * kv.k < label_extended.SPARSE_MIN_DIM
        assert len(kv.u) * kv.k > label_extended.SPARSE_MAX_FILL * (kv.n * kv.k) ** 2

    def test_sparse_build_is_csr_of_E_k_nonzeros(self):
        inst, _, _ = planted_regular_instance(128, 4, 4, seed=2, constraint_family="maxlin")
        M = build_label_extended(inst).matrix
        assert scipy.sparse.issparse(M) and M.format == "csr"
        assert M.nnz == 2 * len(inst.u) * inst.k

    @given(simple_graphs())
    @settings(max_examples=60, deadline=None)
    def test_csr_builds_equal_edge_loop(self, case):
        """Built as CSR (the rule patched to always choose it), M and the
        graph operator of real and of complex weights are bitwise the sums
        of the edge loop where no cell sums two edges: the one builder lays
        each edge's entries out in the loop's order, conjugates included."""
        inst, z = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(label_extended, "SPARSE_MIN_DIM", 0)
            mp.setattr(label_extended, "SPARSE_MAX_FILL", np.inf)
            built = (build_label_extended(inst).matrix, constraint_graph_adjacency(inst),
                     label_extended.graph_operator(inst.n, inst.u, inst.v, z))
        M, _, G, _ = loop_operators(inst)
        for got, want in zip(built, (M, G, loop_graph(inst.n, inst.u, inst.v, z))):
            assert scipy.sparse.issparse(got) and got.format == "csr"
            assert got.dtype == want.dtype and got.toarray().tobytes() == want.tobytes()
        assert G.tobytes() == loop_graph(inst.n, inst.u, inst.v, inst.w).tobytes()

    @pytest.mark.parametrize("make", [
        lambda: random_instance(9, 3, seed=4),
        lambda: random_multigraph(4, 3, 2, seed=5),  # parallel edges and self-loops
        lambda: from_rows(2, 2, [(0, 0, 0.5, (1, 0)), (0, 1, 1.0, (0, 1))]),
    ])
    def test_sparse_equals_dense(self, make, monkeypatch):
        """Every operator built sparse (the rule patched to always choose
        CSR) densifies to the dense build, up to the order in which parallel
        edges are summed, and is exactly symmetric."""
        inst = make()
        dense = (build_label_extended(inst).matrix, build_laplacian(inst).matrix,
                 constraint_graph_adjacency(inst))
        monkeypatch.setattr(label_extended, "SPARSE_MIN_DIM", 0)
        monkeypatch.setattr(label_extended, "SPARSE_MAX_FILL", np.inf)
        sparse = (build_label_extended(inst).matrix, build_laplacian(inst).matrix,
                  constraint_graph_adjacency(inst))
        for D, S in zip(dense, sparse):
            assert scipy.sparse.issparse(S)
            assert (S != S.T).nnz == 0
            np.testing.assert_allclose(S.toarray(), D, rtol=0, atol=1e-15)

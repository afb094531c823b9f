"""Data model, labeling evaluation, and text serialization."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ugspectral.core import (
    InvalidLabelingError,
    ParseError,
    UGEdge,
    UGError,
    UGInstance,
    characteristic_vector,
    parse_instance,
    serialize_instance,
    shift_image,
    validate_labeling,
    value,
    value_batch,
)
from ugspectral.generators import PlantedSpec, planted_instance
from ugspectral.label_extended import build_label_extended
from ugspectral.maxlin import AbelianGroup, MaxLinInstance

from conftest import from_rows, random_instance, random_multigraph


class TestPermutation:
    """An edge's permutation is its row of ``perm``, the table of images."""

    def test_rejects_non_bijection(self):
        with pytest.raises(UGError, match="not a bijection"):
            from_rows(2, 3, [(0, 1, 1.0, (0, 0, 1))])
        with pytest.raises(UGError, match="not a bijection"):
            UGInstance(2, 3, [UGEdge(0, 1, 1.0, (0, 0, 1))])

    def test_inverse_roundtrip(self):
        """The inverse row is np.argsort of the images; an edge stored as
        (v, u) with it is the same constraint as (u, v) with the row."""
        p = np.array([2, 0, 3, 1])
        q = np.argsort(p)
        assert p[q].tolist() == q[p].tolist() == [0, 1, 2, 3]
        fwd = build_label_extended(from_rows(2, 4, [(0, 1, 1.0, p)])).matrix
        rev = build_label_extended(from_rows(2, 4, [(1, 0, 1.0, q)])).matrix
        assert np.array_equal(fwd, rev)

    def test_matrix_maps_i_to_j(self):
        """Block (u, v) of the label-extended matrix is w * P, P[i, p[i]] = 1."""
        p = (1, 2, 0)
        P = build_label_extended(from_rows(2, 3, [(0, 1, 1.0, p)])).matrix[0:3, 3:6]
        for i in range(3):
            assert P[i, p[i]] == 1.0
        assert P.sum() == 3.0

    def test_shift_encodes_difference(self):
        # pi(x_u) = x_v with pi the shift by c encodes x_u - x_v = c
        k, c = 5, 2
        row = parse_instance(f"maxlin 2 {k}\n0 1 1.0 {c}\n").perm[0]
        for xu in range(k):
            assert row[xu] == shift_image(xu, c, k) == (xu - c) % k

    def test_identity(self):
        assert shift_image(np.arange(4), 0, 4).tolist() == [0, 1, 2, 3]


def from_edges(n, k, u, v, w, images):
    return UGInstance(n, k, [UGEdge(u, v, w, images)])


def from_arrays(n, k, u, v, w, images):
    return UGInstance.from_arrays(n, k, [u], [v], [w], [images])


both_constructors = pytest.mark.parametrize("build", [from_edges, from_arrays])


class TestInstance:
    @both_constructors
    def test_edge_out_of_range(self, build):
        with pytest.raises(UGError):
            build(2, 2, 0, 5, 1.0, (0, 1))

    @both_constructors
    def test_arity_mismatch(self, build):
        with pytest.raises(UGError):
            build(2, 3, 0, 1, 1.0, (0, 1))

    @both_constructors
    def test_negative_weight(self, build):
        with pytest.raises(UGError):
            build(2, 2, 0, 1, -1.0, (0, 1))

    def test_arrays_are_the_stored_form(self, small_instance):
        """from_arrays round-trips the arrays, they are read-only, and edges
        is a view rebuilding each UGEdge from them."""
        inst = small_instance
        again = UGInstance.from_arrays(inst.n, inst.k, inst.u, inst.v, inst.w, inst.perm)
        assert serialize_instance(again) == serialize_instance(inst)
        with pytest.raises(ValueError):
            inst.w[0] = 0.5
        assert len(inst.edges) == 4
        last = inst.edges[-1]
        assert (last.u, last.v, last.weight, last.perm) == (3, 0, 0.5, (2, 0, 1))
        assert last == (3, 0, 0.5, (2, 0, 1))  # a plain record
        with pytest.raises(IndexError):
            inst.edges[4]

    def test_ingest_rescales_weights(self):
        """Producers that take outside weights divide them by their maximum
        when it exceeds 1 and record the factor; constructors keep them."""
        for inst in (
            parse_instance("ug 2 2\n0 1 4.0 0 1\n"),
            planted_instance(PlantedSpec(2, 2, [(0, 1, 4.0)], [0, 0]))[0],
            MaxLinInstance.from_constraints(2, AbelianGroup.cyclic(2), [(0, 1, 4.0, 1)]).base,
            from_rows(2, 2, [(0, 1, 4.0, (0, 1))]),
        ):
            assert inst.scale == 4.0
            assert inst.edges[0].weight == 1.0
        for inst in (
            UGInstance.from_arrays(2, 2, [0], [1], [4.0], [(0, 1)]),
            UGInstance(2, 2, [UGEdge(0, 1, 4.0, (0, 1))]),
        ):
            assert (inst.scale, inst.edges[0].weight) == (1.0, 4.0)

    def test_degrees_and_regularity(self, small_instance):
        deg = small_instance.degrees()
        # weights were rescaled by 2.0 on ingest
        assert np.allclose(deg * small_instance.scale, [2.0, 1.5, 2.5, 3.0])
        assert not small_instance.is_regular()

    def test_self_loop_degree_counted_once(self):
        inst = from_rows(1, 2, [(0, 0, 1.0, (0, 1))])
        assert inst.degree(0) == 1.0


DYADIC = st.integers(1, 8).map(lambda x: x / 8)  # every sum of these is exact


@st.composite
def multigraphs(draw, dense, weights=DYADIC):
    """Instances on at most 4 vertices whose pairs, self-loops included,
    carry parallel edges in both orientations with weights drawn from
    ``weights``: P*k <= E when ``dense``, P*k > E otherwise."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1 if dense else 2, 4))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(ends, min_size=1, max_size=5, unique_by=lambda e: (min(e), max(e))))
    copies = st.integers(1, 2 * k if dense else k - 1)
    counts = draw(st.lists(copies, min_size=len(pairs), max_size=len(pairs)))
    if dense:
        counts[0] += max(0, len(pairs) * k - sum(counts))
    u, v, w, perm = [], [], [], []
    for (x, y), count in zip(pairs, counts):
        for _ in range(count):
            flip = draw(st.booleans())
            u.append(y if flip else x)
            v.append(x if flip else y)
            w.append(draw(weights))
            perm.append(draw(st.permutations(range(k))))
    return UGInstance.from_arrays(n, k, u, v, w, perm)


class TestValue:
    def test_known_value(self, small_instance):
        # labels (0,1,1,1): edge0 pi(0)=1 sat; edge1 pi(1)=2 unsat;
        # edge2 identity 1->1 sat; edge3 pi(1)=0 sat.  weights 1,.5,2,1
        assert value(small_instance, [0, 1, 1, 1]) == pytest.approx(4.0 / 4.5)

    def test_perfect_and_zero(self):
        inst = from_rows(2, 2, [(0, 1, 1.0, (0, 1))])
        assert value(inst, [0, 0]) == 1.0
        assert value(inst, [0, 1]) == 0.0

    def test_validates_labels(self, small_instance):
        with pytest.raises(InvalidLabelingError):
            value(small_instance, [0, 1, 2])
        with pytest.raises(InvalidLabelingError):
            value(small_instance, [0, 1, 2, 3])

    def test_batch_matches_scalar(self):
        """Also on the pair-table path, and from uint8 labels with k = 17,
        where a flat table index k*i + j would overflow uint8."""
        rng = np.random.default_rng(0)
        for inst in (random_instance(8, 3, seed=3), random_multigraph(4, 17, 17, seed=3)):
            batch = rng.integers(0, inst.k, size=(50, inst.n))
            for labels in (batch, batch.astype(np.uint8)):
                vals = value_batch(inst, labels)
                for row, v in zip(batch, vals):
                    assert v == value(inst, row)

    @pytest.mark.parametrize("dense", [True, False])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_coalesced_equals_raw_value(self, dense, data):
        """On both sides of the pair-table rule, value_batch equals the
        per-edge sum  sum_e w_e [perm_e(L[u_e]) == L[v_e]] / sum_e w_e  exactly."""
        inst = data.draw(multigraphs(dense))
        pairs = {(min(e), max(e)) for e in zip(inst.u.tolist(), inst.v.tolist())}
        assert (len(pairs) * inst.k <= len(inst.w)) == dense
        row = st.lists(st.integers(0, inst.k - 1), min_size=inst.n, max_size=inst.n)
        L = np.array(data.draw(st.lists(row, min_size=1, max_size=4)), dtype=np.int64)
        edges = list(zip(inst.u.tolist(), inst.v.tolist(), inst.w.tolist(), inst.perm.tolist()))
        total = sum(inst.w.tolist())
        expected = [
            sum(w for u, v, w, p in edges if p[labels[u]] == labels[v]) / total
            for labels in L.tolist()
        ]
        assert value_batch(inst, L).tolist() == expected
        assert value_batch(inst, L.astype(np.uint8)).tolist() == expected

    @pytest.mark.parametrize("dense", [True, False])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_all_satisfied_scores_exactly_one(self, dense, data):
        """With arbitrary float weights, on both sides of the pair-table
        rule: a labeling satisfying every edge scores exactly 1.0, wherever
        it sits in the batch, and no labeling scores above 1."""
        weights = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
        inst = data.draw(multigraphs(dense, weights))
        labels = st.lists(st.integers(0, inst.k - 1), min_size=inst.n, max_size=inst.n)
        L = np.array(data.draw(labels))
        perm = inst.perm.copy()  # swap each row's images so that L[u] -> L[v]
        for row, x, y in zip(perm, L[inst.u], L[inst.v]):
            j = int(np.flatnonzero(row == y)[0])
            row[[x, j]] = row[[j, x]]
        inst = UGInstance.from_arrays(inst.n, inst.k, inst.u, inst.v, inst.w, perm)
        batch = np.array(data.draw(st.lists(labels, min_size=1, max_size=6)))
        at = data.draw(st.lists(st.integers(0, len(batch) - 1), min_size=1))
        batch[at] = L
        satisfies_all = (batch == L).all(axis=1)
        vals = value_batch(inst, batch)
        assert vals[satisfies_all].tolist() == [1.0] * int(satisfies_all.sum())
        assert vals.max() <= 1.0
        assert value(inst, L) == 1.0

    @pytest.mark.parametrize("dense", [True, False])
    def test_pair_structure_built_once(self, dense, monkeypatch):
        """The path choice (one np.unique of the pair keys) and, on the
        pair-table path, the tables (np.bincount) are built on the first
        value_batch call of an instance and reused by every later one."""
        inst = random_multigraph(3, 2, 2) if dense else random_instance(6, 3, seed=1)
        calls = Counter()

        def counted(name):
            real = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("unique", "bincount"):
            monkeypatch.setattr(np, name, counted(name))
        L = np.random.default_rng(0).integers(0, inst.k, size=(4, inst.n))
        first = value_batch(inst, L)
        assert value_batch(inst, L).tolist() == first.tolist()
        assert value(inst, L[0]) == first[0]
        assert calls == Counter({"unique": 1, "bincount": 2 if dense else 0})

    def test_edgeless_instance_fully_satisfied(self):
        inst = from_rows(3, 2, [])
        assert value(inst, [0, 1, 0]) == 1.0
        assert value_batch(inst, np.zeros((2, 3), dtype=np.int64)).tolist() == [1.0, 1.0]

    @given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.integers(0, 10**6), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_edge_reversal_invariance(self, seed, k, pick, dense):
        """Storing one edge, or every edge, in the reverse orientation with
        the inverse permutation leaves every value unchanged to the last
        bit: the same edges are satisfied and summed in the same order (on
        the pair-table path, into the same table cells)."""
        inst = random_multigraph(3, k, k + 1, seed) if dense else random_instance(6, k, seed=seed)

        def reversed_at(which):
            u, v, perm = inst.u.copy(), inst.v.copy(), inst.perm.copy()
            u[which], v[which] = inst.v[which], inst.u[which]
            perm[which] = np.argsort(inst.perm[which], axis=-1)
            return UGInstance.from_arrays(inst.n, inst.k, u, v, inst.w, perm, inst.scale)

        L = np.random.default_rng(seed).integers(0, k, size=(5, inst.n))
        for flipped in (reversed_at(pick % len(inst.w)), reversed_at(slice(None))):
            assert value_batch(flipped, L).tolist() == value_batch(inst, L).tolist()
            assert value(flipped, L[0]) == value(inst, L[0])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_vertex_relabeling_invariance(self, seed):
        """Renaming vertices permutes nothing about the satisfied weight."""
        k = 3
        inst = random_instance(7, k, seed=seed)
        rng = np.random.default_rng(seed + 1)
        sigma = rng.permutation(7)
        renamed = UGInstance.from_arrays(
            inst.n, inst.k, sigma[inst.u], sigma[inst.v], inst.w, inst.perm, inst.scale
        )
        L = rng.integers(0, k, size=7)
        L2 = np.empty(7, dtype=np.int64)
        L2[sigma] = L
        assert value(inst, L) == pytest.approx(value(renamed, L2), abs=1e-12)


class TestCharacteristicVector:
    def test_one_hot_blocks(self):
        y = characteristic_vector([2, 0], 3)
        assert y.tolist() == [0, 0, 1, 1, 0, 0]

    def test_normalized_norm_one(self):
        y = characteristic_vector([1, 0, 2, 2], 3, normalized=True)
        assert np.linalg.norm(y) == pytest.approx(1.0)
        assert y.max() == pytest.approx(0.5)

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidLabelingError):
            characteristic_vector([0, 3], 3)


class TestSerialization:
    def test_roundtrip(self, small_instance):
        text = serialize_instance(small_instance)
        back = parse_instance(text)
        assert back.n == small_instance.n and back.k == small_instance.k
        for a, b in zip(back.edges, small_instance.edges):
            assert (a.u, a.v, a.perm) == (b.u, b.v, b.perm)
            assert a.weight == b.weight  # 17 significant digits round-trip

    def test_maxlin_format(self):
        inst = parse_instance("maxlin 3 4\n0 1 1.0 2\n1 2 0.5 0\n")
        assert inst.perm.tolist() == [[2, 3, 0, 1], [0, 1, 2, 3]]  # i -> i - c

    def test_comments_and_blank_lines(self):
        inst = parse_instance("# header comment\n\nug 2 2\n0 1 1.0 1 0  # swap\n")
        assert len(inst.edges) == 1
        assert inst.edges[0].perm == (1, 0)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "nope 2 2\n",
            "ug x 2\n",
            "ug 2 2\n0 1 1.0\n",            # missing images
            "ug 2 2\n0 1 1.0 0 0\n",        # not a bijection
            "ug 2 2\n0 5 1.0 0 1\n",        # vertex out of range
            "ug 2 2\n0 1 -1.0 0 1\n",       # negative weight
            "maxlin 2 3\n0 1 1.0 7\n",      # shift out of range
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_parse_error_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_instance("# c\nug 2 2\n0 1 bad 0 1\n")


def test_validate_labeling_returns_array(small_instance):
    L = validate_labeling(small_instance, [0, 1, 2, 0])
    assert isinstance(L, np.ndarray) and L.dtype == np.int64

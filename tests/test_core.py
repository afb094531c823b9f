"""Data model, labeling evaluation, and text serialization."""

import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ugspectral.core as core_mod
from ugspectral.core import (
    InvalidLabelingError,
    ParseError,
    UGEdge,
    UGError,
    UGInstance,
    characteristic_vector,
    load_instance,
    parse_instance,
    serialize_instance,
    shift_image,
    validate_labeling,
    value,
    value_batch,
)
from ugspectral.generators import (
    KVSpec,
    PlantedSpec,
    kv_instance,
    planted_instance,
    planted_regular_instance,
)
from ugspectral.label_extended import build_label_extended
from ugspectral.oracle import brute_force

from conftest import from_rows, random_instance, random_multigraph


# Tokens that int() and float() read differently from np.loadtxt, or reject,
# and the characters other than \n at which str.splitlines breaks a line.
ODD_TOKENS = ["1.0", "1e0", "1.", "inf", "nan", "-1.0", "1e400", "0x1", "99999999999999999999",
              "+3", "-0", "1_0", ".5", "5.", "007", "\u0663", "-1", "9", "bad"]
LINE_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def parse_by_lines(text):
    """parse_instance by the line loop alone, the reference for the array path."""
    lines = text.splitlines()
    return core_mod._parse_lines(lines, *core_mod._read_header(lines))


def parse_outcome(parse, text):
    """n, k, scale and the raw edge arrays of a parse, or its error type and text."""
    try:
        inst = parse(text)
    except UGError as e:
        return type(e), str(e)
    arrays = [(a.dtype.str, a.shape, a.tobytes()) for a in (inst.u, inst.v, inst.w, inst.perm)]
    return inst.n, inst.k, inst.scale, arrays


@st.composite
def instance_texts(draw):
    """ug or maxlin text with lines ended by any str.splitlines break,
    inline comments and blank lines; an edge line is valid unless it draws
    one mutation: an odd token, a dropped or doubled field, or a line break
    or tab between fields."""
    fmt = draw(st.sampled_from(["ug", "maxlin"]))
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weights = st.sampled_from(["1", "0.5", "0", "2.5"]) | st.floats(0, 8).map(lambda x: format(x, ".17g"))
    lines = [f"{fmt} {n} {k}"]
    for _ in range(draw(st.integers(0, 6))):
        images = [draw(st.integers(0, k - 1))] if fmt == "maxlin" else draw(st.permutations(range(k)))
        tokens = [str(draw(st.integers(0, n - 1))), str(draw(st.integers(0, n - 1))), draw(weights)]
        tokens += map(str, images)
        seps = [" "] * len(tokens)
        mutation = draw(st.integers(0, 8))
        i = draw(st.integers(0, len(tokens) - 1))
        if mutation == 6:
            tokens[i] = draw(st.sampled_from(ODD_TOKENS))
        elif mutation == 7:
            tokens[i : i + 1] = draw(st.sampled_from([[], [tokens[i]] * 2]))
        elif mutation == 8:
            seps[i] = draw(st.sampled_from(["\t", *LINE_BREAKS]))
        line = "".join(t + sep for t, sep in zip(tokens, seps)).rstrip(" ")
        lines.append(line + draw(st.sampled_from(["", "", "  # note", "#"])))
        lines += draw(st.sampled_from([[], [], [""], ["# comment"], ["   "]]))
    return "".join(line + draw(st.sampled_from(["\n", *LINE_BREAKS])) for line in lines)


class TestPermutation:
    """An edge's permutation is its row of ``perm``, the table of images."""

    def test_rejects_non_bijection(self):
        with pytest.raises(UGError, match="not a bijection"):
            from_rows(2, 3, [(0, 1, 1.0, (0, 0, 1))])

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

    @both_constructors
    def test_rejects_non_bijection(self, build):
        with pytest.raises(UGError, match="not a bijection"):
            build(2, 3, 0, 1, 1.0, (0, 0, 1))

    @both_constructors
    @pytest.mark.parametrize("u, v, perm", [(0.5, 1.7, (0, 1)), (0, 1, (0.0, 1.5)),
                                            (float("nan"), 1, (0, 1))])
    def test_rejects_non_integral_endpoints_and_images(self, build, u, v, perm):
        """An endpoint or image that the int64 cast would change is an error,
        not truncated: (0.5, 1.7) is not the edge (0, 1).  Integral floats
        are the integers they equal."""
        with pytest.raises(UGError, match="integer"):
            build(2, 2, u, v, 1.0, perm)
        assert build(2, 2, 0.0, 1.0, 1.0, (1.0, 0.0)).u.tolist() == [0]

    @both_constructors
    def test_rejects_weights_whose_total_overflows(self, build):
        """Weights whose total overflows float64 when doubled (a degree sum,
        a Laplacian's row sum) are an error when the instance is built;
        value() divided inf by inf into NaN and brute_force raised
        TypeError.  A total just below leaves every degree and value finite."""
        for w in (1e308, 9e307):
            with pytest.raises(UGError, match="overflow float64"):
                build(2, 2, 0, 1, w, (0, 1))
        with pytest.raises(UGError, match="overflow float64"):
            UGInstance.from_arrays(3, 2, [0, 1], [1, 2], [1e308, 1e308], [[0, 1], [0, 1]])
        inst = build(2, 2, 0, 1, 8.9e307, (0, 1))
        assert np.isfinite(inst.degrees()).all() and np.isfinite(inst.average_degree)
        assert value(inst, [1, 1]) == brute_force(inst).best_value == 1.0

    @pytest.mark.parametrize("n, k", [(2.5, 2), (-1, 2), (2, 0), (True, 2)])
    def test_rejects_n_and_k_but_positive_integers(self, n, k):
        """n and k are integers >= 1, numpy's too: 2.5 was stored as 2, and
        n = -1 broke degrees() later with numpy's ValueError."""
        with pytest.raises(UGError, match="n and k must be integers >= 1"):
            UGInstance.from_arrays(n, k, [], [], [], np.zeros((0, k)))
        assert UGInstance.from_arrays(np.int64(2), np.int32(2), [0], [1], [1.0], [[0, 1]]).n == 2

    @both_constructors
    def test_keeps_weights(self, build):
        inst = build(2, 2, 0, 1, 4.0, (0, 1))
        assert (inst.scale, inst.w.tolist()) == (1.0, [4.0])

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
        when it exceeds 1 and record the factor; constructors keep them
        (``test_keeps_weights``)."""
        for inst in (
            parse_instance("ug 2 2\n0 1 4.0 0 1\n"),
            planted_instance(PlantedSpec(2, 2, [(0, 1, 4.0)], [0, 0]))[0],
            from_rows(2, 2, [(0, 1, 4.0, (0, 1))]),
        ):
            assert (inst.scale, inst.w.tolist()) == (4.0, [1.0])

    def test_degrees_and_regularity(self, small_instance):
        deg = small_instance.degrees()
        # weights were rescaled by 2.0 on ingest
        assert np.allclose(deg * small_instance.scale, [2.0, 1.5, 2.5, 3.0])
        assert not small_instance.is_regular()

    def test_self_loop_degree_counted_once(self):
        inst = from_rows(1, 2, [(0, 0, 1.0, (0, 1))])
        assert inst.degrees().tolist() == [1.0]


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

    @pytest.mark.parametrize("labels", [[0.7, 0.2], [0, 1.5], [0, float("nan")], [0, np.inf],
                                        [1 + 0j, 0], ["0", "1"]])
    def test_rejects_non_integral_labels(self, labels):
        """A label that is not an integer is an error, not truncated: [0.7,
        0.2] is not the labeling [0, 0], which satisfies the edge.  Nor is a
        complex number or a string read as one."""
        inst = UGInstance.from_arrays(2, 2, [0], [1], [1.0], [[0, 1]])
        with pytest.raises(InvalidLabelingError, match="integer"):
            value(inst, labels)
        with pytest.raises(InvalidLabelingError, match="integer"):
            validate_labeling(inst, labels)
        assert value(inst, [1.0, 1.0]) == 1.0

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

    @pytest.mark.parametrize("k", [3, 16, 17])
    def test_pair_table_gather_any_label_dtype(self, k):
        """The table path gathers cell p*k*k + L[a]*k + L[b] with the cell
        part in uint8 up to k = 16 and uint16 from k = 17; from int64, uint8
        and uint16 labels it equals the edge-by-edge sum (dyadic weights, so
        every sum is exact)."""
        rng = np.random.default_rng(k)
        multi = random_multigraph(3, k, k, seed=k)
        w = rng.integers(1, 9, len(multi.w)) / 8
        inst = UGInstance.from_arrays(multi.n, k, multi.u, multi.v, w, multi.perm)
        assert inst.value_path == "pair-table"
        L = rng.integers(0, k, size=(30, inst.n))
        edges = list(zip(inst.u.tolist(), inst.v.tolist(), w.tolist(), inst.perm.tolist()))
        total = sum(w.tolist())
        expected = [sum(x for u, v, x, p in edges if p[row[u]] == row[v]) / total
                    for row in L.tolist()]
        for dtype in (np.int64, np.uint8, np.uint16):
            assert value_batch(inst, L.astype(dtype)).tolist() == expected

    @pytest.mark.parametrize("dense", [True, False])
    def test_values_independent_of_byte_budget(self, dense, monkeypatch):
        """A budget of one byte scores one row per slice, with the same
        values to the last bit, on both sides of the pair-table rule."""
        inst = random_multigraph(4, 3, 3, seed=2) if dense else random_instance(8, 3, seed=2)
        assert (inst.value_path == "pair-table") == dense
        L = np.random.default_rng(1).integers(0, inst.k, size=(40, inst.n))
        whole = value_batch(inst, L)
        monkeypatch.setattr(core_mod, "BATCH_BYTES", 1)
        assert value_batch(inst, L).tolist() == whole.tolist()

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

    def test_rejects_non_integral_labels(self):
        """[0.5, 1.5] is not read as the labeling [0, 1]."""
        with pytest.raises(InvalidLabelingError, match="integer"):
            characteristic_vector([0.5, 1.5], 2)


class TestSerialization:
    def test_roundtrip(self, small_instance):
        text = serialize_instance(small_instance)
        back = parse_instance(text)
        assert back.n == small_instance.n and back.k == small_instance.k
        for name in ("u", "v", "perm"):
            assert np.array_equal(getattr(back, name), getattr(small_instance, name))
        assert back.w.tolist() == small_instance.w.tolist()  # 17 significant digits round-trip

    def test_maxlin_format(self):
        inst = parse_instance("maxlin 3 4\n0 1 1.0 2\n1 2 0.5 0\n")
        assert inst.perm.tolist() == [[2, 3, 0, 1], [0, 1, 2, 3]]  # i -> i - c

    def test_comments_and_blank_lines(self):
        inst = parse_instance("# header comment\n\nug 2 2\n0 1 1.0 1 0  # swap\n")
        assert inst.perm.tolist() == [[1, 0]]

    @pytest.mark.parametrize("text, error, message", [
        pytest.param(text, ParseError, message, id=text) for text, message in [
            ("", "empty input, expected 'ug <n> <k>' or 'maxlin <n> <k>' header"),
            ("nope 2 2\n", "line 1: expected 'ug <n> <k>' or 'maxlin <n> <k>'"),
            ("ug x 2\n", "line 1: non-integer n or k in header"),
            ("ug 2 2\n0 1 1.0\n", "line 2: expected 5 fields, got 3"),
            ("ug 2 2\n0 1 1.0 0 0\n", "line 2: not a bijection on [2]: (0, 0)"),
            ("ug 2 2\n0 5 1.0 0 1\n", "line 2: vertex index out of range [0, 2)"),
            ("ug 2 2\n0 1 -1.0 0 1\n", "line 2: bad weight -1.0"),
            ("maxlin 2 3\n0 1 1.0 7\n", "line 2: shift constant out of range [0, 3)"),
        ]
    ] + [
        # Each failure class after comment and blank lines: a bad header on
        # line 3, or a bad edge on line 6 after a good one on line 4.
        pytest.param(f"# c\n\n{header}\n", ParseError, message, id=name)
        for name, header, message in [
            ("comment-only", "# no header", "empty input, expected 'ug <n> <k>' or 'maxlin <n> <k>' header"),
            ("keyword", "graph 2 2", "line 3: expected 'ug <n> <k>' or 'maxlin <n> <k>'"),
            ("header-fields", "ug 2 2 2", "line 3: expected 'ug <n> <k>' or 'maxlin <n> <k>'"),
            ("header-int", "ug 2 2.0", "line 3: non-integer n or k in header"),
            ("header-n", "ug 0 2", "line 3: n and k must be positive"),
            ("header-k", "maxlin 2 -1", "line 3: n and k must be positive"),
        ]
    ] + [
        pytest.param(f"# c\n\n{header}\n{good}  # ok\n\n{edge}\n", error, message, id=name)
        for name, header, good, edge, error, message in [
            ("few-fields", "ug 2 2", "0 1 1.0 0 1", "0 1 1.0 0", ParseError,
             "line 6: expected 5 fields, got 4"),
            ("many-fields", "ug 2 2", "0 1 1.0 0 1", "0 1 1.0 0 1 1", ParseError,
             "line 6: expected 5 fields, got 6"),
            ("maxlin-fields", "maxlin 2 3", "0 1 1.0 1", "0 1 1.0 1 2", ParseError,
             "line 6: expected 4 fields, got 5"),
            ("int-1.0", "ug 2 2", "0 1 1.0 0 1", "0 1.0 1.0 0 1", ParseError,
             "line 6: malformed edge fields"),
            ("int-1e0", "ug 2 2", "0 1 1.0 0 1", "1e0 1 1.0 0 1", ParseError,
             "line 6: malformed edge fields"),
            ("int-inf", "ug 2 2", "0 1 1.0 0 1", "0 1 1.0 inf 1", ParseError,
             "line 6: malformed edge fields"),
            ("shift-1.0", "maxlin 2 3", "0 1 1.0 1", "0 1 1.0 1.0", ParseError,
             "line 6: malformed edge fields"),
            ("weight-token", "ug 2 2", "0 1 1.0 0 1", "0 1 bad 0 1", ParseError,
             "line 6: malformed edge fields"),
            ("weight-negative", "ug 2 2", "0 1 1.0 0 1", "0 1 -1.0 0 1", ParseError,
             "line 6: bad weight -1.0"),
            ("weight-nan", "ug 2 2", "0 1 1.0 0 1", "0 1 nan 0 1", ParseError,
             "line 6: bad weight nan"),
            ("weight-inf", "ug 2 2", "0 1 1.0 0 1", "0 1 inf 0 1", ParseError,
             "line 6: bad weight inf"),
            ("weight-1e400", "maxlin 2 3", "0 1 1.0 1", "0 1 1e400 1", ParseError,
             "line 6: bad weight 1e400"),
            ("vertex-high", "ug 2 2", "0 1 1.0 0 1", "0 2 1.0 0 1", ParseError,
             "line 6: vertex index out of range [0, 2)"),
            ("vertex-negative", "maxlin 2 3", "0 1 1.0 1", "-1 0 1.0 1", ParseError,
             "line 6: vertex index out of range [0, 2)"),
            ("bijection", "ug 2 3", "0 1 1.0 0 1 2", "0 1 1.0 0 1 3", ParseError,
             "line 6: not a bijection on [3]: (0, 1, 3)"),
            ("shift-high", "maxlin 2 3", "0 1 1.0 1", "0 1 1.0 3", ParseError,
             "line 6: shift constant out of range [0, 3)"),
            ("shift-negative", "maxlin 2 3", "0 1 1.0 1", "0 1 1.0 -1", ParseError,
             "line 6: shift constant out of range [0, 3)"),
            ("zero-weight", "ug 2 2", "0 1 0.0 0 1", "1 0 0 1 0", UGError,
             "total edge weight must be positive"),
        ]
    ])
    def test_parse_errors(self, text, error, message):
        with pytest.raises(error, match=re.escape(message)) as raised:
            parse_instance(text)
        assert type(raised.value) is error

    def test_parse_error_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_instance("# c\nug 2 2\n0 1 bad 0 1\n")

    def test_load_names_decoding_error(self, tmp_path):
        path = tmp_path / "bin.ug"
        path.write_bytes(b"ug 2 2\n0 1 1.0 0 1 \xff\xfe\n")
        with pytest.raises(ParseError, match="not UTF-8 text: 'utf-8' codec can't decode"):
            load_instance(path)

    @settings(max_examples=300, deadline=None)
    @given(instance_texts())
    def test_parse_matches_line_loop(self, text):
        """The array path accepts exactly what the line loop accepts, with
        bitwise-equal arrays, errors name the loop's line, and no loadtxt
        warning (such as "input contained no data") escapes."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = parse_outcome(parse_instance, text)
        assert not caught
        assert outcome == parse_outcome(parse_by_lines, text)

    def test_non_ascii_text_skips_loadtxt(self, monkeypatch):
        """numpy's loadtxt can crash the interpreter on a non-ASCII
        character in an integer field, so such text goes to the loop alone."""
        def array_path(*args):
            raise AssertionError("non-ASCII text reached np.loadtxt")

        monkeypatch.setattr(core_mod, "_parse_arrays", array_path)
        inst = parse_instance("# d\u00e9j\u00e0 vu\nug 2 2\n\u0660 1 1.0 1 0\n")
        assert (inst.u.tolist(), inst.v.tolist(), inst.w.tolist(), inst.perm.tolist()) == (
            [0], [1], [1.0], [[1, 0]])
        with pytest.raises(ParseError, match=re.escape("line 3: malformed edge fields")):
            parse_instance("ug 2 2\n\n1\U0002c6d41 1 1.0 0 1\n")

    @pytest.mark.parametrize("text", [
        "# d\u00e9j\u00e0 vu\nug 3 2\n0 1 1.0 1 0  # \u00e9t\u00e9\n# \u2603\n1 2 0.25 0 1\n",
        "maxlin 3 4\n# \u00fc\n0 1 1.0 2 #\u00e0\n\n1 2 0.5 0\n",
        "ug 2 2\n0 1 1.0 0 1 # \u0660 \U0002c6d4\n",
    ])
    def test_non_ascii_comments_take_array_path(self, text, monkeypatch):
        """Text whose non-ASCII characters all sit in comments is parsed by
        loadtxt after the comments are cut, bitwise equal to the loop."""
        def line_loop(*args):
            raise AssertionError("parse_instance fell back to the line loop")

        assert not text.isascii()
        expected = parse_outcome(parse_by_lines, text)
        assert expected[0] in (2, 3)  # the loop accepts the text
        monkeypatch.setattr(core_mod, "_parse_lines", line_loop)
        assert parse_outcome(parse_instance, text) == expected

    @pytest.mark.parametrize("make_text", [
        pytest.param(lambda: serialize_instance(kv_instance(KVSpec(2, 0.25))), id="kv2"),
        pytest.param(lambda: serialize_instance(kv_instance(KVSpec(3, 0.25))), id="kv3"),
        pytest.param(lambda: serialize_instance(planted_regular_instance(
            60, 4, 8, seed=1, constraint_family="maxlin")[0]), id="planted-maxlin"),
        pytest.param(lambda: serialize_instance(planted_instance(PlantedSpec(
            5, 4, [(0, 1, 3.0), (1, 2, 0.7), (2, 2), (3, 4, 1 / 3), (4, 0, 2.5)],
            [0, 1, 2, 3, 0], seed=2))[0]), id="planted-general"),
        pytest.param(lambda: "# c\nmaxlin 3 4\n0 1 1.0 2  # x_0 - x_1 = 2\n\n1 2 0.5 0\n", id="maxlin-text"),
    ])
    def test_generated_text_takes_array_path(self, make_text, monkeypatch):
        """Generator output parses without the line loop, which is ten times
        slower on the KV instances."""
        def line_loop(*args):
            raise AssertionError("parse_instance fell back to the line loop")

        text = make_text()
        expected = parse_outcome(parse_by_lines, text)
        monkeypatch.setattr(core_mod, "_parse_lines", line_loop)
        assert parse_outcome(parse_instance, text) == expected


def test_validate_labeling_returns_array(small_instance):
    L = validate_labeling(small_instance, [0, 1, 2, 0])
    assert isinstance(L, np.ndarray) and L.dtype == np.int64

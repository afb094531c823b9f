"""Instance and labeling data model for Unique Games.

A Unique Game lives on a weighted constraint graph: each edge carries a
permutation of the alphabet [k], and a labeling satisfies the edge (u, v)
when the permutation maps u's label to v's label.  Edges are stored once in
one orientation; traversal in the reverse direction applies the inverse
permutation.  Multi-edges and self-loops are allowed.  An instance
computes its degrees, vertex pairs and pair table (see value_batch) once each,
on first use: choosing the scoring path reads the pairs alone.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral
from typing import NamedTuple

import numpy as np

# Byte budget of one batch: a chunk of net vectors, or one slice of
# value_batch's per-row intermediates.  The read-off of a chunk works on 1/k
# of it per label; at 2 MiB those buffers stay in cache, and the
# laplacian-clustered benchmark solved in half the time it took at 4 or 16 MiB.
BATCH_BYTES = 2**21

# Relative spread of the degrees below which is_regular accepts a graph.
REGULARITY_REL_TOL = 1e-9


class UGError(Exception):
    """Base class for errors raised by this package."""


class AbortError(UGError):
    """A valid input the solve gave up on: a budget, a dimension cap or a
    numeric failure (exit code 2 on the command line)."""


class InvalidLabelingError(UGError):
    pass


class ParseError(UGError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UGEdge(NamedTuple):
    """One edge as a plain record; ``perm`` is its tuple of images."""

    u: int
    v: int
    weight: float
    perm: tuple[int, ...]


class EdgeView(Sequence):
    """Read-only sequence of an instance's edges.  ``len`` is O(1); each
    UGEdge is built from the instance's arrays when it is accessed."""

    def __init__(self, inst: UGInstance):
        self._inst = inst

    def __len__(self):
        return len(self._inst.w)

    def __getitem__(self, i):
        i = range(len(self))[i]
        u, v, w, perm = self._inst.u, self._inst.v, self._inst.w, self._inst.perm
        return UGEdge(int(u[i]), int(v[i]), float(w[i]), tuple(perm[i].tolist()))


def _unit_scale(w):
    """Weights divided by their maximum when it exceeds 1, and that factor."""
    w = np.asarray(w, dtype=np.float64)
    wmax = float(w.max(initial=0.0))
    return (w / wmax, wmax) if wmax > 1.0 else (w, 1.0)


def shift_image(i, c, k):
    """Image of label i under the shift by c on Z_k, i -> (i - c) mod k: the
    permutation that encodes the constraint x_u - x_v = c.  Arrays broadcast."""
    return (i - c) % k


class UGInstance:
    """A Unique Games instance: n vertices, alphabet size k, weighted
    permutation-constrained edges.  Immutable after construction.

    Edges are stored as four read-only arrays: endpoints ``u`` and ``v``,
    weights ``w``, and the E x k image table ``perm`` (``perm[e, i]`` is the
    image of label i under edge e's permutation).  ``edges`` is a sequence
    view over them.

    ``scale`` records the factor weights were divided by on ingest (1.0 when
    no rescaling happened), so callers can recover original totals; no
    report carries it.
    """

    def __init__(self, n, k, edges: Iterable[UGEdge], scale=1.0):
        """Build an instance from UGEdge records, without rescaling."""
        edges = list(edges)
        # A row of another arity is left out, so that the shape check rejects it.
        perm = np.array([e.perm for e in edges if len(e.perm) == k])
        u, v, w = [e.u for e in edges], [e.v for e in edges], [e.weight for e in edges]
        self._store(n, k, u, v, w, perm.reshape(-1, k), scale)

    @classmethod
    def from_arrays(cls, n, k, u, v, w, perm, scale=1.0):
        """Build an instance from edge arrays (copied), without rescaling."""
        inst = cls.__new__(cls)
        inst._store(n, k, u, v, w, perm, scale)
        return inst

    def _store(self, n, k, u, v, w, perm, scale):
        """Validate and store the arrays; every constructor ends here."""
        if not (_is_int(n) and _is_int(k) and n >= 1 and k >= 1):
            raise UGError(f"n and k must be integers >= 1, got n={n!r}, k={k!r}")
        self.n, self.k, self.scale = int(n), int(k), float(scale)
        # Copies, made read-only: the instance owns its arrays.
        self.u, self.v, self.perm = (_int64(a, UGError, "vertex or label") for a in (u, v, perm))
        self.w = np.array(w, dtype=np.float64)
        for a in (self.u, self.v, self.w, self.perm):
            a.flags.writeable = False
        E = len(self.w)
        if self.u.shape != (E,) or self.v.shape != (E,) or self.perm.shape != (E, self.k):
            raise UGError(f"need endpoints, weights and an arity-{self.k} permutation per edge")
        bad = (self.u < 0) | (self.u >= self.n) | (self.v < 0) | (self.v >= self.n)
        if bad.any():
            i = np.argmax(bad)
            raise UGError(f"edge ({self.u[i]},{self.v[i]}) out of range for n={self.n}")
        bad = np.any(np.sort(self.perm, axis=1) != np.arange(self.k), axis=1)
        if bad.any():
            raise UGError(f"not a bijection on [{self.k}]: {self.perm[np.argmax(bad)].tolist()}")
        bad = ~np.isfinite(self.w) | (self.w < 0)
        if bad.any():
            raise UGError(f"bad edge weight {self.w[np.argmax(bad)]}")
        if E and not np.any(self.w > 0):
            raise UGError("total edge weight must be positive")
        # Twice the total bounds every degree sum and operator row sum.
        with np.errstate(over="ignore"):  # a sum that overflows is inf
            if self.w.sum() > np.finfo(np.float64).max / 2:
                raise UGError("edge weights overflow float64: twice their total is inf")

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    @property
    def total_weight(self):
        # Sequential sum, in edge order.
        return float(sum(self.w.tolist()))

    @cached_property
    def _pairs(self):
        """(sorted pair keys a*n + b with a <= b, each edge's pair index)."""
        lo, hi = np.minimum(self.u, self.v), np.maximum(self.u, self.v)
        return np.unique(lo * self.n + hi, return_inverse=True)

    @property
    def value_path(self):
        """How value_batch scores this instance when it has edges: from the
        pair table when P*k <= E ("pair-table"), else "edge"."""
        return "pair-table" if len(self._pairs[0]) * self.k <= len(self.w) else "edge"

    @cached_property
    def pair_table(self):
        """(a, b, T, per-pair weight totals) as value_batch defines them,
        built on first use: the table value_batch scores on its pair-table
        path, and the source of every dense operator."""
        u, v, w, k = self.u, self.v, self.w, self.k
        pairs, pair = self._pairs
        P = len(pairs)
        # Cell (a-label, b-label) of the edge's pair; own is the label at u.
        own = np.arange(k)
        cells = np.where((u > v)[:, None], self.perm * k + own, own * k + self.perm)
        cells += (pair * (k * k))[:, None]
        table = np.bincount(cells.ravel(), np.repeat(w, k), minlength=P * k * k)
        return (*divmod(pairs, self.n), table.reshape(P, k, k), np.bincount(pair, w, minlength=P))

    def degrees(self):
        """Constraint-graph degrees: edge by edge, the weight at u, then at v
        unless the edge is a self-loop (whose weight counts once).  Computed
        once per instance, as a read-only array."""
        return self._degrees

    @cached_property
    def _degrees(self):
        loop = self.u == self.v
        keep = np.stack([np.ones_like(loop), ~loop], axis=1)
        ends = np.stack([self.u, self.v], axis=1)[keep]
        deg = np.bincount(ends, np.repeat(self.w, 2 - loop), minlength=self.n)
        deg = deg.astype(np.float64, copy=False)  # int zeros when edgeless
        deg.flags.writeable = False
        return deg

    @property
    def average_degree(self):
        return float(self.degrees().mean())

    def is_regular(self):
        d = self.average_degree
        return bool(np.max(np.abs(self.degrees() - d)) <= REGULARITY_REL_TOL * max(1.0, d))


def _is_int(x):
    """Whether x is an integer, numpy's too, but not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _int64(a, error, what) -> np.ndarray:
    """a as a new int64 array; ``error`` unless a holds real numbers that the cast keeps."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise error(f"{what} values must be integers, got {a.dtype}")
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
        out = a.astype(np.int64)
    if np.any(out != a):
        raise error(f"{what} {a[out != a][0]} is not an integer")
    return out


def _labels(labels, k) -> np.ndarray:
    """labels as int64; InvalidLabelingError unless every one is an integer in [0, k)."""
    L = _int64(labels, InvalidLabelingError, "label")
    if L.size and (L.min() < 0 or L.max() >= k):
        raise InvalidLabelingError(f"label out of range [0, {k})")
    return L


def validate_labeling(inst: UGInstance, labels: Sequence[int]) -> np.ndarray:
    L = np.asarray(labels)
    if L.shape != (inst.n,):
        raise InvalidLabelingError(f"labeling length {L.shape} != n={inst.n}")
    return _labels(L, inst.k)


def value(inst: UGInstance, labels: Sequence[int]) -> float:
    """Fraction of total edge weight satisfied by the labeling."""
    return float(value_batch(inst, validate_labeling(inst, labels)[None, :])[0])


def value_batch(inst: UGInstance, labels_batch: np.ndarray) -> np.ndarray:
    """Satisfied-weight fractions for a (batch, n) array of labelings; 1.0
    for every labeling of an instance without edges.

    The path depends on the instance alone and is chosen once per instance.
    With P distinct unordered vertex pairs, an instance with P*k <= E (many
    parallel edges per pair) is scored from one k x k table per pair (a, b),
    a <= b, ``inst.pair_table``: T[p, i, j] sums, in edge order, the weights
    of the pair's edges that labels i at a and j at b satisfy (an edge stored
    as (b, a) enters with its inverse permutation), and a labeling scores
    sum_p T[p, L[a_p], L[b_p]], P gathers in place of E gathers and E
    compares.  Under the rule T has P*k*k <= E*k entries, no more than
    ``inst.perm``; ``inst.value_path`` applies the rule without building T.
    Other instances are checked edge by edge: for a sparse instance with a
    large alphabet the table would be up to k times larger than the
    instance itself.

    Each labeling's terms are summed on their own, over a C-ordered row, so
    its value does not depend on the batch it is in (a matrix-vector product
    rounds differently by the row's position), and rows go in slices whose
    (rows x P) or (rows x E) float64 intermediates fit in BATCH_BYTES.
    The total weight is the same reduction applied to a labeling satisfying
    every edge (on the table path, a row of per-pair totals), so such a
    labeling scores exactly 1.0 and no labeling scores more.
    """
    u, v, w = inst.u, inst.v, inst.w
    E = len(w)
    if not E:
        return np.ones(len(labels_batch))
    if inst.value_path == "pair-table":
        a, b, table, pair_total = inst.pair_table
        k, width, flat = inst.k, len(a), table.ravel()

        def satisfied(L):
            # One gather at p*k*k + L[a]*k + L[b], the cell part formed from
            # whole rows of L.T in the narrowest dtype holding k*k - 1 and
            # widened once, into C-ordered (rows, P) indices.
            LT = np.ascontiguousarray(L.T, dtype=np.min_scalar_type(k * k - 1))
            cell = np.take(LT, a, axis=0) * k
            cell += np.take(LT, b, axis=0)
            at = cell.T.astype(np.intp, order="C")
            at += np.arange(width) * (k * k)
            return np.take(flat, at).sum(axis=1)

        total = pair_total[None, :].sum(axis=1)[0]
    else:
        # perm flat, in the narrowest dtype holding k - 1, so that
        # perm[e, L[u_e]] is one gather at e*k + L[u_e] of one byte per
        # entry where k <= 256.
        flat = inst.perm.ravel().astype(np.min_scalar_type(inst.k - 1))
        base, width = np.arange(E) * inst.k, E

        def weigh(sat):
            return np.einsum("re,e->r", np.ascontiguousarray(sat), w)

        def satisfied(L):
            return weigh(flat[base + L[:, u]] == L[:, v])

        total = weigh(np.ones((1, width), dtype=bool))[0]
    out = np.empty(len(labels_batch))
    rows = max(1, BATCH_BYTES // (8 * width))
    for start in range(0, len(labels_batch), rows):
        out[start : start + rows] = satisfied(labels_batch[start : start + rows]) / total
    return out


def characteristic_vector(labels: Sequence[int], k: int, normalized=False) -> np.ndarray:
    """One-hot-per-block vector of a labeling, blocked by vertex.

    Block u holds indices u*k ... u*k + k - 1; the entry at the vertex's
    label is 1 (or 1/sqrt(n) when normalized).
    """
    L = _labels(labels, k)
    n = len(L)
    y = np.zeros(n * k)
    y[np.arange(n) * k + L] = 1.0 / np.sqrt(n) if normalized else 1.0
    return y


def report_dict(report) -> dict:
    """A solver or oracle report dataclass as a JSON-ready dict: its fields
    in declaration order, the labeling as ints, then its ``extras``, if any."""
    d = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "extras"}
    d["best_labeling"] = [int(x) for x in report.best_labeling]
    d.update(getattr(report, "extras", {}))
    return d


# ---------------------------------------------------------------------------
# Text serialization
#
#   ug <n> <k>
#   <u> <v> <weight> <img_0> ... <img_{k-1}>
#
#   maxlin <n> <k>
#   <u> <v> <weight> <c>          # x_u - x_v = c (mod k)
#
# Lines starting with '#' are comments.  Weights round-trip through decimal
# at 17 significant digits.
# ---------------------------------------------------------------------------


def parse_instance(text: str) -> UGInstance:
    """Instance from its text form.  Edge lines that are ASCII once their
    comments are cut are parsed as arrays in one ``np.loadtxt`` call; on
    other text, and on any input that path rejects, the line loop runs and
    raises the error it names, with its line number.  Both give
    bitwise-equal instances."""
    lines = text.splitlines()
    fmt, n, k, header_line = header = _read_header(lines)
    body = lines[header_line:]
    # Non-ASCII fields go to the loop alone: loadtxt can crash the
    # interpreter on a non-ASCII character inside an integer field (numpy
    # 2.4.6 segfaults now and then on the token "1\U0002c6d41").  Comments
    # may hold any text; they are cut first, as the loop cuts them.
    ascii_fields = text.isascii()
    if not ascii_fields:
        body = [line.split("#", 1)[0] for line in body]
        ascii_fields = all(line.isascii() for line in body)
    if ascii_fields:
        try:
            return _parse_arrays(body, fmt, n, k)
        except (ValueError, UGError, Warning):
            pass  # the loop also takes tokens loadtxt rejects, such as 1_0
    return _parse_lines(lines, *header)


def _read_header(lines):
    """(format, n, k, line number of the header) of an instance's lines."""
    header = None
    header_line = 0
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = line.split()
        header_line = i
        break
    if header is None:
        raise ParseError("empty input, expected 'ug <n> <k>' or 'maxlin <n> <k>' header")
    if len(header) != 3 or header[0] not in ("ug", "maxlin"):
        raise ParseError("expected 'ug <n> <k>' or 'maxlin <n> <k>'", header_line)
    try:
        n, k = int(header[1]), int(header[2])
    except ValueError:
        raise ParseError("non-integer n or k in header", header_line)
    if n < 1 or k < 1:
        raise ParseError("n and k must be positive", header_line)
    return header[0], n, k, header_line


def _parse_arrays(body, fmt, n, k) -> UGInstance:
    """The edge lines after the header in one ``np.loadtxt`` call, checked
    by ``UGInstance._store``.  Raises ValueError, UGError or a Warning, with
    no message meant for the user, on every input the line loop rejects."""
    row = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64),
                    ("images", np.int64, (1 if fmt == "maxlin" else k,))])
    with warnings.catch_warnings():
        # Every warning rejects: an empty body ("input contained no data"),
        # and numpy 1.23-1.x reading an int64 field from a token such as 1.0.
        warnings.simplefilter("error")
        rows = np.loadtxt(body, dtype=row, comments="#", ndmin=1)
    w, images = rows["w"], rows["images"]
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError
    if fmt == "maxlin":
        if np.any((images < 0) | (images >= k)):
            raise ValueError
        images = shift_image(np.arange(k), images, k)
    w, scale = _unit_scale(w)
    return UGInstance.from_arrays(n, k, rows["u"], rows["v"], w, images, scale)


def _parse_lines(lines, fmt, n, k, header_line) -> UGInstance:
    """The edge lines after the header, one at a time: the reference for
    the array path, and the path that names a bad line."""
    want = 4 if fmt == "maxlin" else 3 + k
    identity = list(range(k))
    u, v, w, perm = [], [], [], []
    for i, raw in enumerate(lines[header_line:], start=header_line + 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != want:
            raise ParseError(f"expected {want} fields, got {len(parts)}", i)
        try:
            ui, vi, wi = int(parts[0]), int(parts[1]), float(parts[2])
            images = [int(p) for p in parts[3:]]  # the shift constant for maxlin
        except ValueError:
            raise ParseError("malformed edge fields", i)
        if not (0 <= ui < n and 0 <= vi < n):
            raise ParseError(f"vertex index out of range [0, {n})", i)
        if wi < 0 or not math.isfinite(wi):
            raise ParseError(f"bad weight {parts[2]}", i)
        if fmt == "maxlin":
            if not (0 <= images[0] < k):
                raise ParseError(f"shift constant out of range [0, {k})", i)
        elif sorted(images) != identity:
            raise ParseError(f"not a bijection on [{k}]: {tuple(images)}", i)
        u.append(ui)
        v.append(vi)
        w.append(wi)
        perm.append(images)
    perm = np.array(perm, dtype=np.int64).reshape(len(w), want - 3)
    if fmt == "maxlin":
        perm = shift_image(np.arange(k), perm, k)
    w, scale = _unit_scale(w)
    return UGInstance.from_arrays(n, k, u, v, w, perm, scale)


def serialize_instance(inst: UGInstance) -> str:
    row = "%d %d %.17g" + " %d" * inst.k
    fields = zip(inst.u.tolist(), inst.v.tolist(), inst.w.tolist(), *inst.perm.T.tolist())
    return "\n".join([f"ug {inst.n} {inst.k}", *(row % f for f in fields)]) + "\n"


def read_text(path) -> str:
    """The text of a UTF-8 file, a leading byte-order mark skipped; a file
    that is not UTF-8 raises ParseError naming it."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def load_instance(path) -> UGInstance:
    return parse_instance(read_text(path))


def save_instance(inst: UGInstance, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))

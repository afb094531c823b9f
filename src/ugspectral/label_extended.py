"""The label-extended graph of a Unique Games instance.

The nk x nk matrix M has k x k block M_uv = w_uv * Pi_uv, the weighted
permutation matrix of the edge constraint; its Laplacian is L_M = D - M
with D block-diagonal holding deg(u) * I_k.  Characteristic vectors of
perfectly satisfying labelings are eigenvectors of M with eigenvalue d
(d-regular graphs) and of L_M with eigenvalue 0.

Every operator built here has one source per container, chosen by one
storage rule on its entry list (2*E*k entries, a self-loop's k once): a
dense array below SPARSE_MIN_DIM rows or above SPARSE_MAX_FILL stored
entries per matrix entry, and otherwise scipy.sparse CSR, imported only
then.  One builder (``_operator``) sums the entry list into either.  A
dense M is scattered from the instance's pair table instead.  A graph
operator (``graph_operator``: the constraint graph, and the character
blocks of a group-difference instance, whose weights may be negative or
complex) is the builder at k = 1, a complex one sized as its real embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UGInstance

# Crossover of the filtered sparse window against dense eigh, best of 5-7 runs,
# window of 8-9 (2 vCPU, OpenBLAS).  On planted Max-Lin matrices and 3-regular
# Laplacians they tie at dim 256 (7-8 ms); at 384-400 filtered takes 10-17 ms
# against 15-17 on label-extended matrices and 6-11 against 17-20 on the rest,
# at 512 10-17 against 36-39 ms.  At fill 0.11 dense wins (random multigraph
# Laplacians: 34 against 66 ms at dim 512, 225 against 242 at 1024).
SPARSE_MIN_DIM = 384
SPARSE_MAX_FILL = 1 / 8


@dataclass
class LabelExtendedMatrix:
    """A built operator; ``perfbench/tracing.py`` sizes it by its ``dim``."""

    matrix: object  # np.ndarray or scipy.sparse CSR array, by the storage rule

    @property
    def dim(self):
        return self.matrix.shape[0]


def _dense(dim, stored):
    """The storage rule on an entry list of ``stored`` entries."""
    return dim < SPARSE_MIN_DIM or stored > SPARSE_MAX_FILL * dim * dim


def _operator(dim, rows, cols, vals, loop):
    """The dim x dim Hermitian matrix of an entry list given as E x m arrays:
    edge by edge, its m values at (rows, cols) and then their conjugates at
    (cols, rows), a loop's (``loop``) once, summed in that order and averaged with
    the conjugate transpose, so that it is exactly Hermitian whatever order
    scipy sums duplicates in (a loop keeps its real part).  The storage rule
    sizes a complex matrix as its real embedding [[Re, -Im], [Im, Re]]:
    twice the rows and four times the entries."""
    keep = np.repeat(np.stack([np.ones_like(loop), ~loop], axis=1).ravel(), rows.shape[1])
    rows, cols = (np.stack(ends, axis=1).ravel()[keep] for ends in ((rows, cols), (cols, rows)))
    vals = np.asarray(vals, dtype=np.complex128 if np.iscomplexobj(vals) else np.float64)
    vals = np.stack([vals, vals.conj()], axis=1).ravel()[keep]
    r = 1 + np.iscomplexobj(vals)  # rows of the real embedding per row
    if _dense(r * dim, r * r * len(vals)):
        A = np.bincount(rows * dim + cols, vals.real, minlength=dim * dim)
        if r == 2:
            A = A + 1j * np.bincount(rows * dim + cols, vals.imag, minlength=dim * dim)
        A = A.reshape(dim, dim)
    else:
        import scipy.sparse as sp

        A = sp.csr_array((vals, (rows, cols)), shape=(dim, dim))
    return (A + A.conj().T) / 2


def build_label_extended(inst: UGInstance) -> LabelExtendedMatrix:
    """Adjacency matrix M of the label-extended graph; parallel edges
    accumulate additively into the block.  Either build is averaged with its
    transpose, which makes a self-loop's block symmetric."""
    # Edge e puts w * Pi_e in block (u, v) and its transpose in block (v, u);
    # a self-loop puts w * Pi_e once on its diagonal block, so that it
    # contributes its weight (not twice) to the row sum.
    n, k = inst.n, inst.k
    loop = inst.u == inst.v
    if _dense(n * k, (2 * len(inst.w) - np.count_nonzero(loop)) * k):
        # Each cell belongs to one pair (a, b), whose table T sums the pair's
        # edges in edge order, in both orientations, as the entry list would.
        a, b, table, _ = inst.pair_table
        A = np.zeros((n, k, n, k))
        A[b, :, a, :] = table.transpose(0, 2, 1)
        A[a, :, b, :] = table  # T in block (a, b) and T^T in (b, a), T when a = b
        A = A.reshape(n * k, n * k)
        return LabelExtendedMatrix((A + A.T) / 2)
    return LabelExtendedMatrix(_operator(n * k, inst.u[:, None] * k + np.arange(k),
                                         inst.v[:, None] * k + inst.perm,
                                         np.broadcast_to(inst.w[:, None], inst.perm.shape), loop))


def build_laplacian(inst: UGInstance) -> LabelExtendedMatrix:
    """L_M = D - M.  Positive semidefinite; annihilates the characteristic
    vector of every perfectly satisfying labeling."""
    adj = build_label_extended(inst)
    D = np.repeat(inst.degrees(), inst.k)
    if isinstance(adj.matrix, np.ndarray):
        diag = np.diag(D)
    else:
        import scipy.sparse as sp

        diag = sp.diags_array(D)
    return LabelExtendedMatrix(diag - adj.matrix)


def graph_operator(n, u, v, w):
    """n x n Hermitian matrix of a weighted graph, real symmetric for real
    weights: ``_operator`` at one entry per edge, w at (u, v) and its
    conjugate at (v, u).  Weights may be negative."""
    return _operator(n, u[:, None], v[:, None], np.asarray(w)[:, None], u == v)


def constraint_graph_adjacency(inst: UGInstance):
    """n x n weighted adjacency of the underlying constraint graph, the
    label-extended matrix with every permutation forgotten (k = 1):
    parallel edges are summed in edge order, as in M."""
    return graph_operator(inst.n, inst.u, inst.v, inst.w)

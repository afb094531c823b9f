"""The label-extended graph of a Unique Games instance.

The nk x nk matrix M has k x k block M_uv = w_uv * Pi_uv, the weighted
permutation matrix of the edge constraint; its Laplacian is L_M = D - M
with D block-diagonal holding deg(u) * I_k.  Characteristic vectors of
perfectly satisfying labelings are eigenvectors of M with eigenvalue d
(d-regular graphs) and of L_M with eigenvalue 0.

Every operator built here is one list of stored entries, put in a
container by one storage rule: a dense array (the list summed in order by
``np.bincount``, or M scattered bitwise-equal from the pair table) below
SPARSE_MIN_DIM rows or above SPARSE_MAX_FILL stored entries per matrix
entry, and scipy.sparse CSR, imported only then, otherwise.
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
    matrix: object  # np.ndarray or scipy.sparse CSR array, by the storage rule
    d_avg: float

    @property
    def dim(self):
        return self.matrix.shape[0]


def _dense(inst: UGInstance, dim, m):
    """The storage rule on the entry list, m entries per edge end (a loop's once)."""
    stored = (2 * len(inst.w) - np.count_nonzero(inst.u == inst.v)) * m
    return dim < SPARSE_MIN_DIM or stored > SPARSE_MAX_FILL * dim * dim


def _edge_operator(inst: UGInstance, dim, rows, cols):
    """Symmetric dim x dim operator from one entry list: edge by edge, its
    weight at the (E, m) positions (rows[e], cols[e]), then at the
    transposed ones unless it is a self-loop; then averaged with its
    transpose, which makes a self-loop's block symmetric, and the CSR
    exactly symmetric whatever order scipy sums duplicates in."""
    loop = inst.u == inst.v
    keep = np.stack([np.ones_like(loop), ~loop], axis=1)
    at = np.stack([rows * dim + cols, cols * dim + rows], axis=1)[keep].ravel()
    w = np.repeat(inst.w, (2 - loop) * rows.shape[1])
    if _dense(inst, dim, rows.shape[1]):
        M = np.bincount(at, w, minlength=dim * dim).reshape(dim, dim)
    else:
        import scipy.sparse as sp

        M = sp.csr_array((w, divmod(at, dim)), shape=(dim, dim))
    return (M + M.T) / 2


def build_label_extended(inst: UGInstance) -> LabelExtendedMatrix:
    """Adjacency matrix M of the label-extended graph; parallel edges
    accumulate additively into the block.  A dense M of an instance with a
    pair table is scattered from its P*k*k cells in place of 2*E*k entries:
    each cell belongs to one pair (a, b), whose table T sums the pair's
    edges in edge order, in both orientations, as the entry list is summed."""
    # Edge e puts w * Pi_e in block (u, v) and its transpose in block (v, u);
    # a self-loop puts w * Pi_e once on its diagonal block, so that it
    # contributes its weight (not twice) to the row sum.
    n, k = inst.n, inst.k
    if _dense(inst, n * k, k) and inst.pair_table is not None:
        a, b, table, _ = inst.pair_table
        A = np.zeros((n, k, n, k))
        A[b, :, a, :] = table.transpose(0, 2, 1)
        A[a, :, b, :] = table  # T in block (a, b) and T^T in (b, a), T when a = b
        A = A.reshape(n * k, n * k)
        M = (A + A.T) / 2
    else:
        rows = inst.u[:, None] * k + np.arange(k)
        cols = inst.v[:, None] * k + inst.perm
        M = _edge_operator(inst, n * k, rows, cols)
    return LabelExtendedMatrix(M, float(inst.degrees().mean()))


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
    return LabelExtendedMatrix(diag - adj.matrix, adj.d_avg)


def constraint_graph_adjacency(inst: UGInstance):
    """n x n weighted adjacency of the underlying constraint graph
    (permutations forgotten, parallel edges summed), stored by the same rule
    as the label-extended matrix."""
    return _edge_operator(inst, inst.n, inst.u[:, None], inst.v[:, None])

"""The label-extended graph of a Unique Games instance.

The nk x nk matrix M has k x k block M_uv = w_uv * Pi_uv, the weighted
permutation matrix of the edge constraint; its Laplacian is L_M = D - M
with D block-diagonal holding deg(u) * I_k.  Characteristic vectors of
perfectly satisfying labelings are eigenvectors of M with eigenvalue d
(d-regular graphs) and of L_M with eigenvalue 0.

One storage rule serves every operator built here: a dense array below
SPARSE_MIN_DIM rows or above SPARSE_MAX_FILL stored entries per matrix
entry, scipy.sparse CSR (E * k nonzeros for M) otherwise.  scipy is
imported only on the sparse branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UGInstance, accumulate_edges
from .linalg import symmetrize

# Crossover of a windowed eigsh solve against dense LAPACK eigh, measured on
# label-extended Max-Lin and random-multigraph Laplacians (2 vCPU, OpenBLAS):
# at dim 256 dense took 19 ms and sparse 53 ms, at dim 512 and fill 0.008
# dense 41 ms and sparse 25 ms; at dim 512 and fill 0.12 both took 33 ms, at
# fill 0.5 dense won (49 against 76 ms at dim 512, 174 against 250 ms at 1024).
SPARSE_MIN_DIM = 512
SPARSE_MAX_FILL = 1 / 8


@dataclass
class LabelExtendedMatrix:
    matrix: object  # np.ndarray or scipy.sparse CSR array, by the storage rule
    d_avg: float

    @property
    def dim(self):
        return self.matrix.shape[0]


def _edge_operator(inst: UGInstance, dim, rows, cols):
    """Symmetric dim x dim operator holding each edge's weight at the (E, m)
    positions (rows[e], cols[e]) and, unless the edge is a self-loop, at the
    transposed positions, averaged with its transpose; parallel edges
    accumulate.  Dense (edge by edge in edge order, ``accumulate_edges``) or
    CSR, by the storage rule.  The average makes a self-loop's block
    symmetric, and the CSR exactly symmetric whatever order scipy sums
    duplicates in."""
    loop = inst.u == inst.v
    entries = rows.size + rows[~loop].size
    if dim < SPARSE_MIN_DIM or entries > SPARSE_MAX_FILL * dim * dim:
        return symmetrize(
            accumulate_edges(np.zeros((dim, dim)), inst, rows * dim + cols, cols * dim + rows)
        )
    import scipy.sparse as sp

    w = np.broadcast_to(inst.w[:, None], rows.shape)
    M = sp.csr_array(
        (
            np.concatenate([w.ravel(), w[~loop].ravel()]),
            (np.concatenate([rows.ravel(), cols[~loop].ravel()]),
             np.concatenate([cols.ravel(), rows[~loop].ravel()])),
        ),
        shape=(dim, dim),
    )
    return ((M + M.T) / 2).tocsr()


def build_label_extended(inst: UGInstance) -> LabelExtendedMatrix:
    """Adjacency matrix M of the label-extended graph; parallel edges
    accumulate additively into the block."""
    # Edge e puts w * Pi_e in block (u, v) and its transpose in block (v, u);
    # a self-loop puts w * Pi_e once on its diagonal block, so that it
    # contributes its weight (not twice) to the row sum.
    rows = inst.u[:, None] * inst.k + np.arange(inst.k)
    cols = inst.v[:, None] * inst.k + inst.perm
    M = _edge_operator(inst, inst.n * inst.k, rows, cols)
    return LabelExtendedMatrix(M, float(inst.degrees().mean()))


def build_laplacian(inst: UGInstance) -> LabelExtendedMatrix:
    """L_M = D - M.  Positive semidefinite; annihilates the characteristic
    vector of every perfectly satisfying labeling."""
    adj = build_label_extended(inst)
    D = np.repeat(inst.degrees(), inst.k)
    if not isinstance(adj.matrix, np.ndarray):
        import scipy.sparse as sp

        return LabelExtendedMatrix((sp.diags_array(D) - adj.matrix).tocsr(), adj.d_avg)
    # M is exactly symmetric already, so no second symmetrize; 0.0 - M (not
    # -M) keeps zero entries +0.0.
    L = 0.0 - adj.matrix
    L[np.diag_indices_from(L)] += D
    return LabelExtendedMatrix(L, adj.d_avg)


def constraint_graph_adjacency(inst: UGInstance):
    """n x n weighted adjacency of the underlying constraint graph
    (permutations forgotten, parallel edges summed), stored by the same rule
    as the label-extended matrix."""
    return _edge_operator(inst, inst.n, inst.u[:, None], inst.v[:, None])

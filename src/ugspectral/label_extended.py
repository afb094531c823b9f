"""The label-extended graph of a Unique Games instance.

The nk x nk matrix M has k x k block M_uv = w_uv * Pi_uv, the weighted
permutation matrix of the edge constraint; its Laplacian is L_M = D - M
with D block-diagonal holding deg(u) * I_k.  Characteristic vectors of
perfectly satisfying labelings are eigenvectors of M with eigenvalue d
(d-regular graphs) and of L_M with eigenvalue 0.

Every operator built here has one source per container, chosen by one
storage rule on its entry list (2*E*k entries, a self-loop's k once): a
dense array, scattered from the instance's pair table, below SPARSE_MIN_DIM
rows or above SPARSE_MAX_FILL stored entries per matrix entry, and
otherwise scipy.sparse CSR of the entry list, imported only then.  The
constraint graph is the label-extended graph of the same edges with k = 1.
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


def _dense(inst: UGInstance):
    """The storage rule on the entry list, k entries per edge end (a loop's once)."""
    dim = inst.n * inst.k
    stored = (2 * len(inst.w) - np.count_nonzero(inst.u == inst.v)) * inst.k
    return dim < SPARSE_MIN_DIM or stored > SPARSE_MAX_FILL * dim * dim


def build_label_extended(inst: UGInstance) -> LabelExtendedMatrix:
    """Adjacency matrix M of the label-extended graph; parallel edges
    accumulate additively into the block.  Either build is averaged with its
    transpose, which makes a self-loop's block symmetric, and the CSR exactly
    symmetric whatever order scipy sums duplicates in."""
    # Edge e puts w * Pi_e in block (u, v) and its transpose in block (v, u);
    # a self-loop puts w * Pi_e once on its diagonal block, so that it
    # contributes its weight (not twice) to the row sum.
    n, k = inst.n, inst.k
    if _dense(inst):
        # Each cell belongs to one pair (a, b), whose table T sums the pair's
        # edges in edge order, in both orientations, as the entry list would.
        a, b, table, _ = inst.pair_table
        A = np.zeros((n, k, n, k))
        A[b, :, a, :] = table.transpose(0, 2, 1)
        A[a, :, b, :] = table  # T in block (a, b) and T^T in (b, a), T when a = b
        A = A.reshape(n * k, n * k)
    else:
        import scipy.sparse as sp

        # Edge by edge, its k entries and then their transposes.
        loop = inst.u == inst.v
        keep = np.stack([np.ones_like(loop), ~loop], axis=1)
        ends = np.stack([inst.u[:, None] * k + np.arange(k), inst.v[:, None] * k + inst.perm], 1)
        at = (ends[keep].ravel(), ends[:, ::-1][keep].ravel())
        A = sp.csr_array((np.repeat(inst.w, (2 - loop) * k), at), shape=(n * k, n * k))
    return LabelExtendedMatrix((A + A.T) / 2)


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


def constraint_graph_adjacency(inst: UGInstance):
    """n x n weighted adjacency of the underlying constraint graph: the
    label-extended matrix of the same edges with every permutation
    forgotten (k = 1), so parallel edges are summed as in M."""
    graph = UGInstance.from_arrays(inst.n, 1, inst.u, inst.v, inst.w, np.zeros((len(inst.w), 1)))
    return build_label_extended(graph).matrix

"""The label-extended graph of a Unique Games instance.

The nk x nk matrix M has k x k block M_uv = w_uv * Pi_uv, the weighted
permutation matrix of the edge constraint; its Laplacian is L_M = D - M
with D block-diagonal holding deg(u) * I_k.  Characteristic vectors of
perfectly satisfying labelings are eigenvectors of M with eigenvalue d
(d-regular graphs) and of L_M with eigenvalue 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UGInstance, accumulate_edges
from .linalg import symmetrize


@dataclass
class LabelExtendedMatrix:
    inst_n: int
    inst_k: int
    matrix: np.ndarray
    kind: str  # 'adjacency' | 'laplacian'
    degree_profile: np.ndarray
    d_avg: float

    @property
    def dim(self):
        return self.inst_n * self.inst_k


def _accumulate_adjacency(inst: UGInstance) -> np.ndarray:
    # Edge e puts w * Pi_e in block (u, v) and its transpose in block (v, u);
    # a self-loop puts w * Pi_e once on its diagonal block, so that it
    # contributes its weight (not twice) to the row sum.
    nk = inst.n * inst.k
    rows = inst.u[:, None] * inst.k + np.arange(inst.k)
    cols = inst.v[:, None] * inst.k + inst.perm
    M = accumulate_edges(np.zeros((nk, nk)), inst, rows * nk + cols, cols * nk + rows)
    return symmetrize(M)


def build_label_extended(inst: UGInstance) -> LabelExtendedMatrix:
    """Adjacency matrix M of the label-extended graph; parallel edges
    accumulate additively into the block."""
    deg = inst.degrees()
    return LabelExtendedMatrix(
        inst_n=inst.n,
        inst_k=inst.k,
        matrix=_accumulate_adjacency(inst),
        kind="adjacency",
        degree_profile=deg,
        d_avg=float(deg.mean()),
    )


def build_laplacian(inst: UGInstance) -> LabelExtendedMatrix:
    """L_M = D - M.  Positive semidefinite; annihilates the characteristic
    vector of every perfectly satisfying labeling."""
    adj = build_label_extended(inst)
    # M is exactly symmetric already, so no second symmetrize; 0.0 - M (not
    # -M) keeps zero entries +0.0.
    L = 0.0 - adj.matrix
    L[np.diag_indices_from(L)] += np.repeat(adj.degree_profile, inst.k)
    return LabelExtendedMatrix(
        inst_n=inst.n,
        inst_k=inst.k,
        matrix=L,
        kind="laplacian",
        degree_profile=adj.degree_profile,
        d_avg=adj.d_avg,
    )


def constraint_graph_adjacency(inst: UGInstance) -> np.ndarray:
    """n x n weighted adjacency of the underlying constraint graph
    (permutations forgotten, parallel edges summed)."""
    fwd, rev = inst.u * inst.n + inst.v, inst.v * inst.n + inst.u
    return accumulate_edges(np.zeros((inst.n, inst.n)), inst, fwd[:, None], rev[:, None])

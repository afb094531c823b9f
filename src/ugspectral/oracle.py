"""Exact brute-force optimum for small instances.

Deliberately naive ground truth: connected-component decomposition, then
exhaustive enumeration per component (shift-reduced for cyclic shift
games, where fixing one vertex's label to 0 loses nothing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (AbortError, UGInstance, UGError, _is_int, report_dict, shift_image, value,
                   value_batch)


# Labelings enumerated and scored per value_batch call.
ENUM_CHUNK = 4096
# Default of brute_force's budget: the most labelings it enumerates.
BRUTE_BUDGET = 10**8


class BudgetExceededError(AbortError):
    pass


@dataclass
class OracleResult:
    best_value: float
    best_labeling: np.ndarray
    labelings_examined: int
    shift_reduced: bool

    def to_dict(self):
        return report_dict(self)


def _components(inst: UGInstance):
    """Vertex arrays of the connected components, ordered by smallest vertex."""
    # Min-label propagation with pointer jumping; at the fixed point every
    # vertex is labelled with the smallest vertex of its component.
    root = np.arange(inst.n)
    while True:
        low = np.minimum(root[inst.u], root[inst.v])
        new = root.copy()
        np.minimum.at(new, inst.u, low)
        np.minimum.at(new, inst.v, low)
        new = new[new]
        if np.array_equal(new, root):
            return [np.flatnonzero(root == r) for r in np.unique(root)]
        root = new


def _enumerate_chunks(m, k):
    """All label tuples of length m in lexicographic order, ENUM_CHUNK at a time."""
    total = k**m
    shape = (k,) * m
    for start in range(0, total, ENUM_CHUNK):
        idx = np.arange(start, min(start + ENUM_CHUNK, total))
        yield np.column_stack(np.unravel_index(idx, shape))


def brute_force(inst: UGInstance, budget=None) -> OracleResult:
    """Exact optimum over all labelings (per connected component).

    Cyclic shift games, k >= 2 and every edge a shift of Z_k, are enumerated
    shift-reduced: the first vertex of each component is pinned to label 0.
    Ties break to the lexicographically smallest labeling; enumeration stops
    early when a component is perfectly satisfied.  ``budget`` (default
    BRUTE_BUDGET), a positive int, bounds the labelings enumerated:
    BudgetExceededError before any work if the enumeration would exceed it.
    """
    if budget is None:
        budget = BRUTE_BUDGET
    if not _is_int(budget) or budget < 1:
        raise UGError(f"budget must be a positive integer, got {budget!r}")
    # The shift by c maps 0 to -c, so an edge's image of 0 names its only candidate shift.
    k, image0 = inst.k, inst.perm[:, :1]
    reduce_by_one = k >= 2 and np.array_equal(inst.perm, shift_image(np.arange(k), -image0, k))
    comps = _components(inst)
    total_enum = sum(
        inst.k ** (len(c) - 1 if reduce_by_one else len(c)) for c in comps
    )
    if total_enum > budget:
        raise BudgetExceededError(
            f"would enumerate {total_enum} labelings, budget is {budget}"
        )

    best_labeling = np.zeros(inst.n, dtype=np.int64)
    examined = 0
    for comp in comps:
        inside = np.isin(inst.u, comp)
        if not inside.any():
            continue
        sub = UGInstance.from_arrays(  # comp is sorted: searchsorted renumbers
            len(comp), inst.k, np.searchsorted(comp, inst.u[inside]),
            np.searchsorted(comp, inst.v[inside]), inst.w[inside], inst.perm[inside],
        )
        m = len(comp) - 1 if reduce_by_one else len(comp)
        comp_best = -1.0
        comp_best_lab = None
        for chunk in _enumerate_chunks(m, inst.k) if m > 0 else [np.zeros((1, 0), dtype=np.int64)]:
            if reduce_by_one:
                chunk = np.column_stack([np.zeros(len(chunk), dtype=np.int64), chunk])
            vals = value_batch(sub, chunk)
            examined += len(chunk)
            i = int(np.argmax(vals))
            if vals[i] > comp_best:
                comp_best = float(vals[i])
                comp_best_lab = chunk[i]
            if comp_best == 1.0:
                break
        best_labeling[comp] = comp_best_lab

    return OracleResult(
        # One scoring of the assembled labeling, so a labeling satisfying
        # every edge scores exactly 1.0 (per-component values, reweighted,
        # would round differently).
        best_value=value(inst, best_labeling),
        best_labeling=best_labeling,
        labelings_examined=examined,
        shift_reduced=reduce_by_one,
    )

"""Shared fixtures and instance factories for the test suite."""

import numpy as np
import pytest

from ugspectral.core import UGInstance, _unit_scale
from ugspectral.generators import PlantedSpec, planted_instance
from ugspectral.maxlin import MaxLinInstance


def from_rows(n, k, rows):
    """Instance from (u, v, weight, images) rows, weights rescaled by their
    maximum when it exceeds 1, as on ingest."""
    u, v, w, perm = zip(*rows) if rows else ((),) * 4
    w, scale = _unit_scale(w)
    return UGInstance.from_arrays(n, k, u, v, w, np.reshape(perm, (len(u), k)), scale)


def maxlin_on(n, group, constraints):
    """MaxLinInstance from (u, v, weight, c) constraints x_u - x_v = c over
    the group, each edge the permutation row shift_table()[c], weights
    rescaled as by from_rows."""
    table = group.shift_table()
    rows = [(u, v, w, table[c % group.order]) for u, v, w, c in constraints]
    return MaxLinInstance(from_rows(n, group.order, rows), group)


def complete_skeleton(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def cycle_skeleton(n):
    return [(u, (u + 1) % n) for u in range(n)]


def random_instance(n, k, p=0.5, seed=0):
    """Arbitrary (non-planted) instance on a G(n, p) skeleton with uniform
    random permutations and weights."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                images = rng.permutation(k)
                rows.append((u, v, float(rng.uniform(0.1, 1.0)), images))
    if not rows:
        rows.append((0, min(1, n - 1), 1.0, range(k)))
    return from_rows(n, k, rows)


def random_multigraph(n, k, copies, seed=0):
    """Instance with ``copies`` parallel edges on every vertex pair,
    self-loops included, each stored in a random orientation with a uniform
    random permutation and weight.  Dense under value_batch's pair-table
    rule (P*k <= E) exactly when copies >= k."""
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n)
    u, v = np.repeat(u, copies), np.repeat(v, copies)
    flip = rng.random(len(u)) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    perm = np.array([rng.permutation(k) for _ in u])
    return UGInstance.from_arrays(n, k, u, v, rng.uniform(0.1, 1.0, len(u)), perm)


def planted_on(n, k, skeleton, seed=0, family="general-permutation"):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n)
    return planted_instance(PlantedSpec(n, k, skeleton, labels, family, seed + 1))


@pytest.fixture
def small_instance():
    """Fixed 4-vertex, k=3 instance used across parser/value tests."""
    return from_rows(4, 3, [
        (0, 1, 1.0, (1, 2, 0)),
        (1, 2, 0.5, (0, 2, 1)),
        (2, 3, 2.0, (0, 1, 2)),
        (3, 0, 1.0, (2, 0, 1)),
    ])

"""The benchmark's workloads: seeded instance generation, the solve and the
per-solve correctness checks.

Each solve looks its entry points up as module attributes at call time
(``core.parse_instance``, ``recover.recover_solution``, ...), so tracing
wrappers installed on those attributes see the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ugspectral import core, generators, maxlin, recover

VALUE_TOL = 1e-12      # reported best_value vs recomputed value
PLANTED_SLACK = 0.05   # best_value must reach value(planted) - this


@dataclass
class Case:
    """One generated instance, serialised, plus what its checks need."""

    text: str
    planted: np.ndarray | None = None
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Case]                       # seed -> Case
    solve: Callable[[core.UGInstance], recover.SolveReport]
    check: Callable[[Case, core.UGInstance, recover.SolveReport], list]


def common_failures(case: Case, inst, report) -> list[str]:
    """Checks every workload applies: the labeling's recomputed value equals
    the reported best_value, and the decision matches the expectation."""
    out = []
    if report.best_labeling is None:
        return ["no best labeling"]
    got = core.value(inst, report.best_labeling)
    if not abs(got - report.best_value) <= VALUE_TOL:
        out.append(f"value(best_labeling)={got!r} != best_value={report.best_value!r}")
    if report.decision != case.expect["decision"]:
        out.append(f"decision {report.decision} != {case.expect['decision']}")
    if "dim_W" in case.expect and report.dim_W != case.expect["dim_W"]:
        out.append(f"dim_W {report.dim_W} != {case.expect['dim_W']}")
    if case.planted is not None:
        floor = core.value(inst, case.planted) - PLANTED_SLACK
        if not report.best_value >= floor:
            out.append(f"best_value {report.best_value!r} < value(planted)-{PLANTED_SLACK}")
    return out


# ---------------------------------------------------------------------------
# kv3-gap: the Khot-Vishnoi integrality-gap instance, criterion-9 solve
# ---------------------------------------------------------------------------

KV_SPEC = generators.KVSpec(3, 0.25)
KV_GAMMA = 0.52


def make_kv(seed) -> Case:
    """The KV kappa=3 instance with vertices renamed and edges reordered by
    the seed; the spectrum and the decision are invariant under both."""
    inst = generators.kv_instance(KV_SPEC)
    rng = np.random.default_rng(seed)
    rename = rng.permutation(inst.n)
    order = rng.permutation(len(inst.edges))
    edges = [inst.edges[i] for i in order]
    edges = [core.UGEdge(int(rename[e.u]), int(rename[e.v]), e.weight, e.perm) for e in edges]
    text = core.serialize_instance(core.UGInstance(inst.n, inst.k, edges, inst.scale))
    dim = generators.kv_eigenspace_dimension(KV_SPEC, KV_GAMMA)
    return Case(text, expect={"decision": "NO", "dim_W": dim})


def solve_kv(inst):
    params = recover.SolveParams(0.01, KV_GAMMA, max_dim=9, net_step_override=0.9)
    return recover.recover_solution(inst, params)


# ---------------------------------------------------------------------------
# maxlin-expander: planted Max-Lin on a random 4-regular expander
# ---------------------------------------------------------------------------


# theta=0.05 puts the search threshold (1-theta)d = 3.8 between the k=8 top
# eigenvalues of the label-extended matrix (one per character block, >= 3.93
# on seeds 300-329) and the next ones (<= 3.48), so dim W = k * dim S = 8.
# At the default theta=0.005 only the trivial-character eigenvector passes:
# it is constant on every block, so its read-off is argmax over rounding
# noise; at n=600 best_value then ranged over 0.91-0.98 on seeds 0-9 and
# three of them missed value(planted) - 0.05.
MAXLIN_PARAMS = maxlin.MaxLinParams(0.005, 0.1, theta=0.05, max_dim=8, net_step_override=1.0)


def make_maxlin(seed) -> Case:
    rng = np.random.default_rng(seed)
    inst, planted, _ = generators.planted_regular_instance(
        400, 4, 8, seed=int(rng.integers(2**31)), constraint_family="maxlin"
    )
    inst = generators.perturb(inst, planted, 0.02, seed=int(rng.integers(2**31)),
                              constraint_family="maxlin")
    return Case(core.serialize_instance(inst), planted, {"decision": "YES"})


def solve_maxlin(inst):
    ml = maxlin.MaxLinInstance.from_instance(inst)
    return maxlin.solve_maxlin(ml, MAXLIN_PARAMS)


def check_maxlin(case, inst, report):
    out = common_failures(case, inst, report)
    bound = inst.k * report.extras.get("dim_S", 0)
    if not report.dim_W <= bound:
        out.append(f"dim_W {report.dim_W} > k*dim_S = {bound}")
    return out


# ---------------------------------------------------------------------------
# laplacian-clustered: non-regular, general permutations, Laplacian mode
# ---------------------------------------------------------------------------

# With one bridge per cluster pair the Laplacian has 8 eigenvalues (4 per
# component of the label-extended graph: its zero and three cluster cuts)
# below 0.024 d_avg and the ninth above 0.038 d_avg on seeds 0-119; gamma=0.03
# sits inside that window with at least 20% to spare on either side.  With two
# bridges the window shrinks to (0.0375, 0.0414) d_avg.
CLUSTER_SIZES = (60, 80, 100, 120)
CLUSTER_DEGREES = (3, 4, 3, 4)
BRIDGES_PER_PAIR = 1
LAPLACIAN_PARAMS = recover.SolveParams(0.002, 0.03, mode="laplacian", max_dim=12,
                                       net_step_override=0.55)


def clustered_skeleton(rng):
    """Random regular clusters joined by BRIDGES_PER_PAIR random bridges per pair."""
    edges, offsets, off = [], [], 0
    for size, d in zip(CLUSTER_SIZES, CLUSTER_DEGREES):
        cluster, _ = generators.random_regular_graph(size, d, seed=int(rng.integers(2**31)))
        edges += [(u + off, v + off) for u, v in cluster]
        offsets.append(off)
        off += size
    for a in range(len(CLUSTER_SIZES)):
        for b in range(a + 1, len(CLUSTER_SIZES)):
            for _ in range(BRIDGES_PER_PAIR):
                u = offsets[a] + int(rng.integers(CLUSTER_SIZES[a]))
                v = offsets[b] + int(rng.integers(CLUSTER_SIZES[b]))
                edges.append((u, v))
    return off, edges


def make_laplacian(seed) -> Case:
    rng = np.random.default_rng(seed)
    n, skeleton = clustered_skeleton(rng)
    k = 6
    labels = rng.integers(0, k, size=n)
    spec = generators.PlantedSpec(n, k, skeleton, labels, "general-permutation",
                                  int(rng.integers(2**31)))
    inst, planted = generators.planted_instance(spec)
    inst = generators.perturb(inst, planted, 0.01, seed=int(rng.integers(2**31)))
    return Case(core.serialize_instance(inst), planted, {"decision": "YES", "dim_W": 8})


def solve_laplacian(inst):
    return recover.recover_solution(inst, LAPLACIAN_PARAMS)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("kv3-gap", make_kv, solve_kv, common_failures),
        Workload("maxlin-expander", make_maxlin, solve_maxlin, check_maxlin),
        Workload("laplacian-clustered", make_laplacian, solve_laplacian, common_failures),
    )
}

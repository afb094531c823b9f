"""Answer-parity check of the benchmark workloads.

    python3 tools/parity.py [--seeds 0 1 ...]

Solves the given seeds (default 0-9) of every workload in
``perfbench/workloads.py`` with the solver in this checkout's ``src/`` and
prints one JSON line per case: the answer and how it was found, with no
timings, so that the output of two checkouts compares with ``diff``.  To
check a change against its parent, copy this file into a checkout of the
parent (``git archive``) and run both at the same BLAS thread count
(``OPENBLAS_NUM_THREADS``).  The first line, ``{"blas_threads": N}``, is
the count OpenBLAS reports in effect (``perfbench/run.py``), so a diff of
runs at different counts fails on it.  The output of one checkout is not
the same across thread counts: at 1 and 2 threads every ``kv3-gap`` seed
reads off a different best labeling and ``distinct_labelings``, and most a
different ``cut_gap`` (with the same ``best_value`` and decision), most
likely because the dense ``eigh`` basis of its 8-fold eigenspace differs.
A filtered solve converges W's kept pairs but only certifies the nearest
dropped one below the cut, so its ``cut_gap`` is accurate to that pair's
residual, printed after it as ``dropped_residual``: between two
checkouts ``cut_gap`` may move within it, and an ``eigensolver`` record
(passes, ``products``) may change with the iteration.
A ``maxlin-expander`` line reads ``eigensolver`` from the Max-Lin
character-block solve (``path: "characters"``, summed passes and
products, widest block in real columns, ``blocks``).  That solve finds each conjugate
pair's doubled eigenspaces through a complex Hermitian block, so its basis
of W spans the space a solve of M finds but differs from that basis, and
its net may put another labeling of the same value first (``best_labeling_sha256``, ``distinct_labelings``).  The last field is
the report's ``extras``, floats as ``float.hex``, so a Max-Lin line also
diffs ``dim_S``, ``uniformity_worst_linf`` and ``character_candidates``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def case_line(name, seed, workload, core) -> dict:
    """The parity record of one seeded case of a workload."""
    case = workload.make(seed)
    inst = core.parse_instance(case.text)
    report = workload.solve(inst)
    labeling = [int(x) for x in report.best_labeling]
    return {
        "workload": name,
        "seed": seed,
        "best_value": report.best_value.hex(),
        "best_labeling_sha256": hashlib.sha256(json.dumps(labeling).encode()).hexdigest(),
        "dim_W": report.dim_W,
        "decision": report.decision,
        "distinct_labelings": report.distinct_labelings,
        "net_points_evaluated": report.net_points_evaluated,
        "held_dims": report.held_dims,
        "signed_candidates": report.signed_candidates,
        "eigensolver": report.eigensolver,
        "cut_gap": None if report.cut_gap is None else report.cut_gap.hex(),
        "dropped_residual": None if report.dropped_residual is None
        else report.dropped_residual.hex(),
        "failures": workload.check(case, inst, report),
        "extras": {key: x.hex() if isinstance(x, float) else x
                   for key, x in report.extras.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from ugspectral import core
    from run import blas_threads
    from workloads import WORKLOADS

    print(json.dumps({"blas_threads": blas_threads()}), flush=True)
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            print(json.dumps(case_line(name, seed, workload, core)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

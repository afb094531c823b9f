"""Seeded solve benchmark for ugspectral.

    python3 perfbench/run.py --workload kv3-gap --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the solver is imported from
``src/``.  For the named workload the benchmark generates an instance from
the seed, serialises it, and then repeats in-process solves, each one
parsing the text afresh, solving and checking the answer.

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (wrappers around each module's
entry points, see ``tracing.py``); metric names and units are those
listed in ``BENCHMARK.json``.  Human-readable lines go to stdout first; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # instance generation + serialisation, median reported

COVERAGE_TOL = 0.05  # top-level spans must cover this close to all of a solve


def nproc():
    """CPUs this process may run on, as the nproc command counts them."""
    return len(os.sched_getaffinity(0))


def limit_threads():
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > nproc():
            os.environ[var] = str(nproc())


def blas_threads():
    """Threads OpenBLAS reports in effect, or None if it cannot be queried."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_identity():
    """Git commit when run in a repository, and a digest of the solver's
    sources, which identifies the code in a plain checkout too."""
    git = ROOT / ".git"
    commit = None
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            if (git / ref).is_file():
                commit = (git / ref).read_text().strip()
            elif (git / "packed-refs").is_file():
                packed = (git / "packed-refs").read_text().split("\n")
                commit = next((line.split()[0] for line in packed
                               if line.endswith(" " + ref)), None)
            else:
                commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ugspectral").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return commit, digest.hexdigest()[:16]


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Runner:
    """Solves one workload's case repeatedly, checking every answer."""

    def __init__(self, workload, case):
        self.workload = workload
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.last_report = None
        self.last_inst = None

    def solve(self, tracer=None):
        """One solve from text to decision; returns its wall seconds.  The
        check runs after the clock stops."""
        from ugspectral import core
        self.attempted += 1
        self.last_inst = self.last_report = None  # free before the next parse
        failures = []
        t0 = time.perf_counter()
        root = tracer.begin("solve") if tracer else None
        try:
            inst = core.parse_instance(self.case.text)
            report = self.workload.solve(inst)
        except Exception:  # a failed solve is counted, the run goes on
            traceback.print_exc()
            failures = ["solve raised"]
        finally:
            if tracer:
                tracer.end(root)
            wall = time.perf_counter() - t0
        if not failures:
            self.last_inst, self.last_report = inst, report
            failures = self.workload.check(self.case, inst, report)
        if failures:
            self.failed += 1
            print(f"FAILED solve {self.attempted}: {'; '.join(failures)}", file=sys.stderr)
        return wall


def setup(workload, seed):
    """Generate and serialise the case SETUP_REPEATS times (checking that
    the seed reproduces it), then one warm-up solve.  Returns the runner
    and setup seconds: the median generation time plus the warm-up."""
    gen_times, case = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        again = workload.make(seed)
        gen_times.append(time.perf_counter() - t0)
        if case is not None and again.text != case.text:
            raise RuntimeError("instance generation is not reproducible from the seed")
        case = again
    runner = Runner(workload, case)
    warmup = runner.solve()
    return runner, statistics.median(gen_times) + warmup


def measure(runner, seconds):
    """Untraced solves until the next one would overrun ``seconds``."""
    times, t0 = [], time.perf_counter()
    while True:
        times.append(runner.solve())
        if time.perf_counter() - t0 + statistics.median(times) > seconds:
            return times


def layer_row(tracer, report, inst):
    """Per-layer metrics of one traced solve."""
    from ugspectral import recover
    import tracing
    counts = tracer.counts
    # The net plus the 2 * dim_W signed basis vectors recover_solution adds;
    # SolveReport.net_points_evaluated leaves the latter out.
    net = recover.net_size(report.dim_W, report.net_step)
    candidates = net + 2 * report.dim_W
    row = tracing.summarise(tracer)
    row.update({
        "core.edges": len(inst.edges),
        "core.labelings_evaluated": counts["core.labelings_evaluated"],
        "core.edge_evals": counts["core.edge_evals"],
        "label_extended.matrix_mb": counts["label_extended.matrix_mb"],
        "linalg.eigen_calls": counts["linalg.eigen_calls"],
        "linalg.dim_ambient": counts["linalg.dim_ambient"],
        "linalg.dim_W": counts["linalg.dim_W"],
        "recover.net_points": net,
        "recover.candidates": candidates,
        "recover.dedupe_ratio": counts["core.labelings_evaluated"] / candidates,
        "maxlin.dim_S": counts["maxlin.dim_S"],
    })
    return row


def measure_traced(runner, seconds):
    """Alternating untraced and traced solves until the next pair would
    overrun ``seconds``.  Returns (untraced times, per-solve layer dicts of
    the traced solves that did not raise)."""
    import tracing
    plain, layers, t0 = [], [], time.perf_counter()
    while True:
        if tracing.wrappers_installed():
            raise RuntimeError("tracing wrappers left installed before an untraced solve")
        plain.append(runner.solve())
        tr = tracing.Tracer()
        with tr:
            traced = runner.solve(tr)
        if tr.absent:
            print(f"absent layers: {', '.join(tr.absent)}")
        if runner.last_report is not None:
            layers.append(layer_row(tr, runner.last_report, runner.last_inst))
        if time.perf_counter() - t0 + plain[-1] + traced > seconds:
            return plain, layers


def _fmt(seconds):
    return "[" + ", ".join(f"{t:.3f}" for t in seconds) + "] s"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ugspectral" / "__init__.py").is_file():
        print(f"solver sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    limit_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import ugspectral
    from workloads import WORKLOADS

    if Path(ugspectral.__file__).resolve().parent != (SRC / "ugspectral").resolve():
        print(f"imported ugspectral from {ugspectral.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    commit, digest = source_identity()
    env = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "blas_threads": blas_threads(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0], "git_commit": commit, "src_sha256": digest,
    }
    print("env " + json.dumps(env))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    runner, setup_s = setup(workload, args.seed)
    if args.trace:
        plain, layers = measure_traced(runner, args.seconds)
        if not layers:
            print("no traced solve completed", file=sys.stderr)
            return 1
        values = {name: statistics.median(row[name] for row in layers)
                  for name in layers[0]}
        traced = statistics.median(row["solve_s"] for row in layers)
        values["trace.overhead"] = traced / statistics.median(plain)
        coverage_ok = all(row["trace.coverage"] >= 1 - COVERAGE_TOL for row in layers)
        if not coverage_ok:
            print(f"trace check failed: top-level spans cover less than "
                  f"{1 - COVERAGE_TOL:.0%} of a traced solve", file=sys.stderr)
        samples = (f"{len(layers)} traced solves {_fmt(r['solve_s'] for r in layers)}, "
                   f"{len(plain)} untraced {_fmt(plain)}")
    else:
        times = measure(runner, args.seconds)
        values = {
            "solve_s": statistics.median(times),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "best_value": runner.last_report.best_value if runner.last_report else 0.0,
            "solved_frac": 1.0 - runner.failed / runner.attempted,
        }
        coverage_ok = True
        samples = f"{len(times)} timed solves {_fmt(times)}"

    print(f"{workload.name} seed={args.seed}: {samples}, {runner.attempted} attempted "
          f"(incl. warm-up), {runner.failed} failed, "
          f"failed_frac={runner.failed / runner.attempted:.4f}")
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:>16.6g} {unit}")
    result = {
        "correct": runner.failed == 0 and coverage_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

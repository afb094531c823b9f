"""What the benchmark in ``perfbench/`` uses of the package must keep working.

``perfbench/tracing.py`` skips a wrapped attribute that no longer exists
and only prints its name, so a rename under ``src/`` would silently drop a
layer from traced benchmark runs; the workloads build their instances
through the package's public API.  These tests turn such breakage into a
failure.
"""

import json
from pathlib import Path

from ugspectral.core import parse_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tr = tracing.Tracer()
    with tr:
        assert len(tracing.wrappers_installed()) == len(tracing.TARGETS)
    assert tr.absent == []
    assert tracing.wrappers_installed() == []


def test_every_workload_generates(monkeypatch):
    """Each workload's seed-1 instance is generated and parses; no digests
    are pinned, so a benchmark change may regenerate them freely."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        case = workload.make(1)
        assert len(parse_instance(case.text).w) > 0, name


def test_traced_solve_of_every_workload(monkeypatch):
    """One traced seed-1 solve of each workload passes its checks, fills
    every per-layer metric BENCHMARK.json names and is covered by its
    top-level spans, so the hooks of the sparse and Max-Lin paths run here
    too.  ``trace.overhead`` is left out: run.main forms it from the
    medians of the untraced and traced solves."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead"}
    for name, workload in workloads.WORKLOADS.items():
        runner = run.Runner(workload, workload.make(1))
        plain, layers = run.measure_traced(runner, 0.0)
        assert runner.failed == 0 and len(plain) == len(layers) == 1, name
        assert names <= layers[0].keys(), name
        assert layers[0]["trace.coverage"] >= 1 - run.COVERAGE_TOL, name

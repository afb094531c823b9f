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


def test_readoff_called_once_per_chunk(monkeypatch):
    """perfbench's ``recover.readoff_s`` times the wrapper on
    ``recover.read_off_batch``, so a solve must call it, looked up on the
    module, once per coefficient chunk of the net and once for the signed
    basis, on every candidate row."""
    import ugspectral.core as core_mod
    import ugspectral.recover as recover_mod
    from ugspectral.generators import KVSpec, kv_instance

    inst = kv_instance(KVSpec(2, 0.25))
    params = recover_mod.SolveParams(0.01, 0.5, net_step_override=0.9)
    read_off_batch, calls = recover_mod.read_off_batch, []

    def counting(C, blocks):
        calls.append(len(C))
        return read_off_batch(C, blocks)

    rows = 50
    monkeypatch.setattr(core_mod, "BATCH_BYTES", rows * 8 * inst.n * inst.k)
    monkeypatch.setattr(recover_mod, "read_off_batch", counting)
    rep = recover_mod.recover_solution(inst, params)
    net = rep.net_points_evaluated
    assert net == recover_mod.net_size(rep.dim_W, rep.net_step) > rows
    assert len(calls) == -(-net // rows) + 1
    assert calls[-1] == rep.signed_candidates == 2 * rep.dim_W
    assert sum(calls) == net + 2 * rep.dim_W

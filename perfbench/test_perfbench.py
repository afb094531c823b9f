"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench
"""

import sys

import numpy as np

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from ugspectral import core, generators, recover  # noqa: E402

KV2 = generators.KVSpec(2, 0.25)


def _solve_kv2(inst):
    return recover.recover_solution(
        inst, recover.SolveParams(0.01, 1.0, max_dim=16, net_step_override=2.5)
    )


def _tiny(solve=_solve_kv2):
    text = core.serialize_instance(generators.kv_instance(KV2))
    case = workloads.Case(text, expect={"decision": "NO"})
    wl = workloads.Workload("tiny", lambda seed: case, solve, workloads.common_failures)
    return run.Runner(wl, case)


def test_honest_solve_passes():
    runner = _tiny()
    runner.solve()
    assert (runner.attempted, runner.failed) == (1, 0)


def test_corrupted_labeling_counts_as_failed():
    def corrupt(inst):
        report = _solve_kv2(inst)
        report.best_labeling = (report.best_labeling + 1) % inst.k
        report.best_labeling[0] = (report.best_labeling[0] + 1) % inst.k
        return report

    runner = _tiny(corrupt)
    runner.solve()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_raising_solve_counts_as_failed():
    def boom(inst):
        raise core.UGError("boom")

    runner = _tiny(boom)
    runner.solve()
    runner.solve()
    assert (runner.attempted, runner.failed) == (2, 2)


def test_planted_floor_is_checked():
    inst, planted, _ = generators.planted_regular_instance(8, 3, 3, seed=0)
    report = recover.SolveReport(
        best_labeling=(planted + 1) % 3, best_value=0.0, decision="YES",
        yes_threshold=0.5, dim_W=1, net_points_evaluated=1, eigen_time=0.0,
        enumeration_time=0.0, net_step=1.0, mode="adjacency",
    )
    report.best_value = core.value(inst, report.best_labeling)
    case = workloads.Case("", planted, {"decision": "YES"})
    failures = workloads.common_failures(case, inst, report)
    assert any("value(planted)" in f for f in failures)


def test_wrappers_removed_after_traced_run():
    seen = []

    def solve(inst):
        seen.append(tracing.wrappers_installed())
        return _solve_kv2(inst)

    runner = _tiny(solve)
    plain, layers = run.measure_traced(runner, seconds=0.0)
    assert seen[0] == []            # untraced solve runs unwrapped
    assert "ugspectral.recover.recover_solution" in seen[1]
    assert tracing.wrappers_installed() == []
    assert runner.failed == 0
    row = layers[0]
    assert row["linalg.dim_ambient"] == 16
    assert row["recover.candidates"] == row["recover.net_points"] + 2 * row["linalg.dim_W"]
    assert abs(row["trace.coverage"] - 1.0) < 0.05


def test_raising_traced_solve_is_counted_and_unwrapped():
    def solve(inst):
        if tracing.wrappers_installed():
            raise core.UGError("boom")
        return _solve_kv2(inst)

    runner = _tiny(solve)
    plain, layers = run.measure_traced(runner, seconds=0.0)
    assert (len(plain), layers, runner.failed) == (1, [], 1)
    assert tracing.wrappers_installed() == []


def test_untraced_run_installs_no_wrapper():
    seen = []

    def solve(inst):
        seen.append(tracing.wrappers_installed())
        return _solve_kv2(inst)

    times = run.measure(_tiny(solve), seconds=0.0)
    assert len(times) == 1 and seen == [[]]
    assert tracing.wrappers_installed() == []


def test_missing_attribute_marks_layer_absent():
    missing = tracing.Target("ugspectral.recover", "no_such_function", "recover.gone")
    with tracing.Tracer(targets=(missing,)) as tr:
        pass
    assert tr.absent == ["ugspectral.recover.no_such_function"]


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("root", 0.0, 10.0, None),
        tracing.Span("a", 1.0, 4.0, 0),
        tracing.Span("b", 2.0, 3.0, 1),
        tracing.Span("c", 5.0, 6.0, 0),
    ]
    assert np.allclose(tracing.self_times(spans), [6.0, 2.0, 1.0, 1.0])

"""What the benchmark in ``perfbench/`` uses of the package must keep working.

``perfbench/tracing.py`` skips a wrapped attribute that no longer exists
and only prints its name, so a rename under ``src/`` would silently drop a
layer from traced benchmark runs; the workloads build their instances
through the package's public API.  ``python -m pytest perfbench`` is not
part of the default test run, so these tests turn such breakage into a
failure here.
"""

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

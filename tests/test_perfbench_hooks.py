"""The benchmark's tracer must find every solver attribute it wraps.

``perfbench/tracing.py`` skips a wrapped attribute that no longer exists
and only prints its name, so a rename under ``src/`` would silently drop a
layer from traced benchmark runs; this test turns that into a failure.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tr = tracing.Tracer()
    with tr:
        assert len(tracing.wrappers_installed()) == len(tracing.TARGETS)
    assert tr.absent == []
    assert tracing.wrappers_installed() == []

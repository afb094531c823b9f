"""Outside-in tracing of the solver's layers.

Wrappers are installed on the module attributes the callers look up
(``recover.py`` imports ``value_batch`` by name, so the wrapper goes on
``ugspectral.recover.value_batch``), each recording a span with start, end
and parent, plus counts.  Nothing under ``src/`` is modified: removing the
wrappers restores the original attributes exactly.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

WRAPPED_MARK = "__perfbench_wrapped__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` may be dotted (``Class.method``)."""

    module: str
    attr: str
    span: str
    hook: object = None  # hook(tracer, args, result) -> None, records counts


def _count_labelings(tr, args, result):
    inst, batch = args[0], args[1]
    rows = len(batch)
    tr.counts["core.labelings_evaluated"] += rows
    tr.counts["core.edge_evals"] += rows * len(inst.edges)


def _count_build(tr, args, result):
    tr.counts["label_extended.matrix_mb"] = result.dim**2 * 8 / 2**20


def _count_search_space(tr, args, result):
    tr.counts["linalg.eigen_calls"] += 1
    tr.counts["linalg.dim_ambient"] = result.dim_ambient
    tr.counts["linalg.dim_W"] = result.dim


def _count_maxlin_space(tr, args, result):
    tr.counts["linalg.eigen_calls"] += 1
    tr.counts["maxlin.dim_S"] = result.dim


# Layer boundaries.  Span names are "<module>.<stage>" after the package's
# modules; "recover" and "maxlin" spans are the solve loops, whose self time
# is reported.
TARGETS = (
    Target("ugspectral.core", "parse_instance", "core.parse"),
    Target("ugspectral.recover", "value_batch", "core.value_batch", _count_labelings),
    Target("ugspectral.recover", "build_label_extended", "label_extended.build", _count_build),
    Target("ugspectral.recover", "build_laplacian", "label_extended.build", _count_build),
    Target("ugspectral.maxlin", "constraint_graph_adjacency", "label_extended.build"),
    Target("ugspectral.recover", "select_eigenspace", "linalg.eigen", _count_search_space),
    Target("ugspectral.maxlin", "select_eigenspace", "linalg.eigen", _count_maxlin_space),
    Target("ugspectral.recover", "read_off_batch", "recover.readoff"),
    Target("ugspectral.recover", "recover_solution", "recover"),
    Target("ugspectral.maxlin", "recover_solution", "recover"),
    Target("ugspectral.maxlin", "solve_maxlin", "maxlin"),
    Target("ugspectral.maxlin", "MaxLinInstance.from_instance", "maxlin"),
    Target("ugspectral.maxlin", "uniformity_check", "maxlin.uniformity"),
)


def _resolve(target: Target):
    """(owner object, attribute name) of a target, or None if missing."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


def wrappers_installed(targets=TARGETS) -> list[str]:
    """Names of target attributes that currently hold a tracing wrapper."""
    out = []
    for t in targets:
        found = _resolve(t)
        if found is None:
            continue
        raw = vars(found[0])[found[1]]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if getattr(fn, WRAPPED_MARK, False):
            out.append(f"{t.module}.{t.attr}")
    return out


@dataclass
class Tracer:
    """Spans and counts of one traced solve, kept in memory.

    Use as a context manager: entering installs every wrapper, leaving
    removes them.  Targets whose attribute is missing are listed in
    ``absent`` and skipped.
    """

    targets: tuple = TARGETS
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def begin(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx):
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order")

    def _wrap(self, fn, target: Target):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if target.hook is not None:
                target.hook(tracer, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        wrapper.__wrapped__ = fn
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def __enter__(self):
        self.absent = []
        for t in self.targets:
            found = _resolve(t)
            if found is None:
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            owner, name = found
            raw = vars(owner)[name]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, t))
            else:
                new = self._wrap(raw, t)
            self._saved.append((owner, name, raw))
            setattr(owner, name, new)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)
        return False


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[i]) for i, s in enumerate(spans)]


def summarise(tracer: Tracer) -> dict:
    """Per-layer seconds of one traced solve whose root span is span 0.

    ``<layer>_s`` totals spans not nested in a span of the same name;
    ``recover.self_s`` and ``maxlin.self_s`` are self time.
    ``trace.coverage`` is the share of the root's wall time covered by its
    top-level child spans.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    total, self_total = Counter(), Counter()
    for i, s in enumerate(spans[1:], start=1):
        self_total[s.name] += selfs[i]
        if spans[s.parent].name != s.name:
            total[s.name] += s.end - s.start
    wall = spans[0].end - spans[0].start
    return {
        "solve_s": wall,
        "trace.coverage": 1.0 - selfs[0] / wall,
        "core.parse_s": total["core.parse"],
        "core.value_batch_s": total["core.value_batch"],
        "label_extended.build_s": total["label_extended.build"],
        "linalg.eigen_s": total["linalg.eigen"],
        "recover.self_s": self_total["recover"],
        "recover.readoff_s": total["recover.readoff"],
        "maxlin.self_s": self_total["maxlin"],
        "maxlin.uniformity_s": total["maxlin.uniformity"],
    }

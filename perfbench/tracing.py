"""In-memory spans around the router's layers, and the arithmetic on them.

A span is one call into a layer: ``[name, start, end, parent, run]``,
with times in seconds from ``time.perf_counter`` and ``parent`` the
index of the enclosing span (-1 at the root).  ``run`` groups the spans of one
request.  Spans stay in memory while the benchmark runs and are written
out once at the end (:meth:`Tracer.write`).

:func:`instrument` wraps the public functions of each layer *from the
outside*: it replaces module and class attributes for the duration of a
``with`` block and restores them afterwards, so the program's code is
never edited and an untraced run executes none of this.  Calls made
inside forked pool workers run the wrappers too, but their spans stay in
the worker's memory and are not collected.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (module, attribute path, span name, outcome test).  The attribute is
#: the name the *caller* looks up: ``lee_route`` is patched in
#: ``repro.core.router`` because that is where the router finds it.
#: The outcome test, when given, counts calls whose result passes it
#: under ``<span name>.ok``.
LAYER_PATCHES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.api", "load_board", "io.load", None),
    ("repro.stringer.stringer", "Stringer.string_all", "stringer", None),
    ("repro.core.router", "GreedyRouter.route", "core.router", None),
    ("repro.parallel.router", "ParallelRouter.route", "core.router", None),
    (
        "repro.core.router", "try_zero_via", "optimal.zero_via",
        lambda record: record is not None,
    ),
    (
        "repro.core.router", "try_one_via", "optimal.one_via",
        lambda record: record is not None,
    ),
    ("repro.core.router", "lee_route", "lee", lambda search: search.routed),
    ("repro.core.lee", "reachable_vias", "single_layer.vias", None),
    ("repro.core.lee", "trace", "single_layer.trace", None),
    ("repro.core.optimal", "trace", "single_layer.trace", None),
    ("repro.core.bounds", "LowerBoundCache.lookup", "bounds", None),
    ("repro.core.router", "select_victims", "ripup", None),
    ("repro.core.router", "rip_up", "ripup", None),
    ("repro.parallel.pool", "WorkerPool.start", "parallel.pool_spawn", None),
    ("repro.parallel.pool", "WorkerPool.run_wave", "parallel.wave", None),
    ("repro.parallel.pool", "WorkerPool.sync", "parallel.delta_sync", None),
    ("repro.parallel.router", "merge_wave", "parallel.merge", None),
)

NAME, START, END, PARENT = range(4)


class Tracer:
    """Records nested spans of a single thread in memory.

    Spans live in flat arrays rather than one object each: the tracer
    then adds nothing for the garbage collector to scan while the
    router runs.  :meth:`rows` turns a range back into span lists.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.runs = array("q")
        self.outcomes: Counter = Counter()
        #: Identifier stamped on new spans (one per request).
        self.run = 0
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(
        self, fn: Callable, name: str, outcome: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording one span per call (and its outcome)."""
        begin, end, outcomes = self.begin, self.end, self.outcomes

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if outcome is not None and outcome(result):
                outcomes[name + ".ok"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def rows(self, start: int = 0, stop: Optional[int] = None) -> List[list]:
        """Spans ``[start, stop)`` as ``[name, start, end, parent, run]``,
        parents re-based to the range (-1 when outside it)."""
        stop = len(self.names) if stop is None else stop
        return [
            [
                self.names[i],
                self.starts[i],
                self.ends[i],
                self.parents[i] - start if self.parents[i] >= start else -1,
                self.runs[i],
            ]
            for i in range(start, stop)
        ]

    def write(self, path: str) -> None:
        """Write every span as one gzipped JSON line: index + row."""
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            for index, row in enumerate(self.rows()):
                stream.write(json.dumps([index] + row) + "\n")


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def instrument(
    tracer: Tracer, patches: Sequence[tuple] = LAYER_PATCHES
) -> Iterator[Tracer]:
    """Wrap every layer entry point in ``patches`` for the block."""
    saved = []
    try:
        for module_name, attr_path, name, outcome in patches:
            owner, attr = _resolve(module_name, attr_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, outcome))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - _covered(children.get(index, []), span[START], span[END])
        for index, span in enumerate(spans)
    ]


def outermost(spans: Sequence[list]) -> List[bool]:
    """True for spans with no enclosing span of the same name.

    Re-entrant calls (a router inside a router) would otherwise count
    their interval twice in a layer's total time.
    """
    flags = []
    for span in spans:
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        flags.append(parent < 0)
    return flags


class LayerStats:
    """Per-name totals of a span list: calls, total, self time, durations."""

    def __init__(self, spans: Sequence[list]) -> None:
        own = self_times(spans)
        outer = outermost(spans)
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        for span, self_s, is_outer in zip(spans, own, outer):
            name = span[NAME]
            self.calls[name] += 1
            self.self_time[name] += self_s
            if is_outer:
                duration = span[END] - span[START]
                self.total[name] += duration
                self.durations[name].append(duration)

    def total_of(self, *names: str) -> float:
        return sum(self.total.get(name, 0.0) for name in names)

    def self_of(self, *names: str) -> float:
        return sum(self.self_time.get(name, 0.0) for name in names)


def attribute(spans: Sequence[list], root: str) -> Dict[str, float]:
    """Self time by span name over the outermost ``root`` spans' subtrees.

    The values sum to the ``root`` layer's total time, so they say where
    every second of, say, ``route()`` went.
    """
    own = self_times(spans)
    inside: List[bool] = []
    for span in spans:
        parent = span[PARENT]
        inside.append(
            span[NAME] == root or (parent >= 0 and inside[parent])
        )
    shares: Dict[str, float] = defaultdict(float)
    for span, self_s, is_inside in zip(spans, own, inside):
        if is_inside:
            shares[span[NAME]] += self_s
    return dict(shares)


def overhead(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Traced-minus-untraced time as a share of the untraced median."""
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base

"""Span tracing at layer boundaries, installed from the benchmark's files.

The program under test carries no tracing hooks of its own, so the
benchmark wraps each layer's public entry points at class (or module)
level for the traced run and restores them afterwards.  Every wrapped
call is one span: name, start, end and the span that caused it (the
innermost wrapped call still open).  A span's **self time** is its
duration minus the part of its interval covered by its children, so a
layer is charged only for the work done in its own code.

Spans are aggregated as they close (self time and calls per layer), and
the first ``KEEP`` spans are also kept raw for export; the two agree
because single-threaded children never overlap (``self_times`` handles
the general case and is what the tests check the tracer against).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    """One closed span.  ``parent`` is the id of the enclosing span."""

    sid: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the union of its direct
    children's intervals, each clipped to the parent's interval."""
    by_id = {s.sid: s for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None:
            continue
        lo, hi = max(s.start, parent.start), min(s.end, parent.end)
        if hi > lo:
            children[parent.sid].append((lo, hi))
    return {
        s.sid: (s.end - s.start) - _covered(children.get(s.sid, []))
        for s in spans
    }


def self_time_by_layer(spans: Sequence[Span]) -> Dict[str, float]:
    """:func:`self_times` summed per layer."""
    out: Dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for s in spans:
        out[s.layer] += selfs[s.sid]
    return dict(out)


class Tracer:
    """Records spans for wrapped callables; restores them on uninstall."""

    KEEP = 5000  # raw spans kept for export; aggregates cover every span

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[Span] = []
        self.recorded = 0
        # Open spans, innermost last: [sid, parent, layer, name, start, child_s].
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def enter(self, layer: str, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, layer, name, self.clock(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = self.clock()
        sid, parent, layer, name, start, child_s = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][5] += duration
        self.recorded += 1
        if len(self.spans) < self.KEEP:
            self.spans.append(Span(sid, parent, layer, name, start, end))

    def reset(self) -> None:
        """Drop aggregates and kept spans (wrappers stay installed)."""
        if self._stack:
            raise RuntimeError("reset() with open spans")
        self.self_s.clear()
        self.calls.clear()
        self.spans.clear()
        self.recorded = 0

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """A pass-through wrapper recording one span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        traced.__perfbench_wrapped__ = True
        return traced

    # -- installing ----------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_class(self, cls: type, layer: str, dunders: Iterable[str] = ()) -> None:
        """Wrap ``cls``'s own public functions plus the listed dunder
        methods it defines itself."""
        wanted = set(dunders)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in wanted:
                continue
            if not inspect.isfunction(value) or inspect.isgeneratorfunction(value):
                continue
            if getattr(value, "__perfbench_wrapped__", False):
                continue
            self._set(cls, attr, self.wrap(value, layer, f"{cls.__name__}.{attr}"))

    def patch_function(self, modules: Iterable[object], fn: Callable, layer: str) -> None:
        """Wrap ``fn`` wherever one of ``modules`` binds it by name."""
        traced = self.wrap(fn, layer, fn.__name__)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def patch_init(self, cls: type, hook: Callable[[object], None]) -> None:
        """Run ``hook(instance)`` after every ``cls(...)`` construction."""
        original = cls.__dict__["__init__"]

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            hook(obj)

        self._set(cls, "__init__", init)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

"""Plan capture: the advisor's symbolic trace of a sparse program.

The advisor (:mod:`repro.analysis.advisor`) works ahead of execution: it
needs the *sequence of task launches* a program would issue — each with
its stores, privileges, constraints and color count — without the cost
of actually running kernels.  This module is the recording half: a
:class:`PlanTrace` attached to a runtime (``runtime.plan_trace``)
receives one event per region creation, task launch, fill, free, sync
point and library annotation ("this op densified", "this op converted
formats").  The advisor replays those events through a fresh
:class:`~repro.legion.runtime.Runtime` with kernel bodies skipped.

Two capture modes share the same hooks:

* **deferred** (``deferred=True``): :meth:`AutoTask.execute
  <repro.constraints.task.AutoTask.execute>` records the op and returns
  *without* solving constraints or launching.  Kernels never run, so
  scalar results are policy values (NaN for norms/dots so convergence
  loops run to ``maxiter``; 0 for counting reductions so sizing code
  stays well-defined).  This is the ``python -m repro.analysis advise``
  mode.
* **alongside** (``deferred=False``): ops are recorded *and* executed
  normally.  Used by the agreement tests, which compare the advisor's
  replay against the very same run.

The plan keeps its own handle to every store it records
(:meth:`PlanTrace.hold`), so a program dropping a store still frees
its region — and the free lands in the plan where the program made it.

This module deliberately imports nothing from :mod:`repro.legion`,
:mod:`repro.constraints` or :mod:`repro.distal`: callers pass their
region/store/privilege objects in and the trace stores them opaquely,
so the runtime can import this module without cycles (the same rule as
the rest of :mod:`repro.analysis`).
"""

from __future__ import annotations

import copy
import math
import weakref
from typing import Any, Dict, List, Optional, Tuple


class PlanOp:
    """One recorded task launch (or fill) in program order.

    Either ``args``/``constraints`` are set (an AutoTask: the replay
    re-runs the constraint solver over the stores) or ``requirements``
    is set (a fill: the concrete ``(name, region, partition, privilege)``
    list the runtime would have used directly).
    """

    kind = "op"

    __slots__ = (
        "name", "args", "constraints", "scalars", "reduction", "colors",
        "cost_fn", "requirements", "pointwise", "index",
    )

    def __init__(
        self,
        name: str,
        colors: int,
        args: Optional[List[tuple]] = None,
        constraints: Optional[List[object]] = None,
        scalars: Optional[Dict[str, Any]] = None,
        reduction: Optional[str] = None,
        cost_fn=None,
        requirements: Optional[List[tuple]] = None,
        pointwise=None,
        index: int = 0,
    ):
        self.name = name
        self.colors = int(colors)
        self.args = args or []  # [(arg_name, Store, Privilege)]
        self.constraints = constraints or []
        self.scalars = scalars or {}
        self.reduction = reduction
        self.cost_fn = cost_fn
        # Fill path: [(arg_name, Region, Partition, Privilege)].
        self.requirements = requirements
        # Element-wise marker (repro.legion.task.Pointwise), stored
        # opaquely: the replayed launch carries it into the fusion window.
        self.pointwise = pointwise
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanOp({self.name!r}, colors={self.colors})"


class PlanRegion:
    """A region created during the trace (with attach information)."""

    kind = "region"

    __slots__ = ("region", "attached", "index")

    def __init__(self, region, attached: bool, index: int = 0):
        self.region = region
        self.attached = bool(attached)
        self.index = index


class PlanFree:
    """A region freed (the program dropped its last handle) during the trace."""

    kind = "free"

    __slots__ = ("region", "index")

    def __init__(self, region, index: int = 0):
        self.region = region
        self.index = index


class PlanNote:
    """A library annotation: densification, format conversion, etc."""

    kind = "note"

    __slots__ = ("category", "info", "index")

    def __init__(self, category: str, info: Dict[str, Any], index: int = 0):
        self.category = category
        self.info = info
        self.index = index


class PlanTrace:
    """The recorded plan of one traced program."""

    def __init__(self, name: str = "trace", deferred: bool = False):
        self.name = name
        self.deferred = bool(deferred)
        self.events: List[object] = []
        # Bound from the tracing runtime (bind()): the advisor replays
        # against the same configuration and machine scope by default.
        self.config = None
        self.scope = None
        self.mem_scale_by_extent: Dict[int, float] = {}
        # The traced function's return value (set by advisor.trace).
        self.result: Any = None
        # Program store -> the plan's own handle to it (see hold()).
        self._held: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    def bind(self, runtime) -> "PlanTrace":
        """Adopt a runtime's config/scope as the default analysis target."""
        self.config = runtime.config
        self.scope = runtime.scope
        self.mem_scale_by_extent = runtime.mem_scale_by_extent
        return self

    # ------------------------------------------------------------------
    # Recording (called from runtime/AutoTask hooks; each is O(1))
    # ------------------------------------------------------------------
    def _append(self, event) -> None:
        event.index = len(self.events)
        self.events.append(event)

    def hold(self, store):
        """The plan's own handle to a program ``store``.

        Recorded ops must keep their stores for the replay, but holding
        the program's objects would keep every region alive for the
        whole trace, so no free would ever be recorded.  The plan keeps
        a copy instead (same region, its own key partition) and frees
        the region when the program drops the original.
        """
        held = self._held.get(store)
        if held is None:
            held = self._held[store] = copy.copy(store)
            weakref.finalize(store, store.region.destroy).atexit = False
        return held

    def record_task_op(
        self,
        name: str,
        args: List[tuple],
        constraints: List[object],
        scalars: Dict[str, Any],
        reduction: Optional[str],
        colors: int,
        cost_fn,
        pointwise=None,
    ) -> PlanOp:
        """Record an AutoTask launch (stores + privileges + constraints)."""
        op = PlanOp(
            name, colors, args=list(args), constraints=list(constraints),
            scalars=dict(scalars), reduction=reduction, cost_fn=cost_fn,
            pointwise=pointwise,
        )
        self._append(op)
        return op

    def record_fill(
        self, region, partition, privilege, value, cost_fn, pointwise=None
    ) -> PlanOp:
        """Record a direct runtime fill (concrete partition, no solve)."""
        op = PlanOp(
            "fill", partition.color_count,
            scalars={"value": value},
            cost_fn=cost_fn,
            requirements=[("out", region, partition, privilege)],
            pointwise=pointwise,
        )
        self._append(op)
        return op

    def record_region(self, region, attached: bool) -> None:
        """Record a region creation (attached = host data provided)."""
        self._append(PlanRegion(region, attached))

    def record_free(self, region) -> None:
        """Record a region's instances being recycled."""
        self._append(PlanFree(region))

    def record_note(self, category: str, **info) -> None:
        """Record a library annotation (densify, convert, ...)."""
        self._append(PlanNote(category, info))

    # ------------------------------------------------------------------
    # Deferred-execution policy
    # ------------------------------------------------------------------
    def deferred_scalar(self, task_name: str) -> float:
        """The placeholder value a skipped scalar reduction returns.

        NaN for norms/dots: any ``float(x) <= tol`` convergence branch
        is False, so iterative solvers run to ``maxiter`` — the
        conservative (maximal) plan.  Counting reductions return 0 so
        ``int(...)`` sizing of two-pass assembly stays well-defined.
        """
        lowered = task_name.lower()
        if "count" in lowered or "nnz" in lowered:
            return 0.0
        return math.nan

    # ------------------------------------------------------------------
    @property
    def ops(self) -> List[PlanOp]:
        """The recorded launches, in program order."""
        return [e for e in self.events if isinstance(e, PlanOp)]

    @property
    def notes(self) -> List[PlanNote]:
        """The recorded library annotations, in program order."""
        return [e for e in self.events if isinstance(e, PlanNote)]

    def stores(self) -> List[object]:
        """Every distinct store appearing in the plan (by identity)."""
        seen: Dict[int, object] = {}
        for op in self.ops:
            for _, store, _ in op.args:
                seen.setdefault(id(store), store)
        return list(seen.values())

    def regions(self) -> List[object]:
        """Every distinct region the recorded launches touch."""
        seen: Dict[int, object] = {}
        for op in self.ops:
            for _, store, _ in op.args:
                seen.setdefault(store.region.uid, store.region)
            for _, region, _, _ in op.requirements or ():
                seen.setdefault(region.uid, region)
        return list(seen.values())

    def stats(self) -> Dict[str, int]:
        """Event counts by kind."""
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "deferred" if self.deferred else "alongside"
        return f"PlanTrace({self.name!r}, {mode}, {self.stats()})"

"""Automatic task fusion: planning and merging for the deferred window.

The paper attributes Legate Sparse's single-GPU losses on GMG and the
quantum workload to per-task launch overhead and names task fusion as
the fix (§6.1); the Diffuse follow-up shows the mechanism: buffer
launches in a *deferred window* and merge compatible runs into one task.
This module is that mechanism: :class:`repro.legion.runtime.Runtime`
buffers fusible :class:`~repro.legion.task.TaskLaunch` objects and, at
each flush, calls :func:`plan_window` to partition the window into
groups and :func:`fuse` to merge each multi-launch group.  The static
advisor (:mod:`repro.analysis.advisor`) replays recorded plans through
a runtime, so its fusion groups are the runtime's own
(``tests/analysis/test_fusion_agreement.py``).

Legality rules (checked structurally, per window):

1. Only launches tagged :class:`~repro.legion.task.Pointwise` with no
   scalar reduction participate; everything else flushes the window.
2. Within a group, every tiled requirement shares identical tile
   boundaries (alignment-compatible partitions: shard *i* of every
   sub-launch touches the same rows) and every launch has the same
   color count.
3. Writes go through tilings only, and a replicated (broadcast) read is
   admitted only for regions no launch in the group writes — otherwise
   per-shard sub-launch ordering would observe partial updates and the
   fused result would not be bitwise identical to the unfused chain.
4. No REDUCE privileges (folds have cross-shard structure).

The fused kernel replays each sub-launch's kernel, in issue order, on
per-shard sub-contexts — the same NumPy ops in the same order per
shard, so numerics are bitwise identical.  Temporaries whose first
access in the group is WRITE_DISCARD and that are read again inside the
group are *elided*: their requirements are marked
:attr:`~repro.legion.task.Requirement.elide` and the runtime skips
instance allocation and staging for them (no coherence traffic, no halo
staging; the temporary never exists as a mapped instance).

Everything here is deterministic and depends only on window *structure*
(names, colors, privileges, partition boundaries, and which arguments
share a region), so plans are memoizable: :func:`signature` renumbers
regions by first occurrence, and two windows with equal signatures get
byte-identical plans — how fusion decisions are memoized per captured
trace (:mod:`repro.legion.tracing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.legion.partition import Replicate, Tiling
from repro.legion.privilege import Privilege
from repro.legion.task import Pointwise, Requirement, ShardContext, TaskLaunch

#: Fused task names longer than this are abbreviated (they appear in
#: traces and profiles; determinism matters, brevity helps).
MAX_FUSED_NAME = 96


@dataclass(frozen=True)
class Access:
    """One requirement of a summarized launch, structurally described."""

    region: object  # Region (kept for uid/name; compared by uid only)
    part_kind: str  # "tile" | "rep" | "other"
    boundaries: Optional[Tuple[int, ...]]
    privilege: Privilege
    # Requirement name within the launch.  The dependence analyzer
    # (repro.analysis.depend) resolves Pointwise.expr loads/out against
    # it; "" (the default, for hand-built summaries) simply leaves the
    # kernel opaque.
    name: str = ""


@dataclass(frozen=True)
class LaunchSummary:
    """What the fusion planner needs to know about one launch."""

    name: str
    colors: int
    fusible: bool
    accesses: Tuple[Access, ...]
    # The launch's Pointwise marker (carrying the optional body IR the
    # dependence analyzer classifies).  None on hand-built summaries —
    # treated as an opaque kernel (task-fusible, never body-merged).
    pointwise: Optional[Pointwise] = None


@dataclass(frozen=True)
class GroupPlan:
    """One planned group: window indices + elided local region ids."""

    indices: Tuple[int, ...]
    elide: frozenset  # local region ids (see local_ids)

    @property
    def fused(self) -> bool:
        return len(self.indices) > 1


def summarize_launch(task: TaskLaunch) -> LaunchSummary:
    """Summarize a concrete :class:`TaskLaunch`."""
    out: List[Access] = []
    ok = task.pointwise is not None and task.reduction is None
    for req in task.requirements:
        partition, privilege = req.partition, req.privilege
        if isinstance(partition, Tiling):
            out.append(
                Access(req.region, "tile", partition.boundaries, privilege, req.name)
            )
        elif isinstance(partition, Replicate):
            out.append(Access(req.region, "rep", None, privilege, req.name))
            if privilege.writes:
                ok = False
        else:
            out.append(Access(req.region, "other", None, privilege, req.name))
            ok = False
    return LaunchSummary(task.name, task.color_count, ok, tuple(out), task.pointwise)


def fusible(task: TaskLaunch) -> bool:
    """Whether a launch may enter the deferred window at all."""
    return summarize_launch(task).fusible


def local_ids(summaries: Sequence[LaunchSummary]) -> Dict[int, int]:
    """Region uid -> first-occurrence index within the window.

    The renumbering is what makes plans structural: two windows that
    touch different regions in the same pattern get the same signature
    and therefore the same (cached) plan.
    """
    ids: Dict[int, int] = {}
    for summary in summaries:
        for acc in summary.accesses:
            uid = acc.region.uid
            if uid not in ids:
                ids[uid] = len(ids)
    return ids


def ir_key(pointwise: Optional[Pointwise]) -> Optional[tuple]:
    """A hashable key of a launch's body IR (None when opaque).

    Part of the window signature: two structurally identical windows
    whose kernels compute different expressions must not share a cached
    merge verdict or generated nest.
    """
    if pointwise is None:
        return None
    statement = pointwise.statement
    stmt_key = statement.key() if statement is not None else None
    return (pointwise.ops, pointwise.expr, pointwise.out, stmt_key)


def signature(summaries: Sequence[LaunchSummary]) -> tuple:
    """A hashable structural key of a window (the memoization key)."""
    ids = local_ids(summaries)
    return tuple(
        (
            s.name,
            s.colors,
            s.fusible,
            ir_key(s.pointwise),
            tuple(
                (
                    ids[a.region.uid], a.part_kind, a.boundaries,
                    a.privilege.value, a.name,
                )
                for a in s.accesses
            ),
        )
        for s in summaries
    )


class _GroupState:
    """Mutable legality state of the group currently being grown."""

    def __init__(self) -> None:
        self.indices: List[int] = []
        self.colors: Optional[int] = None
        self.boundaries: Optional[Tuple[int, ...]] = None
        self.written: set = set()  # local region ids written in group
        self.rep_read: set = set()  # local region ids replicate-read

    def admits(self, summary: LaunchSummary, ids: Dict[int, int]) -> bool:
        if self.colors is not None and summary.colors != self.colors:
            return False
        boundaries = self.boundaries
        for acc in summary.accesses:
            lid = ids[acc.region.uid]
            if acc.part_kind == "tile":
                if boundaries is None:
                    boundaries = acc.boundaries
                elif acc.boundaries != boundaries:
                    return False
            elif acc.part_kind == "rep":
                if lid in self.written:
                    return False
            else:
                return False
            if acc.privilege.writes and lid in self.rep_read:
                return False
        return True

    def add(self, index: int, summary: LaunchSummary, ids: Dict[int, int]) -> None:
        self.indices.append(index)
        self.colors = summary.colors
        for acc in summary.accesses:
            lid = ids[acc.region.uid]
            if acc.part_kind == "tile" and self.boundaries is None:
                self.boundaries = acc.boundaries
            if acc.part_kind == "rep":
                self.rep_read.add(lid)
            if acc.privilege.writes:
                self.written.add(lid)


def _elided(
    group: Sequence[int],
    summaries: Sequence[LaunchSummary],
    ids: Dict[int, int],
) -> frozenset:
    """Local ids of temporaries produced and consumed inside the group:
    first access WRITE_DISCARD, read again by a later sub-launch, never
    replicated."""
    if len(group) <= 1:
        return frozenset()
    first: Dict[int, Tuple[int, Privilege]] = {}
    consumed: set = set()
    replicated: set = set()
    for index in group:
        for acc in summaries[index].accesses:
            lid = ids[acc.region.uid]
            if acc.part_kind == "rep":
                replicated.add(lid)
            if lid not in first:
                first[lid] = (index, acc.privilege)
            elif acc.privilege.reads and index != first[lid][0]:
                consumed.add(lid)
    return frozenset(
        lid
        for lid, (_idx, privilege) in first.items()
        if privilege is Privilege.WRITE_DISCARD
        and lid in consumed
        and lid not in replicated
    )


def plan_window(summaries: Sequence[LaunchSummary]) -> List[GroupPlan]:
    """Partition a window into maximal runs of compatible launches.

    Deterministic and purely structural (see module docs), so callers
    may cache the result keyed by :func:`signature`.
    """
    ids = local_ids(summaries)
    plans: List[GroupPlan] = []
    state = _GroupState()

    def close() -> None:
        nonlocal state
        if state.indices:
            indices = tuple(state.indices)
            plans.append(GroupPlan(indices, _elided(indices, summaries, ids)))
        state = _GroupState()

    for index, summary in enumerate(summaries):
        if not summary.fusible:
            close()
            plans.append(GroupPlan((index,), frozenset()))
            continue
        if not state.admits(summary, ids):
            close()
        if state.admits(summary, ids):
            state.add(index, summary, ids)
        else:
            # Internally inconsistent launch (mixed boundaries within
            # one launch): emit unfused rather than reject the window.
            close()
            plans.append(GroupPlan((index,), frozenset()))
    close()
    return plans


def fused_name(names: Sequence[str]) -> str:
    """The deterministic display name of a fused group."""
    joined = "+".join(names)
    if len(joined) > MAX_FUSED_NAME:
        joined = joined[: MAX_FUSED_NAME - 1] + "…"
    return f"fused{{{len(names)}}}:{joined}"


def fuse(
    group: Sequence[TaskLaunch],
    elide_uids: frozenset = frozenset(),
    nest=None,
) -> TaskLaunch:
    """Merge a planned group into one launch.

    Requirement and scalar names are mangled ``"<i>.<name>"`` by
    sub-launch position; the fused kernel rebuilds each sub-launch's
    :class:`ShardContext` and runs the sub-kernels in issue order per
    shard, so the arithmetic is the exact unfused sequence.

    With ``nest`` (a :class:`repro.distal.codegen.NestSpec` generated
    for a merge-safe group — see :mod:`repro.analysis.depend`), the
    replay kernel and summed per-sub cost are swapped for the nest's
    single generated kernel and one combined cost entry; requirements,
    scalars and the fused name are identical either way, so mapping,
    coherence and the event log cannot tell the two apart.
    """
    if len(group) == 1 and not elide_uids:
        return group[0]
    requirements: List[Requirement] = []
    subs: List[Tuple[TaskLaunch, Dict[str, str]]] = []
    scalars: Dict[str, object] = {}
    for i, task in enumerate(group):
        name_map: Dict[str, str] = {}
        for req in task.requirements:
            mangled = f"{i}.{req.name}"
            name_map[req.name] = mangled
            requirements.append(
                Requirement(
                    mangled, req.region, req.partition, req.privilege,
                    elide=req.region.uid in elide_uids,
                )
            )
        for key, value in task.scalars.items():
            scalars[f"{i}.{key}"] = value
        subs.append((task, name_map))

    def sub_context(ctx: ShardContext, i: int, task: TaskLaunch, name_map):
        arrays = {orig: ctx.arrays[m] for orig, m in name_map.items()}
        rects = {orig: ctx.rects[m] for orig, m in name_map.items()}
        sub_scalars = {key: ctx.scalars[f"{i}.{key}"] for key in task.scalars}
        privileges = {req.name: req.privilege for req in task.requirements}
        return ShardContext(
            ctx.color, ctx.colors, arrays, rects, sub_scalars, ctx.config,
            privileges,
        )

    def kernel(ctx: ShardContext) -> None:
        for i, (task, name_map) in enumerate(subs):
            task.kernel(sub_context(ctx, i, task, name_map))

    def cost(ctx: ShardContext) -> tuple:
        flops = 0.0
        nbytes = 0.0
        for i, (task, name_map) in enumerate(subs):
            f, b = task.cost_fn(sub_context(ctx, i, task, name_map))
            flops += float(f)
            nbytes += float(b)
        return flops, nbytes

    ops: List[str] = []
    for task in group:
        ops.extend(task.pointwise.ops if task.pointwise else (task.name,))
    if any(task.kernel is None for task in group):
        # Kernel-less sub-launches (the advisor's plan replay): the
        # fused launch is kernel-less too, merged nest or not.
        kernel = None
    elif nest is not None:
        kernel = nest.kernel
    return TaskLaunch(
        name=fused_name([task.name for task in group]),
        requirements=requirements,
        kernel=kernel,
        cost_fn=nest.cost if nest is not None else cost,
        scalars=scalars,
        pointwise=Pointwise(tuple(ops)),
    )

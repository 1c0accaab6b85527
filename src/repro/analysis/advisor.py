"""Static plan advisor: ahead-of-execution analysis of sparse programs.

The dynamic half of :mod:`repro.analysis` validates an execution
*after* it ran, from its event log.  This module is the static half: it
takes a :class:`~repro.analysis.plan.PlanTrace` — recorded by abstract
interpretation of the program in deferred mode, or alongside a real run
— and reports what the runtime would do on a given machine, before any
kernel executes.

:func:`analyze` replays the plan through a fresh
:class:`~repro.legion.runtime.Runtime` on the target scope.  Every
recorded launch goes through :func:`repro.constraints.task.launch_task`,
the same solve -> ``TaskLaunch`` -> :meth:`Runtime.launch` path
:meth:`AutoTask.execute` runs, with the kernel body skipped.  Mapping,
coherence staging, folds, the fusion window, merged-nest costing and
cost functions all run for real; recorded sync points flush the window
and recorded frees recycle instances.  The report is read off that
runtime:

* **partition choices** per launch, from the solved requirements;
* **communication volume** per channel class (intra-memory / NVLink /
  NIC), from the copy records of the :class:`~repro.analysis.events.EventLog`
  attached to the replay;
* **per-memory peak footprint**, from the replay's instance manager;
* **kernel time** (``profiler.kernel_seconds``) and the **fusion
  groups** with their kernel-merge verdicts (``fusion_log``).

On top of the replay it runs a lint battery: implicit densification,
format-conversion round-trips, broadcast-inducing constraints, capacity
overflow and spill, dead writes, redundant staging, fusion and
kernel-merge verdicts, and the resilience pass.

Because the advisor runs the runtime itself, its copies, peaks and
kernel time equal those of a real run of the same program
(``tests/analysis/test_advisor_agreement.py``).

Entry points: :func:`trace` / :func:`analyze` / :func:`advise` as a
library, ``python -m repro.analysis advise prog.py`` as a CLI.

Unlike the rest of :mod:`repro.analysis`, this module sits *above* the
runtime layers and imports them freely — which is why the package
``__init__`` only exposes it lazily (the runtime imports the package).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.depend import REASONS
from repro.analysis.events import CopyEvent, EventLog
from repro.analysis.formatsel import FormatAdvice, advise_formats
from repro.analysis.plan import PlanFree, PlanNote, PlanOp, PlanRegion, PlanTrace
from repro.constraints.solver import ConstraintError
from repro.constraints.task import launch_task
from repro.legion.exceptions import OutOfMemoryError
from repro.legion.partition import (
    ExplicitPartition,
    ImageByCoordinate,
    ImageByRange,
    Replicate,
    Tiling,
)
from repro.legion.privilege import Privilege
from repro.legion.runtime import Runtime
from repro.legion.task import Requirement, TaskLaunch
from repro.machine import (
    Machine,
    MachineScope,
    MemoryKind,
    ProcessorKind,
    laptop,
    summit,
)


# ----------------------------------------------------------------------
# Configuration and report types
# ----------------------------------------------------------------------
@dataclass
class AdvisorConfig:
    """Lint thresholds (all byte thresholds compare *scaled* bytes)."""

    # Implicit densification: always reported; escalates to an error
    # when the materialized dense array reaches this many bytes.
    densify_error_bytes: int = 1 << 30
    # Replicated (broadcast) read operands are flagged once the extra
    # volume (operand bytes x (colors - 1)) reaches this threshold.
    broadcast_warn_bytes: int = 8 << 20
    # A fragment staged into the same memory this many times or more is
    # reported as redundant staging (data ping-pong).
    restage_warn_count: int = 4
    restage_warn_bytes: int = 1 << 20
    # Peak footprint at or above this fraction of a memory's budget
    # (capacity - reservation) is flagged even when it fits.
    pressure_warn_fraction: float = 0.85
    # Keep at most this many findings per rule (volume guard).
    max_findings_per_rule: int = 16
    # Auto-format pass (repro.analysis.formatsel): ranked per-operand
    # ELL / SELL-C-sigma / HYB recommendations plus the format lints.
    # Off by default; ``advise --autoformat`` turns it on, and then an
    # unamortized conversion is an *error* (it gates CI).
    autoformat: bool = False


@dataclass(frozen=True)
class Finding:
    """One lint result; ``error`` findings make the CLI exit non-zero."""

    severity: str  # "error" | "warning" | "note"
    rule: str
    message: str

    def format(self) -> str:
        return f"[{self.severity}] {self.rule}: {self.message}"


@dataclass
class OpReport:
    """Aggregated launches with identical name + partition choices."""

    name: str
    count: int
    colors: int
    partitions: Dict[str, str]  # arg name -> partition description


@dataclass
class MemoryReport:
    """Peak footprint of one memory in the replay on the target machine."""

    memory: str
    kind: str
    node: int
    peak_bytes: int
    capacity: int
    reserved_bytes: int

    @property
    def budget(self) -> int:
        return max(self.capacity - self.reserved_bytes, 0)

    @property
    def pressure(self) -> float:
        return self.peak_bytes / self.budget if self.budget > 0 else float("inf")


@dataclass
class Advice:
    """The advisor's full static report for one traced program."""

    plan_name: str
    machine: str
    processors: str
    launches: int
    regions: int
    ops: List[OpReport] = field(default_factory=list)
    traffic: Dict[str, Dict[str, float]] = field(default_factory=dict)
    memories: List[MemoryReport] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    est_kernel_seconds: float = 0.0
    est_copy_seconds: float = 0.0
    comm_scale: float = 1.0
    # The replay's event log (see _ReplayLog): what the agreement tests
    # compare against a real run's recorded log.
    predicted: EventLog = field(default_factory=EventLog)
    # The replay runtime's ``fusion_log``: (sub-launch names, elided
    # temporaries, kernel-fusion verdict label) per group its deferred
    # window formed, in execution order.  The label is
    # ``repro.analysis.depend.verdict_label`` — "single", "merged" or
    # "replay:<reason>".  Empty when the analyzed config has fusion
    # disabled.
    fusion_groups: List[Tuple[Tuple[str, ...], int, str]] = field(
        default_factory=list
    )
    # Ranked per-operand format recommendations from the static
    # auto-format pass (empty unless AdvisorConfig.autoformat is on).
    format_advice: List[FormatAdvice] = field(default_factory=list)
    # Process-wide codegen reuse counters
    # (:func:`repro.distal.codegen.compile_cache_stats`), reported next
    # to the runtime's fast-path cache counters so a profile/advise
    # pair shows host-side caching end to end.
    caches: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def to_dict(self) -> dict:
        """JSON-ready summary (``--json``)."""
        return {
            "plan": self.plan_name,
            "machine": self.machine,
            "processors": self.processors,
            "launches": self.launches,
            "regions": self.regions,
            "ops": [asdict(op) for op in self.ops],
            "traffic": self.traffic,
            "memories": [
                {**asdict(m), "pressure": m.pressure} for m in self.memories
            ],
            "findings": [asdict(f) for f in self.findings],
            "est_kernel_seconds": self.est_kernel_seconds,
            "est_copy_seconds": self.est_copy_seconds,
            "comm_scale": self.comm_scale,
            "fusion_groups": [
                {"names": list(names), "elided": elided, "verdict": verdict}
                for names, elided, verdict in self.fusion_groups
            ],
            "format_advice": [fa.to_dict() for fa in self.format_advice],
            "caches": self.caches,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }

    def format_text(self) -> str:
        """Human-readable report (the default CLI output)."""
        lines = [
            f"advisor report: {self.plan_name}",
            f"machine: {self.machine}",
            f"scope: {self.processors}",
            f"plan: {self.launches} launches, {self.regions} regions",
            "",
            "partition choices:",
        ]
        for op in self.ops:
            lines.append(f"  {op.name} x{op.count}  colors={op.colors}")
            if op.partitions:
                parts = "  ".join(
                    f"{arg}:{desc}" for arg, desc in op.partitions.items()
                )
                lines.append(f"      {parts}")
        lines.append("")
        lines.append("predicted traffic (per channel class):")
        if self.traffic:
            for cls in ("intra", "nvlink", "nic"):
                if cls not in self.traffic:
                    continue
                t = self.traffic[cls]
                lines.append(
                    f"  {cls:7s} {int(t['copies']):6d} copies  "
                    f"{_fmt_bytes(t['bytes'])}  "
                    f"(x{self.comm_scale:g} scaled: "
                    f"{_fmt_bytes(t['scaled_bytes'])})"
                )
        else:
            lines.append("  (no inter-memory copies predicted)")
        lines.append("")
        lines.append("predicted peak memory:")
        for m in self.memories:
            lines.append(
                f"  {m.memory:16s} {_fmt_bytes(m.peak_bytes)} of "
                f"{_fmt_bytes(m.budget)} budget "
                f"({_fmt_bytes(m.capacity)} - {_fmt_bytes(m.reserved_bytes)} "
                f"reserved), pressure {m.pressure:.0%}"
            )
        lines.append("")
        lines.append(
            f"rough time estimate: kernels {self.est_kernel_seconds:.3e}s + "
            f"copies {self.est_copy_seconds:.3e}s"
        )
        lines.append("")
        compile_stats = self.caches.get("compile")
        if compile_stats:
            lines.append(
                "kernel compile cache: "
                f"{int(compile_stats.get('hits', 0))} hits / "
                f"{int(compile_stats.get('misses', 0))} misses"
            )
            lines.append("")
        merged = [g for g in self.fusion_groups if len(g[0]) > 1]
        if merged:
            away = sum(len(names) - 1 for names, _, _ in merged)
            elided = sum(e for _, e, _ in merged)
            nests = sum(1 for _, _, v in merged if v == "merged")
            lines.append(
                f"task fusion: {len(merged)} fused group(s) predicted "
                f"({away} launches merged away, {elided} temporaries "
                f"elided; {nests} merge into a single loop nest)"
            )
            lines.append("")
        if self.format_advice:
            lines.append("format advice (static auto-format pass):")
            for fa in self.format_advice:
                lines.append(
                    f"  {fa.operand} ({fa.current_fmt}, "
                    f"{fa.rows}x{fa.cols}, nnz {fa.nnz}, row mean "
                    f"{fa.row_mean:.1f} / max {fa.row_max}) over "
                    f"{fa.ops_observed} SpMV launch(es):"
                )
                for cand in fa.decision.candidates:
                    tags = []
                    if cand.fmt == fa.recommended_fmt:
                        tags.append("<- recommended")
                    if cand.fmt == fa.current_fmt:
                        tags.append("(current)")
                    if not cand.bitwise_safe:
                        tags.append("(not bitwise-safe)")
                    be = (
                        f"break-even {cand.break_even_ops:g} ops"
                        if cand.fmt != fa.current_fmt
                        else ""
                    )
                    lines.append(
                        f"    {cand.fmt:5s} {cand.op_seconds:.3e}s/op  "
                        f"{be:22s} {' '.join(tags)}".rstrip()
                    )
            lines.append("")
        if self.findings:
            lines.append("findings:")
            for f in self.findings:
                lines.append(f"  {f.format()}")
        else:
            lines.append("findings: none")
        lines.append(
            f"summary: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.findings) - len(self.errors) - len(self.warnings)} "
            f"note(s)"
        )
        return "\n".join(lines)


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0


_PARTITION_LABELS = (
    (Replicate, "replicate"),
    (Tiling, "tile"),
    (ImageByRange, "image(range)"),
    (ImageByCoordinate, "image(coord)"),
    (ExplicitPartition, "explicit"),
)


def describe_partition(partition) -> str:
    """A short human-readable label for a partition choice."""
    for cls, label in _PARTITION_LABELS:
        if isinstance(partition, cls):
            return f"{label} x{partition.color_count}"
    return type(partition).__name__


# ----------------------------------------------------------------------
# The replay: the plan through a fresh runtime, kernels skipped
# ----------------------------------------------------------------------
class _ReplayLog(EventLog):
    """The replay's event log, lean enough to keep in every report.

    Task, copy, fold and allreduce events are kept in full: they carry
    the traffic the report and the agreement tests read.  Shards are
    only counted (``stats()`` includes them); their accesses would
    repeat the solved requirements.
    """

    shards = 0

    def record_shard(self, *args, **kwargs) -> None:
        self._next()
        self.shards += 1

    def stats(self) -> Dict[str, int]:
        out = super().stats()
        if self.shards:
            out["shard"] = self.shards
        return out


_Launches = List[Tuple[PlanOp, List[Requirement]]]


def _replay(plan: PlanTrace, scope: MachineScope, config):
    """Run ``plan`` through a fresh runtime with kernel bodies skipped.

    Returns the runtime, ``(op, solved requirements)`` per replayed
    launch, and the error that stopped the replay (where a real run
    would stop too) or None.  Store key partitions start empty, as at
    trace start, and are restored afterwards; region data is never
    written.  So repeated replays of one plan are identical.
    """
    # Validation's online stale-read check costs O(P^2) per read and
    # poisons discarded data; the timeline is never read; injected
    # faults would make the report a function of the fault schedule.
    rt = Runtime(
        scope, replace(config, validate=False, profile=False, chaos=None)
    )
    rt.event_log = _ReplayLog(name=f"advise:{plan.name}")
    rt.mem_scale_by_extent = plan.mem_scale_by_extent
    launches: _Launches = []
    error = None
    # Regions created before the trace began: host-resident (attach).
    created = {e.region.uid for e in plan.events if isinstance(e, PlanRegion)}
    for region in plan.regions():
        if region.uid not in created:
            rt.register_region(region, attached=True)
    stores = plan.stores()
    saved = [(store, store.key_partition) for store in stores]
    for store in stores:
        store.key_partition = None
    try:
        for event in plan.events:
            if isinstance(event, PlanOp):
                launches.append((event, _launch(rt, event)))
            elif isinstance(event, PlanRegion):
                rt.register_region(event.region, event.attached)
            elif isinstance(event, PlanFree):
                rt.free_region(event.region)
            elif isinstance(event, PlanNote) and event.category == "sync":
                rt.flush_window()
        rt.flush_window()
    except (OutOfMemoryError, ConstraintError) as exc:
        error = exc
    finally:
        for store, key in saved:
            store.key_partition = key
    return rt, launches, error


def _launch(rt: Runtime, op: PlanOp) -> List[Requirement]:
    """Issue one recorded op, kernel-less; returns its requirements."""
    if op.requirements is None:
        requirements, _ = launch_task(
            rt, op.name, op.args, op.constraints, op.colors, None,
            op.cost_fn, op.scalars, op.reduction, op.pointwise,
        )
        return requirements
    # A fill: concrete requirements, no solve, no key-partition update.
    requirements = [Requirement(*req) for req in op.requirements]
    rt.launch(
        TaskLaunch(
            op.name, requirements, None, op.cost_fn, dict(op.scalars),
            pointwise=op.pointwise,
        )
    )
    return requirements


def _mem_name(memory) -> str:
    kind = "fb" if memory.kind == MemoryKind.FRAMEBUFFER else "sysmem"
    return f"{kind}[{memory.uid}]@node{memory.node}"


def _launch_colors(requirements) -> int:
    return max((req.partition.color_count for req in requirements), default=1)


class _Findings:
    """The lint battery's output, capped per rule."""

    def __init__(self, options: AdvisorConfig):
        self.options = options
        self.items: List[Finding] = []
        self._counts: Counter = Counter()

    def add(self, severity: str, rule: str, message: str) -> None:
        self._counts[rule] += 1
        if self._counts[rule] == self.options.max_findings_per_rule + 1:
            self.items.append(Finding("note", rule, "further findings suppressed"))
        if self._counts[rule] <= self.options.max_findings_per_rule:
            self.items.append(Finding(severity, rule, message))


# ----------------------------------------------------------------------
# Lint passes over the plan and its replay
# ----------------------------------------------------------------------
def _lint_broadcast(out: _Findings, launches: _Launches, config) -> None:
    """Read operands replicated to every shard of a multi-shard launch."""
    for op, requirements in launches:
        colors = _launch_colors(requirements)
        if op.requirements is not None or colors <= 1:
            continue
        for req in requirements:
            if not isinstance(req.partition, Replicate) or not req.privilege.reads:
                continue
            region = req.region
            extra = region.nbytes * (colors - 1) * config.data_scale
            if extra >= out.options.broadcast_warn_bytes:
                out.add(
                    "warning", "broadcast",
                    f"op {op.name!r}: argument {req.name!r} "
                    f"(region {region.name!r}, "
                    f"{_fmt_bytes(region.nbytes)}) is replicated to "
                    f"{colors} shards — {_fmt_bytes(extra)} of extra "
                    f"transfer/footprint; consider an alignment or image "
                    f"constraint instead",
                )


def _lint_notes(out: _Findings, plan: PlanTrace, config) -> None:
    """Densification and conversion-churn findings from library notes."""
    options = out.options
    scale = config.data_scale
    ancestry: Dict[int, List[str]] = {}  # object id -> format chain
    seen_conversions: Counter = Counter()
    for note in plan.notes:
        info = note.info
        if note.category == "densify":
            nbytes = float(info.get("nbytes", 0)) * scale
            severity = (
                "error" if nbytes >= options.densify_error_bytes else "warning"
            )
            out.add(
                severity, "densify",
                f"{info.get('where', 'operation')} materializes a dense "
                f"{info.get('shape')} array ({_fmt_bytes(nbytes)} scaled) "
                f"from a {info.get('fmt', '?')} matrix — implicit "
                f"densification becomes allocation + broadcast at scale",
            )
        elif note.category == "convert":
            src_fmt = info.get("src_fmt", "?")
            dst_fmt = info.get("dst_fmt", "?")
            src_id = info.get("src_id")
            dst_id = info.get("dst_id")
            chain = ancestry.get(src_id, [src_fmt]) + [dst_fmt]
            if dst_id is not None:
                ancestry[dst_id] = chain
            if len(chain) >= 3 and chain[-1] in chain[:-1]:
                out.add(
                    "warning", "convert-roundtrip",
                    f"format round-trip {' -> '.join(chain)} "
                    f"({_fmt_bytes(float(info.get('nbytes', 0)) * scale)} "
                    f"scaled) — each hop is a full conversion kernel/sort",
                )
            seen_conversions[(src_id, dst_fmt)] += 1
            if seen_conversions[(src_id, dst_fmt)] == 2:
                out.add(
                    "warning", "convert-repeated",
                    f"the same matrix is converted {src_fmt} -> {dst_fmt} "
                    f"repeatedly — hoist the conversion out of the loop",
                )


def _lint_dead_writes(out: _Findings, plan: PlanTrace) -> None:
    """WRITE_DISCARD over an unread previous write = dead computation."""
    pending: Dict[int, Tuple[int, str]] = {}  # region uid -> (op idx, name)
    for idx, op in enumerate(plan.ops):
        accesses: List[Tuple[object, Privilege]] = []
        if op.requirements is not None:
            accesses = [(region, priv) for _, region, _, priv in op.requirements]
        else:
            accesses = [(store.region, priv) for _, store, priv in op.args]
        # Reads first (WRITE observes previous contents; REDUCE
        # accumulates onto them), then writes.
        for region, priv in accesses:
            if priv.reads or priv == Privilege.REDUCE:
                pending.pop(region.uid, None)
        for region, priv in accesses:
            if not priv.writes or priv == Privilege.REDUCE:
                continue
            if priv == Privilege.WRITE_DISCARD and region.uid in pending:
                prev_idx, prev_name = pending[region.uid]
                out.add(
                    "warning", "dead-write",
                    f"op {op.name!r} (launch #{idx}) discards region "
                    f"{region.name!r} written by {prev_name!r} "
                    f"(launch #{prev_idx}) that nothing read — the earlier "
                    f"write (and its copies) is dead",
                )
            if priv in (Privilege.WRITE, Privilege.WRITE_DISCARD):
                pending[region.uid] = (idx, op.name)


def _lint_restaging(out: _Findings, log: EventLog, config) -> None:
    """The same fragment staged into the same memory many times."""
    options = out.options
    counts: Counter = Counter()
    volumes: Counter = Counter()
    names: Dict[tuple, str] = {}
    for ev in log.events:
        if not isinstance(ev, CopyEvent) or ev.why != "stage":
            continue
        key = (ev.region, ev.rect, ev.dst_memory)
        counts[key] += 1
        volumes[key] += ev.nbytes
        names[key] = ev.region_name
    for key, count in counts.most_common():
        if count < options.restage_warn_count:
            break
        total = volumes[key] * config.effective_comm_scale
        if total < options.restage_warn_bytes:
            continue
        region, rect, dst = key
        out.add(
            "note", "restage",
            f"region {names[key]!r} fragment {rect} staged into memory "
            f"{dst} {count} times ({_fmt_bytes(total)} scaled total) — "
            f"it is invalidated between uses (writer/reader ping-pong)",
        )


def _lint_stop(out: _Findings, plan: PlanTrace, launches: _Launches, exc, config) -> None:
    """The overflow or unsolvable constraints that stopped the replay."""
    if isinstance(exc, OutOfMemoryError):
        hint = "" if config.spill else " (config.spill would degrade this to spill traffic)"
        out.add("error", "capacity", f"{exc.describe()}{hint}; the replay stops at this launch")
    elif exc is not None:
        op = plan.ops[len(launches)]  # solving raised: it never launched
        out.add(
            "error", "constraints",
            f"op {op.name!r}: constraint solving failed: {exc}; the replay stops here",
        )


def _lint_capacity(out: _Findings, rt: Runtime) -> None:
    """Spill-policy relief and high memory pressure (warnings)."""
    prof = rt.profiler
    if prof.evictions or prof.spills:
        # The run completes but pays eviction/spill traffic — a
        # warning, not an error.
        out.add(
            "warning", "spill",
            f"memory overflows its budget; the runtime's spill policy "
            f"evicts {prof.evictions} clean instance(s) "
            f"({_fmt_bytes(prof.eviction_bytes)}) and spills "
            f"{prof.spills} dirty piece(s) "
            f"({_fmt_bytes(prof.spill_bytes)}) to system memory",
        )
    threshold = out.options.pressure_warn_fraction
    for memory in rt.machine.memories:
        peak = rt.instances.peak_bytes(memory)
        budget = memory.capacity - rt.instances.state(memory).reserved_bytes
        if peak > 0 and budget > 0 and peak / budget >= threshold:
            out.add(
                "warning", "memory-pressure",
                f"memory {_mem_name(memory)} peaks at {_fmt_bytes(peak)} of "
                f"{_fmt_bytes(budget)} budget ({peak / budget:.0%}) — "
                f"allocator churn territory (threshold {threshold:.0%})",
            )


def _lint_fusion(out: _Findings, fusion_log, config) -> None:
    """Fused groups and their kernel-merge verdicts, from ``fusion_log``.

    ``fusible`` (note): launches the window fuses, or would with
    ``config.fusion`` on.  ``kernel-merge-applied`` (note): the group
    runs as one loop nest.  ``kernel-merge-blocked`` (warning): the
    dependence analyzer proved the group must replay its sub-kernels,
    naming the rule.  With ``config.kernel_fusion`` off, no merge
    findings (nothing to act on per group).
    """
    verb = (
        "will fuse" if config.fusion
        else "would fuse (config.fusion is disabled)"
    )
    for names, elided, _verdict in fusion_log:
        if len(names) <= 1:
            continue
        extra = f", eliding {elided} temporar{'y' if elided == 1 else 'ies'}" if elided else ""
        out.add(
            "note", "fusible",
            f"{len(names)} launches {verb} into one task"
            f"{extra}: {' + '.join(names)}",
        )
    if not config.kernel_fusion:
        return
    for names, _elided, verdict in fusion_log:
        if len(names) <= 1:
            continue
        joined = " + ".join(names)
        if verdict == "merged":
            out.add(
                "note", "kernel-merge-applied",
                f"{len(names)} kernels merge into one loop nest ({joined})",
            )
        else:
            reason = verdict.partition(":")[2]
            out.add(
                "warning", "kernel-merge-blocked",
                f"group ({joined}) replays sub-kernels: "
                f"[{reason}] {REASONS.get(reason, '')}".rstrip(),
            )


def _lint_resilience(out: _Findings, rt: Runtime, config) -> None:
    """The resilience pass: predicted checkpoint cost and fault lints.

    Reads the chaos config the plan would run under and the replay's
    coherence (the written sets an epoch would snapshot):

    * ``unprotected-run`` (warning) — losses scheduled with
      ``checkpoint_every=0``: no epoch bounds the journal, so a loss
      replays the whole run.
    * ``under-replicated`` (warning) — node losses with a single
      checkpoint store (``ckpt_replicas=1``: losing node 0 is
      unconditionally fatal), or more replicas requested than the
      machine has sysmem fault domains.
    * ``resilience`` (note) — predicted snapshot + replication bytes
      per checkpoint epoch and the estimated worst-case recovery cost
      (detection latency + restart delay + replica restore + replay of
      a full epoch's launches).
    """
    chaos = config.chaos
    if chaos is None:
        return
    machine = rt.machine
    domains = len(
        {m.node for m in machine.memories if m.kind == MemoryKind.SYSMEM}
    )
    replicas = chaos.ckpt_replicas
    effective = min(replicas, domains) if domains else 0
    node_losses = [l for l in chaos.losses if l.kind == "node"]

    # Predicted per-epoch snapshot: the written volume at end of plan
    # (what a steady-state epoch must protect), scaled like the
    # runtime's checkpoint copies.
    snap_bytes = rt.written_bytes() * config.effective_comm_scale
    repl_bytes = snap_bytes * max(effective - 1, 0)

    if chaos.losses and chaos.checkpoint_every == 0:
        out.add(
            "warning", "unprotected-run",
            f"{len(chaos.losses)} loss(es) scheduled with "
            f"checkpoint_every=0: no checkpoint epoch bounds the "
            f"journal, so any loss replays the entire run (and at "
            f"ckpt_replicas=1 a node-0 loss is fatal with nothing "
            f"snapshotted at all)",
        )
    if node_losses and replicas == 1:
        out.add(
            "warning", "under-replicated",
            f"{len(node_losses)} node loss(es) scheduled with "
            f"ckpt_replicas=1: the single node-0 checkpoint store is a "
            f"single point of failure — losing its node is "
            f"unconditionally fatal; set ckpt_replicas >= 2 to survive "
            f"store loss",
        )
    if replicas > domains > 0:
        out.add(
            "warning", "under-replicated",
            f"ckpt_replicas={replicas} exceeds the machine's {domains} "
            f"sysmem fault domain(s); effective replication is only "
            f"{effective}",
        )
    if chaos.checkpoint_every > 0 or chaos.losses:
        detect = chaos.heartbeat_period + chaos.detection_timeout
        launches = max(rt.profiler.tasks_launched, 1)
        # Recovery replay re-times kernels and launch overhead (it skips
        # only the numerics), so a replayed launch costs about what the
        # original did.
        per_launch = (
            rt.profiler.kernel_seconds / launches + config.launch_overhead
        )
        epoch = chaos.checkpoint_every or launches
        nic_bw = machine.config.nic_bandwidth
        restore = snap_bytes / nic_bw if nic_bw else 0.0
        worst = detect + chaos.recovery_delay + restore + epoch * per_launch
        out.add(
            "note", "resilience",
            f"checkpoint epoch snapshots ~{_fmt_bytes(int(snap_bytes))} "
            f"x{max(effective, 1)} replica store(s) "
            f"(~{_fmt_bytes(int(repl_bytes))} replication traffic); "
            f"worst-case recovery ~{worst:.3e}s (detection {detect:.1e}s "
            f"+ restart {chaos.recovery_delay:.1e}s + replica restore + "
            f"replay of <= {epoch} launches)",
        )


def _traffic(log: EventLog, machine: Machine, config) -> Dict[str, Dict[str, float]]:
    """Copies and bytes per channel class, from the log's copy records."""
    node = {m.uid: m.node for m in machine.memories}
    traffic: Dict[str, Dict[str, float]] = {}
    for ev in log.events:
        if not isinstance(ev, CopyEvent):
            continue
        if ev.src_memory == ev.dst_memory:
            cls = "intra"
        elif node[ev.src_memory] == node[ev.dst_memory]:
            cls = "nvlink"
        else:
            cls = "nic"
        entry = traffic.setdefault(
            cls, {"copies": 0, "bytes": 0.0, "scaled_bytes": 0.0}
        )
        entry["copies"] += 1
        entry["bytes"] += ev.nbytes
        entry["scaled_bytes"] += ev.nbytes * config.effective_comm_scale
    return traffic


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def parse_machine(spec: str) -> Machine:
    """Parse a CLI machine spec: ``summit:N``, ``summit``, ``laptop``."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "laptop":
        return laptop()
    if name == "summit":
        nodes = int(arg) if arg else 1
        return summit(nodes=nodes)
    raise ValueError(
        f"unknown machine {spec!r} (expected laptop or summit[:nodes])"
    )


_KINDS = {
    "gpu": ProcessorKind.GPU,
    "cpu": ProcessorKind.CPU_SOCKET,
    "core": ProcessorKind.CPU_CORE,
}


def _make_scope(machine, kind, procs, per_node) -> MachineScope:
    proc_kind = _KINDS[kind] if isinstance(kind, str) else kind
    if proc_kind is None:
        proc_kind = ProcessorKind.GPU
    available = machine.procs(proc_kind)
    count = procs if procs is not None else len(available)
    return machine.scope(proc_kind, count, per_node)


def trace(
    fn,
    *args,
    machine: Optional[Machine] = None,
    kind=ProcessorKind.GPU,
    procs: Optional[int] = None,
    per_node: Optional[int] = None,
    config=None,
    deferred: bool = True,
    name: Optional[str] = None,
    **kwargs,
) -> PlanTrace:
    """Trace ``fn`` into a plan against a machine, without executing
    kernels (``deferred=True``) or alongside real execution."""
    from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope

    machine = machine or laptop()
    scope = _make_scope(machine, kind, procs, per_node)
    # Alongside mode pairs the plan with a real validated run whose
    # event log the copy-agreement tests compare per-op — fusion stays
    # off there so the comparison is launch-for-launch.  Deferred mode
    # analyzes the default (fusion-enabled) runtime.
    config = config or RuntimeConfig.legate(
        validate=not deferred, fusion=deferred
    )
    runtime = Runtime(scope, config)
    plan = PlanTrace(
        name=name or getattr(fn, "__name__", "trace"), deferred=deferred
    )
    plan.bind(runtime)
    runtime.plan_trace = plan
    try:
        with runtime_scope(runtime):
            plan.result = fn(*args, **kwargs)
    finally:
        runtime.plan_trace = None
    return plan


def analyze(
    plan: PlanTrace,
    scope: Optional[MachineScope] = None,
    config=None,
    options: Optional[AdvisorConfig] = None,
) -> Advice:
    """Replay the plan through a runtime and run the lint battery."""
    from repro.distal.codegen import compile_cache_stats  # import-heavy
    scope = scope or plan.scope
    config = config or plan.config
    if scope is None or config is None:
        raise ValueError(
            "plan is unbound: pass scope= and config= or trace via "
            "advisor.trace()"
        )
    options = options or AdvisorConfig()
    rt, launches, error = _replay(plan, scope, config)
    # With fusion off the runtime forms no groups; the fusion lints
    # still report the groups a fusion-enabled run would form.
    fusion_log = (
        rt.fusion_log if config.fusion
        else _replay(plan, scope, replace(config, fusion=True))[0].fusion_log
    )
    out = _Findings(options)
    _lint_stop(out, plan, launches, error, config)
    _lint_broadcast(out, launches, config)
    _lint_notes(out, plan, config)
    _lint_dead_writes(out, plan)
    _lint_restaging(out, rt.event_log, config)
    _lint_capacity(out, rt)
    _lint_fusion(out, fusion_log, config)
    _lint_resilience(out, rt, config)

    format_advice: List[FormatAdvice] = []
    if options.autoformat:
        # The pass is a CI gate: unamortized conversions escalate to
        # errors (autoformat_on) and set the CLI exit code.
        format_advice, format_lints = advise_formats(
            plan, scope, config, autoformat_on=True
        )
        for severity, rule, message in format_lints:
            out.add(severity, rule, message)

    machine = scope.machine
    cfg = machine.config
    instances = rt.instances
    memories = [
        MemoryReport(
            _mem_name(m), m.kind.value, m.node, int(instances.peak_bytes(m)),
            int(m.capacity), int(instances.state(m).reserved_bytes),
        )
        for m in machine.memories
        if instances.peak_bytes(m) > 0
    ]

    traffic = _traffic(rt.event_log, machine, config)
    class_bandwidth = {
        "intra": cfg.intra_memory_bandwidth,
        "nvlink": cfg.nvlink_bandwidth,
        "nic": cfg.nic_bandwidth,
    }
    est_copy = sum(
        entry["scaled_bytes"] / class_bandwidth[cls]
        for cls, entry in traffic.items()
    )

    ops: Dict[tuple, OpReport] = {}
    for op, requirements in launches:
        colors = _launch_colors(requirements)
        partitions = {
            req.name: describe_partition(req.partition) for req in requirements
        }
        key = (op.name, colors, tuple(partitions.items()))
        ops.setdefault(key, OpReport(op.name, 0, colors, partitions)).count += 1

    severity_rank = {"error": 0, "warning": 1, "note": 2}
    nodes = {p.node for p in scope.processors}
    return Advice(
        plan_name=plan.name,
        machine=f"{cfg.nodes} node(s), {len(machine.processors)} processors",
        processors=(
            f"{len(scope.processors)} x {scope.kind.value} "
            f"across {len(nodes)} node(s)"
        ),
        launches=len(plan.ops),
        regions=sum(1 for e in plan.events if isinstance(e, PlanRegion)),
        ops=sorted(ops.values(), key=lambda r: -r.count),
        traffic=traffic,
        memories=memories,
        findings=sorted(
            out.items, key=lambda f: severity_rank.get(f.severity, 3)
        ),
        est_kernel_seconds=rt.profiler.kernel_seconds,
        est_copy_seconds=est_copy,
        comm_scale=config.effective_comm_scale,
        predicted=rt.event_log,
        fusion_groups=list(rt.fusion_log),
        format_advice=format_advice,
        caches={"compile": compile_cache_stats()},
    )


def advise(
    fn,
    *args,
    machine: Optional[Machine] = None,
    kind=ProcessorKind.GPU,
    procs: Optional[int] = None,
    per_node: Optional[int] = None,
    config=None,
    options: Optional[AdvisorConfig] = None,
    **kwargs,
) -> Advice:
    """Trace ``fn`` in deferred mode and analyze it in one call."""
    plan = trace(
        fn, *args, machine=machine, kind=kind, procs=procs,
        per_node=per_node, config=config, deferred=True, **kwargs
    )
    return analyze(plan, options=options)

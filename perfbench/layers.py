"""Layer map: which entry points belong to which ``src/repro`` layer, and
the per-layer metrics the traced run reports.

Layers are named after the modules they wrap.  Host times are self time
(a span minus the part its child spans cover), so each layer is charged
for its own code only; whatever no span covers is reported as
``other.host_s`` (benchmark glue, NumPy calls made directly by the
harness).  Counts come from each runtime's ``Profiler``, modeled
critical-path time from its ``Timeline``.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from typing import Dict, Iterable, List

from perfbench.serving import RATES, REFUSALS
from perfbench.spans import Tracer

# Arithmetic dunders wrapped on array and matrix classes (operators are
# the main entry points of the SciPy/NumPy-style APIs).
OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__",
    "__matmul__", "__rmatmul__", "__iadd__", "__isub__", "__imul__",
    "__itruediv__", "__getitem__", "__setitem__", "__float__",
)

# Host-time layers, in report order.
HOST_LAYERS = (
    "legion.coherence", "legion.instance", "legion.runtime", "constraints",
    "distal", "core", "numeric", "apps", "serve.scheduler", "serve.batcher",
    "serve.cache", "serve.service", "analysis.advisor",
)
# Layers whose span count is reported as ``<layer>.calls``.
CALL_LAYERS = ("legion.coherence", "legion.instance", "constraints")

HOST_PHASES = ("window-flush", "dependence", "mapping", "constraint-solve", "event-advance")
CP_KINDS = ("task", "copy", "issue", "allreduce", "wait", "retry")


def _repro_modules() -> List[object]:
    return [m for name, m in list(sys.modules.items()) if name.startswith("repro") and m]


def _public_functions(module) -> List[object]:
    return [
        v for k, v in vars(module).items()
        if not k.startswith("_") and inspect.isfunction(v)
        and getattr(v, "__module__", "").startswith("repro")
    ]


def install(tracer: Tracer, runtimes: List[object]) -> None:
    """Wrap every layer's entry points; ``runtimes`` collects each
    ``Runtime`` constructed while installed."""
    import repro.core as core
    import repro.core.linalg as core_linalg
    import repro.numeric as rnp
    import repro.numeric.linalg as rnp_linalg
    from repro.analysis import advisor
    from repro.apps.multigrid import TwoLevelGMG
    from repro.constraints import solver
    from repro.constraints.task import AutoTask
    from repro.core.base import spmatrix
    from repro.core.linalg.interface import LinearOperator
    from repro.distal import codegen
    from repro.distal.registry import KernelRegistry
    from repro.legion.coherence import RegionCoherence
    from repro.legion.instance import InstanceManager, MemoryState
    from repro.legion.runtime import Runtime
    from repro.legion.task import TaskLaunch
    from repro.numeric.array import Scalar, ndarray
    from repro.serve.batcher import SpMVBatcher
    from repro.serve.cache import ResultCache
    from repro.serve.scheduler import FairShareScheduler
    from repro.serve.service import SparseService

    modules = _repro_modules()
    tracer.patch_class(RegionCoherence, "legion.coherence")
    tracer.patch_class(InstanceManager, "legion.instance")
    tracer.patch_class(MemoryState, "legion.instance")
    tracer.patch_class(Runtime, "legion.runtime")
    tracer.patch_init(Runtime, runtimes.append)
    tracer.patch_class(AutoTask, "constraints")
    tracer.patch_function(modules, solver.solve_partitions, "constraints")

    def time_kernel(task) -> None:
        kernel = task.kernel
        if callable(kernel) and not getattr(kernel, "__perfbench_wrapped__", False):
            task.kernel = tracer.wrap(kernel, "distal", f"kernel:{task.name}")

    tracer.patch_init(TaskLaunch, time_kernel)
    tracer.patch_class(KernelRegistry, "distal")
    tracer.patch_function(modules, codegen.generate, "distal")

    classes = {spmatrix}
    for module in modules:
        if module.__name__.startswith("repro.core"):
            for value in vars(module).values():
                if inspect.isclass(value) and issubclass(value, spmatrix):
                    classes.add(value)
    for cls in sorted(classes, key=lambda c: c.__name__):
        tracer.patch_class(cls, "core", dunders=OPERATORS)
    tracer.patch_class(LinearOperator, "core", dunders=OPERATORS)
    for fn in set(_public_functions(core) + _public_functions(core_linalg)):
        tracer.patch_function(modules, fn, "core")

    tracer.patch_class(ndarray, "numeric", dunders=OPERATORS)
    tracer.patch_class(Scalar, "numeric", dunders=OPERATORS)
    for fn in set(_public_functions(rnp) + _public_functions(rnp_linalg)):
        tracer.patch_function(modules, fn, "numeric")

    tracer.patch_class(TwoLevelGMG, "apps")
    tracer.patch_class(FairShareScheduler, "serve.scheduler")
    tracer.patch_class(SpMVBatcher, "serve.batcher")
    tracer.patch_class(ResultCache, "serve.cache")
    tracer.patch_class(SparseService, "serve.service")
    tracer.patch_function(modules, advisor.analyze, "analysis.advisor")


def metric_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names: List[str] = []
    for layer in HOST_LAYERS:
        names.append(f"{layer}.host_s")
    names.append("other.host_s")
    names += [f"{layer}.calls" for layer in CALL_LAYERS]
    names += [
        "legion.instance.lookup_hit_ratio", "legion.instance.lookups",
        "legion.instance.peak_fb_bytes",
    ]
    names += [f"legion.phase.{p}_s" for p in HOST_PHASES]
    names += [
        "legion.launches", "legion.launches_fused_away", "legion.kernel_merges",
        "legion.launch_overhead_s", "legion.allreduces",
        "constraints.solve_hit_ratio", "constraints.solve_lookups",
        "distal.kernel_s", "distal.compile_hit_ratio", "distal.compile_lookups",
        "machine.copies.nvlink", "machine.copies.nic",
        "machine.copy_bytes.nvlink", "machine.copy_bytes.nic",
    ]
    names += [f"cp.{k}_s" for k in CP_KINDS]
    names += [
        "serve.cache.hit_ratio", "serve.cache.lookups", "serve.batch_width.mean",
        "serve.batched_share", "serve.rejections",
    ]
    names += [f"serve.refusals.{r}" for r in REFUSALS]
    names += [
        "serve.queue_wait_ms.p50", "serve.queue_wait_ms.p99", "serve.service_ms.p50",
        "serve.generator_late_ms.p99", "serve.max_rate_rps",
    ]
    for rate in RATES:
        names += [f"serve.p50_ms.r{rate // 1000}k", f"serve.p99_ms.r{rate // 1000}k"]
    names += [
        "legion.chaos.retries", "legion.chaos.backoff_s",
        "trace.overhead_share", "trace.spans",
    ]
    return names


def units() -> Dict[str, str]:
    """Unit per per-layer metric (``/op`` = per workload operation)."""
    out = {}
    for name in metric_names():
        if name.endswith("_ratio") or name.endswith("_share"):
            unit = "ratio"
        elif name.endswith("_ms") or "_ms." in name:
            unit = "ms"
        elif name.endswith("peak_fb_bytes"):
            unit = "B"
        elif name.startswith("machine.copy_bytes"):
            unit = "B/op"
        elif name.endswith("_s"):
            unit = "s/op"
        elif name.endswith(".mean"):
            unit = "requests"
        elif name.endswith("_rps"):
            unit = "1/s"
        else:
            unit = "count/op"
        out[name] = unit
    return out


def ratio(hits: float, lookups: float) -> float:
    """hits / lookups, or 0.0 when nothing was looked up (the base is
    reported beside every ratio)."""
    return float(hits) / lookups if lookups else 0.0


def profiler_totals(deltas: Iterable[object]) -> Dict[str, float]:
    """Sum the counters the per-layer report reads over profiler deltas."""
    out: Dict[str, float] = defaultdict(float)

    def add(key, value):
        out[key] += float(value)

    for p in deltas:
        add("launches", p.tasks_launched)
        add("fused_away", p.tasks_fused_away)
        add("kernel_merges", p.kernel_merges)
        add("launch_overhead_s", p.launch_overhead_seconds)
        add("allreduces", p.allreduces)
        add("kernel_s", p.kernel_seconds)
        add("retries", p.retries)
        add("backoff_s", p.backoff_seconds)
        add("rejections", p.serve_rejections)
        for kind in ("nvlink", "nic"):
            add(f"copies.{kind}", p.copy_count.get(kind, 0))
            add(f"copy_bytes.{kind}", p.copy_bytes.get(kind, 0))
        for phase in HOST_PHASES:
            add(f"phase.{phase}", p.host_phase_seconds.get(phase, 0.0))
        for key in ("lookup_hits", "lookup_misses", "solve_hits", "solve_misses"):
            add(key, p.fastpath_counters.get(key, 0))
    return out


def critical_path_by_kind(timeline, t0: float, t1: float) -> Dict[str, float]:
    """Modeled critical-path time per step kind inside ``[t0, t1]``."""
    out: Dict[str, float] = {}
    for step in timeline.critical_path(horizon=t1).steps:
        lo, hi = max(step.start, t0), min(step.finish, t1)
        if hi > lo:
            out[step.kind] = out.get(step.kind, 0.0) + (hi - lo)
    return out


class Probe:
    """Captures counter baselines before the traced steps and turns the
    tracer, profilers and timelines into per-layer metrics after them."""

    def __init__(self, runtimes: List[object]):
        from repro.distal.codegen import compile_cache_stats

        self.runtimes = runtimes  # grows as runtimes are constructed
        self.before = {id(rt): rt.profiler.snapshot() for rt in runtimes}
        self.start = {id(rt): rt.barrier() for rt in runtimes}
        self.compile_before = compile_cache_stats()

    def metrics(self, tracer: Tracer, wall: float, ops: int) -> Dict[str, float]:
        from repro.distal.codegen import compile_cache_stats
        from repro.machine import MemoryKind

        out = {name: 0.0 for name in metric_names()}
        for layer in HOST_LAYERS:
            out[f"{layer}.host_s"] = tracer.self_s.get(layer, 0.0) / ops
        out["other.host_s"] = (wall - sum(tracer.self_s.values())) / ops
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = tracer.calls.get(layer, 0) / ops

        deltas = [
            rt.profiler.since(self.before[id(rt)]) if id(rt) in self.before else rt.profiler
            for rt in self.runtimes
        ]
        t = profiler_totals(deltas)
        lookups = t["lookup_hits"] + t["lookup_misses"]
        out["legion.instance.lookups"] = lookups / ops
        out["legion.instance.lookup_hit_ratio"] = ratio(t["lookup_hits"], lookups)
        out["legion.instance.peak_fb_bytes"] = max(
            (
                rt.instances.peak_bytes(m)
                for rt in self.runtimes
                for m in rt.machine.memories
                if m.kind is MemoryKind.FRAMEBUFFER
            ),
            default=0,
        )
        for phase in HOST_PHASES:
            out[f"legion.phase.{phase}_s"] = t[f"phase.{phase}"] / ops
        for name, key in (
            ("legion.launches", "launches"), ("legion.launches_fused_away", "fused_away"),
            ("legion.kernel_merges", "kernel_merges"),
            ("legion.launch_overhead_s", "launch_overhead_s"),
            ("legion.allreduces", "allreduces"), ("distal.kernel_s", "kernel_s"),
            ("machine.copies.nvlink", "copies.nvlink"), ("machine.copies.nic", "copies.nic"),
            ("machine.copy_bytes.nvlink", "copy_bytes.nvlink"),
            ("machine.copy_bytes.nic", "copy_bytes.nic"),
            ("legion.chaos.retries", "retries"), ("legion.chaos.backoff_s", "backoff_s"),
            ("serve.rejections", "rejections"),
        ):
            out[name] = t[key] / ops
        solves = t["solve_hits"] + t["solve_misses"]
        out["constraints.solve_lookups"] = solves / ops
        out["constraints.solve_hit_ratio"] = ratio(t["solve_hits"], solves)
        after = compile_cache_stats()
        hits = after.get("hits", 0) - self.compile_before.get("hits", 0)
        misses = after.get("misses", 0) - self.compile_before.get("misses", 0)
        out["distal.compile_lookups"] = (hits + misses) / ops
        out["distal.compile_hit_ratio"] = ratio(hits, hits + misses)

        for rt in self.runtimes:
            if rt.timeline is None:
                continue
            by_kind = critical_path_by_kind(rt.timeline, self.start.get(id(rt), 0.0), rt.elapsed())
            for kind in CP_KINDS:
                out[f"cp.{kind}_s"] += by_kind.get(kind, 0.0) / ops
        return out

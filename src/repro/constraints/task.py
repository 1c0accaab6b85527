"""AutoTask: the constraint-declaring task launch API (paper Fig. 4).

Library operations create an :class:`AutoTask`, register their stores
with privileges, declare partitioning constraints, and call
:meth:`AutoTask.execute`.  The solver picks concrete partitions, the
runtime performs mapping/coherence/timing, and written stores have their
key partitions updated so later operations (from any library) can reuse
them.
"""

from __future__ import annotations

from dataclasses import fields, replace
from time import perf_counter as _perf
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import ValidationError
from repro.constraints.constraint import Align, Broadcast, Explicit, Image, ImageKind
from repro.constraints.solver import (
    rebuild_solution, solution_plan, solve_partitions, solve_signature,
)
from repro.constraints.store import Store
from repro.legion.future import Future
from repro.legion.partition import Tiling
from repro.legion.privilege import Privilege
from repro.legion.runtime import Runtime
from repro.legion.task import (
    CostFn, KernelFn, Pointwise, Requirement, TaskLaunch, default_cost,
)


class AutoTask:
    """A task launch described by stores + constraints."""

    def __init__(
        self,
        runtime: Runtime,
        name: str,
        kernel: KernelFn,
        cost_fn: Optional[CostFn] = None,
        colors: Optional[int] = None,
    ):
        self.runtime = runtime
        self.name = name
        self.kernel = kernel
        self.cost_fn = cost_fn or default_cost
        self.colors = colors
        self._args: List[tuple] = []  # (name, store, privilege)
        self._constraints: List[object] = []
        self._scalars: Dict[str, Any] = {}
        self._scalar_reduction: Optional[str] = None
        self._by_name: Dict[str, Store] = {}
        self._pointwise: Optional[Pointwise] = None

    # ------------------------------------------------------------------
    # Region arguments
    # ------------------------------------------------------------------
    def _add(self, name: str, store: Store, privilege: Privilege) -> None:
        if name in self._by_name:
            raise ValueError(f"duplicate argument name {name!r}")
        self._args.append((name, store, privilege))
        self._by_name[name] = store

    def add_input(self, name: str, store: Store) -> None:
        """Register a read-only store under a kernel name."""
        self._add(name, store, Privilege.READ)

    def add_output(self, name: str, store: Store, discard: bool = True) -> None:
        """Register an output store (write-discard by default)."""
        priv = Privilege.WRITE_DISCARD if discard else Privilege.WRITE
        self._add(name, store, priv)

    def add_inout(self, name: str, store: Store) -> None:
        """Register a read-write store."""
        self._add(name, store, Privilege.WRITE)

    def add_reduction(self, name: str, store: Store) -> None:
        """Register a REDUCE-privilege (accumulated) store."""
        self._add(name, store, Privilege.REDUCE)

    def add_scalar_arg(self, name: str, value: Any) -> None:
        """Attach a scalar (or Future) argument."""
        self._scalars[name] = value

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def add_alignment_constraint(self, left: Store, right: Store) -> None:
        """Require identical partitions (Fig. 4)."""
        self._constraints.append(Align(left, right))

    def add_image_constraint(
        self, source: Store, dests, kind: str = "range"
    ) -> None:
        """Partition dests as the image of source."""
        image_kind = ImageKind(kind)
        if isinstance(dests, Store):
            dests = [dests]
        for dest in dests:
            self._constraints.append(Image(source, dest, image_kind))

    def add_broadcast(self, store: Store) -> None:
        """Replicate the store to every shard."""
        self._constraints.append(Broadcast(store))

    def add_explicit_partition(self, store: Store, partition) -> None:
        """Use a caller-supplied partition."""
        self._constraints.append(Explicit(store, partition))

    def set_scalar_reduction(self, op: str) -> None:
        """Reduce kernel return values into a Future."""
        self._scalar_reduction = op

    def set_pointwise(
        self, *ops: str, expr=None, out: Optional[str] = None, statement=None
    ) -> None:
        """Mark the task element-wise over aligned operands.

        Pointwise tasks are eligible for the runtime's deferred fusion
        window (:mod:`repro.legion.fusion`); ``ops`` names the
        element-wise operations for reporting.  Only set this on kernels
        that touch exactly their shard's rect of every argument.

        ``expr``/``out``/``statement`` optionally expose the kernel
        body IR (see :class:`~repro.legion.task.Pointwise`) so the
        dependence analyzer can prove the launch body-mergeable into a
        single combined loop nest; omitting them keeps the kernel
        opaque (task-fusible, never body-merged).
        """
        self._pointwise = Pointwise(
            tuple(ops),
            expr=tuple(expr) if expr is not None else None,
            out=out,
            statement=statement,
        )

    def execute(self) -> Optional[Future]:
        """Solve constraints, launch, update key partitions."""
        colors = self.colors if self.colors is not None else self.runtime.num_procs
        plan = self.runtime.plan_trace
        if plan is not None:
            # Advisor capture (repro.analysis.plan): record the launch —
            # stores, privileges, constraints, resolved color count — so
            # the advisor can replay it through a fresh runtime.  The
            # plan holds its own handles to the stores (plan.hold), so
            # the program dropping a store still frees its region.
            plan.record_task_op(
                self.name,
                [(name, plan.hold(store), priv) for name, store, priv in self._args],
                [_held_constraint(con, plan.hold) for con in self._constraints],
                self._scalars, self._scalar_reduction, colors, self.cost_fn,
                pointwise=self._pointwise,
            )
            if plan.deferred:
                # Deferred trace: skip solve/launch entirely; scalar
                # reductions resolve to the plan's policy placeholder.
                if self._scalar_reduction is not None:
                    return Future(plan.deferred_scalar(self.name), 0.0)
                return None
        _, result = launch_task(
            self.runtime, self.name, self._args, self._constraints, colors,
            self.kernel, self.cost_fn, self._scalars, self._scalar_reduction,
            self._pointwise,
        )
        return result


def _held_constraint(con, hold):
    """``con`` with every store it names replaced by ``hold(store)``."""
    stores = {
        f.name: hold(getattr(con, f.name))
        for f in fields(con)
        if isinstance(getattr(con, f.name), Store)
    }
    return replace(con, **stores)


def _check_write_disjointness(name, args, solution) -> None:
    """Validation mode: exclusive-write partitions must be disjoint.

    Two colors writing overlapping rects under WRITE/WRITE_DISCARD
    race — only REDUCE tolerates aliased outputs (folds commute).
    The event-log checker would flag this after the fact; failing
    here names the offending launch while it is on the stack.
    """
    for arg, store, privilege in args:
        if privilege not in (Privilege.WRITE, Privilege.WRITE_DISCARD):
            continue
        partition = solution[store.region.uid]
        if partition.color_count > 1 and not partition.is_disjoint():
            raise ValidationError(
                f"task {name!r}: {privilege.value} argument "
                f"{arg!r} has an aliased partition — overlapping "
                f"shards would race on region {store.region.name!r}"
            )


def launch_task(
    rt: Runtime,
    name: str,
    args: List[tuple],
    constraints: List[object],
    colors: int,
    kernel: Optional[KernelFn],
    cost_fn: CostFn,
    scalars: Dict[str, Any],
    reduction: Optional[str] = None,
    pointwise: Optional[Pointwise] = None,
) -> Tuple[List[Requirement], Optional[Future]]:
    """Solve one task's constraints, launch it, update key partitions.

    ``args`` are ``(name, store, privilege)`` triples.  This is the one
    path from stores and constraints to :meth:`Runtime.launch`:
    :meth:`AutoTask.execute` runs it with the task's kernel, and the
    advisor replays recorded plans through it with ``kernel=None``
    (shards are mapped, staged and timed; numerics are skipped).
    Returns the solved requirements and the launch's future.
    """
    if pointwise is None or any(isinstance(c, Image) for c in constraints):
        # Non-pointwise (or image-constrained) tasks flush the
        # deferred window *before* solving: image partitions read
        # region data host-side at solve time, and pending fused
        # launches may still owe writes to those regions.
        rt.flush_window()
    stores = [store for _, store, _ in args]
    t0 = _perf()
    solution = None
    # Memoized solve: iterative solvers re-launch structurally identical
    # tasks every step; the signature embeds key partitions, so
    # repartitions miss instead of going stale.
    sig = solve_signature(
        stores,
        constraints,
        colors,
        reuse_partitions=rt.config.reuse_partitions,
        exact_images=rt.config.exact_images,
    )
    if sig is not None:
        plan_entry = rt._solve_memo.get(sig)
        if plan_entry is not None:
            solution = rebuild_solution(plan_entry, stores, colors)
    if solution is None:
        solution = solve_partitions(
            stores,
            constraints,
            colors,
            reuse_partitions=rt.config.reuse_partitions,
            exact_images=rt.config.exact_images,
            image_cache=rt._image_cache,
        )
        if sig is not None:
            splan = solution_plan(solution, stores)
            if splan is not None:
                rt._solve_memo.put(sig, splan)
            rt.profiler.fastpath_counters["solve_misses"] += 1
    else:
        rt.profiler.fastpath_counters["solve_hits"] += 1
    rt.profiler.record_host_phase("constraint-solve", _perf() - t0)
    if rt.config.validate:
        _check_write_disjointness(name, args, solution)
    requirements = []
    fold_partition = None
    for arg, store, privilege in args:
        partition = solution[store.region.uid]
        requirements.append(Requirement(arg, store.region, partition, privilege))
        if privilege == Privilege.REDUCE and fold_partition is None:
            if isinstance(store.key_partition, Tiling) and (
                store.key_partition.color_count == colors
            ):
                fold_partition = store.key_partition
            else:
                fold_partition = Tiling.create(store.region, colors)

    launch = TaskLaunch(
        name=name,
        requirements=requirements,
        kernel=kernel,
        cost_fn=cost_fn,
        scalars=scalars,
        reduction=reduction,
        fold_partition=fold_partition,
        pointwise=pointwise,
    )
    result = rt.launch(launch)

    for _arg, store, privilege in args:
        if not privilege.writes:
            continue
        partition = solution[store.region.uid]
        if privilege == Privilege.REDUCE:
            store.set_key_partition(fold_partition)
        elif isinstance(partition, Tiling):
            store.set_key_partition(partition)
    return requirements, result

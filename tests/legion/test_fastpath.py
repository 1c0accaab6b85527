"""Host-side caches: bitwise neutrality + cache invalidation proofs.

The runtime's host-side mechanism (see ``repro.legion.fastpath``) —
batched coherence writes, a version-checked instance lookup cache, a
positional constraint-solve memo and an epoch-keyed image-partition
cache — is pure host-side work.  Everything here pins down the two
properties the design hangs on:

* **bitwise neutrality** — numerics, modeled times, event-log shapes
  and spill/fault counters equal reference values recorded from the
  original per-requirement analyses, including under spill, eviction,
  chaos loss + journal replay and validation mode;
* **invalidation** — every cache observes the mutations that could
  make it stale (memory version bumps, write epochs, key-partition
  changes) and never pins region lifetimes.
"""

import gc
import hashlib
import json
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.checker import check_log
from repro.apps.poisson import poisson2d_scipy
from repro.constraints import Align, Broadcast, Explicit, Image, ImageKind, Store
from repro.constraints.solver import (
    rebuild_solution, solution_plan, solve_partitions, solve_signature,
)
from repro.geometry import Rect, RectSet
from repro.legion import Replicate, Runtime, RuntimeConfig, Tiling
from repro.legion.chaos import ChaosConfig, LossSchedule
from repro.legion.coherence import RegionCoherence
from repro.legion.fastpath import (
    ImagePartitionCache, InstanceLookupCache, SolveMemo, eligible_write_reqs,
)
from repro.legion.instance import MemoryState
from repro.legion.privilege import Privilege
from repro.legion.runtime import runtime_scope
from repro.legion.task import Requirement
from repro.machine import Machine, ProcessorKind, laptop, summit
from repro.machine.model import MachineConfig

GRID = 16
ITERS = 4


# ----------------------------------------------------------------------
# Batched coherence writes
# ----------------------------------------------------------------------
class TestWriteComplete:
    """write_complete == the sequential mark_written loop, state for state."""

    @staticmethod
    def _tiles(n, colors):
        bounds = [round(i * n / colors) for i in range(colors + 1)]
        return [
            Rect((bounds[i],), (bounds[i + 1],))
            for i in range(colors)
            if bounds[i + 1] > bounds[i]
        ]

    @staticmethod
    def _random_state(rng, n):
        coh = RegionCoherence()
        for mem in range(rng.randrange(4)):
            for _ in range(rng.randrange(3)):
                lo = rng.randrange(n)
                hi = rng.randrange(lo + 1, n + 1)
                coh.mark_valid(mem, Rect((lo,), (hi,)), rng.random())
        for _ in range(rng.randrange(4)):
            lo = rng.randrange(n)
            hi = rng.randrange(lo + 1, n + 1)
            coh.mark_written(rng.randrange(3), Rect((lo,), (hi,)), rng.random())
        return coh

    @staticmethod
    def _canonical(coh):
        return {
            mem: sorted((p.rect.lo, p.rect.hi, p.ready_time) for p in pieces)
            for mem, pieces in coh.valid.items()
            if pieces
        }

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sequential_path(self, seed):
        rng = random.Random(seed)
        n = 40
        colors = rng.choice([1, 2, 3, 5])
        tiles = self._tiles(n, colors)
        writes = [
            (rng.randrange(4), rect, rng.random()) for rect in tiles
        ]
        slow = self._random_state(rng, n)
        fast = RegionCoherence()
        fast.written = RectSet(slow.written.rects())
        for mem, pieces in slow.valid.items():
            for p in pieces:
                fast.mark_valid(mem, p.rect, p.ready_time)
        assert self._canonical(slow) == self._canonical(fast)

        for mem, rect, t in writes:
            slow.mark_written(mem, rect, t)
        fast.write_complete(writes)

        assert self._canonical(slow) == self._canonical(fast)
        # Not just the same set: the same pieces in the same order.
        assert slow.written.rects() == fast.written.rects()

    def test_written_union_is_exact(self):
        coh = RegionCoherence()
        coh.mark_written(0, Rect((3,), (9,)), 0.1)
        coh.write_complete([
            (0, Rect((0,), (5,)), 0.2),
            (1, Rect((5,), (10,)), 0.3),
        ])
        covered = RectSet([Rect((0,), (10,))])
        assert covered.subtract(coh.written).is_empty()
        assert coh.written.subtract(covered).is_empty()


# ----------------------------------------------------------------------
# Instance lookup cache + MemoryState versioning
# ----------------------------------------------------------------------
def _mem_state(capacity=1 << 20):
    class _FakeMemory:
        uid = 0
        capacity = 0
        kind = type("K", (), {"value": "fb"})()

    mem = _FakeMemory()
    mem.capacity = capacity
    return MemoryState(mem)


class TestInstanceLookupCache:
    def test_hit_requires_matching_version(self):
        cache = InstanceLookupCache()
        key = (0, 7, Rect((0,), (4,)))
        sentinel = object()
        cache.put(key, sentinel, version=3)
        assert cache.get(key, 3) is sentinel
        assert cache.get(key, 4) is None  # store mutated since
        assert cache.get((0, 8, Rect((0,), (4,))), 3) is None

    def test_overflow_clears_wholesale(self):
        cache = InstanceLookupCache()
        for i in range(InstanceLookupCache.MAX_ENTRIES):
            cache.put((0, i, Rect((0,), (1,))), object(), 0)
        assert len(cache) == InstanceLookupCache.MAX_ENTRIES
        cache.put((1, 0, Rect((0,), (1,))), object(), 0)
        assert len(cache) == 1

    def test_version_bumps_on_alloc_growth_drop_free_lose(self):
        st = _mem_state()
        v0 = st.version
        inst, _, fresh = st.ensure(1, Rect((0,), (8,)), 8)
        assert fresh and st.version > v0

        v1 = st.version
        grown, moved, _ = st.ensure(1, Rect((4,), (16,)), 8)
        assert grown is inst and st.version > v1  # coalesced growth

        v2 = st.version
        st.drop_instance(inst)
        assert st.version > v2

        inst2, _, _ = st.ensure(2, Rect((0,), (4,)), 8)
        v3 = st.version
        st.free_region(2)
        assert st.version > v3

        v4 = st.version
        st.lose()
        assert st.version > v4

    def test_find_hit_does_not_bump(self):
        st = _mem_state()
        st.ensure(1, Rect((0,), (8,)), 8)
        v = st.version
        again, moved, fresh = st.ensure(1, Rect((2,), (6,)), 8)
        assert not fresh and moved == 0
        assert st.version == v  # pure find hit: scan outcome unchanged


# ----------------------------------------------------------------------
# Solve memo: positional signatures, plans, no region pinning
# ----------------------------------------------------------------------
@pytest.fixture
def rt():
    runtime = Runtime(
        laptop().scope(ProcessorKind.GPU, 2), RuntimeConfig.legate()
    )
    with runtime_scope(runtime):
        yield runtime


class TestSolveSignature:
    def test_fresh_regions_share_signatures(self, rt):
        """Iterative-solver shape: fresh uids, identical structure."""
        def sig():
            a = Store.create((10,), np.float64, runtime=rt)
            b = Store.create((10,), np.float64, runtime=rt)
            a.set_key_partition(Tiling(a.region, (0, 5, 10)))
            return solve_signature([a, b], [Align(a, b)], colors=2)

        s1, s2 = sig(), sig()
        assert s1 is not None and s1 == s2

    def test_repartition_changes_signature(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        a.set_key_partition(Tiling(a.region, (0, 5, 10)))
        s1 = solve_signature([a], [], colors=2)
        a.set_key_partition(Tiling(a.region, (0, 7, 10)))
        s2 = solve_signature([a], [], colors=2)
        assert s1 is not None and s2 is not None and s1 != s2

    def test_nbytes_distinguishes_largest_member(self, rt):
        a32 = Store.create((10,), np.float32, runtime=rt)
        b = Store.create((10,), np.float64, runtime=rt)
        a64 = Store.create((10,), np.float64, runtime=rt)
        c = Store.create((10,), np.float64, runtime=rt)
        s1 = solve_signature([a32, b], [Align(a32, b)], colors=2)
        s2 = solve_signature([a64, c], [Align(a64, c)], colors=2)
        assert s1 != s2  # the solver picks the largest member's key

    def test_foreign_key_partition_is_uid_pinned(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        other = Store.create((10,), np.float64, runtime=rt)
        a.set_key_partition(Tiling(other.region, (0, 5, 10)))
        s1 = solve_signature([a], [], colors=2)
        assert s1 is not None and s1[3][0][3][0] == other.region.uid

    def test_image_and_explicit_not_memoizable(self, rt):
        src = Store.create((10,), np.int64, runtime=rt)
        dst = Store.create((10,), np.float64, runtime=rt)
        con = Image(src, dst, ImageKind.RANGE)
        assert solve_signature([src, dst], [con], 2) is None
        part = Tiling.create(dst.region, 2)
        assert (
            solve_signature([dst], [Explicit(dst, part)], 2) is None
        )

    def test_non_tiling_key_partition_not_memoizable(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        a.set_key_partition(Replicate(a.region, 2))
        assert solve_signature([a], [], colors=2) is None

    def test_colors_and_flags_in_signature(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        base = solve_signature([a], [], colors=2)
        assert solve_signature([a], [], colors=4) != base
        assert (
            solve_signature([a], [], colors=2, reuse_partitions=False)
            != base
        )


class TestSolutionPlan:
    def test_rebuild_matches_fresh_solve(self, rt):
        a = Store.create((12,), np.float64, runtime=rt)
        b = Store.create((12,), np.float64, runtime=rt)
        c = Store.create((1,), np.float64, runtime=rt)
        cons = [Align(a, b), Broadcast(c)]
        sol = solve_partitions([a, b, c], cons, colors=2)
        plan = solution_plan(sol, [a, b, c])
        assert plan is not None

        # Fresh stores, same structure (an iterative solver's next step).
        a2 = Store.create((12,), np.float64, runtime=rt)
        b2 = Store.create((12,), np.float64, runtime=rt)
        c2 = Store.create((1,), np.float64, runtime=rt)
        rebuilt = rebuild_solution(plan, [a2, b2, c2], colors=2)
        fresh = solve_partitions([a2, b2, c2], cons_for(a2, b2, c2), colors=2)
        for s_new in (a2, b2):
            got = rebuilt[s_new.region.uid]
            want = fresh[s_new.region.uid]
            assert type(got) is type(want) is Tiling
            assert got.boundaries == want.boundaries
            assert got.region is s_new.region
        assert type(rebuilt[c2.region.uid]) is Replicate

    def test_key_rows_return_the_store_key_object(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        kp = Tiling(a.region, (0, 5, 10))
        a.set_key_partition(kp)
        sol = solve_partitions([a], [], colors=2)
        plan = solution_plan(sol, [a])
        rebuilt = rebuild_solution(plan, [a], colors=2)
        assert rebuilt[a.region.uid] is kp

    def test_memo_entry_does_not_pin_regions(self, rt):
        """The steady-state regression: cached plans must hold no regions."""
        memo = SolveMemo()
        a = Store.create((10,), np.float64, runtime=rt)
        b = Store.create((10,), np.float64, runtime=rt)
        sig = solve_signature([a, b], [Align(a, b)], colors=2)
        sol = solve_partitions([a, b], [Align(a, b)], colors=2)
        memo.put(sig, solution_plan(sol, [a, b]))
        ref = weakref.ref(a.region)
        del a, b, sol
        gc.collect()
        assert ref() is None, "solve memo kept a region alive"
        assert len(memo) == 1  # the entry itself survives

    def test_memo_bounded(self):
        memo = SolveMemo()
        for i in range(SolveMemo.MAX_ENTRIES):
            memo.put(("sig", i), (("tile", 0, (0, 5, 10)),))
        memo.put(("sig", "overflow"), (("tile", 0, (0, 5, 10)),))
        assert len(memo) == 1


def cons_for(a, b, c):
    return [Align(a, b), Broadcast(c)]


# ----------------------------------------------------------------------
# Image-partition cache: epoch invalidation
# ----------------------------------------------------------------------
class TestImagePartitionCache:
    def _stores(self, rt, crd_vals):
        crd = Store.create(
            (len(crd_vals),), np.int64,
            data=np.asarray(crd_vals, dtype=np.int64), runtime=rt,
        )
        x = Store.create((8,), np.float64, runtime=rt)
        crd.set_key_partition(Tiling.create(crd.region, 2))
        return crd, x

    def test_hit_reproduces_geometry_without_reads(self, rt):
        cache = ImagePartitionCache()
        crd, x = self._stores(rt, [0, 1, 6, 7])
        cons = [Image(crd, x, ImageKind.COORDINATE)]
        sol1 = solve_partitions([crd, x], cons, 2, image_cache=cache)
        assert len(cache) == 1
        sol2 = solve_partitions([crd, x], cons, 2, image_cache=cache)
        p1, p2 = sol1[x.region.uid], sol2[x.region.uid]
        assert p1 is not p2  # rebuilt object, cached geometry
        assert p1._rects == p2._rects
        uncached = solve_partitions([crd, x], cons, 2)
        assert uncached[x.region.uid]._rects == p2._rects

    def test_write_epoch_invalidates(self, rt):
        cache = ImagePartitionCache()
        crd, x = self._stores(rt, [0, 1, 6, 7])
        cons = [Image(crd, x, ImageKind.COORDINATE)]
        before = solve_partitions([crd, x], cons, 2, image_cache=cache)
        # A task write to the source: new coordinates, bumped epoch
        # (the runtime bumps on every written requirement).
        crd.region.data[:] = np.asarray([2, 3, 4, 5], dtype=np.int64)
        cache.bump(crd.region.uid)
        after = solve_partitions([crd, x], cons, 2, image_cache=cache)
        assert before[x.region.uid]._rects != after[x.region.uid]._rects
        fresh = solve_partitions([crd, x], cons, 2)
        assert fresh[x.region.uid]._rects == after[x.region.uid]._rects

    def test_values_hold_no_partition_objects(self, rt):
        cache = ImagePartitionCache()
        crd, x = self._stores(rt, [0, 1, 6, 7])
        solve_partitions(
            [crd, x], [Image(crd, x, ImageKind.COORDINATE)], 2, image_cache=cache,
        )
        def flat(v):
            if isinstance(v, (tuple, list)):
                for item in v:
                    yield from flat(item)
            else:
                yield v
        for value in cache._entries.values():
            for leaf in flat(value):
                assert isinstance(leaf, (Rect, int)), leaf

    def test_clear_keeps_epochs(self):
        cache = ImagePartitionCache()
        cache.bump(7)
        cache.put(("k",), (Rect((0,), (1,)),))
        cache.clear()
        assert len(cache) == 0 and cache.epochs == {7: 1}


# ----------------------------------------------------------------------
# Batched-write eligibility
# ----------------------------------------------------------------------
class _FakeTask:
    def __init__(self, requirements):
        self.requirements = requirements


class TestEligibleWriteReqs:
    def _region_and_tiling(self, rt, n=10, colors=2):
        s = Store.create((n,), np.float64, runtime=rt)
        return s.region, Tiling.create(s.region, colors)

    def test_single_tiled_writer_is_eligible(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("out", region, part, Privilege.WRITE_DISCARD),
        ])
        assert set(eligible_write_reqs(task, False, set())) == {"out"}

    def test_aligned_read_companion_allowed(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("in", region, part, Privilege.READ),
            Requirement("out", region, part, Privilege.WRITE),
        ])
        assert set(eligible_write_reqs(task, False, set())) == {"out"}

    def test_misaligned_read_companion_blocks(self, rt):
        region, part = self._region_and_tiling(rt)
        other = Tiling(region, (0, 3, 10))
        task = _FakeTask([
            Requirement("in", region, other, Privilege.READ),
            Requirement("out", region, part, Privilege.WRITE),
        ])
        assert eligible_write_reqs(task, False, set()) == {}

    def test_replicate_companion_blocks(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("in", region, Replicate(region, 2), Privilege.READ),
            Requirement("out", region, part, Privilege.WRITE),
        ])
        assert eligible_write_reqs(task, False, set()) == {}

    def test_two_writers_block(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("a", region, part, Privilege.WRITE),
            Requirement("b", region, part, Privilege.WRITE_DISCARD),
        ])
        assert eligible_write_reqs(task, False, set()) == {}

    def test_reduce_blocks(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("acc", region, part, Privilege.REDUCE),
        ])
        assert eligible_write_reqs(task, False, set()) == {}

    def test_foreign_region_tiling_blocks(self, rt):
        region, _ = self._region_and_tiling(rt)
        other_region, other_part = self._region_and_tiling(rt)
        foreign = Tiling(other_region, other_part.boundaries)
        task = _FakeTask([
            Requirement("out", region, foreign, Privilege.WRITE),
        ])
        assert eligible_write_reqs(task, False, set()) == {}

    def test_replay_of_freed_region_skipped(self, rt):
        region, part = self._region_and_tiling(rt)
        task = _FakeTask([
            Requirement("out", region, part, Privilege.WRITE),
        ])
        assert eligible_write_reqs(task, True, {region.uid}) == {}
        assert set(eligible_write_reqs(task, False, {region.uid})) == {"out"}


# ----------------------------------------------------------------------
# End-to-end bitwise neutrality
# ----------------------------------------------------------------------
# Reference summaries of every scenario below, recorded from the
# original per-requirement analyses (the command is the file's
# "_capture" entry).  The caches must reproduce them bit for bit.
REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "data" / "fastpath_reference.json")
    .read_text()
)


def _cg(procs=2, nodes=1, grid=GRID, validate=False, **config):
    """One CG solve; returns (x, modeled seconds, runtime)."""
    rt = Runtime(
        summit(nodes=nodes).scope(
            ProcessorKind.GPU, procs, per_node=min(procs, 2)
        ),
        RuntimeConfig.legate(validate=validate, **config),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(grid))
        b = rnp.ones(grid * grid)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1)  # warm-up
        t0 = rt.barrier()
        x, _ = sp.linalg.cg(A, b, rtol=0.0, maxiter=ITERS)
        t1 = rt.barrier()
        return x.to_numpy().copy(), t1 - t0, rt


def _spill(**config):
    """Over-capacity run: spill/evict churn on a 1 MiB framebuffer."""
    machine = Machine(MachineConfig(
        nodes=1, sockets_per_node=1, gpus_per_node=2,
        gpu_memory=1 << 20, sysmem_per_node=2 << 30,
    ))
    rt = Runtime(
        machine.scope(ProcessorKind.GPU, 1), RuntimeConfig.legate(**config)
    )
    with runtime_scope(rt):
        n = 30_000
        arrays = []
        for i in range(6):
            arrays.append(rnp.full(n, float(i + 1)))
            rt.barrier()
        total = rnp.zeros(n)
        rt.barrier()
        for a in arrays:
            total = total + a
            rt.barrier()
        t = rt.barrier()
        return total.to_numpy().copy(), t, rt


def _loss(kind, at):
    return ChaosConfig(checkpoint_every=16, losses=(LossSchedule(kind, 1, at),))


def _summary(run):
    x, t, rt = run
    p = rt.profiler
    return {
        "solution_sha256": hashlib.sha256(x.tobytes()).hexdigest(),
        "modeled_time_s": t,
        "events": rt.event_log.stats() if rt.event_log is not None else None,
        "evictions": p.evictions,
        "spills": p.spills,
        "eviction_bytes": p.eviction_bytes,
        "spill_bytes": p.spill_bytes,
        "faults_injected": {k: v for k, v in p.faults_injected.items() if v},
        "tasks_reexecuted": p.tasks_reexecuted,
    }


# name -> run(ref, **config); loss scenarios strike halfway through
# their fault-free baseline, whose summary ``ref`` already holds.
SCENARIOS = {
    "cg": lambda ref, **c: _cg(**c),
    "cg-validated": lambda ref, **c: _cg(validate=True, **c),
    "spill-eviction": lambda ref, **c: _spill(**c),
    "gpu-loss": lambda ref, **c: _cg(
        chaos=_loss("gpu", ref["cg"]["modeled_time_s"] / 2), **c
    ),
    "cg-2node": lambda ref, **c: _cg(nodes=2, **c),
    "node-loss": lambda ref, **c: _cg(
        nodes=2, chaos=_loss("node", ref["cg-2node"]["modeled_time_s"] / 2), **c
    ),
    "validate-chaos": lambda ref, **c: _cg(
        validate=True, chaos=_loss("gpu", ref["cg"]["modeled_time_s"] / 2), **c
    ),
}


def capture(**config):
    """Every scenario's summary under ``RuntimeConfig.legate(**config)``."""
    out = {}
    for name, run in SCENARIOS.items():
        out[name] = _summary(run(out, **config))
    return out


def _run(name):
    """Run one scenario and assert it reproduces its reference summary."""
    run = SCENARIOS[name](REFERENCE)
    got = _summary(run)
    if REFERENCE[name]["events"] is None:
        got["events"] = None  # REPRO_VALIDATE=1 logs every run
    assert got == REFERENCE[name], name
    return run[2]


class TestBitwiseNeutrality:
    def test_cg_identical_and_checker_clean(self):
        rt = _run("cg-validated")
        assert not check_log(rt.event_log)
        counters = rt.profiler.fastpath_counters
        assert counters["batched_writes"] > 0
        assert counters["solve_hits"] > 0
        # Validation does not change the answer or the modeled time.
        for key in ("solution_sha256", "modeled_time_s"):
            assert REFERENCE["cg-validated"][key] == REFERENCE["cg"][key]

    def test_spill_and_eviction_identical(self):
        rt = _run("spill-eviction")
        assert rt.profiler.evictions + rt.profiler.spills > 0

    def test_gpu_loss_replay_identical(self):
        _run("cg")
        rt = _run("gpu-loss")
        assert rt.profiler.faults_injected["gpu-loss"] == 1
        assert rt.profiler.tasks_reexecuted > 0
        assert (
            REFERENCE["gpu-loss"]["solution_sha256"]
            == REFERENCE["cg"]["solution_sha256"]
        )

    def test_node_loss_replay_identical(self):
        _run("cg-2node")
        rt = _run("node-loss")
        assert rt.profiler.tasks_reexecuted > 0
        assert (
            REFERENCE["node-loss"]["solution_sha256"]
            == REFERENCE["cg-2node"]["solution_sha256"]
        )

    def test_validate_mode_with_chaos_identical(self):
        rt = _run("validate-chaos")
        assert not check_log(rt.event_log)

"""Host-side caches and batched analyses for the runtime.

The simulated runtime is numerically exact but pays real host CPU for
every launch: per-color coherence rebuilds, instance-store scans and
constraint solves are Python loops whose cost dwarfs the *modeled* time
at scale (BENCH_runtime_overhead.json measures the gap).  This module
holds the runtime's host-side shortcuts:

* :class:`InstanceLookupCache` — a version-checked memo of
  ``(memory, region, rect) -> Instance`` resolutions, so steady-state
  mapping skips the allocation-store scan.  Every mutation that could
  change a scan's outcome bumps :attr:`MemoryState.version`
  (allocation, coalescing growth, eviction, spill, region free, chaos
  memory loss), which invalidates stale entries for free.
* :func:`eligible_write_reqs` — the batched-write legality check: a
  launch whose write requirement tiles its region disjointly (and whose
  region no other requirement touches) may defer all per-color
  ``mark_written`` calls and apply them in one
  :meth:`RegionCoherence.write_complete` pass, because the final
  coherence state is independent of the interleaving.
* :class:`SolveMemo` — bounded container for constraint-solve
  memoization keyed by structural signature
  (:func:`repro.constraints.solver.solve_signature`);
* :class:`ImagePartitionCache` — image-partition geometry keyed by the
  source region's write epoch.

Everything here is bitwise-neutral by construction: the runtime
produces the modeled times, event logs and numerics the original
per-requirement analyses did (``tests/legion/test_fastpath.py``
checks them against reference values recorded from those analyses,
across spill, eviction, chaos loss and journal replay).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.geometry import Rect
from repro.legion.instance import Instance
from repro.legion.partition import Tiling
from repro.legion.privilege import Privilege


class InstanceLookupCache:
    """Version-checked memo of instance resolutions per memory.

    Keys are ``(memory_uid, region_uid, rect)``; values pair the
    resolved :class:`Instance` with the owning store's version at the
    time of resolution.  A hit whose stored version no longer matches
    the store's current version is stale and ignored — the store's
    contents may have changed in a way that alters the scan result
    (a grown instance now containing the rect, a dropped instance,
    a wiped memory).
    """

    __slots__ = ("_entries",)

    # Steady-state working sets are (requirements x colors) entries; a
    # CG iteration at 1024 colors needs a few thousand.  On overflow
    # the cache is cleared wholesale — refill is one miss per key.
    MAX_ENTRIES = 1 << 16

    def __init__(self) -> None:
        self._entries: Dict[
            Tuple[int, int, Rect], Tuple[Instance, int]
        ] = {}

    def get(
        self, key: Tuple[int, int, Rect], version: int
    ) -> Optional[Instance]:
        """The cached instance, or None on miss / version mismatch."""
        entry = self._entries.get(key)
        if entry is not None and entry[1] == version:
            return entry[0]
        return None

    def put(
        self, key: Tuple[int, int, Rect], inst: Instance, version: int
    ) -> None:
        """Record a resolution at the store's current version."""
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
        self._entries[key] = (inst, version)

    def clear(self) -> None:
        """Drop every entry (chaos memory wipes clear wholesale)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class SolveMemo:
    """Bounded memo of constraint-solve *plans* by structural signature.

    Signatures come from :func:`repro.constraints.solver.solve_signature`
    and embed region uids — which are never recycled — plus key-partition
    boundaries, so a repartition (a store's key partition changing)
    changes the signature instead of requiring explicit invalidation.
    Values are :func:`repro.constraints.solver.solution_plan` recipes,
    not partition objects: holding partitions would keep their regions
    alive past the program's last reference, blocking the destructor
    that recycles instances into the allocation pool.  Hits rebuild
    concrete partitions from the current stores.
    """

    __slots__ = ("_entries",)

    MAX_ENTRIES = 1024

    def __init__(self) -> None:
        self._entries: Dict[tuple, dict] = {}

    def get(self, sig: tuple) -> Optional[dict]:
        """The cached solution dict for a signature, or None."""
        return self._entries.get(sig)

    def put(self, sig: tuple, solution: dict) -> None:
        """Memoize a solve result."""
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
        self._entries[sig] = solution

    def clear(self) -> None:
        """Drop every memoized solution."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class ImagePartitionCache:
    """Memo of image-partition geometry keyed by source-data epoch.

    Image partitions (:class:`~repro.legion.partition.ImageByRange` /
    ``ImageByCoordinate``) read region *data* at construction — the
    data-dependent communication analysis of the paper — so they cannot
    be memoized structurally like tilings.  Instead the runtime bumps
    :meth:`bump` for every region a task writes; a cache key embeds the
    source region's epoch, so any write to the source invalidates its
    images for free.  Values are tuples of :class:`Rect` (plain int
    geometry — never partition or region objects, which would pin
    regions past their last program reference); hits rebuild fresh
    partition objects around the current regions
    (:func:`repro.constraints.solver._image_cached`).
    """

    __slots__ = ("_entries", "epochs")

    MAX_ENTRIES = 512

    def __init__(self) -> None:
        self._entries: Dict[tuple, object] = {}
        # region uid -> number of task writes observed (0 if never).
        self.epochs: Dict[int, int] = {}

    def bump(self, uid: int) -> None:
        """Record a write to a region (invalidates its images)."""
        self.epochs[uid] = self.epochs.get(uid, 0) + 1

    def get(self, key: tuple):
        """The cached geometry, or None."""
        return self._entries.get(key)

    def put(self, key: tuple, value) -> None:
        """Memoize computed image geometry."""
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
        self._entries[key] = value

    def clear(self) -> None:
        """Drop every entry (epochs are kept — they only grow)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def eligible_write_reqs(task, replay: bool, freed_uids) -> dict:
    """Requirements whose per-color writes may be batched, by name.

    A write requirement is eligible when deferring its ``mark_written``
    calls to one end-of-launch :meth:`RegionCoherence.write_complete`
    is provably identical to the sequential per-color calls:

    * exclusive write privilege (WRITE / WRITE_DISCARD — REDUCE folds
      interleave with copies and are batched separately by the fold
      path), and it is the region's only writer in this task;
    * the partition is a :class:`Tiling` of the requirement's own
      region — disjoint full-width row bands covering the region, so
      the final coherence state is the tiles themselves regardless of
      prior validity, and mid-launch queries restricted to later bands
      cannot observe earlier bands' deferred writes;
    * every other requirement touching the same region is a READ under
      a Tiling with *identical boundaries* — color ``c`` then only ever
      reads band ``c``, which no other color writes, so deferring the
      earlier bands' writes is unobservable.  (Fused tasks routinely
      carry such read/write pairs for their chained temporaries.)  Any
      other companion — a Replicate broadcast, a differently-cut
      tiling, an image — could legally observe an earlier color's
      write, so the region is ineligible;
    * not a journal-replay of a since-freed region (those writes are
      skipped entirely).
    """
    by_uid: Dict[int, list] = {}
    for req in task.requirements:
        by_uid.setdefault(req.region.uid, []).append(req)
    eligible = {}
    for uid, reqs in by_uid.items():
        if replay and uid in freed_uids:
            continue
        writer = None
        boundaries = None
        ok = True
        for req in reqs:
            part = req.partition
            if type(part) is not Tiling or part.region.uid != uid:
                ok = False
                break
            if boundaries is None:
                boundaries = part.boundaries
            elif part.boundaries != boundaries:
                ok = False
                break
            priv = req.privilege
            if priv is Privilege.READ:
                continue
            if priv is Privilege.WRITE or priv is Privilege.WRITE_DISCARD:
                if writer is not None:  # two writers: order matters
                    ok = False
                    break
                writer = req
            else:  # REDUCE folds are handled by the fold path
                ok = False
                break
        if ok and writer is not None:
            eligible[writer.name] = writer
    return eligible

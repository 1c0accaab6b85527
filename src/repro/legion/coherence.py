"""Per-memory validity tracking: the source of derived communication.

For every region, the runtime tracks *which rectangles of it are valid in
which memory*, each tagged with the simulated time the data became
available there.  Reads compute the missing pieces (``needed - valid``)
and generate copies from a memory that holds them; writes invalidate
every other memory's overlap.  This is the dynamic communication analysis
that makes the §4.3 halo exchange precise: in steady state only the
one-element halo of ``x`` is missing on each GPU, so only one element is
copied per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.geometry import Rect, RectSet


def _disjoint(a: Rect, b: Rect) -> bool:
    """Allocation-free overlap precheck (regions are 1-D or 2-D)."""
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    if bhi[0] <= alo[0] or ahi[0] <= blo[0]:
        return True
    if len(alo) == 1:
        return False
    return bhi[1] <= alo[1] or ahi[1] <= blo[1]


@dataclass
class ValidPiece:
    """One valid rect with its availability time."""
    rect: Rect
    ready_time: float


@dataclass
class RegionCoherence:
    """Validity state of one region across all memories."""

    # memory uid -> list of disjoint valid pieces with availability times
    valid: Dict[int, List[ValidPiece]] = field(default_factory=dict)
    # rects ever written through any memory; reads of written data that
    # is not valid in the reading memory are *stale* — the independent
    # assertion validation mode checks after staging (repro.analysis).
    written: RectSet = field(default_factory=RectSet)

    # ------------------------------------------------------------------
    def pieces(self, memory_uid: int) -> List[ValidPiece]:
        """A memory's valid pieces (created on demand)."""
        return self.valid.setdefault(memory_uid, [])

    def valid_set(self, memory_uid: int) -> RectSet:
        """A memory's valid rects as a RectSet."""
        return RectSet([p.rect for p in self.pieces(memory_uid)])

    def missing(self, memory_uid: int, needed: Rect) -> List[Rect]:
        """Sub-rects of ``needed`` that are not valid in ``memory_uid``."""
        if needed.is_empty():
            return []
        remaining = [needed]
        for piece in self.pieces(memory_uid):
            # Pieces disjoint from ``needed`` cannot intersect any
            # remainder of it; skipping them leaves ``remaining``
            # identical (subtract would return each rect unchanged).
            if _disjoint(piece.rect, needed):
                continue
            nxt: List[Rect] = []
            for rect in remaining:
                nxt.extend(rect.subtract(piece.rect))
            remaining = nxt
            if not remaining:
                break
        return remaining

    def ready_time(self, memory_uid: int, needed: Rect) -> float:
        """Latest availability time of valid data overlapping ``needed``."""
        t = 0.0
        for piece in self.pieces(memory_uid):
            if piece.ready_time > t and not _disjoint(piece.rect, needed):
                t = piece.ready_time
        return t

    def find_source(self, rect: Rect, exclude: int) -> List[Tuple[int, Rect, float]]:
        """Cover ``rect`` with valid pieces from other memories.

        Returns ``(memory_uid, piece_rect, ready_time)`` fragments whose
        union covers ``rect``.  Pieces that exist nowhere (never-written
        data) are silently dropped — reading uninitialized data is legal
        and transfers nothing.
        """
        remaining = [rect]
        fragments: List[Tuple[int, Rect, float]] = []
        for mem_uid, pieces in self.valid.items():
            if mem_uid == exclude or not remaining:
                continue
            for piece in pieces:
                # Every remainder is inside ``rect``: a piece disjoint
                # from it contributes no fragment and leaves
                # ``remaining`` unchanged.
                if _disjoint(piece.rect, rect):
                    continue
                nxt: List[Rect] = []
                for want in remaining:
                    part = want.intersect(piece.rect)
                    if part.is_empty():
                        nxt.append(want)
                    else:
                        fragments.append((mem_uid, part, piece.ready_time))
                        nxt.extend(want.subtract(part))
                remaining = nxt
                if not remaining:
                    break
        return fragments

    # ------------------------------------------------------------------
    def mark_valid(self, memory_uid: int, rect: Rect, time: float) -> None:
        """Record that ``rect`` became valid in ``memory_uid`` at ``time``."""
        if rect.is_empty():
            return
        pieces = self.pieces(memory_uid)
        out: List[ValidPiece] = []
        for piece in pieces:
            if _disjoint(piece.rect, rect):
                out.append(piece)
                continue
            for leftover in piece.rect.subtract(rect):
                out.append(ValidPiece(leftover, piece.ready_time))
        out.append(ValidPiece(rect, time))
        self.valid[memory_uid] = out

    def stale(self, memory_uid: int, rect: Rect) -> List[Rect]:
        """Pieces of ``rect`` written somewhere but not valid here.

        Unwritten data is never stale: reading it is legal and
        transfers nothing (attach semantics, see :meth:`find_source`).
        """
        need = self.written.intersect_rect(rect)
        if need.is_empty():
            return []
        return need.subtract(self.valid_set(memory_uid)).rects()

    def mark_written(self, memory_uid: int, rect: Rect, time: float) -> None:
        """A write: valid here, invalid everywhere else (overlap)."""
        if rect.is_empty():
            return
        self.written.add(rect)
        for mem_uid in list(self.valid.keys()):
            if mem_uid == memory_uid:
                continue
            pieces = self.valid[mem_uid]
            # Rebuild lazily: a list no piece of which overlaps the
            # written rect is kept as-is (the rebuild would reproduce
            # it element for element).
            out: Optional[List[ValidPiece]] = None
            for idx, piece in enumerate(pieces):
                if _disjoint(piece.rect, rect):
                    if out is not None:
                        out.append(piece)
                    continue
                if out is None:
                    out = pieces[:idx]
                for leftover in piece.rect.subtract(rect):
                    out.append(ValidPiece(leftover, piece.ready_time))
            if out is not None:
                self.valid[mem_uid] = out
        self.mark_valid(memory_uid, rect, time)

    def write_complete(self, writes: List[Tuple[int, Rect, float]]) -> None:
        """Batched equivalent of per-color :meth:`mark_written` calls.

        ``writes`` is ``(memory_uid, rect, time)`` per color, in color
        order, empty rects omitted, where the rects are the tiles of a
        disjoint partition covering the whole region (the runtime's
        batched-write eligibility check, :func:`repro.legion.fastpath
        .eligible_write_reqs`, guarantees this).  Under that geometry
        the sequential ``mark_written`` loop converges to a state
        independent of prior validity — every pre-existing piece is subtracted away
        tile by tile, each written memory ends holding exactly its own
        tiles in color order, and ``written`` receives the same
        per-tile add sequence — so one pass reproduces it exactly
        without the O(colors x memories) list rebuilds.
        """
        valid = self.valid
        for mem_uid in valid:
            valid[mem_uid] = []
        # Tiles of one disjoint partition: the batched written-set union
        # skips tile-vs-tile subtracts (identical outcome, O(n) not
        # O(n^2) — fresh regions pay the full scan on every first write
        # otherwise).
        self.written.add_disjoint(rect for _, rect, _ in writes)
        for mem_uid, rect, t in writes:
            lst = valid.get(mem_uid)
            if lst is None:
                lst = valid[mem_uid] = []
            lst.append(ValidPiece(rect, t))

    def invalidate(self, memory_uid: int, rect: Optional[Rect] = None) -> None:
        """Drop one memory's validity (all of it, or just ``rect``).

        This is how evictions, spills and simulated node losses are
        expressed: the data stops being *resident* there, while the
        ``written`` history is kept so reads of the dropped pieces must
        be re-justified by copies (or flagged stale).
        """
        if rect is None:
            self.valid.pop(memory_uid, None)
            return
        pieces = self.valid.get(memory_uid)
        if not pieces:
            return
        out: List[ValidPiece] = []
        for piece in pieces:
            if _disjoint(piece.rect, rect):
                out.append(piece)
                continue
            for leftover in piece.rect.subtract(rect):
                out.append(ValidPiece(leftover, piece.ready_time))
        self.valid[memory_uid] = out

    def only_copy(self, memory_uid: int, rect: Rect) -> RectSet:
        """Written pieces of ``rect`` whose *only* valid copy is here.

        These are the "dirty" bytes an eviction would lose — the spill
        policy must write them back (to system memory) before dropping
        the instance, where a clean instance can simply be discarded.
        """
        dirty = self.written.intersect_rect(rect).intersect(
            self.valid_set(memory_uid)
        )
        for mem_uid in self.valid:
            if mem_uid == memory_uid or dirty.is_empty():
                continue
            dirty = dirty.subtract(self.valid_set(mem_uid))
        return dirty

    def invalidate_all(self) -> None:
        """Forget all placement (data stays exact)."""
        self.valid.clear()

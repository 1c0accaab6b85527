"""Static sparse-format selection over captured plans (auto-format pass).

The source paper fixes CSR/COO as the formats Legate Sparse speaks; this
module adds the closing move from the related work (pyGinkgo's
ELL / SELL-C-sigma, MSREP's balance argument): a *static* pass that
inspects a captured :class:`~repro.analysis.plan.PlanTrace` plus the
actual matrix's row-length distribution and decides — before any kernel
runs — which format each SpMV operand should be in.

The pass is three stages:

1. :func:`profile_matrix` condenses an operand's row lengths into a
   :class:`FormatProfile` (mean/max/std, ELL padding ratio, SELL-C-sigma
   slice imbalance, HYB spill volume).  Computed host-side; no kernels
   execute.
2. :func:`select_format` symbolically replays every candidate format
   through the machine model: per row-tile shard it evaluates the same
   shared cost formulas the generated kernels charge
   (:mod:`repro.analysis.costmodel`) and rolls them through
   ``Processor.kernel_time``, yielding ranked :class:`FormatCandidate`
   rows with conversion amortization break-evens.
3. :func:`advise_formats` walks the plan, groups SpMV launches by
   structure region, and emits :class:`FormatAdvice` plus the advisor
   lints ``format-skew``, ``format-padding-waste`` and
   ``format-convert-unamortized``.

The runtime never converts on its own: a program (or the format bench,
:mod:`repro.harness.format_bench`) applies a recommendation with
``asformat``.  Like the rest of :mod:`repro.analysis`, module
import pulls in nothing from :mod:`repro.legion` or :mod:`repro.distal`
(the tile-boundary helper resolves lazily).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import costmodel

#: SELL-C-sigma defaults: slice height C and sorting-window sigma.
#: Sigma is deliberately large (windows are clipped to row-tile
#: boundaries anyway, so each processor still permutes only its own
#: rows): a tile-spanning sort clusters the long tail of a skewed
#: row-length distribution into few slices, which is where SELL's
#: padding win over small fixed windows comes from.
DEFAULT_SELL_C = 16
DEFAULT_SELL_SIGMA = 4096
#: HYB splits at this quantile of the nonzero row-length distribution.
DEFAULT_HYB_QUANTILE = 0.9

#: Candidate formats the selector replays, mapped to whether the
#: generated SpMV kernel preserves CSR accumulation order (bitwise
#: identical results).  COO's nnz-split scatter-add does not, so the
#: runtime never auto-converts to it — it stays advice-only.
CANDIDATE_FORMATS: Dict[str, bool] = {
    "csr": True,
    "ell": True,
    "sell": True,
    "hyb": True,
    "coo": False,
}


def tile_boundaries(n: int, colors: int) -> List[int]:
    """Row-tile boundaries, exactly as the runtime partitions stores."""
    from repro.legion.partition import Tiling

    return Tiling.create_boundaries(n, colors)


def hyb_ell_width(row_lengths: np.ndarray, quantile: float = DEFAULT_HYB_QUANTILE) -> int:
    """The ELL-part width HYB uses: a quantile of the *nonzero* row
    lengths, floored at one lane (guards all-empty matrices, where
    ``np.quantile`` on an empty array would raise)."""
    rl = np.asarray(row_lengths)
    occupied = rl[rl > 0]
    if occupied.size == 0:
        return 1
    return max(1, int(np.quantile(occupied, quantile)))


# ----------------------------------------------------------------------
# SELL-C-sigma layout
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SellLayout:
    """Slot-level SELL-C-sigma layout shared by conversion and selector.

    Slots use the same global numbering as rows; ``perm[slot]`` is the
    original row stored there.  Sigma windows and slices are clipped to
    the runtime's row-tile boundaries, so each tile permutes onto
    itself and packed slices never cross shards.
    """

    c: int
    sigma: int
    perm: np.ndarray        # slot -> original row
    rowlen: np.ndarray      # per slot
    start: np.ndarray       # per slot: packed index of lane 0
    stride: np.ndarray      # per slot: packed distance between lanes
    slice_pos: np.ndarray   # (nslices, 2) packed [lo, hi)
    total: int              # packed entries including padding
    tile_ranges: Tuple[Tuple[int, int], ...]  # packed [lo, hi) per tile
    boundaries: Tuple[int, ...]

    @property
    def nslices(self) -> int:
        return int(self.slice_pos.shape[0])


def sell_layout(
    row_lengths: Sequence[int],
    boundaries: Sequence[int],
    c: int = DEFAULT_SELL_C,
    sigma: int = DEFAULT_SELL_SIGMA,
) -> SellLayout:
    """Compute the SELL-C-sigma layout for given row-tile boundaries."""
    if c < 1 or sigma < 1:
        raise ValueError("SELL-C-sigma needs c >= 1 and sigma >= 1")
    rl = np.asarray(row_lengths, dtype=np.int64)
    n = rl.shape[0]
    perm = np.empty(n, dtype=np.int64)
    rowlen = np.empty(n, dtype=np.int64)
    start = np.empty(n, dtype=np.int64)
    stride = np.empty(n, dtype=np.int64)
    slice_bounds: List[Tuple[int, int]] = []
    tile_ranges: List[Tuple[int, int]] = []
    offset = 0
    for t in range(len(boundaries) - 1):
        tlo, thi = int(boundaries[t]), int(boundaries[t + 1])
        tile_lo = offset
        for wlo in range(tlo, thi, sigma):
            whi = min(wlo + sigma, thi)
            order = np.argsort(-rl[wlo:whi], kind="stable")
            perm[wlo:whi] = np.arange(wlo, whi)[order]
        rowlen[tlo:thi] = rl[perm[tlo:thi]]
        for slo in range(tlo, thi, c):
            shi = min(slo + c, thi)
            cs = shi - slo
            width = int(rowlen[slo:shi].max()) if shi > slo else 0
            start[slo:shi] = offset + np.arange(cs)
            stride[slo:shi] = cs
            slice_bounds.append((offset, offset + cs * width))
            offset += cs * width
        tile_ranges.append((tile_lo, offset))
    slice_pos = (
        np.asarray(slice_bounds, dtype=np.int64)
        if slice_bounds
        else np.zeros((0, 2), dtype=np.int64)
    )
    return SellLayout(
        c=c,
        sigma=sigma,
        perm=perm,
        rowlen=rowlen,
        start=start,
        stride=stride,
        slice_pos=slice_pos,
        total=offset,
        tile_ranges=tuple(tile_ranges),
        boundaries=tuple(int(b) for b in boundaries),
    )


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FormatProfile:
    """Host-side row-distribution summary of one sparse operand."""

    rows: int
    cols: int
    nnz: int
    itemsize: int
    num_procs: int
    row_mean: float
    row_max: int
    row_std: float
    ell_width: int
    ell_padded: int
    ell_padding_ratio: float   # wasted fraction of padded lanes (0..1)
    sell_c: int
    sell_sigma: int
    sell_padded: int
    sell_slices: int
    sell_imbalance: float      # wasted fraction of packed lanes (0..1)
    hyb_width: int
    hyb_spill: int
    row_lengths: np.ndarray = field(repr=False)


def profile_matrix(
    row_lengths: Sequence[int],
    cols: int,
    itemsize: int,
    num_procs: int = 1,
    *,
    c: int = DEFAULT_SELL_C,
    sigma: int = DEFAULT_SELL_SIGMA,
    hyb_quantile: float = DEFAULT_HYB_QUANTILE,
) -> FormatProfile:
    """Condense row lengths into a :class:`FormatProfile`."""
    rl = np.asarray(row_lengths, dtype=np.int64)
    rows = int(rl.shape[0])
    nnz = int(rl.sum())
    row_max = int(rl.max()) if rows else 0
    ell_width = max(1, row_max)
    ell_padded = rows * ell_width
    boundaries = tile_boundaries(rows, num_procs)
    layout = sell_layout(rl, boundaries, c, sigma)
    hwidth = hyb_ell_width(rl, hyb_quantile)
    return FormatProfile(
        rows=rows,
        cols=int(cols),
        nnz=nnz,
        itemsize=int(itemsize),
        num_procs=int(num_procs),
        row_mean=float(rl.mean()) if rows else 0.0,
        row_max=row_max,
        row_std=float(rl.std()) if rows else 0.0,
        ell_width=ell_width,
        ell_padded=ell_padded,
        ell_padding_ratio=(
            (ell_padded - nnz) / ell_padded if ell_padded else 0.0
        ),
        sell_c=c,
        sell_sigma=sigma,
        sell_padded=layout.total,
        sell_slices=layout.nslices,
        sell_imbalance=(
            (layout.total - nnz) / layout.total if layout.total else 0.0
        ),
        hyb_width=hwidth,
        hyb_spill=int(np.maximum(rl - hwidth, 0).sum()),
        row_lengths=rl,
    )


# ----------------------------------------------------------------------
# Candidate replay
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FormatCandidate:
    """One format's modeled standing in the ranked replay."""

    fmt: str
    op_seconds: float        # modeled critical-path time of one SpMV
    total_seconds: float     # summed shard time (profiler kernel_seconds)
    convert_seconds: float   # one-time conversion from CSR
    delta_seconds: float     # csr op_seconds minus this op_seconds
    break_even_ops: float    # SpMVs until conversion amortizes (inf = never)
    bitwise_safe: bool


@dataclass(frozen=True)
class FormatDecision:
    """Ranked candidates plus the chosen (bitwise-safe) winner."""

    profile: FormatProfile
    candidates: Tuple[FormatCandidate, ...]
    best: FormatCandidate
    csr_seconds: float

    def candidate(self, fmt: str) -> Optional[FormatCandidate]:
        for cand in self.candidates:
            if cand.fmt == fmt:
                return cand
        return None


def _format_shard(fmt: str, rows: int, trl: np.ndarray, nnz: int,
                  profile: FormatProfile, pack_extent: int) -> Dict[str, int]:
    shard = {"rows": rows, "nnz": nnz}
    if fmt == "ell":
        shard["padded"] = rows * profile.ell_width
    elif fmt == "sell":
        shard["padded"] = pack_extent
        shard["slices"] = -(-rows // profile.sell_c)
    elif fmt == "hyb":
        shard["ell_padded"] = rows * profile.hyb_width
        shard["spill"] = int(np.maximum(trl - profile.hyb_width, 0).sum())
    return shard


def _convert_entries(fmt: str, shard: Dict[str, int]) -> int:
    if fmt == "ell" or fmt == "sell":
        return shard["padded"]
    if fmt == "hyb":
        return shard["ell_padded"] + shard["spill"]
    return shard["nnz"]


def select_format(profile: FormatProfile, scope, config) -> FormatDecision:
    """Replay every candidate format through the machine model.

    ``scope`` is the runtime's :class:`~repro.machine.MachineScope`;
    ``config`` supplies ``data_scale`` and the paper's §3
    ``local_reshape_penalty`` that CSR-family kernels pay.
    """
    procs = scope.processors
    boundaries = tile_boundaries(profile.rows, len(procs))
    rl = profile.row_lengths
    layout = sell_layout(rl, boundaries, profile.sell_c, profile.sell_sigma)
    scale = config.data_scale
    reshape = config.local_reshape_penalty
    cf = 4.0 if profile.itemsize == 16 else 1.0
    isz = profile.itemsize

    per_fmt: Dict[str, Dict[str, float]] = {}
    for fmt in CANDIDATE_FORMATS:
        op_crit = 0.0
        op_total = 0.0
        conv_crit = 0.0
        if fmt == "coo":
            # COO SpMV is nnz-split, not row-tiled.
            nnz_bounds = tile_boundaries(profile.nnz, len(procs))
            for t in range(len(nnz_bounds) - 1):
                snnz = nnz_bounds[t + 1] - nnz_bounds[t]
                flops, nbytes = costmodel.coo_spmv_shard_cost(
                    0, snnz, isz, cf
                )
                seconds = procs[t % len(procs)].kernel_time(
                    float(flops) * scale, float(nbytes) * scale
                )
                op_crit = max(op_crit, seconds)
                op_total += seconds
        for t in range(len(boundaries) - 1):
            tlo, thi = boundaries[t], boundaries[t + 1]
            trl = rl[tlo:thi]
            nnz = int(trl.sum())
            rows = thi - tlo
            plo, phi = layout.tile_ranges[t]
            shard = _format_shard(fmt, rows, trl, nnz, profile, phi - plo)
            proc = procs[t % len(procs)]
            if fmt != "coo":
                flops, nbytes = costmodel.spmv_shard_cost(
                    fmt, shard, isz, reshape, cf
                )
                seconds = proc.kernel_time(
                    float(flops) * scale, float(nbytes) * scale
                )
                op_crit = max(op_crit, seconds)
                op_total += seconds
            if fmt != "csr":
                cflops, cbytes = costmodel.convert_from_csr_cost(
                    rows, nnz, _convert_entries(fmt, shard), isz
                )
                conv_crit = max(
                    conv_crit,
                    proc.kernel_time(
                        float(cflops) * scale, float(cbytes) * scale
                    ),
                )
        per_fmt[fmt] = {
            "op": op_crit, "total": op_total, "convert": conv_crit,
        }

    csr_seconds = per_fmt["csr"]["op"]
    candidates = []
    for fmt, safe in CANDIDATE_FORMATS.items():
        entry = per_fmt[fmt]
        delta = csr_seconds - entry["op"]
        if fmt == "csr":
            break_even = 0.0
        elif delta > 0.0:
            break_even = math.ceil(entry["convert"] / delta)
        else:
            break_even = math.inf
        candidates.append(
            FormatCandidate(
                fmt=fmt,
                op_seconds=entry["op"],
                total_seconds=entry["total"],
                convert_seconds=entry["convert"],
                delta_seconds=delta,
                break_even_ops=break_even,
                bitwise_safe=safe,
            )
        )
    candidates.sort(key=lambda cand: cand.op_seconds)
    best = min(
        (cand for cand in candidates if cand.bitwise_safe),
        key=lambda cand: cand.op_seconds,
    )
    return FormatDecision(
        profile=profile,
        candidates=tuple(candidates),
        best=best,
        csr_seconds=csr_seconds,
    )


# ----------------------------------------------------------------------
# Plan walk
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FormatAdvice:
    """Per-operand recommendation emitted by the auto-format pass."""

    operand: str
    current_fmt: str
    recommended_fmt: str
    rows: int
    cols: int
    nnz: int
    row_mean: float
    row_max: int
    ops_observed: int
    current_seconds: float
    best_seconds: float
    predicted_speedup: float
    convert_seconds: float
    break_even_ops: float
    bitwise_safe: bool
    decision: FormatDecision = field(repr=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "operand": self.operand,
            "current_format": self.current_fmt,
            "recommended_format": self.recommended_fmt,
            "rows": self.rows,
            "cols": self.cols,
            "nnz": self.nnz,
            "row_mean": self.row_mean,
            "row_max": self.row_max,
            "ops_observed": self.ops_observed,
            "current_seconds": self.current_seconds,
            "best_seconds": self.best_seconds,
            "predicted_speedup": self.predicted_speedup,
            "convert_seconds": self.convert_seconds,
            "break_even_ops": self.break_even_ops,
            "bitwise_safe": self.bitwise_safe,
            "candidates": [
                {
                    "format": cand.fmt,
                    "op_seconds": cand.op_seconds,
                    "convert_seconds": cand.convert_seconds,
                    "break_even_ops": cand.break_even_ops,
                    "bitwise_safe": cand.bitwise_safe,
                }
                for cand in self.decision.candidates
            ],
        }


#: How to recover row lengths from a traced SpMV launch, per format.
#: (metadata store name, reducer over its host array)
_ROWLEN_SOURCES = {
    "csr": ("pos", lambda arr: arr[:, 1] - arr[:, 0]),
    # sell rowlen is per *slot*, but slots permute tiles onto
    # themselves, so per-tile statistics are unchanged.
    "ell": ("rowlen", lambda arr: arr),
    "sell": ("rowlen", lambda arr: arr),
    "hyb": ("rowlen", lambda arr: arr),
}

_SPMV_STATEMENT = "y(i)=A(i,j)*x(j)"


def advise_formats(
    plan,
    scope,
    config,
    *,
    skew_ratio: float = 8.0,
    padding_waste: float = 0.5,
    autoformat_on: bool = False,
    sell_c: int = DEFAULT_SELL_C,
    sell_sigma: int = DEFAULT_SELL_SIGMA,
) -> Tuple[List[FormatAdvice], List[Tuple[str, str, str]]]:
    """Walk a plan's SpMV launches and advise per-operand formats.

    Returns ``(advice, lints)`` where each lint is a plain
    ``(severity, rule, message)`` triple the advisor wraps into its
    :class:`~repro.analysis.advisor.Finding` type.  With
    ``autoformat_on`` an unamortized conversion escalates from warning
    to error so ``advise --autoformat`` can gate CI.
    """
    groups: Dict[int, Dict[str, object]] = {}
    for op in plan.ops:
        model = costmodel.for_task_name(op.name)
        if model is None or model.statement != _SPMV_STATEMENT:
            continue
        source = _ROWLEN_SOURCES.get(model.fmt)
        if source is None:
            continue
        meta_name, reduce_fn = source
        stores = {name: store for name, store, _priv in op.args}
        meta = stores.get(meta_name)
        x = stores.get("x")
        vals = stores.get("vals")
        if vals is None:
            vals = stores.get("data")
        if meta is None or x is None or vals is None:
            continue
        key = meta.region.uid
        group = groups.setdefault(
            key,
            {
                "fmt": model.fmt,
                "row_lengths": np.asarray(
                    reduce_fn(meta.region.data), dtype=np.int64
                ),
                "cols": int(x.region.shape[0]),
                "itemsize": int(np.dtype(vals.region.dtype).itemsize),
                "label": meta.region.name or f"region{key}",
                "count": 0,
            },
        )
        group["count"] += 1

    advice: List[FormatAdvice] = []
    lints: List[Tuple[str, str, str]] = []
    for key in sorted(groups):
        group = groups[key]
        rl = group["row_lengths"]
        profile = profile_matrix(
            rl,
            group["cols"],
            group["itemsize"],
            num_procs=len(scope.processors),
            c=sell_c,
            sigma=sell_sigma,
        )
        decision = select_format(profile, scope, config)
        current = decision.candidate(group["fmt"])
        cur_seconds = current.op_seconds if current else decision.csr_seconds
        best = decision.best
        entry = FormatAdvice(
            operand=str(group["label"]),
            current_fmt=str(group["fmt"]),
            recommended_fmt=best.fmt,
            rows=profile.rows,
            cols=profile.cols,
            nnz=profile.nnz,
            row_mean=profile.row_mean,
            row_max=profile.row_max,
            ops_observed=int(group["count"]),
            current_seconds=cur_seconds,
            best_seconds=best.op_seconds,
            predicted_speedup=(
                cur_seconds / best.op_seconds if best.op_seconds else 1.0
            ),
            convert_seconds=best.convert_seconds,
            break_even_ops=best.break_even_ops,
            bitwise_safe=best.bitwise_safe,
            decision=decision,
        )
        advice.append(entry)

        skew = (
            profile.row_max / profile.row_mean if profile.row_mean else 0.0
        )
        if (
            entry.current_fmt == "csr"
            and skew >= skew_ratio
            and best.fmt != "csr"
        ):
            lints.append((
                "warning",
                "format-skew",
                f"operand {entry.operand!r}: row-length skew "
                f"max/mean = {skew:.1f} over {entry.ops_observed} SpMV "
                f"launch(es); format {best.fmt!r} models "
                f"{entry.predicted_speedup:.2f}x over CSR "
                f"(break-even {best.break_even_ops:g} ops)",
            ))
        if entry.current_fmt in ("ell", "hyb"):
            waste = profile.ell_padding_ratio
            if waste >= padding_waste:
                lints.append((
                    "warning",
                    "format-padding-waste",
                    f"operand {entry.operand!r}: {100.0 * waste:.0f}% of "
                    f"{entry.current_fmt.upper()} lanes are padding "
                    f"(width {profile.ell_width}, mean row "
                    f"{profile.row_mean:.1f}); consider SELL-C-sigma "
                    f"or HYB",
                ))
        if (
            best.fmt != entry.current_fmt
            and math.isfinite(best.break_even_ops)
            and entry.ops_observed < best.break_even_ops
        ):
            lints.append((
                "error" if autoformat_on else "warning",
                "format-convert-unamortized",
                f"operand {entry.operand!r}: converting to {best.fmt!r} "
                f"amortizes after {best.break_even_ops:g} SpMVs but the "
                f"plan performs only {entry.ops_observed}"
                + (
                    "; the conversion would cost more than it saves"
                    if autoformat_on
                    else ""
                ),
            ))
        elif (
            best.fmt != entry.current_fmt
            and not math.isfinite(best.break_even_ops)
        ):
            lints.append((
                "warning",
                "format-convert-unamortized",
                f"operand {entry.operand!r}: no candidate format beats "
                f"{entry.current_fmt!r} by enough to amortize conversion",
            ))
    return advice, lints

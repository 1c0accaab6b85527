"""CSR-vs-advised-format measurement harness (static format selection).

Runs a power-law-skew SpMV workload (:mod:`repro.harness.skew`) twice —
once with plain CSR and once converted with ``asformat`` to the format
the static selector (:mod:`repro.analysis.formatsel`) picks
(SELL-C-sigma on this workload) — and reports for each format:

* modeled loop time and summed per-shard kernel seconds (the format
  selector's objective),
* host wall-clock for the timed section,
* a bitwise digest of the result vector.

:func:`run_all` packages the pair into the ``BENCH_format.json``
payload written by ``scripts/format.py``; ``benchmarks/test_format.py``
asserts the acceptance bar on the same dicts (a non-CSR recommendation
that amortizes within the loop, strictly lower modeled compute and
identical bits).
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Optional

import numpy as np

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.formatsel import profile_matrix, select_format
from repro.harness.skew import power_law_csr
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import Machine, ProcessorKind, summit

SKEW_N = 8192
SKEW_M = 4096
SKEW_SEED = 42
# Past the selector's predicted break-even (~70 SpMVs on this matrix),
# so the one-time conversion amortizes inside the timed loop.
SPMV_ITERS = 120


def _digest(arr) -> str:
    data = arr.to_numpy()
    return hashlib.sha256(data.tobytes()).hexdigest()


def bench_spmv(
    machine: Optional[Machine] = None,
    procs: int = 2,
    n: int = SKEW_N,
    m: int = SKEW_M,
    iters: int = SPMV_ITERS,
    fmt: str = "csr",
) -> Dict:
    """One skew-SpMV run on the matrix in format ``fmt``; returns the
    metrics dict."""
    machine = machine or summit(nodes=1)
    scipy_mat = power_law_csr(n, m, seed=SKEW_SEED)
    rt = Runtime(
        machine.scope(ProcessorKind.GPU, procs), RuntimeConfig.legate()
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(scipy_mat).asformat(fmt)
        x = rnp.ones(m)
        y = A @ x  # warm-up: staging
        t0 = rt.barrier()
        snap = rt.profiler.snapshot()
        wall0 = time.perf_counter()
        for _ in range(iters):
            y = A @ x
        t1 = rt.barrier()
        wall1 = time.perf_counter()
        delta = rt.profiler.since(snap)
        digest = _digest(y)
    return {
        "format": fmt,
        "iters": iters,
        "rows": n,
        "cols": m,
        "nnz": int(scipy_mat.nnz),
        "modeled_time_s": t1 - t0,
        "modeled_kernel_seconds": delta.kernel_seconds,
        "tasks_launched": delta.tasks_launched,
        "host_wall_clock_s": wall1 - wall0,
        "solution_sha256": digest,
    }


def static_advice(
    machine: Optional[Machine] = None,
    procs: int = 2,
    n: int = SKEW_N,
    m: int = SKEW_M,
) -> Dict:
    """The selector's static pick for the bench matrix (no runtime)."""
    machine = machine or summit(nodes=1)
    scope = machine.scope(ProcessorKind.GPU, procs)
    scipy_mat = power_law_csr(n, m, seed=SKEW_SEED)
    lengths = np.diff(scipy_mat.indptr).astype(np.int64)
    profile = profile_matrix(
        lengths, m, scipy_mat.dtype.itemsize, num_procs=procs
    )
    decision = select_format(profile, scope, RuntimeConfig.legate())
    best = decision.best
    return {
        "recommended_format": best.fmt,
        "csr_op_seconds": decision.csr_seconds,
        "best_op_seconds": best.op_seconds,
        "break_even_ops": best.break_even_ops,
        "row_skew": profile.row_max / max(profile.row_mean, 1e-300),
    }


def run_all(procs: int = 2) -> Dict:
    """The full BENCH_format payload: static advice plus both formats."""
    advice = static_advice(procs=procs)
    baseline = bench_spmv(procs=procs)
    advised = bench_spmv(procs=procs, fmt=advice["recommended_format"])
    return {
        "benchmark": "static format selection (power-law skew SpMV)",
        "machine": f"summit:1 x {procs} GPUs (simulated)",
        "static_advice": advice,
        "csr": baseline,
        "advised": advised,
        "kernel_seconds_ratio": (
            advised["modeled_kernel_seconds"]
            / baseline["modeled_kernel_seconds"]
        ),
        "bitwise_identical": (
            advised["solution_sha256"] == baseline["solution_sha256"]
        ),
    }

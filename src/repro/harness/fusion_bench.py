"""Fused-vs-unfused measurement harness (task and kernel fusion).

Runs the two launch-overhead-bound solver workloads from the paper —
the Fig. 9 CG inner loop and the Fig. 10 GMG V-cycle PCG — in three
configurations:

* **merged** — deferred fusion window on AND kernel fusion on (the
  ``legate`` default): merge-safe groups execute as one generated loop
  nest with one cost entry;
* **replay** — fusion window on, ``kernel_fusion=False``: fused groups
  replay their sub-kernels in issue order (PR 3 behaviour);
* **unfused** — ``fusion=False``: one launch per operation.

and reports for each mode modeled solve time, issue-clock launch
overhead, modeled compute seconds (the profiler's ``kernel_seconds``),
launch / fusion / merge counters, copy traffic, host wall-clock for
the timed section, and a bitwise digest of the solution vector.

:func:`run_all` packages both workloads into the ``BENCH_fusion.json``
payload written by ``scripts/bench.py``; ``benchmarks/test_fusion.py``
asserts the acceptance bars on the same dicts (>= 30 % fewer launches,
strictly lower modeled launch overhead, merged modeled compute strictly
below replay, identical bits across all three modes).
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, Optional

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.poisson import poisson2d_scipy
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import Machine, ProcessorKind, summit

CG_GRID = 64  # 4096-row 2-D Poisson: small tasks, overhead-bound
CG_ITERS = 6
GMG_GRID = 63  # odd: the 2-level hierarchy coarsens (k-1)/2
GMG_ITERS = 4


def _digest(arr) -> str:
    data = arr.to_numpy()
    return hashlib.sha256(data.tobytes()).hexdigest()


def _measure(
    machine: Machine,
    procs: int,
    fusion: bool,
    setup: Callable,
    solve: Callable,
    iters: int,
    kernel_fusion: bool = False,
) -> Dict:
    rt = Runtime(
        machine.scope(ProcessorKind.GPU, procs),
        RuntimeConfig.legate(fusion=fusion, kernel_fusion=kernel_fusion),
    )
    with runtime_scope(rt):
        state = setup()
        solve(state, 1)  # warm-up: staging + instance steady state
        t0 = rt.barrier()
        snap = rt.profiler.snapshot()
        wall0 = time.perf_counter()
        x = solve(state, iters)
        t1 = rt.barrier()
        wall1 = time.perf_counter()
        delta = rt.profiler.since(snap)
        digest = _digest(x)
    return {
        "fusion": fusion,
        "kernel_fusion": kernel_fusion,
        "iters": iters,
        "modeled_time_s": t1 - t0,
        "modeled_iters_per_s": iters / (t1 - t0),
        "modeled_launch_overhead_s": delta.launch_overhead_seconds,
        "modeled_compute_s": delta.kernel_seconds,
        "tasks_launched": delta.tasks_launched,
        "fused_tasks": delta.fused_tasks,
        "tasks_fused_away": delta.tasks_fused_away,
        "regions_elided": delta.regions_elided,
        "kernel_merges": delta.kernel_merges,
        "copy_bytes": {k: int(v) for k, v in delta.copy_bytes.items() if v},
        "host_wall_clock_s": wall1 - wall0,
        "solution_sha256": digest,
    }


def bench_cg(
    machine: Optional[Machine] = None,
    procs: int = 2,
    grid: int = CG_GRID,
    iters: int = CG_ITERS,
    fusion: bool = True,
    kernel_fusion: bool = False,
) -> Dict:
    """One fig9-style CG run; returns the metrics dict."""
    machine = machine or summit(nodes=1)

    def setup():
        A = sp.csr_matrix(poisson2d_scipy(grid))
        b = rnp.ones(grid * grid)
        return A, b

    def solve(state, maxiter):
        A, b = state
        x, _info = sp.linalg.cg(A, b, rtol=0.0, maxiter=maxiter)
        return x

    return _measure(
        machine, procs, fusion, setup, solve, iters,
        kernel_fusion=kernel_fusion,
    )


def bench_gmg(
    machine: Optional[Machine] = None,
    procs: int = 2,
    grid: int = GMG_GRID,
    iters: int = GMG_ITERS,
    fusion: bool = True,
    kernel_fusion: bool = False,
) -> Dict:
    """One fig10-style GMG-preconditioned CG run; returns metrics."""
    from repro.apps.multigrid import TwoLevelGMG

    machine = machine or summit(nodes=1)
    if grid % 2 == 0:
        raise ValueError("GMG grid side must be odd")

    def setup():
        A = sp.csr_matrix(poisson2d_scipy(grid))
        b = rnp.ones(grid * grid)
        gmg = TwoLevelGMG(A, grid, coarse_rtol=0.0, coarse_maxiter=8)
        return A, b, gmg.as_preconditioner()

    def solve(state, maxiter):
        A, b, M = state
        x, _info = sp.linalg.cg(A, b, rtol=0.0, maxiter=maxiter, M=M)
        return x

    return _measure(
        machine, procs, fusion, setup, solve, iters,
        kernel_fusion=kernel_fusion,
    )


def _pair(runner, **kwargs) -> Dict:
    fused = runner(fusion=True, kernel_fusion=True, **kwargs)
    replay = runner(fusion=True, kernel_fusion=False, **kwargs)
    unfused = runner(fusion=False, kernel_fusion=False, **kwargs)
    saved = 1.0 - fused["tasks_launched"] / unfused["tasks_launched"]
    return {
        # "fused" is the full default stack: window + merged nests.
        "fused": fused,
        "replay": replay,
        "unfused": unfused,
        "launches_saved_fraction": saved,
        "overhead_ratio": (
            fused["modeled_launch_overhead_s"]
            / unfused["modeled_launch_overhead_s"]
        ),
        # Kernel fusion's own win: merged nests vs issue-order replay
        # of the *same* fused groups.  Deduplicated reads and
        # never-materialized temporaries make this strictly < 1.
        "compute_ratio": (
            fused["modeled_compute_s"] / replay["modeled_compute_s"]
        ),
        "bitwise_identical": (
            fused["solution_sha256"]
            == replay["solution_sha256"]
            == unfused["solution_sha256"]
        ),
    }


def run_all(procs: int = 2) -> Dict:
    """The full BENCH_fusion payload: both workloads, all three modes."""
    return {
        "benchmark": "automatic task fusion (deferred launch window)",
        "machine": f"summit:1 x {procs} GPUs (simulated)",
        "fig9_cg": _pair(bench_cg, procs=procs),
        "fig10_gmg": _pair(bench_gmg, procs=procs),
    }

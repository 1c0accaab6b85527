"""Host-runtime overhead measurement.

The simulated runtime's *modeled* time is the paper's subject, but the
host process pays real Python seconds to produce it — per-launch
dependence analysis, mapping scans and coherence rebuilds whose cost
grows with the color count (:mod:`repro.legion.fastpath` holds the
caches and batched analyses that keep it down).  This harness measures
it:

* **scale runs** — the Fig. 9 CG inner loop at summit:64 and
  summit:1024 simulated GPUs, reporting host wall-clock seconds per
  1 000 launches plus the profiler's host-phase breakdown (window
  flush, dependence, constraint solve, mapping, event advance) and
  cache hit/miss counters;
* **identity runs** — fig9 CG and fig10 GMG with ``validate=True``:
  solution sha256, modeled time and offline-checker verdict.

``scripts/overhead.py`` writes the payload to
``BENCH_runtime_overhead.json`` and enforces the acceptance bars: every
run's modeled time and solution sha256 equal the committed payload's,
and every validated run is checker-clean.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Dict, List, Optional

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.checker import check_log
from repro.apps.poisson import poisson2d_scipy
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import Machine, ProcessorKind, summit

CG_GRID = 64
CG_ITERS = 6
GMG_GRID = 63
GMG_ITERS = 4

# summit nodes carry 6 GPUs; round up so the scope can take `procs`.
GPUS_PER_NODE = 6

# Scale points: (procs, CG iterations).  Mapping cost grows with the
# color count, so the 1024-GPU point uses few iterations.
SCALES = ((64, 4), (1024, 2))
IDENTITY_WORKLOADS = ("fig9_cg", "fig10_gmg")


def _digest(arr) -> str:
    data = arr.to_numpy()
    return hashlib.sha256(data.tobytes()).hexdigest()


def _machine_for(procs: int) -> Machine:
    return summit(nodes=math.ceil(procs / GPUS_PER_NODE))


def _cg_state(grid: int):
    A = sp.csr_matrix(poisson2d_scipy(grid))
    b = rnp.ones(grid * grid)
    return A, b


def measure_scale(procs: int, iters: int, grid: int = CG_GRID) -> Dict:
    """Host seconds per 1k launches for CG at one machine scale."""
    rt = Runtime(
        _machine_for(procs).scope(ProcessorKind.GPU, procs),
        RuntimeConfig.legate(),
    )
    with runtime_scope(rt):
        A, b = _cg_state(grid)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1)  # warm-up
        rt.barrier()
        snap = rt.profiler.snapshot()
        wall0 = time.perf_counter()
        x, _info = sp.linalg.cg(A, b, rtol=0.0, maxiter=iters)
        t_model = rt.barrier()
        wall1 = time.perf_counter()
        delta = rt.profiler.since(snap)
        digest = _digest(x)
    wall = wall1 - wall0
    launches = delta.tasks_launched
    return {
        "machine": f"summit:{procs}",
        "procs": procs,
        "iters": iters,
        "tasks_launched": launches,
        "host_wall_clock_s": wall,
        "host_s_per_1k_launches": wall / launches * 1000.0 if launches else 0.0,
        "modeled_time_s": t_model,
        "host_phases_s": {
            k: v for k, v in sorted(delta.host_phase_seconds.items()) if v
        },
        "fastpath_counters": {
            k: int(v) for k, v in sorted(delta.fastpath_counters.items()) if v
        },
        "solution_sha256": digest,
    }


def measure_identity(workload: str, procs: int = 2) -> Dict:
    """One validated fig9-CG or fig10-GMG run; checker must be clean."""
    rt = Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, procs),
        RuntimeConfig.legate(validate=True),
    )
    with runtime_scope(rt):
        if workload == "fig9_cg":
            A, b = _cg_state(CG_GRID)
            state: tuple = (A, b, None)
            iters = CG_ITERS
        elif workload == "fig10_gmg":
            from repro.apps.multigrid import TwoLevelGMG

            A = sp.csr_matrix(poisson2d_scipy(GMG_GRID))
            b = rnp.ones(GMG_GRID * GMG_GRID)
            gmg = TwoLevelGMG(A, GMG_GRID, coarse_rtol=0.0, coarse_maxiter=8)
            state = (A, b, gmg.as_preconditioner())
            iters = GMG_ITERS
        else:  # pragma: no cover - caller error
            raise ValueError(f"unknown workload {workload!r}")
        A, b, M = state
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1, M=M)  # warm-up
        t0 = rt.barrier()
        x, _info = sp.linalg.cg(A, b, rtol=0.0, maxiter=iters, M=M)
        t1 = rt.barrier()
        digest = _digest(x)
    violations = check_log(rt.event_log)
    return {
        "workload": workload,
        "iters": iters,
        "modeled_time_s": t1 - t0,
        "solution_sha256": digest,
        "checker_violations": [str(v) for v in violations],
        "checker_clean": not violations,
    }


def run_all(scales=SCALES) -> Dict:
    """The full BENCH_runtime_overhead payload."""
    return {
        "benchmark": "host-runtime overhead (batched analysis + caches)",
        "metric": "host wall-clock seconds per 1000 task launches",
        "scales": {
            f"summit:{procs}": measure_scale(procs, iters)
            for procs, iters in scales
        },
        "identity": {
            workload: measure_identity(workload)
            for workload in IDENTITY_WORKLOADS
        },
    }


def mismatches(payload: Dict, reference: Dict) -> List[str]:
    """Every way ``payload`` breaks the acceptance bars.

    Each scale and identity run must reproduce the modeled time and
    solution sha256 that ``reference`` (the committed payload) records
    for it, and every validated identity run must be checker-clean.
    """
    failures = []
    for section in ("scales", "identity"):
        for key, run in payload[section].items():
            ref = reference.get(section, {}).get(key)
            if ref is None:
                failures.append(f"{key}: no committed entry to compare with")
                continue
            for field in ("modeled_time_s", "solution_sha256"):
                if run[field] != ref[field]:
                    failures.append(
                        f"{key}: {field} {run[field]!r} != committed "
                        f"{ref[field]!r}"
                    )
    for key, run in payload["identity"].items():
        if not run["checker_clean"]:
            failures.append(f"{key}: event-log checker found violations")
    return failures


def main(output: Optional[str] = None) -> Dict:  # pragma: no cover - CLI
    import json

    payload = run_all()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return payload


if __name__ == "__main__":  # pragma: no cover
    main()

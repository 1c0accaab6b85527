"""Kernel-fusion demo: merge-safe fused groups become one loop nest.

The deferred window fuses element-wise launches into one task; the
dependence analyzer (``repro.analysis.depend``) then proves which fused
groups can go further and execute as a single generated loop nest —
intermediates stay in nest values, shared operands are read once, one
cost entry for the group.  This demo runs a small CG solve twice, with
``RuntimeConfig.kernel_fusion`` on and off, and prints the per-group
verdicts from ``Runtime.fusion_log`` plus the profiler's merge
counters.  The solutions are bitwise identical by construction.

Run it directly:

    python examples/kernel_fusion_demo.py [--k 24] [--maxiter 4]

The static advisor reports the same verdicts, from its replay through
the runtime, for any program that runs on the ambient runtime (this
demo builds its own runtimes to compare configs, so point the advisor
at ``examples/advisor_demo.py`` instead and look for
``kernel-merge-applied`` findings):

    python -m repro.analysis advise examples/advisor_demo.py
"""

import argparse
import hashlib


def run_cg(k, maxiter, kernel_fusion):
    import repro.numeric as rnp
    import repro.sparse as sp
    from repro.apps.poisson import poisson2d_scipy
    from repro.legion.runtime import (
        Runtime,
        RuntimeConfig,
        runtime_scope,
    )
    from repro.machine import ProcessorKind, laptop

    machine = laptop()
    runtime = Runtime(
        machine.scope(ProcessorKind.GPU, 2),
        RuntimeConfig.legate(kernel_fusion=kernel_fusion),
    )
    with runtime_scope(runtime):
        A = sp.csr_matrix(poisson2d_scipy(k))
        b = rnp.ones(A.shape[0])
        x, _info = sp.linalg.cg(A, b, rtol=0.0, maxiter=maxiter)
        digest = hashlib.sha256(x.to_numpy().tobytes()).hexdigest()
    return runtime, digest


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=24, help="grid edge (k*k unknowns)")
    parser.add_argument("--maxiter", type=int, default=4)
    args = parser.parse_args()

    merged_rt, merged_digest = run_cg(args.k, args.maxiter, kernel_fusion=True)
    replay_rt, replay_digest = run_cg(args.k, args.maxiter, kernel_fusion=False)

    print(f"CG on poisson2d(k={args.k}), maxiter={args.maxiter}")
    print("\nfusion log with kernel_fusion=True (first 8 groups):")
    for names, elided, verdict in merged_rt.fusion_log[:8]:
        print(f"  [{verdict:>8s}] elided={elided}  {' + '.join(names)}")
    counts = {}
    for _names, _elided, verdict in merged_rt.fusion_log:
        counts[verdict] = counts.get(verdict, 0) + 1
    print("\nverdicts:", ", ".join(f"{v}={n}" for v, n in sorted(counts.items())))
    print(
        f"merged loop nests: {merged_rt.profiler.kernel_merges} "
        f"(replay run: {replay_rt.profiler.kernel_merges})"
    )
    print(
        f"modeled compute: merged {merged_rt.profiler.kernel_seconds:.6f}s, "
        f"replay {replay_rt.profiler.kernel_seconds:.6f}s"
    )
    identical = merged_digest == replay_digest
    print(f"solutions bitwise identical: {identical}")
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

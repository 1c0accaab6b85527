#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cg-weak-192 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is the separate traced run that reports per-layer metrics
and its own overhead against an untraced reference in the same process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report and a JSON report line with provenance and the
sample count behind every timing.  The exit code is 0 when every output
check passed, 1 when one failed and 2 on a usage or environment error.
"""

import os

# One thread per process: set before NumPy/SciPy load their BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups per run; setup_s is their median
SPANS_DIR = ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_samples_ms(steps) -> list:
    """One host sample per step: ms per op of that step."""
    return [1e3 * s.host_s / s.ops for s in steps]


def run_steps(workload, seconds: float, minimum: int, between=None) -> list:
    """Steps until ``seconds`` have passed and at least ``minimum`` ran;
    ``between()`` runs after each step."""
    steps = []
    deadline = time.perf_counter() + seconds
    while len(steps) < minimum or time.perf_counter() < deadline:
        steps.append(workload.step())
        if between is not None:
            between()
    return steps


def untraced(factory, seed: int, seconds: float):
    """The end-to-end measurement: repeated set-ups, then timed steps,
    with a calibration sample between every two timed units (see
    perfbench/calibrate.py)."""
    from perfbench import stats
    from perfbench.calibrate import Calibrator, adjusted_median

    calibrator = Calibrator()
    calibrator.sample()
    setup_s = []
    workload = None
    for _ in range(SETUPS):
        workload = None
        gc.collect()
        workload = factory()
        t0 = time.perf_counter()
        workload.setup(seed)
        setup_s.append(time.perf_counter() - t0)
        calibrator.sample()
    steps = run_steps(workload, seconds, workload.min_steps, between=calibrator.sample)
    summary = workload.summary(steps)
    samples = host_samples_ms(steps)
    cal = calibrator.samples
    metrics = {
        "setup_s": adjusted_median(setup_s, cal[: SETUPS + 1]),
        "host_ms_per_op": adjusted_median(samples, cal[SETUPS:]),
        "modeled_ops_per_s": workload.modeled_ops_per_s(steps, summary),
        "success_rate": (summary.attempted - summary.failed) / summary.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples_by_metric = {
        "setup_s": len(setup_s),
        "host_ms_per_op": len(samples),
        "modeled_ops_per_s": 1,
        "success_rate": summary.attempted,
        "peak_rss_mb": 1,
    }
    extra = {
        "raw_setup_s": stats.median(setup_s),
        "raw_host_ms_per_op": stats.median(samples),
        "setup_s_samples": setup_s,
        "host_ms_per_op_samples": samples,
        "calibration_samples_ms": [1e3 * c for c in cal],
    }
    tail = stats.tail_percentile(len(samples))
    if tail is not None:
        extra[f"raw_host_ms_per_op_p{tail:g}"] = stats.percentile(samples, tail)
    return summary, metrics, samples_by_metric, extra


def traced(factory, seed: int, seconds: float):
    """The per-layer measurement: untraced reference steps, then a fixed
    number of traced steps on a fresh set-up with profiling on."""
    from perfbench import layers, stats
    from perfbench.spans import Tracer

    t_start = time.perf_counter()
    reference = factory()
    reference.setup(seed)
    ref_steps = [reference.step()]
    # Spend up to a third of the budget on reference steps.
    while time.perf_counter() - t_start < seconds / 3 and len(ref_steps) < 8:
        ref_steps.append(reference.step())
    reference = None
    gc.collect()

    tracer = Tracer()
    runtimes = []
    layers.install(tracer, runtimes)
    try:
        workload = factory()
        workload.setup(seed, profile=True)
        probe = layers.Probe(runtimes)
        tracer.reset()
        t0 = time.perf_counter()
        steps = [workload.step() for _ in range(workload.traced_steps)]
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    summary = workload.summary(steps)
    ops = sum(s.ops for s in steps)
    ref_ms = stats.median(host_samples_ms(ref_steps))
    traced_ms = stats.median(host_samples_ms(steps))
    metrics = probe.metrics(tracer, wall, ops)
    own, report = workload.layer_metrics(steps, ops)
    metrics.update(own)
    metrics["trace.overhead_share"] = traced_ms / ref_ms - 1.0
    metrics["trace.spans"] = tracer.recorded / ops
    extra = {
        "traced_steps": len(steps),
        "traced_ops": ops,
        "reference_steps": len(ref_steps),
        "reference_host_ms_per_op": ref_ms,
        "traced_host_ms_per_op": traced_ms,
        "spans_file": write_spans(tracer, workload.name, seed),
        **report,
    }
    return summary, metrics, extra


def write_spans(tracer, name: str, seed: int) -> str:
    """Write the kept spans beside the checkout's other run outputs."""
    out = ROOT / SPANS_DIR
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-{seed}.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "recorded": tracer.recorded,
                "kept": len(tracer.spans),
                "spans": [
                    [s.sid, s.parent, s.layer, s.name, s.start, s.end]
                    for s in tracer.spans
                ],
            },
            fh,
        )
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {src}", file=sys.stderr)
        return 2
    # Import the benchmark as the ``perfbench`` package, not as loose
    # modules from the script's own directory.
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(ROOT), str(src)] + [
        p for p in sys.path if Path(p or ".").resolve() != here
    ]
    from perfbench import layers, provenance
    from perfbench.metrics import END_TO_END
    from perfbench.workloads import WORKLOADS

    factory = WORKLOADS.get(args.workload)
    if factory is None:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    t_run = time.perf_counter()
    if args.trace:
        summary, values, extra = traced(factory, args.seed, args.seconds)
        units = layers.units()
        names = layers.metric_names()
        samples = {}
    else:
        summary, values, samples, extra = untraced(factory, args.seed, args.seconds)
        units = dict(END_TO_END)
        names = [name for name, _ in END_TO_END]
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in names}

    report = {
        "workload": args.workload,
        "op": factory.op,
        "trace": args.trace,
        "provenance": provenance.collect(ROOT, sys.argv, args.seed),
        "samples": samples,
        "details": summary.report,
        "extra": extra,
        "problems": summary.problems,
        "run_s": time.perf_counter() - t_run,
    }
    for name in names:
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"{name:<34} {values[name]:>16.6g} {units[name]}{n}")
    for problem in summary.problems:
        print(f"CHECK FAILED: {problem}")
    print("report " + json.dumps(report, default=str))
    print(
        json.dumps(
            {
                "correct": summary.correct,
                "attempted": int(summary.attempted),
                "failed": int(summary.failed),
                "metrics": metrics,
            },
            allow_nan=False,
        )
    )
    return 0 if summary.correct else 1


if __name__ == "__main__":
    sys.exit(main())

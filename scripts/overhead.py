#!/usr/bin/env python
"""Host-overhead benchmark driver: writes ``BENCH_runtime_overhead.json``.

Measures the host runtime (batched dependence analysis and the
mapping/solve/image caches of ``repro.legion.fastpath``) with
``repro.harness.overhead_bench``: the Fig. 9 CG inner loop at
summit:64 and summit:1024 simulated GPUs, in host wall-clock seconds
per 1 000 task launches, plus validated fig9 CG + fig10 GMG identity
runs.

Prints a summary table, writes the full payload to
``BENCH_runtime_overhead.json`` (repo root, or ``--output``), and
exits non-zero if any acceptance bar fails:

* every scale and identity run reproduces the modeled time and
  solution sha256 of the committed ``BENCH_runtime_overhead.json``
  (read before the payload is written);
* offline checker clean on every validated identity run.

Usage::

    PYTHONPATH=src python scripts/overhead.py [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.harness.overhead_bench import SCALES, mismatches, run_all

COMMITTED = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_runtime_overhead.json"
)


def format_scale(key: str, run: dict) -> str:
    phases = run["host_phases_s"]
    counters = run["fastpath_counters"]
    lines = [
        f"{key} ({run['tasks_launched']} launches, "
        f"{run['iters']} CG iterations):",
        f"  host s / 1k launches: {run['host_s_per_1k_launches']:.4f}s",
        f"  host wall clock:      {run['host_wall_clock_s']:.3f}s",
        f"  modeled time:         {run['modeled_time_s']:.6f}s",
    ]
    if phases:
        top = max(phases.items(), key=lambda kv: kv[1])
        lines.append(f"  top host phase:       {top[0]} {top[1]:.4f}s")
    if counters:
        lines.append(
            "  cache counters:       "
            + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        )
    return "\n".join(lines)


def format_identity(key: str, run: dict) -> str:
    return (
        f"{key}: checker clean {run['checker_clean']} "
        f"(modeled {run['modeled_time_s']:.6f}s, "
        f"sha {run['solution_sha256'][:12]}...)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=COMMITTED)
    parser.add_argument(
        "--smoke", action="store_true",
        help="first scale point only (the summit:1024 run takes about "
        "half a minute); still enforces every bar it measures",
    )
    args = parser.parse_args(argv)

    reference = json.loads(COMMITTED.read_text())
    scales = SCALES[:1] if args.smoke else SCALES
    payload = run_all(scales=scales)
    args.output.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    for key, run in payload["scales"].items():
        print(format_scale(key, run))
    for key, run in payload["identity"].items():
        print(format_identity(key, run))
    print(f"wrote {args.output}")
    failures = mismatches(payload, reference)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Format benchmark script: writes ``BENCH_format.json``.

Runs the power-law-skew SpMV loop with plain CSR and converted to the
static selector's pick (``repro.harness.format_bench``), prints a
summary table, writes the full payload to ``BENCH_format.json`` (repo
root, or ``--output``), and exits non-zero if any acceptance bar fails:

* the static selector recommends a non-CSR format on the skew matrix;
* its break-even falls within the timed loop's iterations;
* strictly lower summed modeled kernel seconds in the advised format;
* a bitwise-identical result vector.

Usage::

    PYTHONPATH=src python scripts/format.py [--procs 2] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.harness.format_bench import run_all


def format_payload(payload: dict) -> str:
    advice = payload["static_advice"]
    baseline, advised = payload["csr"], payload["advised"]
    return "\n".join(
        [
            "skew_spmv:",
            f"  matrix:          {baseline['rows']}x{baseline['cols']}, "
            f"nnz {baseline['nnz']}, "
            f"row skew {advice['row_skew']:.1f}x",
            f"  static advice:   {advice['recommended_format']} "
            f"({advice['csr_op_seconds']:.3e}s -> "
            f"{advice['best_op_seconds']:.3e}s per op, "
            f"break-even {advice['break_even_ops']:g} ops)",
            f"  kernel seconds:  {baseline['modeled_kernel_seconds']:.6e}s "
            f"-> {advised['modeled_kernel_seconds']:.6e}s "
            f"({payload['kernel_seconds_ratio']:.4f}x)",
            f"  bitwise match:   {payload['bitwise_identical']}",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_format.json",
    )
    args = parser.parse_args(argv)

    payload = run_all(procs=args.procs)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(format_payload(payload))

    failures = []
    advice = payload["static_advice"]
    if advice["recommended_format"] == "csr":
        failures.append("selector recommended CSR on the skew matrix")
    if advice["break_even_ops"] > payload["advised"]["iters"]:
        failures.append(
            f"break-even {advice['break_even_ops']:g} ops exceeds the "
            f"{payload['advised']['iters']}-iteration loop"
        )
    if payload["kernel_seconds_ratio"] >= 1.0:
        failures.append("modeled kernel seconds did not drop")
    if not payload["bitwise_identical"]:
        failures.append("advised result is not bitwise identical")
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark: static format selection beats CSR on skewed SpMV.

On a seeded power-law matrix (row skew ~27x), the static selector
recommends a row-length-sensitive format (SELL-C-sigma) whose one-time
conversion amortizes within the timed loop, and the loop on the
converted matrix charges strictly less modeled compute than plain CSR —
with bitwise-identical numerics.
"""

from repro.harness.format_bench import SPMV_ITERS, bench_spmv, static_advice


def test_skew_spmv_advised_format(benchmark):
    advice = static_advice()
    assert advice["recommended_format"] != "csr"
    assert advice["best_op_seconds"] < advice["csr_op_seconds"]
    # The timed loop must amortize the one-time conversion.
    assert advice["break_even_ops"] <= SPMV_ITERS

    advised = benchmark.pedantic(
        lambda: bench_spmv(fmt=advice["recommended_format"]),
        rounds=1,
        iterations=1,
    )
    baseline = bench_spmv()
    print(
        f"\nskew SpMV: kernel "
        f"{baseline['modeled_kernel_seconds'] * 1e3:.3f} -> "
        f"{advised['modeled_kernel_seconds'] * 1e3:.3f} ms "
        f"({advice['recommended_format']}, "
        f"break-even {advice['break_even_ops']:g} ops)"
    )
    assert (
        advised["modeled_kernel_seconds"]
        < baseline["modeled_kernel_seconds"]
    )
    assert advised["solution_sha256"] == baseline["solution_sha256"]

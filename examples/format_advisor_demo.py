"""Auto-format advisor demo: power-iteration SpMVs on a skewed matrix.

A power-law (scale-free) matrix is CSR's worst case for format choice:
most rows hold a couple of nonzeros, a heavy tail holds dozens.  Run
the demo directly (executes on the ambient runtime):

    python examples/format_advisor_demo.py [--n 8192] [--iters 100]

or statically through the advisor's auto-format pass, which replays
ELL / SELL-C-sigma / HYB through the machine model for every SpMV
operand and prints a ranked recommendation:

    python -m repro.analysis advise examples/format_advisor_demo.py \\
        --autoformat

To act on the advice, convert the operand before the loop with
``A.asformat("sell")`` (bitwise-identical results) — see
``repro.harness.format_bench`` for the measured comparison.
"""

import argparse


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8192, help="matrix rows")
    parser.add_argument("--iters", type=int, default=100)
    args = parser.parse_args()

    import repro.numeric as rnp
    import repro.sparse as sp
    from repro.harness.skew import power_law_csr

    A = sp.csr_matrix(power_law_csr(args.n, args.n // 2, seed=42))
    x = rnp.ones(A.shape[1])
    y = None
    for _ in range(args.iters):
        y = A @ x
    norm = rnp.linalg.norm(y)
    print(f"skew matrix {A.shape[0]}x{A.shape[1]}, nnz={A.nnz}")
    print(f"|A @ 1| after {args.iters} SpMVs: {float(norm):.3e}")


if __name__ == "__main__":
    main()

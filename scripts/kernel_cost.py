#!/usr/bin/env python3
"""Cost of the zero-sum kernel per zero pair, by term kind and precision.

For each precision in BITS and each term kind, sums the first K pairs of
the zero table once untimed (so process-wide set-up such as phase tables
is not counted) and then REPEAT times timed, round-robin over all cells,
and prints the median time per pair in microseconds.  Each row is the
kernel of some ops of perfbench's zero-sums workload:

    xrho/rho x>1   x^rho/rho at x = 21/2: verify von-mangoldt
    xrho/rho x<1   x^rho/rho at x = 1/10: verify ingham, and selberg-lt1
                   at alpha = zero
    two poles      x^rho/(rho(rho - 1)) at x = 4: verify s
    shifted        x^rho/(rho - 1/3) at x = 3/2: verify selberg-gt1 and
                   general-gt1 (a pole off 0, x > 1)
    cosine         the cosine pairing at x = 4: verify cosine
    1/rho          sum_inv_rho, lambda_direct at n = 1, and the second
                   term of rh_statistic
    1/|rho|^2      sum_inv_rho_sq and the first term of rh_statistic
    lambda_3       the polynomial 3/rho - 3/rho^2 + 1/rho^3:
                   lambda_direct at n = 3

Only the public zeros API is used, so the script times any checkout:

    PYTHONPATH=src python scripts/kernel_cost.py

The timing loop and the table are cost_harness's.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from cost_harness import median_times, print_table
from zeta_explicit.zeros import (SumSpec, cosine_term, inv_abs_sq_term,
                                 inv_rho_poly_term, load_zeros, xrho_term, zero_sum)

K = 1000
REPEAT = 5
KINDS = {
    "xrho/rho x>1": xrho_term(Fraction(21, 2), (0,), (1,)),
    "xrho/rho x<1": xrho_term(Fraction(1, 10), (0,), (1,)),
    "two poles": xrho_term(Fraction(4), (0, 1), (1, -1)),
    "shifted": xrho_term(Fraction(3, 2), (Fraction(1, 3),), (1,)),
    "cosine": cosine_term(Fraction(4)),
    "1/rho": xrho_term(1, (0,), (1,)),
    "1/|rho|^2": inv_abs_sq_term(),
    "lambda_3": inv_rho_poly_term((0, 3, -3, 1)),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--zeros", default="data/zeros_10k.txt")
    args = ap.parse_args()

    table = load_zeros(args.zeros)
    spec = SumSpec(K=K)
    rows = {name: (lambda ctx, term=term: zero_sum(table, spec, term, ctx))
            for name, term in KINDS.items()}
    print_table(f"us per pair, median of {REPEAT}, first {K} pairs of {args.zeros}",
                "kind", 14, median_times(rows, REPEAT), 1e6 / K, ".2f")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

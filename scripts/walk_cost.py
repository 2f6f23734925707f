#!/usr/bin/env python3
"""Cost of the piece walk behind the zero finders and the grid scan, and
of the closed form f they walk, by precision.

For each precision in BITS, times find_zeros_gt1(21/20, 50),
find_zeros_lt1(1/60, 19/20) (both at tol 10^-12) and
hypothesis_scan(1, denominator=9425), a grid of 3,000 points, and
f_rhs_gt1 over the points XS (x <= 3 10^5, prime powers among them) and
f_rhs_lt1 at their reciprocals: one untimed call per cell first (so the
sieve, the prime-sum checkpoints and mpmath's cached constants are not
counted), then REPEAT timed calls, round-robin over all cells, and
prints the median time per call in milliseconds (per point for f).
Only the public API is used, so the script times any checkout:

    PYTHONPATH=src python scripts/walk_cost.py

The timing loop and the table are cost_harness's.
"""

from __future__ import annotations

from fractions import Fraction

from cost_harness import median_times, print_table
from zeta_explicit.analysis import find_zeros_gt1, find_zeros_lt1, hypothesis_scan
from zeta_explicit.explicit import f_rhs_gt1, f_rhs_lt1

TOL = Fraction(1, 10 ** 12)
CASES = {
    "find_zeros_gt1(21/20, 50)":
        lambda ctx: find_zeros_gt1(Fraction(21, 20), Fraction(50), TOL, ctx),
    "find_zeros_lt1(1/60, 19/20)":
        lambda ctx: find_zeros_lt1(Fraction(1, 60), Fraction(19, 20), TOL, ctx),
    "hypothesis_scan(1, 9425)":
        lambda ctx: hypothesis_scan(1, ctx, denominator=9425),
}
XS = [Fraction(n, d) for n, d in ((3, 2), (21, 1), (1001, 3), (4096, 1), (10007, 7),
                                  (65537, 2), (2 ** 17, 1), (200001, 3), (299999, 2),
                                  (300000, 1))]
F_CASES = {
    "f_rhs_gt1(x), x in XS": lambda ctx: [f_rhs_gt1(x, ctx) for x in XS],
    "f_rhs_lt1(1/x), x in XS": lambda ctx: [f_rhs_lt1(1 / x, ctx) for x in XS],
}
REPEAT = 5


def main() -> int:
    print_table(f"ms per call, median of {REPEAT}", "case", 28,
                median_times(CASES, REPEAT), 1e3, ".2f")
    print_table(f"ms per point, median of {REPEAT}", "case", 28,
                median_times(F_CASES, REPEAT), 1e3 / len(XS), ".3f")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

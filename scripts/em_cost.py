#!/usr/bin/env python3
"""Cost of one Euler-Maclaurin pass, by s, order and precision.

For each precision in BITS, each shift a in A, each s in S and each
order N in ORDERS, calls mpcore.em_log_moments(s, a, N, ctx) once
untimed (so process-wide set-up, such as mpcore.log_fixed's table for
the width, is not counted) and then REPEAT times timed, round-robin over
all cells, and prints the median time per call in milliseconds.  s = 3
takes exact powers, s = 5/2 exact square roots, s = 4/3 exponentials,
and s = 1 gives the Stieltjes constants gamma_n(a).  At a = 1/3 the head
terms n = 3k + 1 stay below 512, where every log n is a table entry of
log_fixed; at a = 2/7 the head runs past n = 512 at 384 bits and more,
so log_fixed's atanh series is timed too.  One more row times
liconst.build_stieltjes_table
at order TABLE in the same round-robin: its pass at s = 1 and the
zeta(j) of mpcore.zeta_int for j = 2..TABLE, as the constants workload
and the li subcommand build it.  Only the public API is used, so the
script times any checkout:

    PYTHONPATH=src python scripts/em_cost.py

The timing loop and the table are cost_harness's.
"""

from __future__ import annotations

from fractions import Fraction

from cost_harness import median_times, print_table
from zeta_explicit.liconst import build_stieltjes_table
from zeta_explicit.mpcore import em_log_moments

S = (Fraction(3), Fraction(5, 2), Fraction(4, 3), Fraction(1))
ORDERS = (0, 1, 4)
A = (Fraction(1, 3), Fraction(2, 7))
TABLE = 8
REPEAT = 5


def main() -> int:
    rows = {f"{str(a):>4} {str(s):>5} {N:>2}":
            (lambda ctx, a=a, s=s, N=N: em_log_moments(s, a, N, ctx))
            for a in A for s in S for N in ORDERS}
    rows[f"{'':>4} {'table':>5} {TABLE:>2}"] = lambda ctx: build_stieltjes_table(TABLE, ctx)
    print_table(f"ms per em_log_moments call, median of {REPEAT};"
                f" 'table' is build_stieltjes_table({TABLE})",
                f"{'a':>4} {'s':>5} {'N':>2}", 13, median_times(rows, REPEAT), 1e3, ".2f")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Cost of cold prime-power sum tables at non-integer s, by precision.

For each precision in BITS and each row of ROWS, times the cold tables
of prime_power_sum to N = 3 10^4 for the five characters the prime-scan
benchmark walks (zeta and chi_{-d}, d = 1, 2, 3, 7) at each s of the row,
one after another, as the benchmark's Selberg ops meet them.  "Cold"
means the module's checkpoint, log and root tables are emptied before
each timed row, so a row pays for every log and root it reads once; the
last two rows show what the s of one denominator share.  The sieve is
built once, untimed.  Prints the median of REPEAT runs per cell in
milliseconds, round-robin over the cells.  Only module-level tables are
reset, so the script times any checkout that has them (a checkout
without a root table simply has nothing to reset there):

    PYTHONPATH=src python scripts/prime_walk_cost.py

The timing loop and the table are cost_harness's.
"""

from __future__ import annotations

from fractions import Fraction

from cost_harness import median_times, print_table
from zeta_explicit import arith

S = (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3))
ROWS = {str(s): (s,) for s in S} | {"1/2,3/2,-1/2": S[:3], "1/3,2/3": S[3:]}
CHIS = ((1,),) + tuple(arith.kronecker_chi(d) for d in (1, 2, 3, 7))
N = 30_000
REPEAT = 3


def _reset() -> None:
    for name in ("_prefix", "_logs", "_roots"):
        getattr(arith, name, {}).clear()


def main() -> int:
    arith.shared_table(N)
    rows = {name: (lambda ctx, row=row: [arith.prime_power_sum(N, s, ctx, chi)
                                         for s in row for chi in CHIS])
            for name, row in ROWS.items()}
    print_table(f"ms per row of cold tables to {N}, five characters per s, median of {REPEAT}",
                "s", 14, median_times(rows, REPEAT, warm=False, before=_reset), 1e3, ".1f")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Cost of one Euler-Maclaurin pass, by s, order and precision.

For each precision in BITS, each s in S and each order N in ORDERS,
calls mpcore.em_log_moments(s, A, N, ctx) once untimed (so process-wide
set-up inside mpmath, such as its cached log 2, is not counted) and then
REPEAT times timed, round-robin over all cells, and prints the median
time per call in milliseconds.  s = 3 takes exact powers, s = 5/2 exact
square roots, s = 4/3 exponentials, and s = 1 gives the Stieltjes
constants gamma_n(A).  One more row times liconst.build_stieltjes_table
at order TABLE in the same round-robin: its pass at s = 1 and the
zeta(j) of mpcore.zeta_int for j = 2..TABLE, as the constants workload
and the li subcommand build it.  Only the public API is used, so the
script times any checkout:

    PYTHONPATH=src python scripts/em_cost.py
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from zeta_explicit.liconst import build_stieltjes_table
from zeta_explicit.mpcore import PrecisionContext, em_log_moments

BITS = (128, 192, 256, 384, 512, 1024)
S = (Fraction(3), Fraction(5, 2), Fraction(4, 3), Fraction(1))
ORDERS = (0, 1, 4)
A = Fraction(1, 3)
TABLE = 8
REPEAT = 5


def call(s, N: int, ctx: PrecisionContext) -> None:
    """One em_log_moments call, or the order-N table when s is None."""
    if s is None:
        build_stieltjes_table(N, ctx)
    else:
        em_log_moments(s, A, N, ctx)


def main() -> int:
    cells = [(s, N, bits) for s in S for N in ORDERS for bits in BITS]
    cells += [(None, TABLE, bits) for bits in BITS]
    for s, N, bits in cells:
        call(s, N, PrecisionContext(bits=bits))
    # Round-robin over the cells, so that a slow spell of the host falls
    # on every cell alike.
    times: dict = {cell: [] for cell in cells}
    for _ in range(REPEAT):
        for s, N, bits in cells:
            ctx = PrecisionContext(bits=bits)
            start = time.perf_counter()
            call(s, N, ctx)
            times[s, N, bits].append(time.perf_counter() - start)
    print(f"ms per em_log_moments call at a = {A}, median of {REPEAT};"
          f" 'table' is build_stieltjes_table({TABLE})")
    print(f"{'s':>5} {'N':>2}" + "".join(f"{b:>9}" for b in BITS))
    for s, N in [(s, N) for s in S for N in ORDERS] + [(None, TABLE)]:
        print(f"{str(s or 'table'):>5} {N:>2}" + "".join(
            f"{statistics.median(times[s, N, b]) * 1e3:>9.2f}" for b in BITS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

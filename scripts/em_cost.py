#!/usr/bin/env python3
"""Cost of one Euler-Maclaurin pass, by s, order and precision.

For each precision in BITS, each shift a in A, each s in S and each
order N in ORDERS, calls mpcore.em_log_moments(s, a, N, ctx) once
untimed (so process-wide set-up, such as mpcore.log_fixed's table for
the width, is not counted) and then REPEAT times timed, round-robin over
all cells, and prints the median time per call in milliseconds, in three
tables:

  same arguments  every timed call repeats the untimed one, so whatever a
                  checkout keeps per (s, N, bits) is kept;
  fresh shift     the r-th timed call takes the shift a + r, same
                  (s, N, bits): what each residue of dirichlet_L pays;
  fresh width     the r-th timed call runs at bits + r: a first call at
                  its (s, N, bits), as a new s or precision pays.

s = 3 takes exact powers, s = 5/2 exact square roots, s = 4/3
exponentials, and s = 1 gives the Stieltjes constants gamma_n(a).  At
a = 1/3 the head terms n = 3k + 1 stay below 512, where every log n is
a table entry of log_fixed; at a = 2/7 the head runs past n = 512 at 384
bits and more, so log_fixed's atanh series is timed too.  More rows, in
the same round-robin: liconst.build_stieltjes_table at order TABLE (its
pass at s = 1 and the zeta(j) of mpcore.zeta_int for j = 2..TABLE, as
the constants workload and the li subcommand build it), and
explicit.dirichlet_L(s, chi_-d) for each (d, s) of L_ROWS, the constants
workload's characters at one of the s it draws for each (one pass per
residue; their fresh-shift row is their same-arguments row).  Only the
public API is used, so the script times any checkout:

    PYTHONPATH=src python scripts/em_cost.py

The timing loop and the tables are cost_harness's.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import count

from cost_harness import median_times, print_table
from zeta_explicit.arith import kronecker_chi
from zeta_explicit.explicit import dirichlet_L
from zeta_explicit.liconst import build_stieltjes_table
from zeta_explicit.mpcore import PrecisionContext, em_log_moments

S = (Fraction(3), Fraction(5, 2), Fraction(4, 3), Fraction(1))
ORDERS = (0, 1, 4)
A = (Fraction(1, 3), Fraction(2, 7))
TABLE = 8
L_ROWS = ((1, Fraction(3, 2)), (2, Fraction(5, 3)), (3, Fraction(1, 2)), (7, Fraction(4, 3)))
REPEAT = 5


def rows(step: str) -> dict:
    """The rows for one table; step is 'same', 'shift' or 'width'.  Each
    cell counts its own calls, the untimed one being call 0."""
    calls = defaultdict(count)

    def nth(name: str, ctx: PrecisionContext) -> int:
        return next(calls[name, ctx.bits])

    def at(name: str, ctx: PrecisionContext) -> PrecisionContext:
        return PrecisionContext(ctx.bits + nth(name, ctx)) if step == "width" else ctx

    out = {}
    for a in A:
        for s in S:
            for N in ORDERS:
                name = f"{str(a):>4} {str(s):>5} {N:>2}"
                out[name] = (lambda ctx, name=name, a=a, s=s, N=N: em_log_moments(
                    s, a + (nth(name, ctx) if step == "shift" else 0), N, at(name, ctx)))
    name = f"{'':>4} {'table':>5} {TABLE:>2}"
    out[name] = lambda ctx, name=name: build_stieltjes_table(TABLE, at(name, ctx))
    for d, s in L_ROWS:
        chi, name = kronecker_chi(d), f"L-{d:<2} {str(s):>5} {1:>2}"
        out[name] = (lambda ctx, name=name, chi=chi, s=s:
                     dirichlet_L(s, len(chi), chi, at(name, ctx)))
    return out


def main() -> int:
    label = f"{'a':>4} {'s':>5} {'N':>2}"
    for step, what in (("same", "same arguments"), ("shift", "fresh shift a + r"),
                       ("width", "fresh width bits + r")):
        print_table(f"ms per call, median of {REPEAT}, {what}; 'table' is"
                    f" build_stieltjes_table({TABLE}), 'L-d' dirichlet_L(s, chi_-d)",
                    label, 13, median_times(rows(step), REPEAT), 1e3, ".2f")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Cost of the auxiliary series f_u(z) = Sum_{n>=1} z^n/(n+u) by precision.

Times explicit.f_u_closed at z = x^-2, the argument the descriptor form
gives it for a Gamma factor with lambda = 1/2, for x in XS and u in US,
and in one more row just below the branch point tau = -log z = TAU0,
where f_u_closed takes Lerch's expansion instead of the series.  A
second table times the closed forms that sum f_u with the other parts,
selberg_rhs_gt1(x, ALPHA, zeta) and general_rhs_gt1(x, 1/((t - 1/2)(t + 1/3)))
at x in FORM_XS, warm as the first: the cost of the one exact sum around
f_u.  Prints the median of REPEAT calls per cell in milliseconds,
round-robin over the cells after one untimed call each:

    PYTHONPATH=src python scripts/fu_cost.py

The timing loop and the table are cost_harness's.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cost_harness import median_times, print_table
from zeta_explicit.explicit import (TAU0, descriptor_zeta, f_u_closed, general_rhs_gt1,
                                    partial_fractions, selberg_rhs_gt1)

XS = (Fraction(11, 10), Fraction(5, 2), Fraction(3001, 3))
US = (Fraction(1, 3), Fraction(1, 1009))
X_TAU0 = Fraction(math.exp(TAU0 / 2)) * (1 - Fraction(1, 2 ** 20))
REPEAT = 5
FORM_XS = (Fraction(299, 2), Fraction(5123, 3))
ALPHA = Fraction(1, 3)
PF = partial_fractions([1], [Fraction(1, 2), Fraction(-1, 3)])


def main() -> int:
    cells = [(f"x={x} u={u}", x, u) for x in XS for u in US]
    cells.append((f"tau0- u={US[0]}", X_TAU0, US[0]))
    rows = {name: (lambda ctx, x=x, u=u: f_u_closed(u, 1 / (x * x), ctx))
            for name, x, u in cells}
    print_table(f"ms per f_u_closed(u, x^-2) call, median of {REPEAT}", "row", 24,
                median_times(rows, REPEAT), 1e3, ".3f")
    zeta, forms = descriptor_zeta(), {}
    for x in FORM_XS:
        forms[f"selberg_gt1 x={x}"] = lambda ctx, x=x: selberg_rhs_gt1(x, ALPHA, zeta, ctx)
        forms[f"general_gt1 x={x}"] = lambda ctx, x=x: general_rhs_gt1(x, PF, ctx)
    print_table(f"ms per warm closed-form call, alpha = {ALPHA}, median of {REPEAT}", "row", 24,
                median_times(forms, REPEAT), 1e3, ".3f")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

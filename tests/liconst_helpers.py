"""Readers of the Stieltjes table that only the tests use, kept out of
the package: the Coffey decomposition of lambda_n with its growth bounds."""

from typing import Optional

import mpmath

from zeta_explicit.liconst import StieltjesTable
from zeta_explicit.mpcore import _GUARD, HReal, PrecisionContext


def coffey_decomposition(n: int, table: StieltjesTable,
                         ctx: Optional[PrecisionContext] = None
                         ) -> tuple[HReal, HReal, bool]:
    """(S1(n), S2(n), bounds_ok) with

        S1(n) = Sum_{j=2}^{n} C(n,j) (-1)^j (1 - 2^(-j)) zeta(j)
        S2(n) = -Sum_{j=1}^{n} C(n,j) eta_{j-1}

    read from the table, and bounds_ok the check (n >= 2; vacuously true
    at n = 1)

        (n(log n + gamma - 1) + 1)/2 <= S1(n) <= (n(log n + gamma + 1) - 1)/2.
    """
    table.lam(n)   # refuses n outside 1..order
    s1, s2 = table.S1[n - 1], table.S2[n - 1]
    ok = True
    if n >= 2:
        ctx = ctx or s1.ctx
        with ctx.workprec(_GUARD):
            g = ctx.euler_gamma
            logn = mpmath.log(n)
            lower = (n * (logn + g - 1) + 1) / 2
            upper = (n * (logn + g + 1) - 1) / 2
            ok = bool(lower <= s1.val <= upper)
    return s1, s2, ok

"""Readers of the Stieltjes table that only the tests use, kept out of
the package: the Coffey decomposition of lambda_n with its growth bounds,
and the table's earlier mpf assembly, the oracle of the integer one."""

import math
from typing import Optional

import mpmath
from mpmath import mpf

from zeta_explicit.liconst import StieltjesTable
from zeta_explicit.mpcore import _GUARD, HReal, PrecisionContext, em_log_moments, zeta_int
from mp_views import as_pair, mp_euler, workprec


def series_div_mpf(num, den):
    """The truncated quotient num/den of power series given as mpf
    coefficient lists, at the current mpmath precision."""
    q = []
    for k in range(min(len(num), len(den))):
        acc = num[k] - sum((q[i] * den[k - i] for i in range(k)), mpf(0))
        q.append(acc / den[0])
    return q


def build_stieltjes_table_mpf(N: int, ctx: PrecisionContext) -> StieltjesTable:
    """build_stieltjes_table as mpf arithmetic at bits + 64 + N: the same
    Euler-Maclaurin pass and zeta(j), the eta division by series_div_mpf,
    the binomial sums and the gamma bounds each rounded there, every entry
    then rounded to the context."""
    wide = PrecisionContext(ctx.bits + _GUARD + N)
    raw = em_log_moments(1, 1, N + 1, wide)
    with workprec(wide, _GUARD):
        gammas = tuple(
            (ctx.real(v),
             ctx.real(as_pair(b.val + mpf(2) ** (1 - ctx.bits) * (abs(v.val) + 1))))
            for v, b in raw)
        num, den = [mpf(1), mpf(0)], [mpf(1)]
        for k in range(1, N + 2):
            scale = (-1) ** (k - 1) / mpf(math.factorial(k - 1))
            if k < N + 1:
                num.append(scale * raw[k][0].val)
            den.append(scale * raw[k - 1][0].val)
        etas = [wide.real(as_pair(e)).val for e in series_div_mpf(num, den)[1:]]
        zeta_terms = [(-1) ** j * (1 - mpf(2) ** -j) * zeta_int(j, wide).val
                      for j in range(2, N + 1)]
        half = (raw[0][0].val + mpmath.log(4 * mpmath.pi)) / 2
        lambdas, s1s, s2s = [], [], []
        for n in range(1, N + 1):
            s1 = sum((math.comb(n, j) * zeta_terms[j - 2] for j in range(2, n + 1)), mpf(0))
            s2 = -sum((math.comb(n, j) * etas[j - 1] for j in range(1, n + 1)), mpf(0))
            lambdas.append(ctx.real(as_pair(1 - n * half + s1 + s2)))
            s1s.append(ctx.real(as_pair(s1)))
            s2s.append(ctx.real(as_pair(s2)))
        return StieltjesTable(order=N, gammas=gammas, etas=tuple(ctx.real(as_pair(e)) for e in etas),
                              lambdas=tuple(lambdas), S1=tuple(s1s), S2=tuple(s2s))


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
        with workprec(ctx, _GUARD):
            g = mp_euler(ctx)
            logn = mpmath.log(n)
            lower = (n * (logn + g - 1) + 1) / 2
            upper = (n * (logn + g + 1) - 1) / 2
            ok = bool(lower <= s1.val <= upper)
    return s1, s2, ok

"""Stieltjes constants, the eta coefficients of -zeta'/zeta at s = 1,
and the Li coefficients lambda_n with their Coffey decomposition.

Definitions used throughout:

  gamma_n(a) = lim_M [ Sum_{k=0}^{M} log^n(k+a)/(k+a)
                       - log^(n+1)(M+a)/(n+1) ],      gamma_n = gamma_n(1)

  -zeta'/zeta(s) = 1/(s-1) + Sum_{n>=0} eta_n (s-1)^n

  lambda_n = Sum_rho [1 - (1 - 1/rho)^n]  (paired zero sum), equal to

      1 - (n/2)(gamma + log 4pi) + S1(n) + S2(n)
      S1(n) = Sum_{j=2}^{n} C(n,j) (-1)^j (1 - 2^(-j)) zeta(j)
      S2(n) = -Sum_{j=1}^{n} C(n,j) eta_{j-1}

The eta_n here are exactly the coefficients produced by dividing
(s-1)^2 (-zeta') by (s-1) zeta as power series (eta_0 = -gamma_0,
eta_1 = gamma_0^2 + 2 gamma_1, eta_2 = -(3/2) gamma_2 - 3 gamma_0 gamma_1
- gamma_0^3, ...); the sign with which they enter S2 is fixed by the
n = 1 reduction lambda_1 = 1 + gamma/2 - (log 4pi)/2 and confirmed
against direct zero sums (see tests).  Classical references print
several low-order eta closed forms that do not satisfy their own Laurent
definition; the division is taken as ground truth and the discrepancy is
documented rather than reproduced.

gamma_n(a) are the s = 1 values of mpcore.em_log_moments, the one
Euler-Maclaurin core shared with zeta(s, a) and its s-derivatives: one
pass returns gamma_0(a)..gamma_N(a), each with a certified bound
(Euler-Maclaurin remainder, rounding slop, final rounding), with the
shift count M and Bernoulli count K chosen from the precision.  Any
order n >= 0 is served while the plan stays within M (n+1) <= 2^20.
build_stieltjes_table runs the core at bits + 32 + N, because the
binomial sums cancel by up to 2^N, then the division and the sums in
integers 32 bits wider, and rounds each entry once.  The reports combine
exact values (HReal dyadics, the integer gamma and log 4pi) as Fractions
and round each once: no mpf arithmetic is left in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .mpcore import (_GUARD, HReal, PrecisionContext, _constant, _exact, _fixed, _gamma_fixed,
                     _log_pi, em_log_moments, series_ops, zeta_int)
# ZeroTable and SumSpec in annotations are zeros' classes, unevaluated: zeros is
# imported inside the functions that sum zeros, so other callers never load it


def stieltjes_shifted(n: int, a: Union[Fraction, int],
                      ctx: PrecisionContext) -> tuple[HReal, HReal]:
    """gamma_n(a) for n >= 0 and rational a > 0, with a certified error
    bound (Euler-Maclaurin remainder plus rounding slop).

    Raises ArithmeticError when the Euler-Maclaurin plan exceeds its budget.
    gamma_0(a) = -Gamma'(a)/Gamma(a); the a-shifted orders serve Dirichlet L
    values and derivatives at s = 1.
    """
    if n < 0:
        raise ValueError(f"order n = {n} must be >= 0")
    a = Fraction(a)
    if a <= 0:
        raise ValueError(f"shift a must be positive, got {a}")
    return em_log_moments(1, a, n, ctx)[n]


def stieltjes(n: int, ctx: PrecisionContext) -> tuple[HReal, HReal]:
    """gamma_n with a certified error bound, by Euler-Maclaurin
    acceleration of the defining limit
    Sum_{k<=m} log^n(k)/k - log^(n+1)(m)/(n+1)."""
    return stieltjes_shifted(n, Fraction(1), ctx)


# ----------------------------------------------------------------------
# Eta coefficients by power-series division
# ----------------------------------------------------------------------

def eta_from_gamma(gammas: Sequence[HReal], ctx: PrecisionContext
                   ) -> tuple[HReal, ...]:
    """eta_0..eta_{G-1} from gamma_0..gamma_G (G >= 1) by one power-series
    division around s = 1.  Multiplying -zeta' by (s-1)^2 and zeta by
    (s-1) clears both poles:

      (s-1)^2 (-zeta') = 1 + Sum_{k>=1} (-1)^(k-1) gamma_k (s-1)^(k+1)/(k-1)!
      (s-1) zeta       = 1 + Sum_{k>=1} (-1)^(k-1) gamma_{k-1} (s-1)^k/(k-1)!

    and their quotient (series_ops) is (s-1)(-zeta'/zeta) =
    1 + Sum_n eta_n (s-1)^(n+1).  Both series are cut after (s-1)^G, so
    eta_n reads gamma_0..gamma_n only.  In integers in units of 2^-V,
    V = bits + 32, each gamma_k/(k-1)! floored there, each eta rounded once.
    """
    if len(gammas) < 2:
        raise ValueError("need gamma through order >= 1")
    V = ctx.bits + _GUARD
    G, g = len(gammas) - 1, [_fixed(v, V) for v in gammas]
    num, den = [1 << V, 0], [1 << V]
    for k in range(1, G + 1):
        f = (-1) ** (k - 1) * math.factorial(k - 1)
        if k < G:
            num.append(g[k] // f)
        den.append(g[k - 1] // f)
    return tuple(ctx.real((e, -V)) for e in series_ops(num, den, V)[1:])


# ----------------------------------------------------------------------
# Table and Li-coefficient assembly
# ----------------------------------------------------------------------

class StieltjesTable(NamedTuple):
    """Orders 0..N of the constants feeding the Li-coefficient checks.

    gammas holds (value, certified bound) through order N+1; etas are the
    division coefficients through order N; lambdas are lambda_1..lambda_N
    by the binomial identity; S1/S2 the Coffey split for n = 1..N.
    """

    order: int
    gammas: tuple[tuple[HReal, HReal], ...]
    etas: tuple[HReal, ...]
    lambdas: tuple[HReal, ...]
    S1: tuple[HReal, ...]
    S2: tuple[HReal, ...]

    def lam(self, n: int) -> HReal:
        """lambda_n, 1-indexed; refuses n outside 1..order."""
        if not 1 <= n <= self.order:
            raise ValueError(f"n = {n} outside the table's orders [1, {self.order}]")
        return self.lambdas[n - 1]


def li_lambda_identity(n: int, table: StieltjesTable,
                       ctx: Optional[PrecisionContext] = None) -> HReal:
    """lambda_n assembled from the constants, as build_stieltjes_table
    computes it:

        1 - (n/2)(gamma + log 4pi)
          + Sum_{j=2}^{n} C(n,j) (-1)^j (1 - 2^(-j)) zeta(j)
          - Sum_{j=1}^{n} C(n,j) eta_{j-1}

    At n = 1 the sums reduce to -eta_0 = gamma_0 and the value collapses
    to 1 + gamma_0/2 - (log 4pi)/2.  The value is read from the table,
    which carries its own precision; ctx is not read."""
    return table.lam(n)


def build_stieltjes_table(N: int, ctx: PrecisionContext) -> StieltjesTable:
    """gammas through N+1 from one Euler-Maclaurin pass, etas through N by
    eta_from_gamma's division, then S1(n), S2(n) and
    lambda_n = 1 - (n/2)(gamma_0 + log 4pi) + S1(n) + S2(n) for n = 1..N
    in one loop, with zeta(j) taken once per j.

    The binomial sums cancel by up to 2^N, so the pass runs at
    bits + 32 + N, the division's etas are rounded there, and
    (1 - 2^-j) zeta(j) and the sums run in integers in units of 2^-V,
    V = that width + 32, each eta, zeta(j) and log 4pi floored there; every
    entry is rounded once to the context.  Each gamma bound adds
    2^(1-bits) (|gamma| + 1) for that rounding, exactly.
    """
    if N < 1:
        raise ValueError(f"table order must be >= 1, got {N}")
    wide = PrecisionContext(ctx.bits + _GUARD + N)
    V = wide.bits + _GUARD
    raw = em_log_moments(1, 1, N + 1, wide)
    gammas = tuple((ctx.real(v), ctx.real(_exact(b) + (abs(_exact(v)) + 1) / 2 ** (ctx.bits - 1)))
                   for v, b in raw)
    etas = [_fixed(e, V) for e in eta_from_gamma([v for v, _ in raw], wide)]
    zetas = [_fixed(zeta_int(j, wide), V) for j in range(2, N + 1)]
    zeta_terms = [(-1) ** j * (z - (z >> j)) for j, z in enumerate(zetas, 2)]
    gamma_log_4pi = _fixed(raw[0][0], V) + _fixed(_log_pi(2, V), V)
    lambdas, s1s, s2s = [], [], []
    for n in range(1, N + 1):
        s1 = sum(math.comb(n, j) * zeta_terms[j - 2] for j in range(2, n + 1))
        s2 = -sum(math.comb(n, j) * etas[j - 1] for j in range(1, n + 1))
        lambdas.append(ctx.real((2 * ((1 << V) + s1 + s2) - n * gamma_log_4pi, -V - 1)))
        s1s.append(ctx.real((s1, -V)))
        s2s.append(ctx.real((s2, -V)))
    return StieltjesTable(order=N, gammas=gammas,
                          etas=tuple(ctx.real((e, -V)) for e in etas),
                          lambdas=tuple(lambdas), S1=tuple(s1s), S2=tuple(s2s))


def lambda_direct(n: int, table: ZeroTable, spec: SumSpec,
                  ctx: PrecisionContext) -> tuple[HReal, HReal]:
    """lambda_n by its defining truncated zero sum
    Sum over pairs of (1 - (1 - 1/rho)^n), plus the tail correction
    n^2 * Integral_T t^(-2) dN(t): an omitted critical-line pair
    contributes 2 Re[n/rho - C(n,2)/rho^2 + ...] where the first term
    gives n/gamma^2 and the second +n(n-1)/gamma^2 (Re(1/rho^2) is
    negative), totalling n^2/gamma^2 up to O(n^3/gamma^4).

    The summand is the polynomial Sum_k (-1)^(k+1) C(n, k) rho^(-k);
    at n = 1 it is 1/rho, bit-identical to sum_inv_rho."""
    if n < 1:
        raise ValueError(f"lambda_n needs n >= 1, got {n}")
    from .zeros import density_tail, inv_rho_poly_term, zero_sum
    coeffs = [0] + [(-1) ** (k + 1) * math.comb(n, k) for k in range(1, n + 1)]
    value, count = zero_sum(table, spec, inv_rho_poly_term(coeffs), ctx)
    return value, density_tail(table, count, n * n, ctx)


# ----------------------------------------------------------------------
# The zero-sum statistic
# ----------------------------------------------------------------------

class RHStatReport(NamedTuple):
    """Comparison of Sum 1/|rho|^2 (+ tail) against 2 + gamma - log 4pi.

    The target equals twice Sum 1/rho exactly when every zero lies on
    the critical line; doubled_inv_rho (= 2 Sum 2beta/|rho|^2 raw) is
    reported so off-line tables expose themselves:
    sum_value > doubled_inv_rho whenever some beta != 1/2.
    """

    pairs: int
    sum_value: HReal
    tail: HReal
    corrected: HReal
    target: HReal
    discrepancy: HReal
    within_tolerance: bool
    doubled_inv_rho: HReal


def rh_statistic(table: ZeroTable, spec: SumSpec, ctx: PrecisionContext,
                 tolerance: Optional[float] = None) -> RHStatReport:
    """Signed discrepancy of (Sum 1/|rho|^2 + tail) against the constant
    2 + gamma - log 4pi; within_tolerance uses the tail correction
    itself as the allowance unless a tolerance (finite, >= 0) is given."""
    if tolerance is not None and not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got tolerance = {tolerance!r}")
    from .zeros import density_tail, inv_abs_sq_term, xrho_term, zero_sum
    (value, inv_rho), pairs = zero_sum(
        table, spec, (inv_abs_sq_term(), xrho_term(1, (0,), (1,))), ctx)
    tail = density_tail(table, pairs, 2, ctx)
    W = ctx.bits + _GUARD   # gamma and log 4pi as mpmath gives them there
    target = 2 + _exact(_constant(_gamma_fixed, W)) - _exact(_log_pi(2, W))
    corrected = _exact(value) + _exact(tail)
    disc = corrected - target
    return RHStatReport(
        pairs=pairs,
        sum_value=value,
        tail=tail,
        corrected=ctx.real(corrected),
        target=ctx.real(target),
        discrepancy=ctx.real(disc),
        within_tolerance=abs(disc) <= _exact(tail if tolerance is None else tolerance),
        doubled_inv_rho=ctx.real(2 * _exact(inv_rho)),
    )

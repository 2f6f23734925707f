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

The eta_n here are exactly the Laurent coefficients produced by formal
division (eta_0 = -gamma_0, eta_1 = gamma_0^2 + 2 gamma_1,
eta_2 = -(3/2) gamma_2 - 3 gamma_0 gamma_1 - gamma_0^3, ...); the sign
with which they enter S2 is fixed by the n = 1 reduction
lambda_1 = 1 + gamma/2 - (log 4pi)/2 and confirmed against direct zero
sums (see tests).  Classical references print several low-order eta
closed forms that do not satisfy their own Laurent definition; the
division is taken as ground truth and the discrepancy is documented
rather than reproduced.

gamma_n(a) is evaluated by Euler-Maclaurin with an explicit certified
remainder: with f(t) = log^n(t)/t, R = m + a,

  gamma_n(a) = Sum_{k=0}^{m-1} f(k+a) - log^(n+1)(R)/(n+1) + f(R)/2
               - Sum_{j=1}^{K} B_2j/(2j)! f^(2j-1)(R) + remainder,

  |remainder| <= 2 zeta(2K)/(2pi)^(2K) * Integral_R^inf |f^(2K)(t)| dt,

the derivatives via f^(j)(t) = P_j(log t)/t^(1+j), P_0 = L^n,
P_{j+1} = P_j' - (1+j) P_j (integer-coefficient polynomials), and the
remainder integral in closed form through
Integral_L^inf u^i e^(-cu) du = e^(-cL) Sum_j (i!/(i-j)!) L^(i-j)/c^(j+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import mpmath
from mpmath import mpf

from .mpcore import (
    FormalSeries,
    HReal,
    PrecisionContext,
    bernoulli,
    series_ops,
    zeta_int,
)
from .zeros import (SumSpec, ZeroTable, _density_integral, _selected_height,
                    inv_abs_sq_term, inv_rho_poly_term, xrho_term, zero_sum)

_GUARD = 32

MAX_ORDER = 30          # highest gamma_n order served
_DEFAULT_M = 10_000     # Euler-Maclaurin base points
_DEFAULT_K = 5          # Bernoulli terms through B_10

# log(k+a) tables keyed (m, a, storage_prec); values reusable by any
# order n at equal or lower working precision.
_LOG_CACHE: dict = {}
_LOG_CACHE_LIMIT = 24


def _deriv_polys(n: int, count: int) -> list[list[int]]:
    """P_0..P_count for f(t) = log^n(t)/t: f^(j)(t) = P_j(log t)/t^(1+j),
    P_0 = L^n, P_{j+1} = P_j' - (1+j) P_j; exact integer coefficients."""
    p = [0] * n + [1]
    out = [p]
    for j in range(count):
        dp = [(i + 1) * c for i, c in enumerate(p[1:])] + [0]
        p = [d - (1 + j) * c for d, c in zip(dp, p)]
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        out.append(p)
    return out


def _poly_eval(coeffs: Sequence[int], L: mpf) -> mpf:
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * L + c
    return acc


def _tail_integral(coeffs: Sequence[int], L: mpf, c: int) -> mpf:
    """Integral_L^inf |P|(u) e^(-cu) du with |P| the absolute-coefficient
    polynomial, via Integral_L^inf u^i e^(-cu) du in closed form."""
    acc = mpf(0)
    expL = mpmath.exp(-c * L)
    for i, ci in enumerate(coeffs):
        if ci == 0:
            continue
        inner = mpf(0)
        fall = 1  # i!/(i-j)!
        for j in range(i + 1):
            inner += fall * L ** (i - j) / mpf(c) ** (j + 1)
            fall *= i - j
        acc += abs(ci) * expL * inner
    return acc


def _logs_for(m: int, a: Fraction, prec: int) -> list[mpf]:
    key = (m, a, prec)
    hit = _LOG_CACHE.get(key)
    if hit is not None:
        return hit
    with mpmath.workprec(prec):
        av = mpmath.mpf(a.numerator) / a.denominator
        logs = [mpmath.log(k + av) for k in range(m)]
    if len(_LOG_CACHE) >= _LOG_CACHE_LIMIT:
        _LOG_CACHE.pop(next(iter(_LOG_CACHE)))
    _LOG_CACHE[key] = logs
    return logs


def stieltjes_shifted(n: int, a: Union[Fraction, int], ctx: PrecisionContext,
                      eps: Optional[float] = None, *,
                      m: int = _DEFAULT_M, K: int = _DEFAULT_K
                      ) -> tuple[HReal, HReal]:
    """gamma_n(a) for 0 <= n <= 30 and rational a > 0, with a certified
    error bound (Euler-Maclaurin remainder plus rounding slop).

    Raises ArithmeticError when eps is given and the certified bound
    exceeds it.  gamma_0(a) = -digamma(a); the a-shifted orders serve
    Dirichlet L values and derivatives at s = 1.
    """
    if not (0 <= n <= MAX_ORDER):
        raise ValueError(f"order n = {n} outside [0, {MAX_ORDER}]")
    a = Fraction(a)
    if a <= 0:
        raise ValueError(f"shift a must be positive, got {a}")
    if m < 10 or K < 1 or K > 15:
        raise ValueError("need m >= 10 and 1 <= K <= 15")

    # The partial sum grows like log^(n+1)(m)/(n+1) while the limit is
    # O(1); cancellation costs about 3.4 bits per order at m = 10^4.
    extra = 2 * _GUARD + math.ceil(3.4 * (n + 1))
    store_prec = ctx.bits + 2 * _GUARD + math.ceil(3.4 * (MAX_ORDER + 1))
    logs = _logs_for(m, a, store_prec)

    polys = _deriv_polys(n, 2 * K)
    with ctx.workprec(extra):
        av = ctx.mpf(a)
        acc = mpf(0)
        comp = mpf(0)
        tally = mpf(0)
        for k in range(m):
            t = k + av
            term = (logs[k] ** n if n else mpf(1)) / t
            tally += abs(term)
            y = term - comp
            s = acc + y
            comp = (s - acc) - y
            acc = s
        R = m + av
        LR = mpmath.log(R)
        integral_term = LR ** (n + 1) / (n + 1)
        value = acc - integral_term
        value += _poly_eval(polys[0], LR) / (2 * R)
        for j in range(1, K + 1):
            b2j = bernoulli(2 * j)
            coef = mpf(b2j.numerator) / b2j.denominator / math.factorial(2 * j)
            value -= coef * _poly_eval(polys[2 * j - 1], LR) / R ** (2 * j)

        zk = zeta_int(2 * K, ctx).val
        remainder = 2 * zk / (2 * mpmath.pi) ** (2 * K) \
            * _tail_integral(polys[2 * K], LR, 2 * K)
        slop = (m + 8 * K + 16) * mpf(2) ** (-(ctx.bits + extra)) \
            * (tally + abs(integral_term) + 1)
        bound = remainder + slop + mpf(2) ** (1 - ctx.bits) * (abs(value) + 1)

    if eps is not None and bound > eps:
        raise ArithmeticError(
            f"certified bound {mpmath.nstr(bound, 5)} exceeds target {eps}; "
            f"raise m or the working precision")
    return ctx.real(value), ctx.real(bound)


def stieltjes(n: int, eps: Optional[float] = None,
              ctx: Optional[PrecisionContext] = None, *,
              m: int = _DEFAULT_M, K: int = _DEFAULT_K) -> tuple[HReal, HReal]:
    """gamma_n with certified error <= eps (when given), by
    Euler-Maclaurin acceleration of the defining limit
    Sum_{k<=m} log^n(k)/k - log^(n+1)(m)/(n+1)."""
    ctx = ctx or PrecisionContext()
    return stieltjes_shifted(n, Fraction(1), ctx, eps, m=m, K=K)


# ----------------------------------------------------------------------
# Eta coefficients by formal Laurent division
# ----------------------------------------------------------------------

def _gamma_values(source) -> list[HReal]:
    if isinstance(source, StieltjesTable):
        return [v for v, _ in source.gammas]
    out = []
    for entry in source:
        out.append(entry[0] if isinstance(entry, tuple) else entry)
    return out


def eta_from_gamma(source, ctx: Optional[PrecisionContext] = None
                   ) -> tuple[HReal, ...]:
    """eta_0..eta_{G-1} from gamma_0..gamma_G by formal Laurent division
    of -zeta' by zeta around s = 1 (series_ops; both operands are
    multiplied by (s-1) so each carries at worst a simple pole):

      (s-1)(-zeta') = 1/(s-1) + Sum_{k>=1} (-1)^(k-1) gamma_k (s-1)^k/(k-1)!
      (s-1) zeta    = 1       + Sum_{k>=1} (-1)^(k-1) gamma_{k-1} (s-1)^k/(k-1)!

    The quotient's pole coefficient must come out 1 (sanity-checked).
    source may be a StieltjesTable, a sequence of HReal, or a sequence
    of (value, bound) pairs.
    """
    gv = _gamma_values(source)
    if len(gv) < 2:
        raise ValueError("need gamma through order >= 1")
    ctx = ctx or gv[0].ctx
    G = len(gv) - 1
    with ctx.workprec(_GUARD):
        a_coeffs = [mpf(0)]
        b_coeffs = [mpf(1)]
        for k in range(1, G + 1):
            fact = math.factorial(k - 1)
            sign = 1 if (k - 1) % 2 == 0 else -1
            a_coeffs.append(sign * gv[k].val / fact)
            b_coeffs.append(sign * gv[k - 1].val / fact)
        A = FormalSeries.make(a_coeffs, ctx, pole=1)
        B = FormalSeries.make(b_coeffs, ctx)
        q = series_ops(A, B, "div")
        if abs(q.pole.val - 1) > mpf(2) ** (-(ctx.bits // 2)):
            raise ArithmeticError("Laurent division lost the simple pole")
        return tuple(q.coeff(k) for k in range(q.order + 1))


# ----------------------------------------------------------------------
# Table and Li-coefficient assembly
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StieltjesTable:
    """Orders 0..N of the constants feeding the Li-coefficient checks.

    gammas holds (value, certified bound) through order N+1 (one extra
    order so eta reaches N); etas are the division coefficients; lambdas
    are lambda_1..lambda_N by the binomial identity; S1/S2 the Coffey
    split for n = 1..N.
    """

    order: int
    gammas: tuple[tuple[HReal, HReal], ...]
    etas: tuple[HReal, ...]
    lambdas: tuple[HReal, ...]
    S1: tuple[HReal, ...]
    S2: tuple[HReal, ...]

    def gamma(self, n: int) -> HReal:
        return self.gammas[n][0]

    def gamma_bound(self, n: int) -> HReal:
        return self.gammas[n][1]

    def eta(self, n: int) -> HReal:
        return self.etas[n]

    def lam(self, n: int) -> HReal:
        """lambda_n, 1-indexed."""
        return self.lambdas[n - 1]

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "gammas": [v.str_digits(30) for v, _ in self.gammas],
            "gamma_bounds": [b.str_digits(5) for _, b in self.gammas],
            "etas": [e.str_digits(30) for e in self.etas],
            "lambdas": [l.str_digits(30) for l in self.lambdas],
            "S1": [s.str_digits(30) for s in self.S1],
            "S2": [s.str_digits(30) for s in self.S2],
        }


def li_lambda_identity(n: int, table: StieltjesTable,
                       ctx: Optional[PrecisionContext] = None) -> HReal:
    """lambda_n assembled from the constants:

        1 - (n/2)(gamma + log 4pi)
          + Sum_{j=2}^{n} C(n,j) (-1)^j (1 - 2^(-j)) zeta(j)
          - Sum_{j=1}^{n} C(n,j) eta_{j-1}

    with zeta(j) from zeta_int and the division etas; at n = 1 the sums
    reduce to -eta_0 = gamma_0 and the value collapses to
    1 + gamma_0/2 - (log 4pi)/2."""
    if n < 1:
        raise ValueError(f"lambda_n needs n >= 1, got {n}")
    if len(table.etas) < n:
        raise ValueError(f"eta through order {n - 1} required")
    ctx = ctx or table.gamma(0).ctx
    with ctx.workprec(_GUARD):
        g0 = table.gamma(0).val
        acc = 1 - ctx.mpf(n) * (g0 + ctx.log_4pi) / 2
        for j in range(2, n + 1):
            sign = 1 if j % 2 == 0 else -1
            acc += sign * math.comb(n, j) * (1 - mpf(2) ** (-j)) \
                * zeta_int(j, ctx).val
        for j in range(1, n + 1):
            acc -= math.comb(n, j) * table.etas[j - 1].val
        return ctx.real(acc)


def coffey_decomposition(n: int, table: StieltjesTable,
                         ctx: Optional[PrecisionContext] = None
                         ) -> tuple[HReal, HReal, bool]:
    """(S1(n), S2(n), bounds_ok) with

        S1(n) = Sum_{j=2}^{n} C(n,j) (-1)^j (1 - 2^(-j)) zeta(j)
        S2(n) = -Sum_{j=1}^{n} C(n,j) eta_{j-1}

    and bounds_ok the check (n >= 2; vacuously true at n = 1)

        (n(log n + gamma - 1) + 1)/2 <= S1(n) <= (n(log n + gamma + 1) - 1)/2.
    """
    if n < 1:
        raise ValueError(f"decomposition needs n >= 1, got {n}")
    if len(table.etas) < n:
        raise ValueError(f"eta through order {n - 1} required")
    ctx = ctx or table.gamma(0).ctx
    with ctx.workprec(_GUARD):
        s1 = mpf(0)
        for j in range(2, n + 1):
            sign = 1 if j % 2 == 0 else -1
            s1 += sign * math.comb(n, j) * (1 - mpf(2) ** (-j)) \
                * zeta_int(j, ctx).val
        s2 = mpf(0)
        for j in range(1, n + 1):
            s2 -= math.comb(n, j) * table.etas[j - 1].val
        ok = True
        if n >= 2:
            g = ctx.euler_gamma
            logn = mpmath.log(n)
            lower = (n * (logn + g - 1) + 1) / 2
            upper = (n * (logn + g + 1) - 1) / 2
            ok = bool(lower <= s1 <= upper)
        return ctx.real(s1), ctx.real(s2), ok


def build_stieltjes_table(N: int, ctx: Optional[PrecisionContext] = None,
                          eps: Optional[float] = None, *,
                          m: int = _DEFAULT_M, K: int = _DEFAULT_K
                          ) -> StieltjesTable:
    """Assemble gammas (through N+1), etas (through N), lambdas and the
    Coffey split (through N) in one pass."""
    if N < 1:
        raise ValueError(f"table order must be >= 1, got {N}")
    ctx = ctx or PrecisionContext()
    gammas = tuple(stieltjes(k, eps, ctx, m=m, K=K) for k in range(N + 2))
    etas = eta_from_gamma(gammas, ctx)[:N + 1]
    partial = StieltjesTable(order=N, gammas=gammas, etas=etas,
                             lambdas=(), S1=(), S2=())
    lambdas = tuple(li_lambda_identity(k, partial, ctx) for k in range(1, N + 1))
    s1s = []
    s2s = []
    for k in range(1, N + 1):
        s1, s2, _ = coffey_decomposition(k, partial, ctx)
        s1s.append(s1)
        s2s.append(s2)
    return StieltjesTable(order=N, gammas=gammas, etas=etas,
                          lambdas=lambdas, S1=tuple(s1s), S2=tuple(s2s))


def lambda_direct(n: int, table: ZeroTable, spec: SumSpec,
                  ctx: Optional[PrecisionContext] = None
                  ) -> tuple[HReal, HReal]:
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
    ctx = ctx or PrecisionContext()
    coeffs = [0] + [(-1) ** (k + 1) * math.comb(n, k) for k in range(1, n + 1)]
    value, _ = zero_sum(table, spec, inv_rho_poly_term(coeffs), ctx)
    with ctx.workprec(_GUARD):
        T = _selected_height(table, spec)
        tail = n * n * _density_integral(T, mpf(2))
    return value, ctx.real(tail)


# ----------------------------------------------------------------------
# The zero-sum statistic
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RHStatReport:
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

    def to_dict(self) -> dict:
        return {
            "pairs": self.pairs,
            "sum_inv_rho_sq": self.sum_value.str_digits(20),
            "tail": self.tail.str_digits(10),
            "corrected": self.corrected.str_digits(20),
            "target": self.target.str_digits(20),
            "discrepancy": self.discrepancy.str_digits(10),
            "within_tolerance": self.within_tolerance,
            "doubled_inv_rho": self.doubled_inv_rho.str_digits(20),
        }


def rh_statistic(table: ZeroTable, spec: SumSpec,
                 ctx: Optional[PrecisionContext] = None,
                 tolerance: Optional[float] = None) -> RHStatReport:
    """Signed discrepancy of (Sum 1/|rho|^2 + tail) against the constant
    2 + gamma - log 4pi; within_tolerance uses the tail correction
    itself as the allowance unless an explicit tolerance is given."""
    ctx = ctx or PrecisionContext()
    (value, inv_rho), pairs = zero_sum(
        table, spec, (inv_abs_sq_term(), xrho_term(1, (0,), (1,))), ctx)
    with ctx.workprec(_GUARD):
        tail = ctx.real(2 * _density_integral(_selected_height(table, spec), mpf(2)))
        target = 2 + ctx.euler_gamma - ctx.log_4pi
        corrected = value.val + tail.val
        disc = corrected - target
        allowance = ctx.mpf(tolerance) if tolerance is not None else tail.val
        within = bool(abs(disc) <= allowance)
        return RHStatReport(
            pairs=pairs,
            sum_value=value,
            tail=tail,
            corrected=ctx.real(corrected),
            target=ctx.real(target),
            discrepancy=ctx.real(disc),
            within_tolerance=within,
            doubled_inv_rho=ctx.real(2 * inv_rho.val),
        )

"""Reference routes for the Euler-Maclaurin core, kept as independent
oracles, and bernoulli, the Fraction view of the package's integer
Bernoulli table that only tests read.

em_log_moments is the mpf pass the package used before its integer
fixed-point pass.  It shares only the plan (_em_plan) and the Bernoulli
numbers with the package; its coefficient table is the unscaled one, in
whatever type s has (mpf here), and every loop runs on mpf at the pass's
working precision.

em_plan is the plan the package used before it read its exact
coefficient table in logs: the same K, and M from a float
coefficient-wise majorant of |P_2K|/(2K)!.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mpf

from zeta_explicit.mpcore import (_EM_BUDGET, _GUARD, HReal, PrecisionContext, Scalar,
                                  _em_plan, _exact, bernoulli_table)


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2): bernoulli_table's entry over D."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    D, b = bernoulli_table(n)
    return Fraction(b[n], D)


def em_plan(s: float, a: Scalar, N: int, bits: int) -> tuple[int, int]:
    """(M, K) with K = (bits + 20)/8, raised if needed so that s + 2K > 1,
    and M the least shift whose remainder bound for order N, estimated in
    floats from a coefficient-wise majorant r of |P_2K|/(2K)! at log R, or
    at the integrand's peak N/c past it, meets 2^-(bits+20).  Refused, as
    the package's plan is, when M (N+1) > 2^20.  r equals the exact row
    for s > 0 and bounds it for s <= 0; its polynomial overflows to inf
    at large N."""
    K = max(math.ceil((bits + 20) / 8), math.floor((1 - s) / 2) + 1)
    r = [0.0] * N + [1.0]
    for j in range(2 * K):
        r = [((i + 1) * d + abs(s + j) * c) / (j + 1)
             for i, (c, d) in enumerate(zip(r, r[1:] + [0.0]))]
    if not any(r):
        return 1, K  # f is a polynomial of degree < 2K: the sum is exact
    c = s + 2 * K - 1
    base = 1 + math.log(2.5) - 2 * K * math.log(2 * math.pi) + math.lgamma(2 * K + 1) - math.log(c)
    p, q = _exact(a).numerator, _exact(a).denominator
    target = -(bits + 20) * math.log(2)

    def above_target(M: int) -> bool:
        L = max(math.log(M * q + p) - math.log(q), N / c)
        poly = 0.0
        for x in reversed(r):
            poly = poly * L + x
        return base + math.log(poly) - c * L > target

    cap = _EM_BUDGET // (N + 1)
    lo, hi = 0, 1
    while above_target(hi):
        if hi >= cap:
            raise ArithmeticError(
                f"Euler-Maclaurin plan for s = {s:g}, N = {N} at {bits} bits "
                f"needs M (N+1) > {_EM_BUDGET}")
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above_target(mid) else (lo, mid)
    return hi, K


def _eps_table(s, N: int, count: int) -> list[list]:
    """c[j][i] = [eps^i] (-1)^j (s-eps)_j for j = 0..count, i = 0..N, with
    (x)_j the rising factorial, by c[j+1][i] = -(s+j) c[j][i] + c[j][i-1].

    d^j/dt^j t^(-(s-eps)) = (-1)^j (s-eps)_j t^(-(s-eps)-j), and the
    eps^n/n! coefficient of t^(-(s-eps)) is f(t) = log^n(t) t^(-s), so
    f^(j)(t) = P_j(log t) t^(-s-j) with P_j(L) = Sum_i n!/(n-i)! c[j][i] L^(n-i).
    """
    rows = [[1] + [0] * N]
    for j in range(count):
        p = rows[-1]
        rows.append([-(s + j) * x + y for x, y in zip(p, [0] + p[:-1])])
    return rows


def em_log_moments(s: Scalar, a: Scalar, N: int, ctx: PrecisionContext
                   ) -> tuple[tuple[HReal, HReal], ...]:
    """(value, certified bound) of Z_n(s, a) = Sum_{k>=0} log^n(k+a) (k+a)^(-s)
    = (-1)^n d^n/ds^n zeta(s, a) for n = 0..N, real s, a > 0.  At s = 1
    the values are the regularized constants
    gamma_n(a) = lim_R [Sum_{k+a<=R} log^n(k+a)/(k+a) - log^(n+1)(R)/(n+1)].

    One Euler-Maclaurin pass with f(t) = log^n(t) t^(-s), R = M + a and
    (M, K) from _em_plan:

      Z_n = Sum_{k<M} f(k+a) + I_n + f(R)/2
            - Sum_{j=1}^{K} B_2j/(2j)! P_{2j-1}(log R) R^(1-s-2j) + remainder,

      I_n = R^(1-s) Sum_{j<=n} (n!/(n-j)!) log^(n-j)(R) / (s-1)^(j+1)
            (the continued Integral_R^inf f; -log^(n+1)(R)/(n+1) at s = 1),

      |remainder| <= 2 zeta(2K)/(2 pi)^(2K) Integral_R^inf |f^(2K)(t)| dt,

    with zeta(2K) <= 1 + 2^-2K (2K+1)/(2K-1).  The P_j come from one
    _eps_table per call, so the Bernoulli corrections contract over j
    once per eps power i and each order costs O(n):

      correction_n = Sum_i n!/(n-i)! log^(n-i)(R) D_i,
      D_i = Sum_j B_2j/(2j)! c[2j-1][i] R^(1-s-2j).

    The remainder integral is Sum_m |[L^m] P_2K| e^(-cL) T_m with
    c = s + 2K - 1 and T_m = e^(cL) Integral_L^inf u^m e^(-cu) du =
    L^m/c + (m/c) T_(m-1).  The bound adds the rounding slop of the pass
    at its working precision (with the coefficient-wise majorant of the
    correction) and 2^(1-bits) (|value| + 1) for the rounding to the
    context.
    """
    sf, af = float(s), float(a)
    if not af > 0:
        raise ValueError(f"Euler-Maclaurin shift must be positive, got {a}")
    M, K = _em_plan(_exact(s), _exact(a), N, ctx.bits)
    lmax = max(2.0, math.log(M + af), abs(math.log(af)))  # bounds |log t| on [a, R]
    # bits that cancel between the partial sum and I_n
    extra = _GUARD + math.ceil(max(0.0, 1 - sf) * math.log2(M + af)
                               + N * math.log2(lmax) + math.log2(M))
    out = []
    with ctx.workprec(extra):
        sv, av = (mpf(x.numerator) / mpf(x.denominator) if isinstance(x, Fraction) else mpf(x)
                  for x in (s, a))
        integer_s = sv == int(sv)
        sums = [mpf(0)] * (N + 1)
        mass = mpf(0)  # Sum_{k<M} (k+a)^(-s)
        for k in range(M):
            t = k + av
            lt = mpmath.log(t)
            w = t ** -sv if integer_s else mpmath.exp(-sv * lt)
            mass += w
            for n in range(N + 1):
                sums[n] += w
                w *= lt
        R = M + av
        L = mpmath.log(R)
        wR = R ** -sv
        Lpow = [mpf(1)]
        for _ in range(N + 1):
            Lpow.append(Lpow[-1] * L)
        c = _eps_table(sv, N, 2 * K)
        D, A = [mpf(0)] * (N + 1), [mpf(0)] * (N + 1)  # D_i and its majorant
        Rpow = wR / R
        for j in range(1, K + 1):
            b = bernoulli(2 * j)
            coef = mpf(b.numerator) / (b.denominator * math.factorial(2 * j)) * Rpow
            for i, ci in enumerate(c[2 * j - 1]):
                term = coef * ci
                D[i] += term
                A[i] += abs(term)
            Rpow /= R * R
        cr = sv + 2 * K - 1
        T = [1 / cr]
        for m in range(1, N + 1):
            T.append((Lpow[m] + m * T[-1]) / cr)
        zeta2K = 1 + mpf(2 * K + 1) / ((2 * K - 1) * mpf(4) ** K)
        rem_scale = 2 * zeta2K / (2 * mpmath.pi) ** (2 * K) * mpmath.exp(-cr * L)
        for n in range(N + 1):
            if sv == 1:
                I = -Lpow[n + 1] / (n + 1)
            else:
                I, fall = mpf(0), 1
                for j in range(n + 1):
                    I += fall * Lpow[n - j] / (sv - 1) ** (j + 1)
                    fall *= n - j
                I *= R * wR
            corr = corr_abs = tail = mpf(0)
            fall = 1  # n!/(n-i)!
            for i in range(n + 1):
                corr += fall * Lpow[n - i] * D[i]
                corr_abs += fall * Lpow[n - i] * A[i]
                tail += fall * abs(c[2 * K][i]) * T[n - i]
                fall *= n - i
            value = sums[n] + I + Lpow[n] * wR / 2 - corr
            rem = rem_scale * tail
            slop = (M + 2 * K + 16) * (n + 4 + abs(sv) * lmax) \
                * mpf(2) ** -(ctx.bits + extra) * (lmax ** n * mass + abs(I) + corr_abs + 1)
            bound = rem + slop + mpf(2) ** (1 - ctx.bits) * (abs(value) + 1)
            out.append((ctx.real(value), ctx.real(bound)))
    return tuple(out)

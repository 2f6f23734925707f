"""Root location for the zero-sum function f on both sides of 1, and
the imaginary-quadratic identities: class numbers against L(1, chi),
and the Gamma-product evaluation of exp(L'/L(1, chi) - gamma).

f means the closed-form side of the zero sum Sum_rho x^rho / rho,
explicit's f_fixed = g + K (rounded once by f_rhs_gt1 and f_rhs_lt1).
It is continuous except at prime powers (x > 1) or reciprocal prime
powers (x < 1), where the half-weighted prime term makes the at-point
value the mean of the one-sided limits.  Between consecutive
discontinuities K is constant, and g' vanishes once, at the plastic
number (x > 1) or its reciprocal (x < 1).  One walk, _pieces, yields the
pieces on which g + K is monotone, in increasing x, in integers at the
prime sums' width W = bits + 48: K, explicit's f_const inside the first
piece, falls by log p (floor-divided by n below 1) at each discontinuity
and errs by a counted number of units of 2^-W.  The finders refine the
one sign change g + K can have on a piece by fixed-point Newton steps
safeguarded by bisection, bracket it by the cell of the grid 2^-k Z
(2^-k <= tol) that holds the root, cut to the piece, and report a sign
change of the one-sided limits at a discontinuity as a jump-crossing
record; every residual is |f_rhs| itself, which checks the walked K.
The grid scan reads f at floor(S k/N) 2^-W, S = floor(pi sqrt(d) 2^W)
exactly (_floor_exact), on each piece, where |f| is monotone or V-shaped
in k: its ends, a bisection to a sign change and steps while |f| <
threshold (exact) give its minimum and candidates.

The quadratic-field block works with chi = chi_{-d} mod D for
squarefree d (class_data supplies D, h, w, chi):

  h          Dirichlet's class number formula in exact integers,
             h = -(w/2D) Sum_{a=1}^{D-1} a chi(a), against the
             reduced-form count.
  L(1, chi), L'(1, chi)
             both from one dirichlet_L(1, ...) call: the character sum
             of the shifted Stieltjes constants gamma_0(a/D),
             gamma_1(a/D), exact to working precision.
  exp(L'/L(1, chi) - gamma) against
             2 pi Prod_{a=1}^{D} Gamma(a/D)^(-chi(a) w / (2h)), its
             Sum chi(a) log Gamma(a/D) by Stirling's series in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .arith import MAX_SIEVE, _log, class_data, shared_table, walk_width
from .explicit import Rational, dirichlet_L, f_const, f_rhs_gt1, f_rhs_lt1, g
from .mpcore import (_GUARD, HReal, PrecisionContext, _constant, _exact, _floor_exact, _gamma_fixed,
                     _nstr, _pi_fixed, bernoulli_table, exp_fixed, log_fixed)

GENUINE = "genuine-zero"
JUMP = "jump-crossing"


class RootRecord(NamedTuple):
    """One located feature of f: a bracketed genuine zero inside a
    continuity interval, or a sign change across a discontinuity that
    never attains zero (kind = jump-crossing, bracket degenerate at the
    prime-power abscissa, residual = |f| at the half-weighted point).
    The CLI prints the root to at most 25 digits (str_digits caps that
    at one digit fewer than the context holds)."""

    bracket_lo: Fraction
    bracket_hi: Fraction
    root: HReal
    residual: HReal
    kind: str


def _refine(a: Fraction, b: Fraction, fa: int, k: int, F: Callable[[int], int],
            W: int, bits: int) -> tuple[Fraction, Fraction, int]:
    """(a', b', X): the zero X 2^-W of the monotone F = g + K on [a, b] (F
    and fa = F(a) in units of 2^-W, F' = _dg), inside the cell of the grid
    hZ, h = 2^-k, that holds X, cut to [a, b]: its ends keep the differing
    signs of F(a), F(b), a zero of F counting with the positive side.

    Newton's method safeguarded by bisection on the integer bracket
    [lo, hi] (Numerical Recipes, 9.4): each iterate's F replaces the end
    of like sign, a step that leaves the bracket becomes its midpoint,
    and the loop stops once a step moves X by at most |X| 2^-(bits+8)
    or the bracket closes.  A probed cell end of the wrong sign moves the
    cell by one, which happens only when X is within a unit of its end."""
    lo, hi = -(-(a.numerator << W) // a.denominator), (b.numerator << W) // b.denominator
    X = (lo + hi) >> 1
    while hi - lo > 1:
        FX = F(X)
        if (FX < 0) == (fa < 0):
            lo = X
        else:
            hi = X
        X, Y = X - (FX << W) // (_dg(X, 1 << W, W) or 1), X
        if abs(Y - X) <= abs(X) >> bits + 8:
            break
        if not lo < X < hi:
            X = (lo + hi) >> 1
    m, h = X >> W - k, Fraction(1, 1 << k)
    while a < m * h and (F(m << W - k) < 0) != (fa < 0):
        m -= 1
    while (m + 1) * h < b and (F(m + 1 << W - k) < 0) == (fa < 0):
        m += 1
    return max(a, m * h), min(b, (m + 1) * h), X


def _dg(p: int, q: int, W: int) -> int:
    """g' at x = p/q, floored to units of 2^-W: (x^3 - x - 1)/(x^3 - x)
    above 1, (1 - x^2 - x^3)/(x (1 - x^2)) below."""
    n, d = (p ** 3 - p * q * q - q ** 3, p ** 3 - p * q * q) if p > q else \
        (q ** 3 - q * p * p - p ** 3, p * (q * q - p * p))
    return (n << W) // d


def _plastic(V: int) -> Fraction:
    """The plastic number, the real root of x^3 = x + 1, floored to 2^-V:
    integer Newton steps on F(X) = X^3 - X 4^V - 8^V from 2^(V+1), above the
    root where F is convex, stay above it; unit steps then reach the floor."""
    U, X = 1 << V, 2 << V
    F = lambda X: X ** 3 - X * U * U - U ** 3
    while (step := F(X) // (3 * X * X - U * U)) > 0:
        X -= step
    while F(X) > 0:
        X -= 1
    return Fraction(X, U)


def _pieces(lo: Fraction, hi: Fraction, ctx: PrecisionContext
            ) -> Iterator[tuple[Fraction, Fraction, int, int]]:
    """The pieces [a, b] of [lo, hi] (one side of 1) on which f = g + K is
    monotone, in increasing order, as (a, b, K, drop), K and drop integers
    in units of 2^-W at the prime walk's width W = walk_width(ctx).
    They end at each discontinuity x = n (above 1) or x = 1/n (below 1),
    n a prime power, inside (lo, hi), at the turn where g' vanishes (the
    plastic number, x^3 = x + 1, above 1; its reciprocal below) and at hi.
    K is f_const at the first piece's midpoint; it falls by drop, log p or
    floor(log p / n) (0 at the turn and at an hi that is no discontinuity),
    as x passes b, each drop under 1/n + 1 units off, log p being
    floor(log(p) 2^W): K errs by less than 1 + Sum (1/n + 1) units over
    the terms and drops taken (n = 1 above 1).  The turn lies in (1/2, 2),
    so it precedes every discontinuity above 1 and follows every one below."""
    above = lo > 1
    # x = n above 1, x = 1/n below: the n strictly inside, and hi's own n
    n_lo, n_hi, n_end = (lo, hi, hi) if above else (1 / hi, 1 / lo, 1 / hi)
    table = shared_table(max(2, math.floor(n_hi)))
    ends = [(Fraction(n) if above else Fraction(1, n), n, p)
            for n, p in zip(*table.between(math.floor(n_lo), math.ceil(n_hi) - 1))]
    if not above:
        ends.reverse()
    turn = _plastic(ctx.bits + _GUARD) ** (1 if above else -1)
    if lo < turn < hi:
        ends.insert(0 if above else len(ends), (turn, 0, 0))
    p = table.prime_of(n_end.numerator) if n_end.denominator == 1 else 0
    ends.append((hi, n_end.numerator, p))
    K, W, a = f_const((lo + ends[0][0]) / 2, ctx), walk_width(ctx), lo
    for b, n, p in ends:
        drop = _log(p, W) // (1 if above else n) if p else 0
        yield a, b, K, drop
        K -= drop
        a = b


def _walk(lo: Fraction, hi: Fraction, tol: Fraction,
          ctx: PrecisionContext) -> list[RootRecord]:
    """Records on [lo, hi] (one side of 1) from the pieces of _pieces, at
    their width W: a zero refined where g + K changes sign across a piece
    (g(b) serves the next piece's a), a jump-crossing where the drop at
    its end carries g + K across 0."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tol < Fraction(1, 2 ** (ctx.bits - 16)):
        raise ValueError(
            f"tol = {tol} below the precision floor 2^-{ctx.bits - 16}")
    W = walk_width(ctx)
    f_rhs = f_rhs_gt1 if lo > 1 else f_rhs_lt1
    k = (math.ceil(1 / tol) - 1).bit_length()   # h = 2^-k <= tol
    records: list[RootRecord] = []
    ga = g(lo.numerator, lo.denominator, W)
    for a, b, K, drop in _pieces(lo, hi, ctx):
        gb = g(b.numerator, b.denominator, W)
        fa, fb = ga + K, gb + K
        if fa * fb < 0:
            v, w, X = _refine(a, b, fa, k, lambda X: g(X, 1 << W, W) + K, W, ctx.bits)
            root = ctx.real((X, -W))   # X 2^-W rounded once
            res = f_rhs(_exact(root), ctx)
            records.append(RootRecord(v, w, root, ctx.real((abs(res.man), res.exp)), GENUINE))
        if fb * (fb - drop) < 0:
            res = f_rhs(b, ctx)
            records.append(RootRecord(b, b, ctx.real(b), ctx.real((abs(res.man), res.exp)), JUMP))
        ga = gb
    return records


def find_zeros_gt1(lo: Rational, hi: Rational, tol: Rational,
                   ctx: PrecisionContext) -> list[RootRecord]:
    """Zeros of f on [lo, hi] with 1 < lo < hi: genuine zeros bracketed
    to width <= tol inside the continuity intervals between consecutive
    prime powers, plus jump-crossing records wherever the one-sided
    limits straddle zero at a prime power in (lo, hi].

    Between prime powers f' = 1 - 1/(x^3 - x) vanishes only at the
    plastic number, so each interval, split there, holds at most one
    zero, present exactly when the end values differ strictly in sign:
    every genuine zero is found, whatever tol.  No genuine bracket holds
    a prime power strictly inside.
    """
    if not 1 < Fraction(lo) < Fraction(hi):
        raise ValueError(f"need 1 < lo < hi, got [{lo}, {hi}]")
    return _walk(Fraction(lo), Fraction(hi), Fraction(tol), ctx)


def find_zeros_lt1(lo: Rational, hi: Rational, tol: Rational,
                   ctx: PrecisionContext) -> list[RootRecord]:
    """Same walk on 0 < lo < hi < 1 with discontinuities at the
    reciprocal prime powers x = 1/p^k; there f' = 1/x + 1 - 1/(1 - x^2)
    vanishes only at the reciprocal of the plastic number."""
    if not 0 < Fraction(lo) < Fraction(hi) < 1:
        raise ValueError(f"need 0 < lo < hi < 1, got [{lo}, {hi}]")
    return _walk(Fraction(lo), Fraction(hi), Fraction(tol), ctx)


# ----------------------------------------------------------------------
# L(1, chi_{-d}), L'(1, chi_{-d}), class numbers, Gamma product
# ----------------------------------------------------------------------

def L_one_chi(d: int, ctx: PrecisionContext) -> HReal:
    """L(1, chi_{-d}) for squarefree d from dirichlet_L at s = 1, through
    the shifted Stieltjes constants."""
    data = class_data(d)
    return ctx.real(dirichlet_L(1, data.D, data.chi, ctx)[0])


def L_prime_one_chi(d: int, ctx: PrecisionContext) -> HReal:
    """L'(1, chi_{-d}) from dirichlet_L at s = 1, through the shifted
    Stieltjes constants."""
    data = class_data(d)
    return ctx.real(dirichlet_L(1, data.D, data.chi, ctx)[1])


class ClassNumberCheck(NamedTuple):
    """Reduced-form count h against Dirichlet's class number formula
    h = -(w/2D) Sum_{a=1}^{D-1} a chi(a), in exact integers; a formula
    value that is not an integer counts as a mismatch."""

    d: int
    D: int
    h_forms: int
    h_analytic: int
    match: bool


def class_number_check(d: int) -> ClassNumberCheck:
    data = class_data(d)
    h, rem = divmod(-data.w * sum(a * data.chi[a] for a in range(1, data.D)),
                    2 * data.D)
    return ClassNumberCheck(d=d, D=data.D, h_forms=data.h, h_analytic=h,
                            match=rem == 0 and data.h == h)


def _log_gamma_sum(D: int, chi: Sequence[int], V: int) -> int:
    """2^V Sum_{a<D} chi(a) log Gamma(a/D) within 2 units, chi a character mod
    D, at G = V + bits of 6n, n the a with chi(a) != 0: Stirling's series
    (y - 1/2) log y - y + log(2 pi)/2 + Sum_{k<=K} B_2k/(2k(2k-1) y^(2k-1)),
    K = G/8 + 2, at y = q/D, q = a + ND, less log Prod_{j<N} (a/D + j), N
    the shift past which the first omitted term, over the remainder at y > 0
    (DLMF 5.11.ii), is below 2^-(G+1) by |B_2m| <= 4 (2m)!/(2 pi)^2m.  Sum
    chi(a) = 0 cancels the log(2 pi)/2 and the product's D^N.  Per term 6
    units of 2^-G: the head from log y at G + t, 2^t > y, 2; the Horner sum
    in 1/y^2 of floored coefficients, over y, 2; the remainder 1; log Prod
    (a + jD) 1."""
    G = V + (6 * sum(map(bool, chi))).bit_length()
    K = G // 8 + 2
    N = 1 + math.ceil(math.exp((math.lgamma(2 * K + 1) + (G + 3) * math.log(2)
                                - (2 * K + 2) * math.log(2 * math.pi)) / (2 * K + 1)))
    (bd, bt), t, acc = bernoulli_table(2 * K), (N + 1).bit_length(), 0
    coef = [(bt[2 * k] << G) // (bd * 2 * k * (2 * k - 1)) for k in range(K, 0, -1)]
    for a, q in ((a, a + N * D) for a in range(1, D) if chi[a]):
        z, h = (D * D << G) // (q * q), 0
        for c in coef:
            h = c + (h * z >> G)
        acc += chi[a] * (((2 * q - D) * log_fixed(q, D, G + t) - (q << G + t + 1)) // (D << t + 1)
                         + h * D // q - log_fixed(math.prod(range(a, q, D)), 1, G))
    return acc >> G - V


def chowla_selberg_rhs(d: int, ctx: PrecisionContext) -> HReal:
    """2 pi Prod_{a=1}^{D} Gamma(a/D)^(-chi(a) w / (2h)) (2 pi is 2D/A^2, A =
    sqrt(D/pi)) as 2 pi e^E, E = -wS/(2h) within 7 units of 2^-V, S from
    _log_gamma_sum at V = bits + 32, e^E >= 2^-n exp_fixed's at V + n and pi
    floored at V: within 10 units of 2^-V, relative, before one rounding."""
    data, V = class_data(d), ctx.bits + _GUARD
    E = -data.w * _log_gamma_sum(data.D, data.chi, V) // (2 * data.h)
    n = max(0, 3 * (-E >> V) // 2 + 2)
    return ctx.real((2 * _pi_fixed(V) * exp_fixed(E << n, V + n), -2 * V - n))


class ChowlaSelbergReport(NamedTuple):
    d: int
    D: int
    h: int
    w: int
    L_one: HReal
    L_prime_one: HReal
    lhs: HReal          # exp(L'/L(1, chi) - gamma)
    rhs: HReal          # the Gamma product
    rel_err: HReal      # |lhs/rhs - 1|


def chowla_selberg_check(d: int, ctx: PrecisionContext) -> ChowlaSelbergReport:
    """exp(L'/L(1, chi_{-d}) - gamma) against the Gamma product, with
    the relative discrepancy |lhs/rhs - 1|; L(1) and L'(1) come from one
    dirichlet_L call and both sides are good to working precision: L'/L -
    gamma exact, its exp exp_fixed's at bits + 32."""
    data, V = class_data(d), ctx.bits + _GUARD
    L1, Ld = dirichlet_L(1, data.D, data.chi, ctx)
    rhs = chowla_selberg_rhs(d, ctx)
    y = _exact(Ld) / _exact(L1) - _exact(_constant(_gamma_fixed, V))
    lhs = exp_fixed((y.numerator << V) // y.denominator, V), -V
    return ChowlaSelbergReport(d=d, D=data.D, h=data.h, w=data.w,
                               L_one=ctx.real(L1), L_prime_one=ctx.real(Ld),
                               lhs=ctx.real(lhs), rhs=rhs,
                               rel_err=ctx.real(abs(_exact(lhs) / _exact(rhs) - 1)))


# ----------------------------------------------------------------------
# Rational-grid scan feeding the transcendence-hypothesis report
# ----------------------------------------------------------------------

class HypothesisScan(NamedTuple):
    """Grid survey of x -> f(pi sqrt(d) x) over rationals x = k/N in
    (0, 1/(pi sqrt d)); evaluated counts grid points surveyed, not f
    evaluations.  candidates lists grid points with |f| below threshold;
    found is their existence.  Data only: no conclusion about rational
    zeros is drawn, and the window/grid convention is part of the report
    because no canonical choice exists."""

    d: int
    window_hi: HReal
    denominator: int
    threshold: float
    evaluated: int
    candidates: tuple[tuple[Fraction, HReal], ...]
    min_abs: HReal
    argmin: Fraction
    found: bool


def hypothesis_scan(d: int, ctx: PrecisionContext, *,
                    denominator: int = 10_000,
                    threshold: float = 1e-6) -> HypothesisScan:
    """Survey f at pi sqrt(d) k/denominator inside (0, 1), piece by piece
    of _pieces, at their width W: each argument is X_k 2^-W, X_k =
    floor(S k/denominator), S = floor(pi sqrt(d) 2^W), never a reciprocal
    prime power or the turn; pieces and |f| < threshold are exact integer
    tests.  Refuses a d not a positive integer, a denominator not an integer
    >= 2 or past MAX_SIEVE at X_1, and a threshold not a finite float > 0."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got d = {d}")
    if not isinstance(denominator, int) or denominator < 2:
        raise ValueError(f"grid denominator must be an integer >= 2, got {denominator!r}")
    if not (isinstance(threshold, (int, float)) and 0 < threshold < math.inf):
        raise ValueError(f"threshold must be a finite positive float, got {threshold!r}")
    W, V = walk_width(ctx), ctx.bits + _GUARD
    R = lambda G: _pi_fixed(G) * math.isqrt(d << 2 * G)   # pi sqrt(d) 4^G, < (pi + sqrt d) 2^G low
    S = _floor_exact(lambda G: (R(G) >> G, math.isqrt(d) + 6), W)
    window_hi = (_floor_exact(lambda G: ((1 << 3 * G) // R(G), 2), V), -V)
    kmax = _floor_exact(lambda G: ((denominator << 3 * G) // R(G), 2 * denominator + 2), 0)
    u, window = 1 << W, f"window (0, {_nstr(*window_hi, 8)})"
    if kmax < 1 or S < denominator:   # S < denominator: X_1 = 0
        raise ValueError(f"{window} holds no grid point above 2^-{W} "
                         f"with denominator {denominator}")
    X = lambda k: S * k // denominator
    if u // X(1) > MAX_SIEVE:         # _pieces sieves to 1/X_1
        raise ValueError(f"grid denominator {denominator} puts the first point of the "
                         f"{window} at 1/{u // X(1)}, past MAX_SIEVE = {MAX_SIEVE}")
    f = lambda k: g(X(k), u, W) + K
    tn, td = Fraction(threshold).as_integer_ratio()   # v 2^-W < tn/td iff v td < tn 2^W
    last = kmax if X(kmax) < u else kmax - 1
    candidates, best, k = [], None, 1
    for _, b, K, _ in _pieces(Fraction(X(1), u), Fraction(X(last), u), ctx):
        # the piece's grid points [k, e]: X_e <= b 2^W < X_(e+1)
        e = min(last, (((b.numerator << W) // b.denominator + 1) * denominator - 1) // S)
        if e < k:
            continue
        lo, hi, flo = k, e, f(k)
        fhi = f(e) if e > k else flo
        while hi - lo > 1 and (flo > 0) != (fhi > 0):
            mid = (lo + hi) // 2
            if ((fm := f(mid)) > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi, fhi = mid, fm
        m, v = (lo, abs(flo)) if abs(flo) <= abs(fhi) else (hi, abs(fhi))
        if best is None or v < best[1]:
            best = (Fraction(m, denominator), v)
        run = {m: v} if v * td < tn << W else {}
        for step, stop in ((-1, k - 1), (1, e + 1)):
            j = m + step
            while run and j != stop and (w := abs(f(j))) * td < tn << W:
                run[j], j = w, j + step
        candidates += [(Fraction(j, denominator), ctx.real((run[j], -W)))
                       for j in sorted(run)]
        k = e + 1
    return HypothesisScan(
        d=d, window_hi=ctx.real(window_hi), denominator=denominator,
        threshold=threshold, evaluated=kmax,
        candidates=tuple(candidates), min_abs=ctx.real((best[1], -W)),
        argmin=best[0], found=bool(candidates))

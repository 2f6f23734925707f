"""Root location for the zero-sum function f on both sides of 1, and
the imaginary-quadratic identities: class numbers against L(1, chi),
and the Gamma-product evaluation of exp(L'/L(1, chi) - gamma).

f means the closed-form side of the zero sum Sum_rho x^rho / rho
(f_rhs_gt1 for x > 1, f_rhs_lt1 for 0 < x < 1).  It is continuous
except at prime powers (x > 1) or reciprocal prime powers (x < 1),
where the half-weighted prime term makes the at-point value the mean
of the one-sided limits.  Between consecutive discontinuities f is an
elementary g(x) plus a constant K, and g' vanishes once, at the plastic
number (x > 1) or its reciprocal (x < 1).  The finders walk these
intervals upward: K comes from one prime sum in the first interval and
falls by the von Mangoldt jump at each discontinuity, each interval
split at the turning point holds at most one zero, and that zero is
refined by safeguarded Newton steps on g + K.  A sign change of the
one-sided limits at a discontinuity is reported as a jump-crossing
record.  Every residual is |f_rhs| itself, so it also checks the walked
K against the prime-power sums.

The grid scan walks f(pi sqrt(d) k/N) likewise, K = T + gamma from one
prime sum at k = 1, read at the width of its drops.  Between drops of
K, on one side of the turn, |f| is monotone or V-shaped in k: f at a
piece's ends, a bisection to a sign change and steps outward while
|f| < threshold find its minimum and candidates.

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
             2 pi Prod_{a=1}^{D} Gamma(a/D)^(-chi(a) w / (2h)), the one
             place production code calls an mpmath special function
             (mpmath.loggamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath
from mpmath import mpf

from .arith import class_data, mangoldt, shared_table, weighted_sum
from .explicit import Rational, dirichlet_L, f_rhs_gt1, f_rhs_lt1, g_gt1, g_lt1
from .mpcore import _GUARD, HReal, PrecisionContext, _to_mpf
from .zeros import _exact

GENUINE = "genuine-zero"
JUMP = "jump-crossing"


@dataclass(frozen=True)
class RootRecord:
    """One located feature of f: a bracketed genuine zero inside a
    continuity interval, or a sign change across a discontinuity that
    never attains zero (kind = jump-crossing, bracket degenerate at the
    prime-power abscissa, residual = |f| at the half-weighted point).
    to_dict prints the root to at most 25 digits (str_digits caps that
    at one digit fewer than the context holds)."""

    bracket_lo: Fraction
    bracket_hi: Fraction
    root: HReal
    residual: HReal
    kind: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bracket": [str(self.bracket_lo), str(self.bracket_hi)],
            "root": self.root.str_digits(25),
            "residual": self.residual.str_digits(8),
        }


# f = g + K between consecutive discontinuities, K constant there
# (_K): (f_rhs for residuals, g, g').
_BRANCHES = {
    True: (f_rhs_gt1, g_gt1, lambda x: 1 - 1 / (x ** 3 - x)),
    False: (f_rhs_lt1, g_lt1, lambda x: 1 / x + 1 - 1 / (1 - x * x)),
}


def _refine(a: Fraction, b: Fraction, fa: mpf, h: Fraction,
            F: Callable[[mpf], mpf], dF: Callable[[mpf], mpf],
            ctx: PrecisionContext) -> tuple[Fraction, Fraction, mpf]:
    """(a', b', r): the zero r of the monotone F on [a, b], where F(a) = fa
    and F(b) differ strictly in sign, inside a subbracket [a', b'] of
    width <= h whose end values keep those signs.

    Safeguarded Newton: each iterate (the bracket midpoint when the step
    leaves the bracket) probes the two points of the grid hZ around it,
    and the grid point by the midpoint when that has not halved the
    bracket; a probe replaces the end of like sign.  Newton steps then
    polish r until they stall."""
    hv = _to_mpf(h)

    def newton(x: mpf) -> mpf:
        y, lo, hi = x - F(x) / dF(x), _to_mpf(a), _to_mpf(b)
        return y if lo <= y <= hi else (lo + hi) / 2

    def probe(p: Fraction) -> None:
        nonlocal a, b
        if a < p < b:
            if (F(_to_mpf(p)) < 0) == (fa < 0):
                a = p
            else:
                b = p

    x = _to_mpf((a + b) / 2)
    while b - a > h:
        x, width = newton(x), b - a
        c = int(mpmath.floor(x / hv)) * h
        probe(c)
        probe(c + h)
        if 2 * (b - a) > width:
            m = (a + b) / 2 // h * h
            probe(m if m > a else m + h)
    for _ in range(ctx.bits.bit_length()):
        x, y = newton(x), x
        if abs(y - x) <= mpmath.ldexp(abs(x), -ctx.bits - 8):
            break
    return a, b, x


def _K(x: Fraction, above: bool, ctx: PrecisionContext) -> mpf:
    """f - g at an x that is no prime power (above 1) or reciprocal of
    one (below 1): -psi0(x) - log 2pi, or T(x, 0) + gamma, at bits + 32,
    the width of _drop."""
    with ctx.workprec(_GUARD):
        t = weighted_sum(x, Fraction(0), ctx)
        return -t - ctx.log_2pi if above else t + mpmath.euler


def _drop(n: int, above: bool, wide: PrecisionContext) -> mpf:
    """The fall of K as x passes n upward (above 1) or 1/n (below 1):
    Lambda(n), or Lambda(n)/n, 0 when n is no prime power."""
    with wide.workprec():
        return mangoldt(n) / (1 if above else n)


def _turn(above: bool) -> Fraction:
    """Where g' vanishes, exact at the current precision: the plastic
    number (x^3 = x + 1) above 1, its reciprocal below."""
    r = mpmath.sqrt(69)
    turn = mpmath.cbrt((9 + r) / 18) + mpmath.cbrt((9 - r) / 18)
    return _exact(turn if above else 1 / turn)


def _walk(lo: Fraction, hi: Fraction, tol: Fraction,
          ctx: PrecisionContext) -> list[RootRecord]:
    """Records on [lo, hi] (one side of 1), whose discontinuities are the
    prime powers x = n or x = 1/n: K from _K inside the first interval,
    lowered by _drop at each jump, all at bits + 32."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tol < Fraction(1, 2 ** max(8, ctx.bits - 16)):
        raise ValueError(
            f"tol = {tol} below the precision floor 2^-{ctx.bits - 16}")
    above = lo > 1
    f_rhs, g, dg = _BRANCHES[above]
    n_lo, n_hi = (lo, hi) if above else (1 / hi, 1 / lo)
    table = shared_table(max(2, math.floor(n_hi)))
    ns = [n for n in range(max(2, math.ceil(n_lo)), math.floor(n_hi) + 1)
          if table.is_prime_power(n)]
    jumps = [Fraction(n) for n in ns] if above else [Fraction(1, n) for n in ns[::-1]]
    h = Fraction(1, 2 ** (math.ceil(1 / tol) - 1).bit_length())  # <= tol
    jumpset = set(jumps)
    bounds = [lo] + [j for j in jumps if lo < j < hi] + [hi]
    wide = PrecisionContext(ctx.bits + _GUARD)
    K = _K((lo + bounds[1]) / 2, above, ctx)
    records: list[RootRecord] = []
    with ctx.workprec(_GUARD):
        turn = _turn(above)
        for a, b in zip(bounds, bounds[1:]):
            ends = [a, turn, b] if a < turn < b else [a, b]
            vals = [g(_to_mpf(x)) + K for x in ends]
            for u, v, fu, fv in zip(ends, ends[1:], vals, vals[1:]):
                if fu * fv < 0:
                    u, v, x = _refine(u, v, fu, h, lambda x: g(x) + K, dg, ctx)
                    root = ctx.real(x)
                    res = f_rhs(_exact(root.val), ctx).val
                    records.append(RootRecord(u, v, root, ctx.real(abs(res)),
                                              GENUINE))
            if b in jumpset:
                drop = _drop(b.numerator if above else b.denominator, above, wide)
                if vals[-1] * (vals[-1] - drop) < 0:
                    res = f_rhs(b, ctx).val
                    records.append(RootRecord(b, b, ctx.real(b),
                                              ctx.real(abs(res)), JUMP))
                K -= drop
    return records


def find_zeros_gt1(lo: Rational, hi: Rational, tol: Rational,
                   ctx: Optional[PrecisionContext] = None) -> list[RootRecord]:
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
    return _walk(Fraction(lo), Fraction(hi), Fraction(tol), ctx or PrecisionContext())


def find_zeros_lt1(lo: Rational, hi: Rational, tol: Rational,
                   ctx: Optional[PrecisionContext] = None) -> list[RootRecord]:
    """Same walk on 0 < lo < hi < 1 with discontinuities at the
    reciprocal prime powers x = 1/p^k; there f' = 1/x + 1 - 1/(1 - x^2)
    vanishes only at the reciprocal of the plastic number."""
    if not 0 < Fraction(lo) < Fraction(hi) < 1:
        raise ValueError(f"need 0 < lo < hi < 1, got [{lo}, {hi}]")
    return _walk(Fraction(lo), Fraction(hi), Fraction(tol), ctx or PrecisionContext())


# ----------------------------------------------------------------------
# L(1, chi_{-d}), L'(1, chi_{-d}), class numbers, Gamma product
# ----------------------------------------------------------------------

def L_one_chi(d: int, ctx: Optional[PrecisionContext] = None) -> HReal:
    """L(1, chi_{-d}) for squarefree d from dirichlet_L at s = 1, through
    the shifted Stieltjes constants."""
    ctx = ctx or PrecisionContext()
    data = class_data(d)
    return ctx.real(dirichlet_L(1, data.D, data.chi, ctx)[0])


def L_prime_one_chi(d: int, ctx: Optional[PrecisionContext] = None) -> HReal:
    """L'(1, chi_{-d}) from dirichlet_L at s = 1, through the shifted
    Stieltjes constants."""
    ctx = ctx or PrecisionContext()
    data = class_data(d)
    return ctx.real(dirichlet_L(1, data.D, data.chi, ctx)[1])


@dataclass(frozen=True)
class ClassNumberCheck:
    """Reduced-form count h against Dirichlet's class number formula
    h = -(w/2D) Sum_{a=1}^{D-1} a chi(a), in exact integers; a formula
    value that is not an integer counts as a mismatch."""

    d: int
    D: int
    h_forms: int
    h_analytic: int
    match: bool

    def to_dict(self) -> dict:
        return {"d": self.d, "D": self.D, "h_forms": self.h_forms,
                "h_analytic": self.h_analytic, "match": self.match}


def class_number_check(d: int) -> ClassNumberCheck:
    data = class_data(d)
    h, rem = divmod(-data.w * sum(a * data.chi[a] for a in range(1, data.D)),
                    2 * data.D)
    return ClassNumberCheck(d=d, D=data.D, h_forms=data.h, h_analytic=h,
                            match=rem == 0 and data.h == h)


def chowla_selberg_rhs(d: int, ctx: Optional[PrecisionContext] = None) -> HReal:
    """2 pi Prod_{a=1}^{D} Gamma(a/D)^(-chi(a) w / (2h)), assembled in
    log space (the 2 pi is the exact simplification of 2D/A^2 with
    A = sqrt(D/pi))."""
    ctx = ctx or PrecisionContext()
    data = class_data(d)
    with ctx.workprec(_GUARD):
        acc = mpf(0)
        for a in range(1, data.D):
            c = data.chi[a % data.D]
            if c:
                acc += c * mpmath.loggamma(ctx.mpf(Fraction(a, data.D)))
        expo = -mpf(data.w) / (2 * data.h)
        return ctx.real(2 * ctx.pi * mpmath.exp(expo * acc))


@dataclass(frozen=True)
class ChowlaSelbergReport:
    d: int
    D: int
    h: int
    w: int
    L_one: HReal
    L_prime_one: HReal
    lhs: HReal          # exp(L'/L(1, chi) - gamma)
    rhs: HReal          # the Gamma product
    rel_err: HReal      # |lhs/rhs - 1|

    def to_dict(self) -> dict:
        return {
            "d": self.d, "D": self.D, "h": self.h, "w": self.w,
            "L_one": self.L_one.str_digits(25),
            "L_prime_one": self.L_prime_one.str_digits(25),
            "L_prime_sign": "+" if self.L_prime_one.val > 0 else "-",
            "lhs": self.lhs.str_digits(25),
            "rhs": self.rhs.str_digits(25),
            "rel_err": self.rel_err.str_digits(6),
        }


def chowla_selberg_check(d: int, ctx: Optional[PrecisionContext] = None
                         ) -> ChowlaSelbergReport:
    """exp(L'/L(1, chi_{-d}) - gamma) against the Gamma product, with
    the relative discrepancy |lhs/rhs - 1|; L(1) and L'(1) come from one
    dirichlet_L call and both sides are good to working precision."""
    ctx = ctx or PrecisionContext()
    data = class_data(d)
    L1, Ld = dirichlet_L(1, data.D, data.chi, ctx)
    rhs = chowla_selberg_rhs(d, ctx)
    with ctx.workprec(_GUARD):
        lhs = mpmath.exp(Ld / L1 - ctx.euler_gamma)
        rel = abs(lhs / rhs.val - 1)
    return ChowlaSelbergReport(d=d, D=data.D, h=data.h, w=data.w,
                               L_one=ctx.real(L1), L_prime_one=ctx.real(Ld),
                               lhs=ctx.real(lhs), rhs=rhs,
                               rel_err=ctx.real(rel))


# ----------------------------------------------------------------------
# Rational-grid scan feeding the transcendence-hypothesis report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisScan:
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

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "window": ["0", self.window_hi.str_digits(15)],
            "grid_denominator": self.denominator,
            "threshold": self.threshold,
            "evaluated": self.evaluated,
            "candidates": [[str(x), v.str_digits(6)] for x, v in self.candidates],
            "min_abs_f": self.min_abs.str_digits(10),
            "argmin": str(self.argmin),
            "rational_zero_found": self.found,
        }


def hypothesis_scan(d: int, ctx: Optional[PrecisionContext] = None, *,
                    denominator: int = 10_000,
                    threshold: float = 1e-6) -> HypothesisScan:
    """Survey f at pi sqrt(d) k/denominator inside (0, 1), in monotone
    pieces; each argument is its dyadic value at working precision, never
    a reciprocal prime power.  Refuses a d that is not a positive integer,
    a denominator not an integer >= 2 and a threshold not a finite float > 0."""
    ctx = ctx or PrecisionContext()
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got d = {d}")
    if not isinstance(denominator, int) or denominator < 2:
        raise ValueError(f"grid denominator must be an integer >= 2, got {denominator!r}")
    if not (isinstance(threshold, (int, float)) and 0 < threshold < math.inf):
        raise ValueError(f"threshold must be a finite positive float, got {threshold!r}")
    wide = PrecisionContext(ctx.bits + _GUARD)
    with ctx.workprec(_GUARD):
        scale = ctx.pi * mpmath.sqrt(d)
        window_hi = 1 / scale
        kmax = int(mpmath.floor(denominator * window_hi))
        if kmax < 1:
            raise ValueError(f"window (0, {mpmath.nstr(window_hi, 8)}) holds "
                             f"no grid point with denominator {denominator}")
        arg = lambda k: _exact(scale * k / denominator)
        f = lambda k: g_lt1(scale * k / denominator) + K
        n, turn = math.floor(1 / arg(1)), _turn(False)
        K = _K(arg(1), False, ctx)
        qs = list(filter(shared_table(max(2, n)).is_prime_power, range(2, n + 1)))
        candidates, best, k = [], None, 1
        while k <= kmax and (a := arg(k)) < 1:
            while qs and qs[-1] * a > 1:
                K -= _drop(qs.pop(), False, wide)
            # the piece [k, e]: no further drop and the same side of the turn
            cap = turn if a < turn else 1
            inside = lambda j: (b := arg(j)) < cap and not (qs and qs[-1] * b > 1)
            top = min(cap, Fraction(1, qs[-1]) if qs else 1)
            e = max(k, min(kmax, math.floor(top * denominator / float(scale))))
            while e < kmax and inside(e + 1):
                e += 1
            while not inside(e):
                e -= 1
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
            run = {m: v} if v < threshold else {}
            for step, stop in ((-1, k - 1), (1, e + 1)):
                j = m + step
                while run and j != stop and (w := abs(f(j))) < threshold:
                    run[j], j = w, j + step
            candidates += [(Fraction(j, denominator), ctx.real(run[j]))
                           for j in sorted(run)]
            k = e + 1
    return HypothesisScan(
        d=d, window_hi=ctx.real(window_hi), denominator=denominator,
        threshold=threshold, evaluated=kmax,
        candidates=tuple(candidates), min_abs=ctx.real(best[1]),
        argmin=best[0], found=bool(candidates))

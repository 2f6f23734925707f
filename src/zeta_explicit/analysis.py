"""Root location for the zero-sum function f on both sides of 1, and
the imaginary-quadratic identities: class numbers against L(1, chi),
and the Gamma-product evaluation of exp(L'/L(1, chi) - gamma).

f means the closed-form side of the zero sum Sum_rho x^rho / rho
(f_rhs_gt1 for x > 1, f_rhs_lt1 for 0 < x < 1).  It is continuous
except at prime powers (x > 1) or reciprocal prime powers (x < 1),
where the half-weighted prime term makes the at-point value the mean
of the one-sided limits.  The scan walks the continuity intervals
between consecutive discontinuities, samples a fixed rational grid,
and bisects every sign change; a sign change across a discontinuity
with no attained zero is reported as a jump-crossing record instead.

Bisections in distinct continuity intervals are independent of each
other; records are merged in ascending-bracket order.

The quadratic-field block works with chi = chi_{-d} mod D for
squarefree d (class_data supplies D, h, w, chi):

  L(1, chi), L'(1, chi)
             both from one dirichlet_L(1, ...) call: the character sum
             of the shifted Stieltjes constants gamma_0(a/D),
             gamma_1(a/D), exact to working precision; a double-precision
             digamma route -(1/q) Sum chi(a) psi(a/q) serves bulk
             class-number scans.
  exp(L'/L(1, chi) - gamma) against
             2 pi Prod_{a=1}^{D} Gamma(a/D)^(-chi(a) w / (2h)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath
from mpmath import mpf

from .arith import class_data, shared_table
from .explicit import Rational, dirichlet_L, f_rhs_gt1, f_rhs_lt1
from .mpcore import HReal, PrecisionContext

_GUARD = 32

GENUINE = "genuine-zero"
JUMP = "jump-crossing"


@dataclass(frozen=True)
class RootRecord:
    """One located feature of f: a bracketed genuine zero inside a
    continuity interval, or a sign change across a discontinuity that
    never attains zero (kind = jump-crossing, bracket degenerate at the
    prime-power abscissa, residual = |f| at the half-weighted point)."""

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


Evaluator = Callable[[Fraction, PrecisionContext], HReal]
SideValues = Callable[[Fraction, PrecisionContext], tuple[mpf, mpf, mpf]]


def _gt1_sides(j: Fraction, ctx: PrecisionContext) -> tuple[mpf, mpf, mpf]:
    """(left limit, at-point, right limit) of f at an integer prime
    power: the prime sum gains Lambda(p^k) as x crosses j upward, half
    of it exactly at j, so f steps DOWN by log p in two half-steps."""
    at = f_rhs_gt1(j, ctx).val
    n = int(j)
    p = shared_table(n).prime_of(n)
    with ctx.workprec(_GUARD):
        half = mpmath.log(p) / 2
        return at + half, at, at - half


def _lt1_sides(j: Fraction, ctx: PrecisionContext) -> tuple[mpf, mpf, mpf]:
    """Same at j = 1/p^k for the x < 1 branch: the primed sum over
    n <= 1/x loses Lambda(p^k)/p^k as x crosses j upward."""
    at = f_rhs_lt1(j, ctx).val
    n = j.denominator
    p = shared_table(n).prime_of(n)
    with ctx.workprec(_GUARD):
        half = mpmath.log(p) / (2 * n)
        return at + half, at, at - half


def _bisect(a: Fraction, b: Fraction, fa: mpf, fb: mpf, tol: Fraction,
            f: Evaluator, ctx: PrecisionContext) -> RootRecord:
    # endpoints may carry one-sided limit values at interval boundaries;
    # midpoints are strictly interior, so plain f applies there.
    while b - a > tol:
        mid = (a + b) / 2
        fm = f(mid, ctx).val
        if fm == 0:
            a = b = mid
            break
        if (fa < 0) != (fm < 0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    root = (a + b) / 2
    res = abs(f(root, ctx).val)
    return RootRecord(bracket_lo=a, bracket_hi=b, root=ctx.real(root),
                      residual=ctx.real(res), kind=GENUINE)


def _scan(lo: Fraction, hi: Fraction, tol: Fraction, ctx: PrecisionContext,
          f: Evaluator, jumps: Sequence[Fraction], sides: SideValues,
          spacing: Fraction) -> list[RootRecord]:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tol < Fraction(1, 2 ** max(8, ctx.bits - 16)):
        raise ValueError(
            f"tol = {tol} below the precision floor 2^-{ctx.bits - 16}")
    jumpset = set(jumps)
    inner = [j for j in jumps if lo < j < hi]
    bounds = [lo] + inner + [hi]

    records: list[RootRecord] = []
    side_cache = {j: sides(j, ctx) for j in jumps if lo <= j <= hi}

    def boundary_val(x: Fraction, incoming: bool) -> mpf:
        if x in jumpset:
            left, _, right = side_cache[x]
            return left if incoming else right
        return f(x, ctx).val

    for a, b in zip(bounds, bounds[1:]):
        pts = [a]
        vals = [boundary_val(a, incoming=False)]
        k = 1
        while a + k * spacing < b:
            x = a + k * spacing
            pts.append(x)
            vals.append(f(x, ctx).val)
            k += 1
        pts.append(b)
        vals.append(boundary_val(b, incoming=True))
        for i in range(len(pts) - 1):
            va, vb = vals[i], vals[i + 1]
            if va == 0 and lo < pts[i] < hi and pts[i] not in jumpset:
                records.append(RootRecord(pts[i], pts[i], ctx.real(pts[i]),
                                          ctx.real(0), GENUINE))
            elif va * vb < 0:
                records.append(_bisect(pts[i], pts[i + 1], va, vb, tol, f, ctx))

    # A jump at lo is not a crossing encountered inside the window (its
    # left limit lives below lo); one at hi is, reached from the left.
    for j, (left, at, right) in side_cache.items():
        if j > lo and left * right < 0:
            records.append(RootRecord(j, j, ctx.real(j),
                                      ctx.real(abs(at)), JUMP))
    records.sort(key=lambda r: (r.bracket_lo, r.bracket_hi))
    return records


def find_zeros_gt1(lo: Rational, hi: Rational, tol: Rational,
                   ctx: Optional[PrecisionContext] = None, *,
                   spacing: Fraction = Fraction(1, 64)) -> list[RootRecord]:
    """Zeros of f on [lo, hi] with 1 < lo < hi: genuine zeros bracketed
    to width < tol inside the continuity intervals between consecutive
    prime powers, plus jump-crossing records wherever the one-sided
    limits straddle zero at a prime power.

    The sampling grid (step = spacing) fixes which sign changes are
    seen, so shrinking tol refines brackets without changing the count;
    no genuine bracket contains a prime power strictly inside.
    """
    ctx = ctx or PrecisionContext()
    lo, hi = Fraction(lo), Fraction(hi)
    if not 1 < lo < hi:
        raise ValueError(f"need 1 < lo < hi, got [{lo}, {hi}]")
    n_hi = math.floor(hi)
    table = shared_table(max(2, n_hi))
    jumps = [Fraction(n) for n in range(max(2, math.ceil(lo)), n_hi + 1)
             if table.is_prime_power(n)]
    return _scan(lo, hi, Fraction(tol), ctx, f_rhs_gt1, jumps,
                 _gt1_sides, spacing)


def find_zeros_lt1(lo: Rational, hi: Rational, tol: Rational,
                   ctx: Optional[PrecisionContext] = None, *,
                   spacing: Fraction = Fraction(1, 128)) -> list[RootRecord]:
    """Same scan on 0 < lo < hi < 1 with discontinuities at the
    reciprocal prime powers x = 1/p^k."""
    ctx = ctx or PrecisionContext()
    lo, hi = Fraction(lo), Fraction(hi)
    if not 0 < lo < hi < 1:
        raise ValueError(f"need 0 < lo < hi < 1, got [{lo}, {hi}]")
    n_hi = math.floor(1 / lo)
    table = shared_table(max(2, n_hi))
    jumps = [Fraction(1, n) for n in range(n_hi, max(2, math.ceil(1 / hi)) - 1, -1)
             if table.is_prime_power(n)]
    return _scan(lo, hi, Fraction(tol), ctx, f_rhs_lt1, jumps,
                 _lt1_sides, spacing)


# ----------------------------------------------------------------------
# L(1, chi_{-d}), L'(1, chi_{-d}), class numbers, Gamma product
# ----------------------------------------------------------------------

def L_one_chi(d: int, ctx: Optional[PrecisionContext] = None, *,
              fast: bool = False) -> HReal:
    """L(1, chi_{-d}) for squarefree d.

    Default: dirichlet_L at s = 1, through the shifted Stieltjes
    constants.  With fast=True, the double-precision digamma form
    -(1/q) Sum_a chi(a) psi(a/q), accurate to ~1e-15 and cheap enough
    for a full squarefree sweep.
    """
    ctx = ctx or PrecisionContext()
    data = class_data(d, ctx)
    q, chi = data.D, data.chi
    if fast:
        with mpmath.workprec(64):
            acc = mpf(0)
            for a in range(1, q):
                c = chi[a % q]
                if c:
                    acc -= c * mpmath.digamma(mpf(a) / q)
            return ctx.real(acc / q)
    return ctx.real(dirichlet_L(1, q, chi, ctx)[0])


def L_prime_one_chi(d: int, ctx: Optional[PrecisionContext] = None) -> HReal:
    """L'(1, chi_{-d}) from dirichlet_L at s = 1, through the shifted
    Stieltjes constants."""
    ctx = ctx or PrecisionContext()
    data = class_data(d, ctx)
    return ctx.real(dirichlet_L(1, data.D, data.chi, ctx)[1])


@dataclass(frozen=True)
class ClassNumberCheck:
    """Reduced-form count h against round(w sqrt(D) L(1, chi) / 2 pi)."""

    d: int
    D: int
    h_forms: int
    h_analytic: int
    L_one: HReal
    match: bool

    def to_dict(self) -> dict:
        return {"d": self.d, "D": self.D, "h_forms": self.h_forms,
                "h_analytic": self.h_analytic,
                "L_one": self.L_one.str_digits(20), "match": self.match}


def class_number_check(d: int, ctx: Optional[PrecisionContext] = None, *,
                       fast: bool = True) -> ClassNumberCheck:
    ctx = ctx or PrecisionContext()
    data = class_data(d, ctx)
    L1 = L_one_chi(d, ctx, fast=fast)
    with ctx.workprec(_GUARD):
        value = data.w * mpmath.sqrt(data.D) * L1.val / (2 * ctx.pi)
        h2 = int(mpmath.nint(value))
    return ClassNumberCheck(d=d, D=data.D, h_forms=data.h, h_analytic=h2,
                            L_one=L1, match=data.h == h2)


def chowla_selberg_rhs(d: int, ctx: Optional[PrecisionContext] = None) -> HReal:
    """2 pi Prod_{a=1}^{D} Gamma(a/D)^(-chi(a) w / (2h)), assembled in
    log space (the 2 pi is the exact simplification of 2D/A^2 with
    A = sqrt(D/pi))."""
    ctx = ctx or PrecisionContext()
    data = class_data(d, ctx)
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
    data = class_data(d, ctx)
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

def _mpf_to_fraction(x: mpf) -> Fraction:
    if not mpmath.isfinite(x):
        raise ValueError(f"cannot convert {x} to a fraction")
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


@dataclass(frozen=True)
class HypothesisScan:
    """Grid survey of x -> f(pi sqrt(d) x) over rationals x = k/N in
    (0, 1/(pi sqrt d)).  candidates lists grid points with |f| below
    threshold; found is their existence.  Data only: no conclusion
    about rational zeros is drawn, and the window/grid convention is
    part of the report because no canonical choice exists.
    """

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
    """Evaluate the zero-sum function at pi sqrt(d) k/denominator for
    every k keeping the argument inside (0, 1); the irrational argument
    is replaced by its working-precision dyadic approximation, which
    never collides with a reciprocal prime power."""
    ctx = ctx or PrecisionContext()
    if denominator < 2:
        raise ValueError("grid denominator must be >= 2")
    with ctx.workprec(_GUARD):
        scale = ctx.pi * mpmath.sqrt(d)
        window_hi = 1 / scale
        kmax = int(mpmath.floor(denominator * window_hi))
        if kmax < 1:
            raise ValueError(f"window (0, {mpmath.nstr(window_hi, 8)}) holds "
                             f"no grid point with denominator {denominator}")
        candidates = []
        best = None
        for k in range(1, kmax + 1):
            arg = _mpf_to_fraction(scale * k / denominator)
            if not 0 < arg < 1:
                continue
            v = abs(f_rhs_lt1(arg, ctx).val)
            x = Fraction(k, denominator)
            if best is None or v < best[1]:
                best = (x, v)
            if v < threshold:
                candidates.append((x, ctx.real(v)))
    return HypothesisScan(
        d=d, window_hi=ctx.real(window_hi), denominator=denominator,
        threshold=threshold, evaluated=kmax,
        candidates=tuple(candidates), min_abs=ctx.real(best[1]),
        argmin=best[0], found=bool(candidates))

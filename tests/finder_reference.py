"""Reference route for zero finding: the grid scan the package used
before its interval walk, kept as an independent oracle.

It samples f on a fixed rational grid (step 1/64 above 1, 1/128 below)
inside each continuity interval, bisects every sign change with one
full f_rhs evaluation per step, and reads the one-sided limits at a
jump from the half-weighted at-point value plus or minus half the
prime term.  Records use the package's RootRecord, GENUINE and JUMP.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath
from mpmath import mpf

from zeta_explicit.analysis import GENUINE, JUMP, RootRecord
from zeta_explicit.arith import shared_table
from zeta_explicit.explicit import Rational, f_rhs_gt1, f_rhs_lt1
from zeta_explicit.mpcore import HReal, PrecisionContext
from mp_views import as_pair, workprec

_GUARD = 32

Evaluator = Callable[[Fraction, PrecisionContext], HReal]
SideValues = Callable[[Fraction, PrecisionContext], tuple[mpf, mpf, mpf]]


def _gt1_sides(j: Fraction, ctx: PrecisionContext) -> tuple[mpf, mpf, mpf]:
    """(left limit, at-point, right limit) of f at an integer prime
    power: the prime sum gains Lambda(p^k) as x crosses j upward, half
    of it exactly at j, so f steps DOWN by log p in two half-steps."""
    at = f_rhs_gt1(j, ctx).val
    n = int(j)
    p = shared_table(n).prime_of(n)
    with workprec(ctx, _GUARD):
        half = mpmath.log(p) / 2
        return at + half, at, at - half


def _lt1_sides(j: Fraction, ctx: PrecisionContext) -> tuple[mpf, mpf, mpf]:
    """Same at j = 1/p^k for the x < 1 branch: the primed sum over
    n <= 1/x loses Lambda(p^k)/p^k as x crosses j upward."""
    at = f_rhs_lt1(j, ctx).val
    n = j.denominator
    p = shared_table(n).prime_of(n)
    with workprec(ctx, _GUARD):
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
                      residual=ctx.real(as_pair(res)), kind=GENUINE)


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
                                      ctx.real(as_pair(abs(at))), JUMP))
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
             if table.prime_of(n)]
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
             if table.prime_of(n)]
    return _scan(lo, hi, Fraction(tol), ctx, f_rhs_lt1, jumps,
                 _lt1_sides, spacing)

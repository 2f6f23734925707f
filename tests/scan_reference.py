"""Reference routes for the rational-grid scan, kept as oracles for the
package's piece walk.  Both use the package's HypothesisScan record.

hypothesis_scan evaluates f_rhs_lt1 afresh at every grid point, so each
point pays for its own prime-power sum.

walked_scan evaluates g + K at every grid point, in integers at the
package's fixed-point width: one prime sum at the first point gives
K = T + gamma, which falls by log p / n, floored, as 1/x passes each
prime power n = p^j.  The package does the same arithmetic but evaluates
f only where the minimum or a candidate can lie, so its results must
equal walked_scan's bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath import libmp

from zeta_explicit.analysis import HypothesisScan
from zeta_explicit.arith import _log, prime_power_sum, shared_table
from zeta_explicit.explicit import f_rhs_lt1, g
from zeta_explicit.mpcore import PrecisionContext
from zeta_explicit.mpcore import _exact
from mp_views import as_pair, mp_pi, workprec

_GUARD = 32


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
    with workprec(ctx, _GUARD):
        scale = mp_pi(ctx) * mpmath.sqrt(d)
        window_hi = 1 / scale
        kmax = int(mpmath.floor(denominator * window_hi))
        if kmax < 1:
            raise ValueError(f"window (0, {mpmath.nstr(window_hi, 8)}) holds "
                             f"no grid point with denominator {denominator}")
        candidates = []
        best = None
        for k in range(1, kmax + 1):
            arg = _exact(as_pair(scale * k / denominator))
            if not 0 < arg < 1:
                continue
            v = abs(f_rhs_lt1(arg, ctx).val)
            x = Fraction(k, denominator)
            if best is None or v < best[1]:
                best = (x, v)
            if v < threshold:
                candidates.append((x, ctx.real(as_pair(v))))
    return HypothesisScan(
        d=d, window_hi=ctx.real(as_pair(window_hi)), denominator=denominator,
        threshold=threshold, evaluated=kmax,
        candidates=tuple(candidates), min_abs=ctx.real(as_pair(best[1])),
        argmin=best[0], found=bool(candidates))


def walked_scan(d: int, ctx: Optional[PrecisionContext] = None, *,
                denominator: int = 10_000,
                threshold: float = 1e-6) -> HypothesisScan:
    """Evaluate the zero-sum function at pi sqrt(d) k/denominator for
    every k keeping the argument inside (0, 1), in fixed point at
    W = bits + 48: the argument is X_k 2^-W, X_k = floor(S k/denominator)
    with S = pi sqrt(d) 2^W, which never collides with a reciprocal prime
    power.  f = g + K as in the finders: K = T + gamma comes from one
    fixed-point prime sum at the first point and falls by
    floor(log p 2^W / n) as 1/x passes each prime power n = p^j.
    Refuses a d that is not a positive integer."""
    ctx = ctx or PrecisionContext()
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got d = {d}")
    if denominator < 2:
        raise ValueError("grid denominator must be >= 2")
    with workprec(ctx, _GUARD):
        window_hi = 1 / (mp_pi(ctx) * mpmath.sqrt(d))
        kmax = int(mpmath.floor(denominator * window_hi))
        if kmax < 1:
            raise ValueError(f"window (0, {mpmath.nstr(window_hi, 8)}) holds "
                             f"no grid point with denominator {denominator}")
    W = ctx.bits + _GUARD + 16
    u = 1 << W
    with mpmath.workprec(W + 8):
        S = libmp.to_fixed((mpmath.pi * mpmath.sqrt(d))._mpf_, W)
        gamma = libmp.to_fixed((+mpmath.euler)._mpf_, W)
    table = shared_table(denominator)
    t = Fraction(threshold)
    candidates = []
    best = K = None
    for k in range(1, kmax + 1):
        X = S * k // denominator
        if not 0 < X < u:
            continue
        if K is None:
            n = u // X   # floor(1/x)
            total, e = prime_power_sum(n, Fraction(1), ctx)
            K = (total >> -e - W) + gamma
        while n * X > u:
            p = table.prime_of(n)
            K -= _log(p, W) // n if p else 0
            n -= 1
        v = abs(g(X, u, W) + K)
        x = Fraction(k, denominator)
        if best is None or v < best[1]:
            best = (x, v)
        if v * t.denominator < t.numerator << W:
            candidates.append((x, ctx.real((v, -W))))
    return HypothesisScan(
        d=d, window_hi=ctx.real(as_pair(window_hi)), denominator=denominator,
        threshold=threshold, evaluated=kmax,
        candidates=tuple(candidates), min_abs=ctx.real((best[1], -W)),
        argmin=best[0], found=bool(candidates))

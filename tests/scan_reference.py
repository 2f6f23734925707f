"""Reference route for the rational-grid scan: the body the package used
before it walked K, kept as an independent oracle.

It evaluates f_rhs_lt1 afresh at every grid point, so each point pays
for its own prime-power sum, where the package makes one f_rhs_lt1 call
and lowers K by Lambda(n)/n as 1/x passes each n.  The result uses the
package's HypothesisScan record.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import mpmath

from zeta_explicit.analysis import HypothesisScan
from zeta_explicit.explicit import f_rhs_lt1
from zeta_explicit.mpcore import PrecisionContext
from zeta_explicit.zeros import _exact

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
            arg = _exact(scale * k / denominator)
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

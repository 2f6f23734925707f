"""mpmath views of the package's exact values, for the tests that compare
with mpmath.  The package keeps no mpmath state and takes no mpf: as_pair
gives a finite mpf to it as its exact (man, exp) pair and as_mpf gives a
pair back as an mpf; the others set mpmath's precision relative to a
context and give mpmath's own pi and gamma at bits + 32."""

from __future__ import annotations

import mpmath

from zeta_explicit.mpcore import _GUARD, PrecisionContext


def as_mpf(man: int, exp: int) -> mpmath.mpf:
    """man 2^exp as an mpf, exactly."""
    return mpmath.make_mpf(mpmath.libmp.from_man_exp(man, exp))


def as_pair(v: mpmath.mpf) -> tuple[int, int]:
    """A finite mpf as its exact (man, exp) pair, man 2^exp."""
    sign, man, exp, _ = v._mpf_
    if not man and exp:
        raise ValueError(f"non-finite value {v}")
    return (-man if sign else man), exp


def workprec(ctx: PrecisionContext, extra: int = 0):
    """Context manager running mpmath at ctx.bits + extra binary digits."""
    return mpmath.workprec(ctx.bits + extra)


def mp_pi(ctx: PrecisionContext) -> mpmath.mpf:
    """mpmath's +pi at ctx.bits + 32."""
    with mpmath.workprec(ctx.bits + _GUARD):
        return +mpmath.pi


def mp_euler(ctx: PrecisionContext) -> mpmath.mpf:
    """mpmath's +euler at ctx.bits + 32."""
    with mpmath.workprec(ctx.bits + _GUARD):
        return +mpmath.euler

"""mpmath views of a PrecisionContext, for the tests that compare with
mpmath.  The package keeps no mpmath state: these set mpmath's precision
relative to a context and give the integer pi and gamma as the mpf
constants mpmath would return at bits + 32."""

from __future__ import annotations

import mpmath

from zeta_explicit.mpcore import _GUARD, PrecisionContext, _constant, _gamma_fixed, _mpf, _pi_fixed


def workprec(ctx: PrecisionContext, extra: int = 0):
    """Context manager running mpmath at ctx.bits + extra binary digits."""
    return mpmath.workprec(ctx.bits + extra)


def mp_pi(ctx: PrecisionContext) -> mpmath.mpf:
    """mpmath's +pi at ctx.bits + 32, from the package's integer pi."""
    return _mpf(*_constant(_pi_fixed, ctx.bits + _GUARD))


def mp_euler(ctx: PrecisionContext) -> mpmath.mpf:
    """mpmath's +euler at ctx.bits + 32, from the package's integer gamma."""
    return _mpf(*_constant(_gamma_fixed, ctx.bits + _GUARD))

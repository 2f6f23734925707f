"""Oracles and pinned variants that only the tests use, kept out of the
package: the prime-power Dirichlet series for zeta'/zeta, the weighted
prime sums term by term over n, a plausible but wrong assembly of the
auxiliary series f_u, and the cosine closed form assembled the other way
round."""

import math
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

from zeta_explicit.arith import shared_table
from zeta_explicit.explicit import f_rhs_gt1, f_rhs_lt1
from zeta_explicit.mpcore import HComplex, HReal, PrecisionContext

_GUARD = 32

Rational = int | Fraction


def zeta_log_deriv_dirichlet(s: float, N: int = 100_000) -> tuple[float, float]:
    """(zeta'/zeta)(s) for real s > 1 by the prime-power Dirichlet series
    -Sum_{n<=N} Lambda(n) n^(-s), at double precision.

    Returns (value, tail_estimate); the tail estimate integrates
    log(t) t^(-s) over (N, inf) with a safety factor 2.  Independent of
    every Euler-Maclaurin code path, so it serves as an oracle.
    """
    if s <= 1:
        raise ValueError("Dirichlet-series route requires s > 1")
    t = shared_table(N)
    acc = 0.0
    for n in range(2, N + 1):
        p = t.entries[n]
        if p:
            acc += math.log(p) * float(n) ** (-s)
    tail = 2 * (math.log(N) / ((s - 1) * N ** (s - 1))
                + 1 / ((s - 1) ** 2 * N ** (s - 1)))
    return -acc, tail


def _prime_base(n: int) -> int:
    """p if n = p^k (k >= 1), else 0, by trial division."""
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else 0
    return n if n >= 2 else 0


def prime_sum_reference(x: Fraction, alpha: Fraction, chi, bits: int) -> tuple[mpf, mpf]:
    """x^alpha Sum'_{n<=y} chi(n) Lambda(n) n^(-s), one term per n, with
    y = x, s = alpha for x > 1 and y = 1/x, s = 1 - alpha for 0 < x < 1;
    the term n = y is halved.  chi is a character table or None (zeta).
    Lambda comes from trial division, not the sieve.  Returns
    (value, Sum |terms|) at bits + 64."""
    y, s = (x, alpha) if x > 1 else (1 / x, 1 - alpha)
    with mpmath.workprec(bits + 64):
        xa = mpmath.power(mpf(x.numerator) / x.denominator,
                          mpf(alpha.numerator) / alpha.denominator)
        sv = mpf(s.numerator) / s.denominator
        value = mpf(0)
        size = mpf(0)
        for n in range(2, math.floor(y) + 1):
            p = _prime_base(n)
            c = 1 if chi is None else chi[n % len(chi)]
            if p == 0 or c == 0:
                continue
            term = xa * c * mpmath.log(p) * mpmath.power(n, -sv)
            if n == y:
                term /= 2
            value += term
            size += abs(term)
    return value, size


def f_u_closed_uncorrected(u: Rational, z, ctx: PrecisionContext) -> HComplex:
    """The same roots-of-unity assembly with a z^(+p/q) prefactor and no
    boundary-term subtraction.  This variant looks plausible but does
    NOT equal the defining series (e.g. at u = 1/2, z = 1/4 it returns
    w log((1+w)/(1-w)) instead of (1/w) log((1+w)/(1-w)) - 2); it is
    kept only so the test suite can pin the discrepancy."""
    u = Fraction(u)
    p, q = u.numerator, u.denominator
    if not (0 <= p < q):
        raise ValueError("uncorrected variant only defined for 0 <= u < 1")
    with ctx.workprec(_GUARD):
        zv = z.val if isinstance(z, (HComplex, HReal)) else mpc(z)
        if abs(zv) >= 1:
            raise ValueError("requires |z| < 1")
        if abs(zv) == 0:
            return ctx.complex(0)
        w = mpmath.exp(mpmath.log(zv) / q) if zv.imag != 0 or zv.real < 0 \
            else mpc(mpmath.root(zv.real, q))
        acc = mpc(0)
        for m in range(q):
            zq_m = mpmath.expjpi(mpf(2 * m) / q)
            zq_neg_pm = mpmath.expjpi(mpf(-2 * p * m) / q)
            acc += zq_neg_pm * mpmath.log(1 - zq_m * w)
        return HComplex(-acc * w ** p, ctx)


def cosine_rhs_regrouped(x: Rational, ctx: PrecisionContext) -> HReal:
    """The same predicted cosine sum assembled the other way, as
    f_rhs_gt1(x)/sqrt(x) + sqrt(x) f_rhs_lt1(1/x); agreement with
    cosine_rhs to working precision is a regrouping invariant."""
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"cosine_rhs requires x > 1, got {x}")
    a = f_rhs_gt1(x, ctx)
    b = f_rhs_lt1(1 / x, ctx)
    with ctx.workprec(_GUARD):
        rx = mpmath.sqrt(ctx.mpf(x))
        return ctx.real(a.val / rx + rx * b.val)

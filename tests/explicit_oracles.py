"""Oracles, pinned variants and reference routes that only the tests
use, kept out of the package: the prime-power Dirichlet series for
zeta'/zeta, the weighted prime sums term by term over n, a plausible but
wrong assembly of the auxiliary series f_u, and the hand-expanded zeta
forms of the rational kernels and of the cosine pairing, which the
package now assembles from the descriptor form and from f reflected."""

import math
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

from zeta_explicit.arith import psi0, psi0_alpha, shared_table, T_sum
from zeta_explicit.explicit import RationalFunctionPF, f_u_closed
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


_TERMS: dict = {}


def _reference_terms(s: Fraction, bits: int, N: int) -> tuple[int, list]:
    """(N', [(n, Lambda(n) n^(-s)) for the prime powers n <= N']), N' >= N,
    at bits + 64, one term per n with Lambda from trial division; kept per
    (s, bits) and extended on demand, so that references at many x and
    characters share their terms."""
    done, terms = _TERMS.get((s, bits), (1, []))
    with mpmath.workprec(bits + 64):
        sv = mpf(s.numerator) / s.denominator
        for n in range(done + 1, N + 1):
            if p := _prime_base(n):
                terms.append((n, mpmath.log(p) * mpmath.power(n, -sv)))
    _TERMS[s, bits] = max(done, N), terms
    return _TERMS[s, bits]


def prime_sum_reference(x: Fraction, alpha: Fraction, chi, bits: int) -> tuple[mpf, mpf]:
    """x^alpha Sum'_{n<=y} chi(n) Lambda(n) n^(-s), one term per n, with
    y = x, s = alpha for x > 1 and y = 1/x, s = 1 - alpha for 0 < x < 1;
    the term n = y is halved.  chi is a character table or None (zeta).
    Lambda comes from trial division, not the sieve.  Returns
    (value, Sum |terms|) at bits + 64."""
    y, s = (x, alpha) if x > 1 else (1 / x, 1 - alpha)
    _, terms = _reference_terms(s, bits, math.floor(y))
    with mpmath.workprec(bits + 64):
        xa = mpmath.power(mpf(x.numerator) / x.denominator,
                          mpf(alpha.numerator) / alpha.denominator)
        value = mpf(0)
        size = mpf(0)
        for n, t in terms:
            if n > y:
                break
            c = 1 if chi is None else chi[n % len(chi)]
            if c:
                term = c * t / 2 if n == y else c * t
                value += term
                size += abs(term)
        return xa * value, abs(xa) * size


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


def _check_gt1_alpha(alpha: Fraction) -> None:
    if alpha == 1:
        raise ValueError("alpha = 1 sits on the pole of zeta")
    if alpha.denominator == 1 and alpha < 0 and alpha.numerator % 2 == 0:
        raise ValueError(f"alpha = {alpha} sits on a trivial zero")


def general_rhs_gt1_expanded(x: Rational, pf: RationalFunctionPF,
                             ctx: PrecisionContext) -> HReal:
    """Predicted value of

        Sum_rho (A/B)(rho) x^rho + Sum_i lam_i (zeta'/zeta)(alpha_i) x^alpha_i

    for rational x > 1, every alpha_i in Q outside {1, -2, -4, ...}:

        x Sum_i lam_i/(1-alpha_i) - Sum_i lam_i psi0(x, alpha_i)
        + Sum_i lam_i (1/2) f_{alpha_i/2}(x^-2)."""
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"general_rhs_gt1 requires x > 1, got {x}")
    for a in pf.roots:
        _check_gt1_alpha(a)
    with ctx.workprec(_GUARD):
        xv = ctx.mpf(x)
        z = 1 / (xv * xv)
        acc = mpf(0)
        for lam, a in zip(pf.residues, pf.roots):
            lamv = ctx.mpf(lam)
            acc += xv * lamv / ctx.mpf(1 - a)
            acc -= lamv * psi0_alpha(x, a, ctx).val
            acc += lamv * f_u_closed(a / 2, HComplex(mpc(z), ctx), ctx).val.real / 2
    return ctx.real(acc)


def _check_lt1_alpha(alpha: Fraction) -> None:
    if alpha == 0:
        raise ValueError("alpha = 0 is excluded (1/alpha term)")
    if alpha.denominator == 1 and alpha > 0 and alpha.numerator % 2 == 1:
        raise ValueError(f"alpha = {alpha} hits a trivial-zero denominator")


def general_rhs_lt1_expanded(x: Rational, pf: RationalFunctionPF,
                             ctx: PrecisionContext) -> HReal:
    """Predicted value of

        Sum_rho (A/B)(rho) x^rho - Sum_i lam_i (zeta'/zeta)(1-alpha_i) x^alpha_i

    for rational 0 < x < 1, every alpha_i in Q outside {0, 1, 3, 5, ...}:

        Sum_i lam_i T(x, alpha_i) - Sum_i lam_i/alpha_i
        - Sum_i lam_i (x/2) f_{(1-alpha_i)/2}(x^2),

    the inner series Sum_{n>=1} x^(2n+1)/(2n+1-alpha) reindexed through
    f_u (oracle-verified in the test suite)."""
    x = Fraction(x)
    if not (0 < x < 1):
        raise ValueError(f"general_rhs_lt1 requires 0 < x < 1, got {x}")
    for a in pf.roots:
        _check_lt1_alpha(a)
    with ctx.workprec(_GUARD):
        xv = ctx.mpf(x)
        z = xv * xv
        acc = mpf(0)
        for lam, a in zip(pf.residues, pf.roots):
            lamv = ctx.mpf(lam)
            acc += lamv * T_sum(x, a, ctx).val
            acc -= lamv / ctx.mpf(a)
            acc -= lamv * xv * f_u_closed((1 - a) / 2, HComplex(mpc(z), ctx), ctx).val.real / 2
    return ctx.real(acc)


def _L_weighted(x: Rational, ctx: PrecisionContext) -> HReal:
    """L(x) = Sum'_{n<=x} Lambda(n)/n for rational x > 1, with the
    boundary term halved at a prime power; equals psi0_alpha(x, 1)/x
    exactly, including the branch behavior."""
    x = Fraction(x)
    with ctx.workprec(_GUARD):
        return ctx.real(psi0_alpha(x, Fraction(1), ctx).val / ctx.mpf(x))


def cosine_rhs_expanded(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted critical-line cosine sum Sum_{nu>0} 2cos(nu log x)/(1/4+nu^2)
    for rational x > 1, assembled from the weighted prime sums:

        (x - psi0(x))/sqrt(x) - log(2pi)/sqrt(x)
        - (1/(2 sqrt x)) log(1 - 1/x^2) + sqrt(x) (L(x) - log x)
        + gamma sqrt(x) - (sqrt(x)/2) log((x+1)/(x-1)) + 1/sqrt(x)."""
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"cosine_rhs requires x > 1, got {x}")
    psi = psi0(x, ctx)
    Lx = _L_weighted(x, ctx)
    with ctx.workprec(_GUARD):
        xv = ctx.mpf(x)
        rx = mpmath.sqrt(xv)
        v = ((xv - psi.val) / rx
             - mpmath.log(2 * mpmath.pi) / rx
             - mpmath.log(1 - 1 / (xv * xv)) / (2 * rx)
             + rx * (Lx.val - mpmath.log(xv))
             + mpmath.euler * rx
             - rx * mpmath.log((xv + 1) / (xv - 1)) / 2
             + 1 / rx)
    return ctx.real(v)

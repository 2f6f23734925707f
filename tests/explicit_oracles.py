"""Oracles, pinned variants and reference routes that only the tests
use, kept out of the package: the prime-power Dirichlet series for
zeta'/zeta, the weighted prime sums term by term over n, a plausible but
the auxiliary series f_u at complex z (its direct sum, the paper's
roots-of-unity closed form and a plausible but wrong assembly of it),
the hand-expanded zeta forms of the rational kernels and of the
cosine pairing, which the package now assembles from the descriptor
form and from f reflected, and that assembly itself as a sum of exact
Fractions (descriptor_form_fraction, kernel_form_fraction), which the
package now sums as one integer over one denominator."""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

from zeta_explicit.arith import psi0, psi0_alpha, shared_table, T_sum, walk_width
from zeta_explicit.explicit import (RationalFunctionPF, SelbergDescriptor, f_fixed, f_u_closed,
                                    selberg_psi0)
from zeta_explicit.mpcore import HReal, PrecisionContext, _exact, _log_pi_fixed, power
from mp_views import as_pair, workprec

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
    acc = 0.0
    for n, p in zip(*shared_table(N).between(1, N)):
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


@dataclass(frozen=True)
class HComplex:
    """A complex value of the f_u oracles with the context it was taken
    under; .real is its real part as an HReal."""

    val: mpc
    ctx: PrecisionContext

    @property
    def real(self) -> HReal:
        return HReal(as_pair(self.val.real), self.ctx)


def _complex_z(z) -> mpc:
    return z.val if isinstance(z, (HComplex, HReal)) else mpc(z)


def f_u_series(u: Rational, z, ctx: PrecisionContext) -> HComplex:
    """Direct summation of f_u(z) = Sum_{n>=1} z^n/(n+u) for complex
    |z| < 1 at bits + 32: the oracle the closed forms are validated
    against."""
    with workprec(ctx, _GUARD):
        uv = mpf(Fraction(u).numerator) / Fraction(u).denominator
        zv = _complex_z(z)
        az = abs(zv)
        if az >= 1:
            raise ValueError(f"f_u series requires |z| < 1, got |z| = {az}")
        target = mpf(2) ** (-(ctx.bits + _GUARD))
        acc, zpow = mpc(0), mpc(1)
        for n in range(1, 10_000_000 if az else 1):
            if n + uv == 0:
                raise ValueError(f"series term n + u = 0 at n = {n}")
            zpow *= zv
            acc += zpow / (n + uv)
            if abs(zpow) / max(1, abs(1 + n + uv)) < target:
                break
        return HComplex(acc, ctx)


def _roots_sum(p: int, q: int, zv: mpc) -> tuple[mpc, mpc]:
    """(w, -Sum_{m<q} zq^(-pm) log(1 - zq^m w)), w = z^(1/q) the principal
    root and zq = e^(2 pi i/q)."""
    w = mpmath.exp(mpmath.log(zv) / q) if zv.imag != 0 or zv.real < 0 \
        else mpc(mpmath.root(zv.real, q))
    acc = mpc(0)
    for m in range(q):
        zq_m = mpmath.expjpi(mpf(2 * m) / q)
        zq_neg_pm = mpmath.expjpi(mpf(-2 * p * m) / q)
        acc += zq_neg_pm * mpmath.log(1 - zq_m * w)
    return w, -acc


def f_u_roots_of_unity(u: Rational, z, ctx: PrecisionContext) -> HComplex:
    """f_u(z) for rational u and complex 0 < |z| < 1 by the paper's
    roots-of-unity closed form, q complex logs for u = p/q.  On the base
    range 0 <= p < q,

        f_u(z) = w^(-p) [ -Sum_{m=0}^{q-1} zq^(-pm) log(1 - zq^m w) ]
                 - q/p  (the k = p boundary term, only when p >= 1),

    equivalently q z^(-p/q) Sum_{k = p mod q, k > p} w^k / k; other u
    reach it through f_{v+1}(z) = (f_v(z) - z/(1+v))/z.  Negative
    integers u are poles of a series term and rejected."""
    u = Fraction(u)
    if u.denominator == 1 and u <= -1:
        raise ValueError(f"f_u undefined at negative integer u = {u}")
    with workprec(ctx, _GUARD):
        zv = _complex_z(z)
        if not 0 < abs(zv) < 1:
            raise ValueError(f"roots-of-unity form requires 0 < |z| < 1, got {zv}")
        shift = u.numerator // u.denominator  # floor
        base = u - shift
        p, q = base.numerator, base.denominator
        w, acc = _roots_sum(p, q, zv)
        value = acc * w ** (-p)
        if p >= 1:
            value -= mpf(q) / p
        v = base
        for _ in range(abs(shift)):
            if shift > 0:
                value = (value - zv / (1 + v)) / zv
                v += 1
            else:
                v -= 1
                value = zv * value + zv / (1 + v)
        return HComplex(value, ctx)


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
    with workprec(ctx, _GUARD):
        zv = _complex_z(z)
        if abs(zv) >= 1:
            raise ValueError("requires |z| < 1")
        if abs(zv) == 0:
            return HComplex(mpc(0), ctx)
        w, acc = _roots_sum(p, q, zv)
        return HComplex(acc * w ** p, ctx)


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
    with workprec(ctx, _GUARD):
        xv = ctx.real(x).val
        z = 1 / (xv * xv)
        acc = mpf(0)
        for lam, a in zip(pf.residues, pf.roots):
            lamv = ctx.real(lam).val
            acc += xv * lamv / ctx.real(1 - a).val
            acc -= lamv * psi0_alpha(x, a, ctx).val
            acc += lamv * f_u_roots_of_unity(a / 2, z, ctx).val.real / 2
    return ctx.real(as_pair(acc))


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
    with workprec(ctx, _GUARD):
        xv = ctx.real(x).val
        z = xv * xv
        acc = mpf(0)
        for lam, a in zip(pf.residues, pf.roots):
            lamv = ctx.real(lam).val
            acc += lamv * T_sum(x, a, ctx).val
            acc -= lamv / ctx.real(a).val
            acc -= lamv * xv * f_u_roots_of_unity((1 - a) / 2, z, ctx).val.real / 2
    return ctx.real(as_pair(acc))


def _L_weighted(x: Rational, ctx: PrecisionContext) -> HReal:
    """L(x) = Sum'_{n<=x} Lambda(n)/n for rational x > 1, with the
    boundary term halved at a prime power; equals psi0_alpha(x, 1)/x
    exactly, including the branch behavior."""
    x = Fraction(x)
    with workprec(ctx, _GUARD):
        return ctx.real(as_pair(psi0_alpha(x, Fraction(1), ctx).val / ctx.real(x).val))


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
    with workprec(ctx, _GUARD):
        xv = ctx.real(x).val
        rx = mpmath.sqrt(xv)
        v = ((xv - psi.val) / rx
             - mpmath.log(2 * mpmath.pi) / rx
             - mpmath.log(1 - 1 / (xv * xv)) / (2 * rx)
             + rx * (Lx.val - mpmath.log(xv))
             + mpmath.euler * rx
             - rx * mpmath.log((xv + 1) / (xv - 1)) / 2
             + 1 / rx)
    return ctx.real(as_pair(v))


def f_u_reference(u: Fraction, z: Fraction, bits: int) -> mpf:
    """f_u(z) for rational u and z in (0, 1) at bits + 64, in mpf alone.
    Where tau = -log z >= 1/4, the direct sum, stopped when the tail
    bound z^n/((1-z) min|n+u|) falls below 2^-(bits+80).  Nearer z = 1,
    Lerch's expansion e^(u tau)[-gamma - log tau - psi(a) - H], a = 1 + u,
    with H = Sum_k B_k(a)(-tau)^k/(k k!) regrouped by B_k(a) =
    Sum_j C(k, j) B_j a^(k-j) into Bernoulli numbers alone:

        H = Ein(c) + Sum_{j>=1} (B_j/j!) (-tau)^j I_j(c),   c = -a tau,

    Ein(c) = Sum_{i>=1} c^i/(i i!) and I_j(c) = Integral_0^1 s^(j-1) e^(cs) ds
    by the downward recurrence I_j = (e^c - c I_(j+1))/j; with
    |B_j/j!| <= 4/(2 pi)^j and |I_j| <= e^|c|/j, J = (bits + 80)/
    log2(2 pi/tau) + 8 terms and 2^-(bits+80) series cut-offs suffice.
    psi is mpmath's digamma."""
    with mpmath.workprec(bits + 64):
        zv = mpf(z.numerator) / z.denominator
        uv = mpf(u.numerator) / u.denominator
        tau = -mpmath.log1p(mpf(z.numerator - z.denominator) / z.denominator)
        eps = mpf(2) ** -(bits + 80)
        if tau < mpf(1) / 4:
            a, y = 1 + uv, -tau
            c = a * y
            J = int((bits + 80) / float(mpmath.log(2 * mpmath.pi / tau, 2))) + 8   # no float tau

            def series(f):   # Sum_{i>=0} c^i/i! f(i), to 2^-(bits+80)
                acc, t, i = mpf(0), mpf(1), 0
                while abs(t) > eps or i <= abs(c):
                    acc += t * f(i)
                    i += 1
                    t *= c / i
                return acc

            ec = mpmath.exp(c)
            I = series(lambda i: mpf(1) / (i + J + 1))
            H = mpf(0)
            for j in range(J, 0, -1):
                I = (ec - c * I) / j
                H += mpmath.bernoulli(j) / mpmath.factorial(j) * y ** j * I
            H += series(lambda i: mpf(1) / i if i else mpf(0))
            return mpmath.exp(uv * tau) * (-mpmath.euler - mpmath.log(tau)
                                           - mpmath.digamma(a) - H)
        d = min(abs(n + uv) for n in range(1, int(abs(uv)) + 3))
        acc, zn, n = mpf(0), mpf(1), 0
        while zn > eps * (1 - zv) * d:
            n += 1
            zn *= zv
            acc += zn / (n + uv)
        return acc


def descriptor_form_fraction(x: Fraction, alpha: Fraction, F: SelbergDescriptor,
                             ctx: PrecisionContext) -> Fraction:
    """The descriptor form (explicit._descriptor_form) as one exact Fraction
    sum of the same parts, each Fraction normalized as it is added: the
    assembly the package used before it summed one integer numerator over
    one denominator.  Both hold the same exact value, so both round alike."""
    above = x > 1
    y, beta = (x, alpha) if above else (1 / x, 1 - alpha)
    if F.m_F and beta in (0, 1):
        if above and beta == 1:
            raise ValueError("alpha = 1 sits on the polar term")
        W = walk_width(ctx)
        f = Fraction(f_fixed(x if beta else y, ctx), 1 << W)
        return f if beta else (f + Fraction(_log_pi_fixed(1, W), 1 << W)) * (1 if above else -x)
    acc = F.m_F * (y / (1 - beta) - 1 / beta) if F.m_F else Fraction(0)
    for lam, mu in F.gamma_factors:
        if (u := mu + lam * beta).denominator == 1 and u <= 0:
            raise ValueError(f"alpha = {alpha} hits the trivial-zero chain")
        z, zmu = (power(y, t, ctx) for t in (-1 / lam, -mu / lam))
        acc += lam * zmu * (_exact(f_u_closed(u, z, ctx)) + 1 / u)
    acc -= _exact(selberg_psi0(y, beta, F, ctx))
    if above:
        return acc
    return -x * acc + (F.gamma_F(ctx) if alpha == 0 else 0)


def kernel_form_fraction(x: Fraction, poles, weights, F: SelbergDescriptor,
                         ctx: PrecisionContext) -> HReal:
    """Sum_i weights[i] descriptor_form_fraction(x, poles[i]) as one
    Fraction, rounded once by ctx.real: explicit._kernel_form's reference."""
    return ctx.real(sum((w * descriptor_form_fraction(x, a, F, ctx)
                         for a, w in zip(poles, weights)), Fraction(0)))

"""Closed-form right-hand sides of the explicit formulas for
Sum_rho R(rho) x^rho, R rational, over the non-trivial zeros of zeta and
of Selberg-class descriptors (m_F, {lambda_j, mu_j}, chi), zeta the
character (1,) mod 1, with Lambda_F = chi Lambda, and residual verification.
The character fixes Q = sqrt(q/pi) and the root number w = 1, unstored.

Every closed form is one of three things (all verified against zero
sums through verify_identity):

  The descriptor form at (alpha, F), _descriptor_form:
    x > 1:  Sum_rho x^rho/(rho-alpha) + x^alpha (F'/F)(alpha)
              = m_F x/(1-alpha) - psi0(x, F, alpha) + (n_0 - m_F)/alpha
                + Sum_j lambda_j x^(-mu_j/lambda_j) Sum'_{n>=0} z_j^n/(n+u_j)
            with z_j = x^(-1/lambda_j), u_j = mu_j + alpha lambda_j and
            n_0 = #{j : mu_j = 0}.  The primed sum leaves out n = 0 when
            mu_j = 0: that term is 1/alpha, paired with the polar term
            -m_F/alpha, so the form is finite at alpha = 0 exactly when
            n_0 = m_F (zeta).
    0<x<1:  Sum_rho x^rho/(rho-alpha) - x^alpha (F'/F)(1-alpha)
              = T(x, F, alpha) + m_F (x/(1-alpha) - 1/alpha)
                - Sum_j lambda_j x^(1+mu_j/lambda_j) Sum_{n>=0} z_j^n/(n+u_j)
            with z_j = x^(1/lambda_j), u_j = mu_j + (1-alpha) lambda_j; at
            alpha = 0 it predicts Sum_rho x^rho/rho, with
            m_F (x + log x) + gamma_F in place of the polar term.
    selberg_rhs_gt1/lt1 are this form.  general_rhs_gt1/lt1, the kernels
    (A/B)(rho) = Sum_i lam_i/(rho - alpha_i) with their zeta'/zeta
    terms, are Sum_i lam_i times it for F = zeta.
  The paper's f(x) = Sum_rho x^rho/rho, kept elementary:
    x > 1:  f(x) = g_gt1(x) - psi0(x) - log 2pi,
            g_gt1(x) = x - (1/2) log(1 - x^-2)
    0<x<1:  f(x) = g_lt1(x) + T(x, 0) + gamma,
            g_lt1(x) = log x + x - (1/2) log((1+x)/(1-x))
    (the zeta descriptor form at alpha = 0, less log 2pi above 1).
  f reflected: for x > 1, rho -> 1 - rho turns Sum x^rho/(1-rho) into
    x f(1/x), so
            Sum_rho x^rho/(rho(1-rho)) = f(x) + x f(1/x)
    (absolutely convergent; genuine tail bound).  cosine_rhs, the
    critical-line pairing Sum_{nu>0} 2cos(nu log x)/(1/4+nu^2), is that
    sum over sqrt(x); S_rhs_gt1 is that sum - gamma x + log 2pi.

The plain and the descriptor prime sums are one computation: psi0,
psi0_alpha, T_sum, selberg_psi0 and selberg_T all read
arith.weighted_sum, the descriptor ones with F's character table, so
all run through the one loop arith.prime_power_sum.

The auxiliary series f_u(z) = Sum_{n>=1} z^n/(n+u), at real z in [0, 1)
and rational u, is real fixed point (f_u_closed): the series itself, or
Lerch's expansion about z = 1.

Two corrections relative to the classical displays these formulas come
from, both forced by requiring residuals against zero sums to vanish as
the truncation grows (see tests):
  * the x < 1 descriptor formula needs -m_F x/(1-alpha), not +;
  * its alpha = 0 limit needs an additional -m_F x term.
Both reduce exactly to the plain-zeta formulas above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import mpmath
from mpmath import libmp, mpf

from .arith import (
    psi0 as arith_psi0,
    T_sum,
    walk_width,
    weighted_sum,
)
from .mpcore import (
    _GUARD,
    HReal,
    PrecisionContext,
    _exact,
    _to_mpf,
    bernoulli,
    em_log_moments,
)
from .zeros import (
    SumSpec,
    ZeroTable,
    cosine_term,
    density_tail,
    xrho_term,
    zero_sum,
)

Rational = Union[int, Fraction]


# ----------------------------------------------------------------------
# Dirichlet L-functions and their logarithmic derivatives (zeta: chi mod 1)
# ----------------------------------------------------------------------

def dirichlet_L(s: Rational, q: int, chi: Sequence[int],
                ctx: PrecisionContext) -> tuple[mpf, mpf]:
    """(L(s, chi), L'(s, chi)) for a real character table chi mod q (zeta:
    (1,) mod 1), one Euler-Maclaurin pass per residue (em_log_moments, N = 1):

        L(s)  = q^(-s) Sum_{a=1}^{q} chi(a) Z_0(s, a/q)
        L'(s) = -log(q) L(s) - q^(-s) Sum_{a=1}^{q} chi(a) Z_1(s, a/q).

    At s = 1 the Z_n are the shifted Stieltjes constants gamma_n(a/q);
    their poles cancel in the character sum (Sum chi(a) = 0), so the
    same formulas hold there for non-principal chi.
    """
    s = Fraction(s)
    if s == 1 and sum(chi[a % q] for a in range(1, q + 1)) != 0:
        raise ValueError("L(s, chi) has a pole at s = 1 for a principal character")
    # The character sums cancel (by a factor of about 170 for L'(1) at
    # q = 7), so the Z_n are taken to the guard bits of the sums.
    wide = PrecisionContext(ctx.bits + _GUARD)
    with ctx.workprec(_GUARD):
        S0 = mpf(0)
        S1 = mpf(0)
        for a in range(1, q + 1):
            c = chi[a % q]
            if c == 0:
                continue
            (z0, _), (z1, _) = em_log_moments(s, Fraction(a, q), 1, wide)
            S0 += c * z0.val
            S1 += c * z1.val
        qs = ctx.mpf(q) ** (-ctx.mpf(s))
        value = qs * S0
        deriv = -mpmath.log(q) * value - qs * S1
        return value, deriv


def dirichlet_log_deriv(s: Rational, q: int, chi: Sequence[int],
                        ctx: PrecisionContext) -> HReal:
    """(L'/L)(s, chi) for a real character table chi mod q, zeta'/zeta at (1,);
    a zero of L (zeta's trivial zeros are exact zeros of the sum) is a pole."""
    with ctx.workprec(_GUARD):
        L, Lp = dirichlet_L(s, q, chi, ctx)
        if L == 0:
            raise ValueError(f"L({s}, chi mod {q}) vanishes; log-derivative pole")
        return ctx.real(Lp / L)


# ----------------------------------------------------------------------
# The auxiliary series f_u(z) = Sum_{n>=1} z^n / (n+u)
# ----------------------------------------------------------------------

TAU0 = 1 / 20   # f_u_closed's branch point in tau = -log z; see there


def _f_u_series(u: Fraction, z: Fraction, W: int) -> int:
    """S = Sum_{n>=1} floor(b P_(n-1)/(bn + a)), u = a/b, P_0 = 2^W and
    P_n = floor(P_(n-1) z), until P = 0: f_u(z) = z S 2^-W.  z enters exactly,
    so a step multiplies by its numerator and divides by its denominator,
    not by a W-bit z.  P_n is below 2^W z^n by less than min(n, 1/(1-z))
    units of 2^-W, so S errs by less than N (1 + 1/((1-z) d)) + 1/((1-z)^2 d)
    units over its N terms and the rest (z^N < 2^-W/(1-z)), d = min |n + u|."""
    a, b = u.numerator, u.denominator
    zn, zd = z.numerator, z.denominator
    P, S, c = 1 << W, 0, b + a
    while P:
        S += b * P // c
        P = P * zn // zd
        c += b
    return S


def _f_u_lerch(u: Fraction, z: Fraction, ctx: PrecisionContext) -> mpf:
    """f_u(z) = e^(u tau) [-gamma - log tau - psi(a) - Sum_{k>=1} B_k(a)(-tau)^k/(k k!)],
    tau = -log z < 2 pi, a = 1 + u: the s -> 1 limit of Lerch's
    Phi(z, s, a) = z^(-a) [Gamma(1-s) tau^(s-1) + Sum_k zeta(s-k, a)(-tau)^k/k!]
    (Erdelyi et al., Higher Transcendental Functions I, 1953, 1.11), with
    zeta(1-k, a) = -B_k(a)/k and f_u(z) = z Phi(z, 1, a).

    The sum stops at the least K whose tail is below 2^-(W+1), W =
    walk_width(ctx): with a = t + m, t in [0, 1), m an integer, B_k(1+t) =
    B_k(t) + k t^(k-1) taken |m| times and |B_k(t)| <= 2 zeta(k) k!/(2 pi)^k
    <= 4 k!/(2 pi)^k (k >= 2) bound the tail by 4 r^(K+1)/((K+1)(1-r)) +
    c^(K+1)/((K+1)! (1 - c/(K+2))), r = tau/(2 pi), c = (|a| + 1) tau.
    E_k = D q^k B_k(a) = Sum_j C(k, j) (D B_j) q^j p^(k-j), a = p/q, D the
    lcm of the denominators of B_0..B_K (mpcore's exact recurrence), are
    integers, and the sum runs in integers at W: T = floor(2^W tau) and
    its floored powers T_k are below 2^W tau^k by less than k units, each
    term E_k T_k // (D q^k k k!) floors once, so it errs by less than
    K + 1 + Sum_k |B_k(a)|/k! units of 2^-W.  psi(a) = -gamma_0(a) is
    em_log_moments' at s = 1 and bits + 32, after psi(a) = psi(a + m) -
    Sum_{j<m} 1/(a + j) for a <= 0; its certified bound, near
    2^-(bits+31) |psi(a)|, is the largest error.  tau = -log1p(z - 1)
    and log tau are mpf at W bits."""
    a = 1 + u
    p, q = a.numerator, a.denominator
    W = walk_width(ctx)
    m = max(0, math.floor(-a) + 1)
    (g0, _), = em_log_moments(1, a + m, 0, PrecisionContext(ctx.bits + _GUARD))
    with mpmath.workprec(W):
        tau = -mpmath.log1p(mpmath.make_mpf(libmp.from_rational(
            z.numerator - z.denominator, z.denominator, W, "n")))
        r, c = float(tau) / (2 * math.pi), (abs(float(a)) + 1) * float(tau)
        K = max(1, math.ceil(c))
        while max(math.log(4 / ((K + 1) * (1 - r))) + (K + 1) * math.log(r),
                  (K + 1) * math.log(c) - math.lgamma(K + 2) - math.log(1 - c / (K + 2))
                  ) > -(W + 2) * math.log(2):
            K += 1
        bs = [bernoulli(j) for j in range(K + 1)]
        D = math.lcm(*(b.denominator for b in bs))
        bq = [(j, b.numerator * (D // b.denominator) * q ** j) for j, b in enumerate(bs) if b]
        T, Tk, qf, S = libmp.to_fixed(tau._mpf_, W), 1 << W, D, 0   # qf = D q^k k!
        for k in range(1, K + 1):
            Tk, qf = Tk * T >> W, qf * q * k
            E = sum(math.comb(k, j) * e * p ** (k - j) for j, e in bq if j <= k)
            S += (E * Tk if k % 2 == 0 else -E * Tk) // (qf * k)
        psi = -g0.val - _to_mpf(sum((Fraction(1) / (a + j) for j in range(m)), Fraction(0)))
        bracket = -mpmath.euler - mpmath.log(tau) - psi - mpf((S, -W))
    with ctx.workprec(_GUARD):
        return mpmath.exp(_to_mpf(u) * tau) * bracket


def f_u_closed(u: Rational, z, ctx: PrecisionContext) -> HReal:
    """f_u(z) = Sum_{n>=1} z^n/(n+u) for real z in [0, 1) (a Fraction, or an
    mpf or HReal at its exact value) and rational u, not an integer <= -1,
    at bits + 32 (not rounded to ctx), within 2^-(bits+16) (|f_u(z)| + z).
    Both routes run in integers at W = walk_width(ctx), at a cost that does
    not depend on the denominator of u: where tau = -log z >= TAU0 the
    series, z S 2^-W with S from _f_u_series, scaled by z once so that its
    error stays relative to the value; below TAU0, where the series needs
    W/(tau log2 e) terms, the Lerch expansion of _f_u_lerch.  TAU0 = 1/20
    is where the two cost about the same: on a 2-core Xeon (medians of 5,
    u = 1/3 and 1/1009, ms, series/Lerch at 128, 192, 512 and 1024 bits)
    1.9/1.3, 2.5-2.7/1.4-1.5, 8.9-9.1/4.1-5.0, 26/12-23 at tau = 0.03;
    1.1-1.2/1.2-1.3, 1.6/1.5-1.7, 5.3-5.4/4.2-5.4, 14-15/15-28 at 0.05;
    0.7/1.2, 1.0/1.4-1.7, 3.1-3.3/4.5-6.1, 8.6-8.7/18-30 at 0.0625."""
    u = Fraction(u)
    if u.denominator == 1 and u <= -1:
        raise ValueError(f"f_u undefined at negative integer u = {u}")
    z = _exact(z)
    if not 0 <= z < 1:
        raise ValueError(f"f_u_closed requires 0 <= z < 1, got z = {float(z)}")
    if z > Fraction(1, 2) and -math.log1p(float(z - 1)) < TAU0:
        return HReal(_f_u_lerch(u, z, ctx), ctx)
    W = walk_width(ctx)
    return HReal(mpmath.make_mpf(libmp.from_rational(
        _f_u_series(u, z, W) * z.numerator, z.denominator << W, ctx.bits + _GUARD, "n")), ctx)


# ----------------------------------------------------------------------
# f(x) = Sum_rho x^rho/rho on both sides of 1, and f reflected
# ----------------------------------------------------------------------

def _half_log(n: int, d: int, W: int) -> int:
    """floor(2^W log(n/d) / 2), 0 < n < d, within 1 + 2^-4 units: one
    mpf_log at wp = W + 4 + t bits, 2^t > |log(n/d)|, of n/d floored to wp
    bits in integers (from_rational strips a power-of-two d bit by bit)."""
    wp = W + 4 + d.bit_length().bit_length()
    sh = wp + 1 + d.bit_length() - n.bit_length()
    return libmp.to_fixed(libmp.mpf_log(libmp.from_man_exp((n << sh) // d, -sh), wp), W - 1)


def g_gt1(p: int, q: int, W: int) -> int:
    """The continuous part of f above 1, x - (1/2) log(1 - 1/x^2), at
    x = p/q > 1 in units of 2^-W, within 2 (x rounded, then _half_log)."""
    return ((p << W + 1) + q) // (2 * q) - _half_log(p * p - q * q, p * p, W)


def g_lt1(p: int, q: int, W: int) -> int:
    """The continuous part of f below 1, log x + x - (1/2) log((1+x)/(1-x))
    (the trivial-zero contribution together with the first odd power),
    at x = p/q in (0, 1) in units of 2^-W, within 2, its logs one."""
    return ((p << W + 1) + q) // (2 * q) + _half_log(p * p * (q - p), q * q * (q + p), W)


def f_rhs_gt1(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted Sum_rho x^rho/rho for rational x > 1:

        f(x) = g_gt1(x) - psi0(x) - log 2pi,

    psi0 half-corrected at prime powers."""
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"f_rhs_gt1 requires x > 1, got {x}")
    psi, W = arith_psi0(x, ctx), walk_width(ctx)
    with ctx.workprec(_GUARD):
        v = mpf((g_gt1(x.numerator, x.denominator, W), -W)) - psi.val - ctx.log_2pi
    return ctx.real(v)


def f_rhs_lt1(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted Sum_rho x^rho/rho for rational 0 < x < 1:

        f(x) = g_lt1(x) + Sum'_{n<=1/x} Lambda(n)/n + gamma,

    the primed sum halving the boundary term when 1/x is a prime power
    (T_sum at alpha = 0)."""
    x = Fraction(x)
    if not (0 < x < 1):
        raise ValueError(f"f_rhs_lt1 requires 0 < x < 1, got {x}")
    t, W = T_sum(x, Fraction(0), ctx), walk_width(ctx)
    with ctx.workprec(_GUARD):
        v = mpf((g_lt1(x.numerator, x.denominator, W), -W)) + t.val + mpmath.euler
    return ctx.real(v)


def _f_reflected(x: Rational, ctx: PrecisionContext, name: str) -> mpf:
    """Sum_rho x^rho/(rho(1-rho)) = f(x) + x f(1/x) for rational x > 1,
    at bits + 32 from both values of f taken at bits + 32.  At an integer
    prime power x both halve the same endpoint term."""
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"{name} requires x > 1, got {x}")
    wide = PrecisionContext(ctx.bits + _GUARD)
    above, below = f_rhs_gt1(x, wide), f_rhs_lt1(1 / x, wide)
    with wide.workprec():
        return above.val + _to_mpf(x) * below.val


def cosine_rhs(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted critical-line cosine sum Sum_{nu>0} 2cos(nu log x)/(1/4+nu^2)
    for rational x > 1: (f(x) + x f(1/x))/sqrt(x)."""
    s = _f_reflected(x, ctx, "cosine_rhs")
    with ctx.workprec(_GUARD):
        return ctx.real(s / mpmath.sqrt(_to_mpf(Fraction(x))))


def S_rhs_gt1(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted S(x) = Sum_rho x^rho/(rho(1-rho)) - gamma x + log 2pi
    for rational x > 1: f(x) + x f(1/x) - gamma x + log 2pi."""
    s = _f_reflected(x, ctx, "S_rhs_gt1")
    with ctx.workprec(_GUARD):
        return ctx.real(s - mpmath.euler * _to_mpf(Fraction(x)) + ctx.log_2pi)


# ----------------------------------------------------------------------
# Partial fractions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFunctionPF:
    """A(t)/B(t) with B = prod (t - alpha_i), deg A < #roots, in
    partial-fraction form Sum_i residues[i]/(t - roots[i])."""

    roots: tuple[Fraction, ...]     # distinct rational poles alpha_i
    residues: tuple[Fraction, ...]  # lam_i = A(alpha_i)/B'(alpha_i)


def partial_fractions(A: Sequence[Rational],
                      B_roots: Sequence[Rational]) -> RationalFunctionPF:
    """Exact partial-fraction decomposition of A(t)/prod(t - alpha_i):
    residues lam_i = A(alpha_i)/B'(alpha_i), B'(alpha_i) =
    prod_{j != i} (alpha_i - alpha_j).  Roots must be distinct and
    deg A < number of roots."""
    roots = tuple(Fraction(r) for r in B_roots)
    if len(set(roots)) != len(roots):
        raise ValueError("repeated roots are not supported")
    coeffs = tuple(Fraction(a) for a in A)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) - 1 >= len(roots):
        raise ValueError("deg A must be < number of roots")
    residues = []
    for i, ai in enumerate(roots):
        bprime = Fraction(1)
        for j, aj in enumerate(roots):
            if j != i:
                bprime *= ai - aj
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * ai + c
        residues.append(acc / bprime)
    return RationalFunctionPF(roots=roots, residues=tuple(residues))


# ----------------------------------------------------------------------
# Selberg-class descriptors
# ----------------------------------------------------------------------

_gamma_F: dict[tuple, mpf] = {}   # (chi, bits) -> (L'/L)(1, chi)


@dataclass(frozen=True)
class SelbergDescriptor:
    """L(s, chi) for a real primitive character chi mod q, as the
    descriptor form reads it; zeta is the character (1,) mod 1.

    gamma_factors are the (lambda_j, mu_j) of the completed-function
    Gamma factors; Lambda_F(n) = chi(n) Lambda(n) with chi a completely
    multiplicative table, which also fixes F'/F, gamma_F, Q = sqrt(q/pi)
    (q = len(chi)) and the root number w = 1: the Gauss sum of a real
    primitive character is i^a sqrt(q) (Davenport, ch. 9).
    """

    label: str
    m_F: int                                   # pole order at s = 1, >= 0
    gamma_factors: tuple[tuple[Fraction, Fraction], ...]  # (lambda_j, mu_j)
    chi: tuple[int, ...]                       # chi(n) = chi[n % len(chi)]

    def log_deriv(self, s: Rational, ctx: PrecisionContext) -> mpf:
        """(F'/F)(s) = (L'/L)(s, chi), zeta'/zeta at chi = (1,)."""
        return dirichlet_log_deriv(s, len(self.chi), self.chi, ctx).val

    def gamma_F(self, ctx: PrecisionContext) -> mpf:
        """The constant term in -F'/F(s) = m_F/(s-1) - gamma_F + O(s-1): Euler's
        constant at zeta's pole, else (L'/L)(1, chi) once per (chi, bits)."""
        if self.m_F:
            return +ctx.euler_gamma
        key = (self.chi, ctx.bits)
        if key not in _gamma_F:
            _gamma_F[key] = self.log_deriv(1, ctx)
        return _gamma_F[key]


def descriptor_zeta() -> SelbergDescriptor:
    """Zeta as the character (1,) mod 1: m_F = 1, one Gamma factor (1/2, 0),
    gamma_F = Euler's constant (Q = pi^(-1/2), w = 1)."""
    return SelbergDescriptor(
        label="zeta",
        m_F=1,
        gamma_factors=((Fraction(1, 2), Fraction(0)),),
        chi=(1,),
    )


def _is_primitive_real(q: int, chi: Sequence[int]) -> bool:
    """True when the real character table chi mod q is primitive: no
    proper divisor f < q induces it, i.e. for every proper f | q some
    n = 1 mod f with gcd(n, q) = 1 has chi(n) != 1."""
    for f in range(1, q):
        if q % f != 0:
            continue
        induced = True
        for n in range(1, q + 1):
            if n % f == 1 % f and math.gcd(n, q) == 1 and chi[n % q] != 1:
                induced = False
                break
        if induced:
            return False
    return True


def descriptor_dirichlet(q: int, chi: Sequence[int],
                         ctx: PrecisionContext) -> SelbergDescriptor:
    """Descriptor of L(s, chi) for a primitive real character table chi
    mod q >= 2 (q = 1 is zeta, whose pole descriptor_zeta() carries): m_F =
    0, one factor (1/2, a/2) with a the parity (chi(-1) = (-1)^a), gamma_F =
    (L'/L)(1, chi).  ctx is unused, kept for callers that pass one."""
    chi = tuple(chi)
    if q == 1:
        raise ValueError("the character mod 1 is zeta: use descriptor_zeta()")
    if len(chi) != q:
        raise ValueError("character table length must equal the modulus")
    if not _is_primitive_real(q, chi):
        raise ValueError(f"character mod {q} is imprimitive")
    a = 0 if chi[(q - 1) % q] == 1 else 1
    return SelbergDescriptor(
        label=f"dirichlet-{q}",
        m_F=0,
        gamma_factors=((Fraction(1, 2), Fraction(a, 2)),),
        chi=chi,
    )


# ----------------------------------------------------------------------
# Selberg-class weighted prime sums and right-hand sides
# ----------------------------------------------------------------------

def selberg_psi0(x: Rational, alpha: Rational, F: SelbergDescriptor,
                 ctx: PrecisionContext) -> HReal:
    """psi0(x, F, alpha) = x^alpha Sum_{n<x} Lambda_F(n)/n^alpha plus the
    unweighted Lambda_F(x)/2 when x is a prime power: the plain
    psi0_alpha sum with F's character."""
    if Fraction(x) <= 1:
        raise ValueError(f"selberg_psi0 requires x > 1, got {x}")
    return ctx.real(weighted_sum(x, alpha, ctx, F.chi))


def selberg_T(x: Rational, alpha: Rational, F: SelbergDescriptor,
              ctx: PrecisionContext) -> HReal:
    """T(x, F, alpha) = x^alpha Sum_{n<1/x} Lambda_F(n)/n^(1-alpha) plus
    (x/2) Lambda_F(1/x) when 1/x is a prime power: the plain T_sum with
    F's character."""
    if not 0 < Fraction(x) < 1:
        raise ValueError(f"selberg_T requires 0 < x < 1, got {x}")
    return ctx.real(weighted_sum(x, alpha, ctx, F.chi))


def _descriptor_form(x: Fraction, alpha: Fraction, F: SelbergDescriptor,
                     ctx: PrecisionContext, gt1: bool) -> mpf:
    """The descriptor form of the module docstring at bits + 32: for
    x > 1 (gt1) the predicted Sum_rho x^rho/(rho-alpha) + x^alpha (F'/F)(alpha),
    for 0 < x < 1 Sum_rho x^rho/(rho-alpha) - x^alpha (F'/F)(1-alpha), or
    Sum_rho x^rho/rho at alpha = 0.  Refuses alpha on the polar term or
    on a trivial zero, u_j an integer <= 0, except u_j = mu_j = 0 above 1,
    whose n = 0 term pairs with the polar term."""
    if alpha == 1 and (gt1 or F.m_F):
        raise ValueError("alpha = 1 sits on the polar term")
    # m_F less the gt1 n = 0 terms 1/alpha: the coefficient of -1/alpha
    polar = F.m_F - (sum(1 for _, mu in F.gamma_factors if mu == 0) if gt1 else 0)
    if gt1 and alpha == 0 and polar:
        raise ValueError("alpha = 0 is a pole: the polar term and the "
                         "trivial zeros at 0 do not cancel")
    prime = (selberg_psi0 if gt1 else selberg_T)(x, alpha, F, ctx).val
    with ctx.workprec(_GUARD):
        xv = ctx.mpf(x)
        acc = -prime if gt1 else prime
        if not gt1 and alpha == 0:
            acc += F.m_F * (xv + mpmath.log(xv)) + F.gamma_F(ctx)
        else:
            if F.m_F:
                acc += F.m_F * xv / ctx.mpf(1 - alpha)
            if polar:
                acc -= polar / ctx.mpf(alpha)
        for lam, mu in F.gamma_factors:
            u = mu + lam * (alpha if gt1 else 1 - alpha)
            if u.denominator == 1 and u <= 0 and not (gt1 and u == mu == 0):
                raise ValueError(f"alpha = {alpha} hits the trivial-zero chain "
                                 f"(lambda={lam}, mu={mu})")
            lamv, e = ctx.mpf(lam), (-1 if gt1 else 1) / lam
            z, zmu = (x ** int(t) if t.denominator == 1 else _to_mpf(x) ** _to_mpf(t)
                      for t in (e, e * mu))   # x^e, x^(e mu): exact at lambda = 1/2
            series = f_u_closed(u, z, ctx).val  # Sum_{n>=1} z^n/(n+u)
            zmu = _to_mpf(zmu)
            if gt1:
                if mu != 0:
                    series += 1 / ctx.mpf(u)
                acc += lamv * zmu * series
            else:
                acc -= lamv * xv * zmu * (series + 1 / ctx.mpf(u))
        return acc


def selberg_rhs_gt1(x: Rational, alpha: Rational, F: SelbergDescriptor,
                    ctx: PrecisionContext) -> HReal:
    """Predicted value of x^alpha (F'/F)(alpha) + Sum_rho x^rho/(rho-alpha)
    for rational x > 1: the descriptor form (module docstring).  The zero
    sum runs over the non-trivial zeros of F itself.  alpha = 0 is
    refused when m_F > 0: for zeta that case is the von-mangoldt
    identity (f + log 2pi, which general_rhs_gt1 gives)."""
    x, alpha = Fraction(x), Fraction(alpha)
    if x <= 1:
        raise ValueError(f"selberg_rhs_gt1 requires x > 1, got {x}")
    if F.m_F > 0 and alpha == 0:
        raise ValueError("alpha = 0 is excluded when m_F > 0")
    return ctx.real(_descriptor_form(x, alpha, F, ctx, True))


def selberg_rhs_lt1(x: Rational, alpha: Union[Rational, str],
                    F: SelbergDescriptor, ctx: PrecisionContext) -> HReal:
    """Predicted zero-sum side for rational 0 < x < 1, zeros taken from
    the conjugate-coefficient function's table (identical for the real
    -coefficient descriptors shipped here): the descriptor form (module
    docstring).  alpha = 0 (or "zero") predicts Sum_rho x^rho/rho, any
    other alpha Sum_rho x^rho/(rho-alpha) - x^alpha (F'/F)(1-alpha).
    Both carry the sign corrections stated in the module docstring and
    reduce exactly to f_rhs_lt1 / general_rhs_lt1 for zeta.
    """
    x = Fraction(x)
    if not (0 < x < 1):
        raise ValueError(f"selberg_rhs_lt1 requires 0 < x < 1, got {x}")
    alpha = Fraction(0) if alpha == "zero" else Fraction(alpha)
    return ctx.real(_descriptor_form(x, alpha, F, ctx, False))


# ----------------------------------------------------------------------
# Rational kernels: Sum_i lam_i times the zeta descriptor form
# ----------------------------------------------------------------------

def _kernel_form(x: Fraction, pf: RationalFunctionPF, ctx: PrecisionContext,
                 gt1: bool) -> HReal:
    zeta = descriptor_zeta()
    forms = [_descriptor_form(x, a, zeta, ctx, gt1) for a in pf.roots]
    with ctx.workprec(_GUARD):
        acc = sum((ctx.mpf(lam) * v for lam, v in zip(pf.residues, forms)), mpf(0))
    return ctx.real(acc)


def general_rhs_gt1(x: Rational, pf: RationalFunctionPF,
                    ctx: PrecisionContext) -> HReal:
    """Predicted value of

        Sum_rho (A/B)(rho) x^rho + Sum_i lam_i (zeta'/zeta)(alpha_i) x^alpha_i

    for rational x > 1, every alpha_i in Q outside {1, -2, -4, ...}:
    Sum_i lam_i times the zeta descriptor form at alpha_i, which is
    finite at alpha_i = 0 (f + log 2pi there)."""
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"general_rhs_gt1 requires x > 1, got {x}")
    return _kernel_form(x, pf, ctx, True)


def general_rhs_lt1(x: Rational, pf: RationalFunctionPF,
                    ctx: PrecisionContext) -> HReal:
    """Predicted value of

        Sum_rho (A/B)(rho) x^rho - Sum_i lam_i (zeta'/zeta)(1-alpha_i) x^alpha_i

    for rational 0 < x < 1, every alpha_i in Q outside {0, 1, 3, 5, ...}:
    Sum_i lam_i times the zeta descriptor form at alpha_i.  A pole at 0
    is refused: there the f-type identity (ingham) applies."""
    x = Fraction(x)
    if not (0 < x < 1):
        raise ValueError(f"general_rhs_lt1 requires 0 < x < 1, got {x}")
    if 0 in pf.roots:
        raise ValueError("alpha = 0 is excluded (1/alpha term)")
    return _kernel_form(x, pf, ctx, False)


# ----------------------------------------------------------------------
# Verification reports
# ----------------------------------------------------------------------

IDENTITY_IDS = ("von-mangoldt", "ingham", "cosine", "s",
                "general-gt1", "general-lt1", "selberg-gt1", "selberg-lt1")


@dataclass(frozen=True)
class EvalReport:
    """Paired (zero-sum LHS, closed-form RHS) record for one identity.

    residual = lhs - rhs recomputable exactly from the stored fields;
    tail is a genuine density bound where the sum converges absolutely,
    trend carries (half-truncation residual, full residual) where the
    convergence is only conditional.
    """

    identity: str
    x: Fraction
    terms_used: int
    lhs: HReal
    rhs: HReal
    residual: HReal
    bits: int
    tail: Optional[HReal] = None
    trend: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {
            "identity": self.identity,
            "x": str(self.x),
            "terms_used": self.terms_used,
            "lhs": self.lhs.str_digits(30),
            "rhs": self.rhs.str_digits(30),
            "residual": self.residual.str_digits(15),
            "precision_bits": self.bits,
        }
        if self.tail is not None:
            d["tail_estimate"] = self.tail.str_digits(15)
        if self.trend is not None:
            d["trend"] = {k: (v.str_digits(15) if isinstance(v, HReal) else v)
                          for k, v in self.trend.items()}
        return d


def verify_identity(identity: str, x: Rational, table: ZeroTable,
                    spec: SumSpec, ctx: PrecisionContext, *,
                    pf: Optional[RationalFunctionPF] = None,
                    alpha: Optional[Union[Rational, str]] = None,
                    F: Optional[SelbergDescriptor] = None) -> EvalReport:
    """Evaluate one identity's zero-sum LHS and closed-form RHS and
    report the residual.

    The (F'/F) term is placed on the LHS with the zero sum wherever the
    identity carries one.  Conditionally convergent identities get a
    trend record (residual at half truncation vs full, from one pass over
    the zeros); the absolutely convergent S identity gets the genuine
    tail bound.  The closed form and the F'/F term are evaluated once.
    F is zeta but for selberg-*, and the table must carry F's label.
    """
    x = Fraction(x)
    if identity not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITY_IDS}")
    selberg = identity.startswith("selberg")
    if selberg and (F is None or alpha is None):
        raise ValueError(f"{identity} requires F and alpha")
    F = F if selberg else descriptor_zeta()
    if table.label != F.label:
        raise ValueError(f"table label {table.label!r} does not match "
                         f"descriptor {F.label!r}")

    # term: the zero-sum kernel; extra: the F'/F term added to it.
    extra: Optional[mpf] = None
    if identity in ("von-mangoldt", "ingham"):
        term = xrho_term(x, (0,), (1,))
        rhs = (f_rhs_gt1 if identity == "von-mangoldt" else f_rhs_lt1)(x, ctx)
    elif identity == "cosine":
        term = cosine_term(x)
        rhs = cosine_rhs(x, ctx)
    elif identity == "s":
        term = xrho_term(x, (0, 1), (1, -1))
        rhs = ctx.real(_f_reflected(x, ctx, "the s identity"))
    else:  # Sum_i w_i x^rho/(rho - alpha_i) against the descriptor form of F
        gt1 = identity.endswith("gt1")
        if identity.startswith("general"):
            if pf is None:
                raise ValueError(f"{identity} requires pf")
            poles, weights = pf.roots, pf.residues
            rhs = (general_rhs_gt1 if gt1 else general_rhs_lt1)(x, pf, ctx)
        else:
            a = Fraction(0) if alpha == "zero" else Fraction(alpha)
            poles, weights = (a,), (Fraction(1),)
            rhs_fn = selberg_rhs_gt1 if gt1 else selberg_rhs_lt1
            rhs = rhs_fn(x, a, F, ctx)
        term = xrho_term(x, poles, weights)
        if gt1 or poles != (0,):  # selberg-lt1 at alpha = 0 predicts f itself
            with ctx.workprec(_GUARD):
                xv = ctx.mpf(x)
                extra = sum((ctx.mpf(w) * xv ** ctx.mpf(p)
                             * F.log_deriv(p if gt1 else 1 - p, ctx)
                             for p, w in zip(poles, weights)), mpf(0))
                extra = extra if gt1 else -extra

    def residual_at(zs: HReal) -> tuple[HReal, HReal]:
        with ctx.workprec(_GUARD):
            lhs = zs if extra is None else ctx.real(zs.val + extra)
            return lhs, ctx.real(lhs.val - rhs.val)

    count = len(spec.select(table))
    half = max(1, count // 2)
    (zs_half, zs), terms = zero_sum(table, spec, term, ctx, cuts=(half, count))
    lhs, residual = residual_at(zs)
    tail: Optional[HReal] = None
    trend: Optional[dict] = None
    if identity == "s":  # a pair adds at most 2 sqrt(x)/gamma^2; safety factor 2
        with ctx.workprec(_GUARD):
            tail = density_tail(table, terms, 4 * mpmath.sqrt(_to_mpf(x)), ctx)
    else:
        trend = {
            "pairs_half": half,
            "residual_half": residual_at(zs_half)[1],
            "pairs_full": terms,
            "residual_full": residual,
        }

    return EvalReport(identity=identity, x=x, terms_used=terms, lhs=lhs,
                      rhs=rhs, residual=residual, bits=ctx.bits,
                      tail=tail, trend=trend)

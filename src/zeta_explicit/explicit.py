"""Closed-form right-hand sides of the explicit formulas for
Sum_rho R(rho) x^rho, R rational, over the non-trivial zeros of zeta and
of Selberg-class descriptors (m_F, {lambda_j, mu_j}, chi), zeta the
character (1,) mod 1, with Lambda_F = chi Lambda, and residual verification.
The character fixes Q = sqrt(q/pi) and the root number w = 1, unstored.

Every closed form is one of three things (all verified against zero
sums through verify_identity):

  The descriptor form at (alpha, F), _descriptor_form:
    x > 1:  Sum_rho x^rho/(rho-alpha) + x^alpha (F'/F)(alpha)
              = m_F (x/(1-alpha) - 1/alpha) - psi0(x, F, alpha)
                + Sum_j lambda_j x^(-mu_j/lambda_j) (f_{u_j}(x^(-1/lambda_j)) + 1/u_j)
            with u_j = mu_j + alpha lambda_j.
    0<x<1:  rho -> 1 - rho maps the zeros of each descriptor here (a real
            character, root number 1) onto themselves, so
            Sum_rho x^rho/(rho-alpha) - x^alpha (F'/F)(1-alpha) is -x times
            the x > 1 form at (1/x, 1-alpha); adding (F'/F)(1) = gamma_F
            (m_F = 0) at alpha = 0 predicts Sum_rho x^rho/rho.
    With m_F > 0 (zeta) the x > 1 form at alpha = 0 is f + zeta'/zeta(0) =
    f + log 2pi, so alpha = 1 below 1 is -x (f(1/x) + log 2pi); alpha = 0
    below 1 is f itself.  selberg_rhs_gt1/lt1 are this form; general_rhs_*,
    the kernels (A/B)(rho) = Sum_i lam_i/(rho - alpha_i) with their
    zeta'/zeta terms, are Sum_i lam_i times it for F = zeta (_kernel_form
    sums it over the poles for both).  x alone picks the side of 1.
  The paper's f(x) = Sum_rho x^rho/rho is f_fixed = g + K in units of
    2^-W, W = walk_width, which f_rhs_gt1/lt1 round once and zeta's
    form reads, within g's 2 units plus K's count:
    x > 1:  g(x) = x - (1/2) log(1 - x^-2),  K = -psi0(x) - log 2pi
    0<x<1:  g(x) = log x + x - (1/2) log((1+x)/(1-x)),  K = T(x, 0) + gamma
    The finders and the scan walk K from f_const, the same K.
  f reflected: for x > 1, rho -> 1 - rho turns Sum x^rho/(1-rho) into
    x f(1/x), so
            Sum_rho x^rho/(rho(1-rho)) = f(x) + x f(1/x)
    (absolutely convergent; genuine tail bound).  cosine_rhs, the
    critical-line pairing Sum_{nu>0} 2cos(nu log x)/(1/4+nu^2), is that
    sum over sqrt(x); S_rhs_gt1 is that sum - gamma x + log 2pi.

Every prime side is one integer, arith.primed_sum, with one endpoint rule:
f_const reads it, and psi0, psi0_alpha, T_sum, selberg_psi0 and selberg_T
read x^alpha times it (arith.weighted_sum, the descriptor ones with F's
character table) at bits + 32.  Each closed form sums its parts as one
exact integer over one denominator (_add), and rounds it once, with no gcd:
the dyadic parts (f's integers, gamma, log 2pi, f_u, weighted_sum and
mpcore.power's exp_fixed of a log_fixed) aligned, the rational ones and
F'/F, an exact quotient, over their denominators.

The auxiliary series f_u(z) = Sum_{n>=1} z^n/(n+u), at real z in [0, 1)
and rational u, is real fixed point (f_u_closed): the series itself, or
Lerch's expansion about z = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import NamedTuple, Optional, Sequence, Union

from .arith import primed_sum, require_side, walk_width, weighted_sum
from .mpcore import (_GUARD, HReal, PrecisionContext, _constant, _exact, _fixed, _gamma_fixed, _log_pi,
                     _power_ratio, _round, bernoulli_table, em_log_moments, exp_fixed, log_fixed, power)
# ZeroTable and SumSpec in annotations are zeros' classes, unevaluated: zeros is
# imported inside the functions that sum zeros, so other callers never load it

Rational = Union[int, Fraction]
_K_CONST: dict[int, list[int]] = {}   # W -> f_const's gamma and -log 2pi, floored to W bits


# ----------------------------------------------------------------------
# Dirichlet L-functions (zeta: chi mod 1)
# ----------------------------------------------------------------------

def dirichlet_L(s: Rational, q: int, chi: Sequence[int],
                ctx: PrecisionContext) -> tuple[HReal, HReal]:
    """(L(s, chi), L'(s, chi)) as HReals at bits + 32 for a real character
    table chi mod q (zeta: (1,) mod 1), one Euler-Maclaurin pass per residue
    (em_log_moments, N = 1), all at one (s, 1, bits + 32), so that they
    share the plan and tables that em_log_moments keeps per key:

        L(s)  = q^(-s) Sum_{a=1}^{q} chi(a) Z_0(s, a/q)
        L'(s) = -log(q) L(s) - q^(-s) Sum_{a=1}^{q} chi(a) Z_1(s, a/q).

    At s = 1 the Z_n are the shifted Stieltjes constants gamma_n(a/q); their poles
    cancel in the character sum (Sum chi(a) = 0), so the same formulas hold there for
    non-principal chi.  The Z_n add as aligned integers (_add), q^(-s) = n/d is
    mpcore.power's, log q log_fixed's at bits + 32; each result is rounded once, over d.
    """
    s = Fraction(s)
    if s == 1 and sum(chi[a % q] for a in range(1, q + 1)) != 0:
        raise ValueError("L(s, chi) has a pole at s = 1 for a principal character")
    # The character sums cancel (by a factor of about 170 for L'(1) at
    # q = 7), so the Z_n are taken to the guard bits of the sums.
    wide, S0, S1 = PrecisionContext(ctx.bits + _GUARD), (0, 0, 1), (0, 0, 1)
    for a in range(1, q + 1):
        if c := chi[a % q]:
            (z0, _), (z1, _) = em_log_moments(s, Fraction(a, q), 1, wide)
            S0, S1 = _add(S0, (c * z0.man, z0.exp, 1)), _add(S1, (c * z1.man, z1.exp, 1))
    (n, d), V = _power_ratio(q, -s, ctx.bits), wide.bits
    m, e, _ = _add((log_fixed(q, 1, V) * S0[0], S0[1] - V, 1), S1)
    return HReal(_round((n * S0[0], S0[1]), V, d), wide), HReal(_round((-n * m, e), V, d), wide)


def _add(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """a + b of exact (n, e, d) = n 2^e/d, d != 0, no gcd: 2^e aligned, d multiplied if unequal."""
    (n, e, d), (m, f, c) = a, b
    n, m, d = (n, m, d) if d == c else (n * c, m * d, d * c)
    return ((n << e - f) + m, f, d) if e > f else (n + (m << f - e), e, d)


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


def _f_u_lerch(u: Fraction, z: Fraction, ctx: PrecisionContext) -> tuple[int, int]:
    """f_u(z) = e^(u tau) [-gamma - log tau - psi(a) - Sum_{k>=1} B_k(a)(-tau)^k/(k k!)],
    tau = -log z < 2 pi, a = 1 + u: the s -> 1 limit of Lerch's
    Phi(z, s, a) = z^(-a) [Gamma(1-s) tau^(s-1) + Sum_k zeta(s-k, a)(-tau)^k/k!]
    (Erdelyi et al., Higher Transcendental Functions I, 1953, 1.11), with
    zeta(1-k, a) = -B_k(a)/k and f_u(z) = z Phi(z, 1, a).

    The sum stops at the least K whose tail is below 2^-(W+1), W =
    walk_width(ctx): with a = t + m, t in [0, 1), m an integer, B_k(1+t) =
    B_k(t) + k t^(k-1) taken |m| times and |B_k(t)| <= 2 zeta(k) k!/(2 pi)^k
    <= 4 k!/(2 pi)^k (k >= 2) bound the tail by 4 r^(K+1)/((K+1)(1-r)) +
    c^(K+1)/((K+1)! (1 - c/(K+2))), r = tau/(2 pi), c = (|a| + 1) tau,
    taken in logs, so that no float of tau underflows near z = 1.
    E_k = D q^k B_k(a) = Sum_j C(k, j) (D B_j) q^j p^(k-j), a = p/q, D and
    the D B_j from mpcore.bernoulli_table, are integers, and the sum runs in
    integers at W: T = log_fixed(1/z) at W + bits of 1/(1 - z), within 1
    unit, keeps W bits of tau however near z is to 1; it floored to W is in
    (2^W tau - 2, 2^W tau + 1), its floored powers T_k within 3k units of
    2^W tau^k, each term E_k T_k // (D q^k k k!) floors once, so the sum errs
    by less than K + 1 + 3 Sum_k |B_k(a)|/k! units of 2^-W.  psi(a) =
    -gamma_0(a) is em_log_moments' at s = 1 and bits + 32, after psi(a) =
    psi(a + m) - Sum_{j<m} 1/(a + j) for a <= 0; its certified bound, near
    2^-(bits+31) |psi(a)|, is the largest error.  log tau is log_fixed's
    within 3 units, gamma f_const's integer one at W + 8 bits, e^(u tau)
    exp_fixed's at W; the bracket is exact, the product rounded once at
    bits + 32, as (man, exp)."""
    a, W, (zn, zd) = 1 + u, walk_width(ctx), z.as_integer_ratio()
    p, q = a.numerator, a.denominator
    m = max(0, math.floor(-a) + 1)
    (g0, _), = em_log_moments(1, a + m, 0, PrecisionContext(ctx.bits + _GUARD))
    Wt = W + (zd // (zd - zn)).bit_length()
    T = log_fixed(zd, zn, Wt)
    lr = math.log(T) - Wt * math.log(2) - math.log(2 * math.pi)   # log r
    lc = lr + math.log(2 * math.pi * (abs(float(a)) + 1))          # log c
    r, c = math.exp(lr), math.exp(lc)
    K = max(1, math.ceil(c))
    while max(math.log(4 / ((K + 1) * (1 - r))) + (K + 1) * lr,
              (K + 1) * lc - math.lgamma(K + 2) - math.log(1 - c / (K + 2))) > -(W + 2) * math.log(2):
        K += 1
    (qf, bt), Tw, Tk, S = bernoulli_table(K), T >> Wt - W, 1 << W, 0   # qf = D q^k k!
    bq = [(j, bt[j] * q ** j) for j in range(K + 1) if bt[j]]
    for k in range(1, K + 1):
        Tk, qf = Tk * Tw >> W, qf * q * k
        E = sum(math.comb(k, j) * e * p ** (k - j) for j, e in bq if j <= k)
        S += (E * Tk if k % 2 == 0 else -E * Tk) // (qf * k)
    psi = -_exact(g0) - sum((Fraction(1) / (a + j) for j in range(m)), Fraction(0))
    gamma = _exact(_constant(_gamma_fixed, W + 8))   # f_const's: one gamma per W
    bracket = -gamma - psi - Fraction(log_fixed(T, 1 << Wt, W) + S, 1 << W)
    E = exp_fixed(u.numerator * T // (u.denominator << Wt - W), W)
    return _round(E * bracket / (1 << W), ctx.bits + _GUARD)


def f_u_closed(u: Rational, z, ctx: PrecisionContext) -> HReal:
    """f_u(z) = Sum_{n>=1} z^n/(n+u) for real z in [0, 1) (a Fraction, or a
    (man, exp) pair or HReal at its exact value) and rational u, not an integer <= -1,
    at bits + 32 (not rounded to ctx), within 2^-(bits+16) (|f_u(z)| + z).
    Both routes run in integers at W = walk_width(ctx), at a cost that does not
    depend on the denominator of u: where tau = -log z >= TAU0 the series, z S 2^-W
    with S from _f_u_series, the integer S p 2^-W over q (z = p/q) rounded once with
    no gcd, so that its error stays relative to the value; below TAU0, where the series needs
    W/(tau log2 e) terms, the Lerch expansion of _f_u_lerch.  TAU0 = 1/20
    is where the two cost about the same: on a 2-core Xeon (medians of 5,
    u = 1/3 and 1/1009, ms, series/Lerch at 128, 192, 512 and 1024 bits)
    1.9/1.3, 2.5-2.7/1.4-1.5, 8.9-9.1/4.1-5.0, 26/12-23 at tau = 0.03;
    1.1-1.2/1.2-1.3, 1.6/1.5-1.7, 5.3-5.4/4.2-5.4, 14-15/15-28 at 0.05;
    0.7/1.2, 1.0/1.4-1.7, 3.1-3.3/4.5-6.1, 8.6-8.7/18-30 at 0.0625."""
    u = Fraction(u)
    if u.denominator == 1 and u <= -1:
        raise ValueError(f"f_u undefined at negative integer u = {u}")
    (zn, zd), W = (z := _exact(z)).as_integer_ratio(), walk_width(ctx)
    if not 0 <= zn < zd:
        raise ValueError(f"f_u_closed requires 0 <= z < 1, got z = {zn / zd}")
    if 2 * zn > zd and -math.log1p((zn - zd) / zd) < TAU0:
        return HReal(_f_u_lerch(u, z, ctx), ctx)
    return HReal(_round((_f_u_series(u, z, W) * zn, -W), ctx.bits + _GUARD, zd), ctx)


# ----------------------------------------------------------------------
# f(x) = Sum_rho x^rho/rho on both sides of 1, and f reflected
# ----------------------------------------------------------------------

def g(p: int, q: int, W: int) -> int:
    """The continuous part of f at x = p/q (p > q picks the side of 1) in
    units of 2^-W, within 2 (x rounded, then log_fixed at W - 1): x - (1/2)
    log(1 - 1/x^2) above 1, and below 1 log x + x - (1/2) log((1+x)/(1-x))
    (the trivial-zero contribution together with the first odd power)."""
    x = ((p << W + 1) + q) // (2 * q)
    return x - log_fixed(p * p - q * q, p * p, W - 1) if p > q else \
        x + log_fixed(p * p * (q - p), q * q * (q + p), W - 1)


def f_const(x: Fraction, ctx: PrecisionContext) -> int:
    """K = f(x) - g(x) in units of 2^-W, W = walk_width(ctx), rational
    x > 0, x != 1: -log 2pi - psi0(x) above 1, gamma + T(x, 0) below, one
    primed_sum over n <= y = x or 1/x.  K errs by less than 1 + Sum (1/n + 1)
    units over the terms taken (n = 1 above 1), each log floored at W, but 2
    in all for the terms past LOG_LIMIT above 1."""
    W, above = walk_width(ctx), x > 1
    S, e = primed_sum(x if above else 1 / x, Fraction(0 if above else 1), ctx)
    if W not in _K_CONST:   # mpmath's gamma and log 2pi at W + 8 bits, each floored to W
        lm, le = _log_pi(1, W + 8)
        _K_CONST[W] = [_fixed(_constant(_gamma_fixed, W + 8), W), _fixed((-lm, le), W)]
    return _K_CONST[W][above] + ((-S if above else S) >> -e - W)


def f_fixed(x: Fraction, ctx: PrecisionContext) -> int:
    """f(x) = g(x) + f_const(x) in units of 2^-W, W = walk_width(ctx),
    within g's 2 units plus K's count: f's one assembly."""
    return g(x.numerator, x.denominator, walk_width(ctx)) + f_const(x, ctx)


def f_rhs_gt1(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted Sum_rho x^rho/rho for rational x > 1, f = g - psi0 - log 2pi
    (psi0 half-corrected at prime powers): f_fixed, within g's 2 units of
    2^-W plus K's count (f_const), rounded once."""
    x = require_side("f_rhs_gt1", Fraction(x), True)
    return ctx.real((f_fixed(x, ctx), -walk_width(ctx)))


def f_rhs_lt1(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted Sum_rho x^rho/rho for rational 0 < x < 1, f = g + gamma +
    Sum'_{n<=1/x} Lambda(n)/n (T_sum at alpha = 0, halved at a prime power
    1/x): f_fixed, within g's 2 units of 2^-W plus K's 1 + Sum (1/n + 1),
    rounded once."""
    x = require_side("f_rhs_lt1", Fraction(x), False)
    return ctx.real((f_fixed(x, ctx), -walk_width(ctx)))


def _f_reflected(x: Fraction, ctx: PrecisionContext) -> int:
    """Sum_rho x^rho/(rho(1-rho)) = f(x) + x f(1/x), rational x > 1 (callers
    check), in units of 2^-W, W = walk_width(ctx): f_fixed(x) + floor(x
    f_fixed(1/x)), within f(x)'s count, x times f(1/x)'s, and 1 (endpoint
    halved in both)."""
    return f_fixed(x, ctx) + x.numerator * f_fixed(1 / x, ctx) // x.denominator


def cosine_rhs(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted critical-line cosine sum Sum_{nu>0} 2cos(nu log x)/(1/4+nu^2)
    for rational x > 1: (f(x) + x f(1/x))/sqrt(x), sqrt at bits + 32, rounded once."""
    x = require_side("cosine_rhs", Fraction(x), True)
    return ctx.real(Fraction(_f_reflected(x, ctx), 1 << walk_width(ctx))
                    / power(x, Fraction(1, 2), ctx))


def S_rhs_gt1(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted S(x) = Sum_rho x^rho/(rho(1-rho)) - gamma x + log 2pi
    for rational x > 1: f(x) + x f(1/x) - gamma x + log 2pi, gamma and
    log 2pi at bits + 32, summed exactly and rounded once."""
    x = require_side("S_rhs_gt1", Fraction(x), True)
    W = ctx.bits + _GUARD
    return ctx.real(Fraction(_f_reflected(x, ctx), 1 << walk_width(ctx))
                    - _exact(_constant(_gamma_fixed, W)) * x + _exact(_log_pi(1, W)))


# ----------------------------------------------------------------------
# Partial fractions
# ----------------------------------------------------------------------

class RationalFunctionPF(NamedTuple):
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
    return RationalFunctionPF(roots=roots, residues=tuple(
        sum((c * ai ** k for k, c in enumerate(coeffs)), Fraction(0))
        / math.prod(ai - aj for aj in roots if aj != ai) for ai in roots))


# ----------------------------------------------------------------------
# Selberg-class descriptors
# ----------------------------------------------------------------------

_log_deriv: dict[tuple, Fraction] = {}   # (chi, s, bits) -> (L'/L)(s, chi)


class SelbergDescriptor(NamedTuple):
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

    def log_deriv(self, s: Rational, ctx: PrecisionContext) -> Fraction:
        """(F'/F)(s) = (L'/L)(s, chi), the exact quotient of dirichlet_L's pair
        at bits + 32, zeta'/zeta at chi = (1,), taken once per (chi, s, bits);
        a zero of L (zeta's trivial zeros are exact zeros of the sum) is a pole."""
        key = (self.chi, Fraction(s), ctx.bits)
        if key not in _log_deriv:
            L, Lp = map(_exact, dirichlet_L(s, len(self.chi), self.chi, ctx))
            if not L:
                raise ValueError(f"L({s}, chi mod {len(self.chi)}) vanishes; log-derivative pole")
            _log_deriv[key] = Lp / L
        return _log_deriv[key]

    def gamma_F(self, ctx: PrecisionContext) -> Fraction:
        """The constant term in -F'/F(s) = m_F/(s-1) - gamma_F + O(s-1), exactly:
        Euler's constant at bits + 32 at zeta's pole, else (L'/L)(1, chi)."""
        return _exact(_constant(_gamma_fixed, ctx.bits + _GUARD)) if self.m_F else self.log_deriv(1, ctx)


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
    return not any(all(chi[n % q] == 1 for n in range(1, q + 1)
                       if n % f == 1 % f and math.gcd(n, q) == 1)
                   for f in range(1, q) if q % f == 0)


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
    require_side("selberg_psi0", x, True)
    return HReal(weighted_sum(x, alpha, ctx, F.chi), ctx)


def selberg_T(x: Rational, alpha: Rational, F: SelbergDescriptor,
              ctx: PrecisionContext) -> HReal:
    """T(x, F, alpha) = x^alpha Sum_{n<1/x} Lambda_F(n)/n^(1-alpha) plus
    (x/2) Lambda_F(1/x) when 1/x is a prime power: the plain T_sum with
    F's character."""
    require_side("selberg_T", x, False)
    return HReal(weighted_sum(x, alpha, ctx, F.chi), ctx)


def _descriptor_form(x: Fraction, alpha: Fraction, F: SelbergDescriptor,
                     ctx: PrecisionContext) -> tuple[int, int, int]:
    """The descriptor form of the module docstring, exactly, as (n, e, d) = n 2^e/d (_add), from
    values at bits + 32, in one pass at (y, beta) = (x, alpha) above 1 and (1/x, 1 - alpha) below 1.
    With m_F > 0, beta = 0 is f(y) + log 2pi and beta = 1 the polar term (refused above 1, f(x)
    below 1).  An integer u_j = mu_j + beta lambda_j <= 0 is refused before the prime sum.  The
    dyadic parts (f, log 2pi, f_u, psi0, power's) enter as integers, the rational ones over d."""
    above = x > 1
    y, beta = (x, alpha) if above else (1 / x, 1 - alpha)
    if F.m_F and beta in (0, 1):
        if above and beta == 1:
            raise ValueError("alpha = 1 sits on the polar term")
        # f(x) below 1 at alpha = 0, else f(y) + zeta'/zeta(0)
        f = (f_fixed(x if beta else y, ctx), -walk_width(ctx), 1)
        n, e, _ = f if beta else _add(f, (*_log_pi(1, ctx.bits + _GUARD), 1))
        return (n, e, 1) if above or beta else (-x.numerator * n, e, x.denominator)
    (yn, yd), (bn, bd) = y.as_integer_ratio(), beta.as_integer_ratio()
    acc = (F.m_F * bd * (yn * bn - yd * (bd - bn)), 0, yd * (bd - bn) * bn) if F.m_F else (0, 0, 1)
    for lam, mu in F.gamma_factors:
        if (u := mu + lam * beta).denominator == 1 and u <= 0:
            raise ValueError("alpha = 0 is a pole: the polar term and the trivial "
                             "zeros at 0 do not cancel" if above and alpha == 0 else
                             f"alpha = {alpha} hits the trivial-zero chain "
                             f"(lambda={lam}, mu={mu})")
        (zn, zd), fu = _power_ratio(y, -mu / lam, ctx.bits), f_u_closed(u, power(y, -1 / lam, ctx), ctx)
        n, e, d = _add((fu.man, fu.exp, 1), (u.denominator, 0, u.numerator))   # z = y^-2 at lambda = 1/2
        acc = _add(acc, (lam.numerator * zn * n, e, lam.denominator * zd * d))
    n, e, d = _add(acc, (-(psi := selberg_psi0(y, beta, F, ctx)).man, psi.exp, 1))
    g = F.gamma_F(ctx).as_integer_ratio() if alpha == 0 and not above else (0, 1)
    return (n, e, d) if above else _add((-x.numerator * n, e, x.denominator * d), (g[0], 0, g[1]))


def _kernel_form(x: Fraction, poles: Sequence[Fraction], weights: Sequence[Rational],
                 F: SelbergDescriptor, ctx: PrecisionContext) -> HReal:
    """Sum_i weights[i] times the descriptor form of F at poles[i]: one exact
    integer over one denominator (_add), rounded once with no gcd, the one
    assembly of every selberg_rhs_* (one pole, weight 1) and general_rhs_*."""
    n, e, d = reduce(_add, ((w.numerator * n, e, w.denominator * d) for w, (n, e, d) in zip(
        weights, (_descriptor_form(x, a, F, ctx) for a in poles))), (0, 0, 1))
    return HReal(_round((n, e), ctx.bits, d), ctx)


def selberg_rhs_gt1(x: Rational, alpha: Rational, F: SelbergDescriptor,
                    ctx: PrecisionContext) -> HReal:
    """Predicted value of x^alpha (F'/F)(alpha) + Sum_rho x^rho/(rho-alpha)
    for rational x > 1: the descriptor form (module docstring).  The zero
    sum runs over the non-trivial zeros of F itself.  alpha = 0 is
    refused when m_F > 0: for zeta that case is the von-mangoldt
    identity (f + log 2pi, which general_rhs_gt1 gives)."""
    x, alpha = require_side("selberg_rhs_gt1", Fraction(x), True), Fraction(alpha)
    if F.m_F > 0 and alpha == 0:
        raise ValueError("alpha = 0 is excluded when m_F > 0")
    return _kernel_form(x, (alpha,), (1,), F, ctx)


def selberg_rhs_lt1(x: Rational, alpha: Union[Rational, str],
                    F: SelbergDescriptor, ctx: PrecisionContext) -> HReal:
    """Predicted zero-sum side for rational 0 < x < 1 (zeros of the
    conjugate-coefficient function, the same for the real descriptors
    here): the descriptor form.  alpha = 0 (or "zero") predicts
    Sum_rho x^rho/rho, f_fixed itself for zeta; any other alpha
    Sum_rho x^rho/(rho-alpha) - x^alpha (F'/F)(1-alpha), -x times the x > 1
    form at (1/x, 1 - alpha): -x (f(1/x) + log 2pi) for zeta at alpha = 1."""
    x = require_side("selberg_rhs_lt1", Fraction(x), False)
    alpha = Fraction(0) if alpha == "zero" else Fraction(alpha)
    return _kernel_form(x, (alpha,), (1,), F, ctx)


# ----------------------------------------------------------------------
# Rational kernels: Sum_i lam_i times the zeta descriptor form
# ----------------------------------------------------------------------

def general_rhs_gt1(x: Rational, pf: RationalFunctionPF,
                    ctx: PrecisionContext) -> HReal:
    """Predicted value of

        Sum_rho (A/B)(rho) x^rho + Sum_i lam_i (zeta'/zeta)(alpha_i) x^alpha_i

    for rational x > 1, every alpha_i in Q outside {1, -2, -4, ...}:
    Sum_i lam_i times the zeta descriptor form at alpha_i, which at
    alpha_i = 0 is f_fixed + log 2pi, with no f_u series."""
    x = require_side("general_rhs_gt1", Fraction(x), True)
    return _kernel_form(x, pf.roots, pf.residues, descriptor_zeta(), ctx)


def general_rhs_lt1(x: Rational, pf: RationalFunctionPF,
                    ctx: PrecisionContext) -> HReal:
    """Predicted value of

        Sum_rho (A/B)(rho) x^rho - Sum_i lam_i (zeta'/zeta)(1-alpha_i) x^alpha_i

    for rational 0 < x < 1, every alpha_i in Q outside {0, 3, 5, ...}:
    Sum_i lam_i times the zeta descriptor form at alpha_i.  A pole at 0
    is refused: there the f-type identity (ingham) applies."""
    x = require_side("general_rhs_lt1", Fraction(x), False)
    if 0 in pf.roots:
        raise ValueError("alpha = 0 is excluded (1/alpha term)")
    return _kernel_form(x, pf.roots, pf.residues, descriptor_zeta(), ctx)


# ----------------------------------------------------------------------
# Verification reports
# ----------------------------------------------------------------------

IDENTITY_IDS = ("von-mangoldt", "ingham", "cosine", "s",
                "general-gt1", "general-lt1", "selberg-gt1", "selberg-lt1")


class EvalReport(NamedTuple):
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
    from .zeros import cosine_term, density_tail, xrho_term, zero_sum
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

    # term: the zero-sum kernel; extra: the F'/F term added to it, exactly.
    extra: Optional[Fraction] = None
    if identity in ("von-mangoldt", "ingham"):
        term = xrho_term(x, (0,), (1,))
        rhs = (f_rhs_gt1 if identity == "von-mangoldt" else f_rhs_lt1)(x, ctx)
    elif identity == "cosine":
        term = cosine_term(x)
        rhs = cosine_rhs(x, ctx)
    elif identity == "s":
        term = xrho_term(x, (0, 1), (1, -1))
        rhs = ctx.real((_f_reflected(require_side("the s identity", x, True), ctx),
                        -walk_width(ctx)))
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
            extra = (1 if gt1 else -1) * sum(w * power(x, p, ctx) * F.log_deriv(
                p if gt1 else 1 - p, ctx) for p, w in zip(poles, weights))

    def residual_at(zs: HReal) -> tuple[HReal, HReal]:
        lhs = zs if extra is None else ctx.real(_exact(zs) + extra)
        return lhs, ctx.real(_exact(lhs) - _exact(rhs))

    count = len(spec.select(table))
    half = max(1, count // 2)
    (zs_half, zs), terms = zero_sum(table, spec, term, ctx, cuts=(half, count))
    lhs, residual = residual_at(zs)
    tail: Optional[HReal] = None
    trend: Optional[dict] = None
    if identity == "s":  # a pair adds at most 2 sqrt(x)/gamma^2; safety factor 2
        tail = density_tail(table, terms, 4 * power(x, Fraction(1, 2), ctx), ctx)
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

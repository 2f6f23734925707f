"""Closed-form right-hand sides of the explicit formulas, partial-fraction
generalizations, Selberg-class descriptors, and residual verification.

Identity inventory (all verified against zero sums through verify_identity):

  x > 1:   Sum_rho x^rho/rho           = x - psi0(x) - log 2pi - (1/2) log(1 - 1/x^2)
  0<x<1:   Sum_rho x^rho/rho           = Sum'_{n<=1/x} Lambda(n)/n + log x + gamma
                                         - (1/2) log((1+x)/(1-x)) + x
  x > 1:   Sum_{nu>0} 2cos(nu log x)/(1/4+nu^2)
                                       = the critical-line pairing of the two above
  x > 1:   Sum_rho x^rho/(rho(1-rho))  = S_rhs(x) + gamma x - log 2pi   (absolutely
                                         convergent; genuine tail bound)
  general: Sum_rho (A/B)(rho) x^rho + Sum_i lam_i (zeta'/zeta)(alpha_i) x^alpha_i
                                       = x Sum_i lam_i/(1-alpha_i)
                                         - Sum_i lam_i psi0(x, alpha_i)
                                         + Sum_i lam_i (1/2) f_{alpha_i/2}(x^-2)
  and the Selberg-class forms generalizing both ranges to descriptors
  (m_F, Q, {lambda_j, mu_j}, w, Lambda_F).

The auxiliary series f_u(z) = Sum_{n>=1} z^n/(n+u) is evaluated through a
roots-of-unity closed form DERIVED AND VALIDATED against the defining
series (see f_u_closed).

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
from typing import Callable, Optional, Sequence, Union

import mpmath
from mpmath import mpf, mpc

from .arith import (
    psi0 as arith_psi0,
    psi0_alpha,
    shared_table,
    T_sum,
)
from .mpcore import (
    HComplex,
    HReal,
    PrecisionContext,
    hurwitz_zeta,
    hurwitz_zeta_ds,
)
from .zeros import (
    SumSpec,
    ZeroTable,
    cosine_term,
    tail_estimate,
    xrho_term,
    zero_sum,
)

_GUARD = 32

Rational = Union[int, Fraction]


# ----------------------------------------------------------------------
# Logarithmic derivative of zeta and of Dirichlet L-functions
# ----------------------------------------------------------------------

def zeta_log_deriv(s: Rational, ctx: PrecisionContext) -> HReal:
    """(zeta'/zeta)(s) for real rational s, s != 1, away from the zeros.

    Special values with classical closed forms are hard-wired:
      s = 0   -> log 2pi
      s = 1/2 -> gamma/2 + pi/4 + (3/2) log 2 + (1/2) log pi
    Elsewhere the value is the ratio of the Euler-Maclaurin evaluations
    of zeta'(s) and zeta(s); the test suite cross-checks the hard-wired
    values against the ratio route and, for s > 1, against the
    prime-power Dirichlet series.
    """
    s = Fraction(s)
    if s == 1:
        raise ValueError("zeta'/zeta has a pole at s = 1")
    if s.denominator == 1 and s < 0 and s.numerator % 2 == 0:
        raise ValueError(f"zeta'/zeta has a pole at the trivial zero s = {s}")
    with ctx.workprec(_GUARD):
        if s == 0:
            return ctx.real(mpmath.log(2 * mpmath.pi))
        if s == Fraction(1, 2):
            v = (mpmath.euler / 2 + mpmath.pi / 4
                 + 3 * mpmath.log(2) / 2 + mpmath.log(mpmath.pi) / 2)
            return ctx.real(v)
        num, _ = hurwitz_zeta_ds(s, 1, ctx)
        den, _ = hurwitz_zeta(s, 1, ctx)
        return ctx.real(num.val / den.val)


def dirichlet_L(s: Rational, q: int, chi: Sequence[int],
                ctx: PrecisionContext) -> tuple[mpf, mpf]:
    """(L(s, chi), L'(s, chi)) for a real character table chi mod q,
    via L(s) = q^(-s) Sum_{a=1}^{q} chi(a) zeta(s, a/q).

    At s = 1 the individual Hurwitz terms have poles that cancel in the
    character sum (Sum chi(a) = 0); the regular parts are the shifted
    Stieltjes constants, giving the pole-free route

        L(1)  = (1/q) Sum_a chi(a) gamma_0(a/q)
        L'(1) = -log(q) L(1) - (1/q) Sum_a chi(a) gamma_1(a/q).
    """
    s = Fraction(s)
    if s == 1:
        if sum(chi[a % q] for a in range(1, q + 1)) != 0:
            raise ValueError("L(1) route requires a non-principal character")
        from .liconst import stieltjes_shifted
        with ctx.workprec(_GUARD):
            L = mpf(0)
            G1 = mpf(0)
            for a in range(1, q + 1):
                c = chi[a % q]
                if c == 0:
                    continue
                g0, _ = stieltjes_shifted(0, Fraction(a, q), ctx)
                g1, _ = stieltjes_shifted(1, Fraction(a, q), ctx)
                L += c * g0.val
                G1 += c * g1.val
            value = L / q
            deriv = -mpmath.log(q) * value - G1 / q
            return value, deriv
    with ctx.workprec(_GUARD):
        L = mpf(0)
        Lp = mpf(0)
        for a in range(1, q + 1):
            c = chi[a % q]
            if c == 0:
                continue
            frac_a = Fraction(a, q)
            z, _ = hurwitz_zeta(s, frac_a, ctx)
            zd, _ = hurwitz_zeta_ds(s, frac_a, ctx)
            L += c * z.val
            Lp += c * zd.val
        qs = ctx.mpf(q) ** (-ctx.mpf(s))
        logq = mpmath.log(q)
        value = qs * L
        deriv = -logq * value + qs * Lp
        return value, deriv


def dirichlet_log_deriv(s: Rational, q: int, chi: Sequence[int],
                        ctx: PrecisionContext) -> HReal:
    """(L'/L)(s, chi) for a real character table chi mod q."""
    with ctx.workprec(_GUARD):
        L, Lp = dirichlet_L(s, q, chi, ctx)
        if L == 0:
            raise ValueError(f"L({s}, chi mod {q}) vanishes; log-derivative pole")
        return ctx.real(Lp / L)


# ----------------------------------------------------------------------
# The auxiliary series f_u(z) = Sum_{n>=1} z^n / (n+u)
# ----------------------------------------------------------------------

def f_u_series(u: Union[Rational, float], z, ctx: PrecisionContext,
               extra_bits: int = 0) -> HComplex:
    """Direct summation of Sum_{n>=1} z^n/(n+u) for |z| < 1; the oracle
    every closed form is validated against, and the fallback for
    irrational u."""
    with ctx.workprec(_GUARD + extra_bits):
        uv = ctx.mpf(Fraction(u)) if isinstance(u, (int, Fraction)) else mpf(u)
        zv = z.val if isinstance(z, (HComplex, HReal)) else mpc(z)
        az = abs(zv)
        if az >= 1:
            raise ValueError(f"f_u series requires |z| < 1, got |z| = {az}")
        if az == 0:
            return ctx.complex(0)
        target = mpf(2) ** (-(ctx.bits + _GUARD + extra_bits))
        acc = mpc(0)
        zpow = mpc(1)
        for n in range(1, 10_000_000):
            if n + uv == 0:
                raise ValueError(f"series term n + u = 0 at n = {n}")
            zpow *= zv
            acc += zpow / (n + uv)
            if abs(zpow) / max(1, abs(1 + n + uv)) < target:
                break
        return HComplex(acc, ctx)


def _f_u_base(p: int, q: int, zv: mpc, ctx: PrecisionContext) -> mpc:
    """Closed form on the base range u = p/q, 0 <= p < q, |z| < 1:

        f_u(z) = z^(-p/q) [ -Sum_{m=0}^{q-1} zq^(-pm) log(1 - zq^m w) ]
                 - q/p  (the k = p boundary term, only when p >= 1)

    with w = z^(1/q) the principal root and zq = e^(2 pi i / q);
    equivalently q z^(-p/q) Sum_{k = p mod q, k > p} w^k / k via the
    roots-of-unity filter.  Principal branch of every logarithm.
    """
    w = mpmath.exp(mpmath.log(zv) / q) if zv.imag != 0 or zv.real < 0 \
        else mpc(mpmath.root(zv.real, q))
    acc = mpc(0)
    for m in range(q):
        zq_m = mpmath.expjpi(mpf(2 * m) / q)
        zq_neg_pm = mpmath.expjpi(mpf(-2 * p * m) / q)
        acc += zq_neg_pm * mpmath.log(1 - zq_m * w)
    value = -acc * w ** (-p)
    if p >= 1:
        value -= mpf(q) / p
    return value


def f_u_closed(u: Rational, z, ctx: PrecisionContext) -> HComplex:
    """f_u(z) = Sum_{n>=1} z^n/(n+u) for rational u and |z| < 1, via the
    roots-of-unity closed form.

    u outside [0, 1) is reduced to the base range through the exact
    shift recursion f_{v+1}(z) = (f_v(z) - z/(1+v))/z (equivalently
    f_v(z) = z f_{v+1}(z) + z/(1+v)); negative integers u are poles of
    a series term and rejected.  z = 0 returns 0 (empty series); |z|
    below 2^(-bits/2) is summed directly as a cancellation guard.
    """
    u = Fraction(u)
    if u.denominator == 1 and u <= -1:
        raise ValueError(f"f_u undefined at negative integer u = {u}")
    with ctx.workprec(_GUARD):
        zv = z.val if isinstance(z, (HComplex, HReal)) else mpc(z)
        az = abs(zv)
        if az >= 1:
            raise ValueError(f"f_u_closed requires |z| < 1, got |z| = {az}")
        if az == 0:
            return ctx.complex(0)
        if az < mpf(2) ** (-(ctx.bits // 2)):
            return f_u_series(u, HComplex(zv, ctx), ctx)
        shift = u.numerator // u.denominator  # floor
        base = u - shift
        value = _f_u_base(base.numerator, base.denominator, zv, ctx)
        if shift > 0:
            v = base
            for _ in range(shift):
                value = (value - zv / (1 + v)) / zv
                v += 1
        elif shift < 0:
            v = base
            for _ in range(-shift):
                v -= 1
                value = zv * value + zv / (1 + v)
        return HComplex(value, ctx)


# ----------------------------------------------------------------------
# Plain-zeta right-hand sides (x > 1, x < 1, cosine pairing, S)
# ----------------------------------------------------------------------

def L_weighted(x: Rational, ctx: PrecisionContext) -> HReal:
    """L(x) = Sum'_{n<=x} Lambda(n)/n for rational x > 1, with the
    boundary term halved at a prime power; equals psi0_alpha(x, 1)/x
    exactly, including the branch behavior."""
    x = Fraction(x)
    with ctx.workprec(_GUARD):
        return ctx.real(psi0_alpha(x, Fraction(1), ctx).val / ctx.mpf(x))


def f_rhs_gt1(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted Sum_rho x^rho/rho for rational x > 1:

        f(x) = x - psi0(x) - log 2pi - (1/2) log(1 - 1/x^2),

    psi0 half-corrected at prime powers."""
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"f_rhs_gt1 requires x > 1, got {x}")
    psi, _ = arith_psi0(x, ctx)
    with ctx.workprec(_GUARD):
        xv = ctx.mpf(x)
        v = xv - psi.val - mpmath.log(2 * mpmath.pi) - mpmath.log(1 - 1 / (xv * xv)) / 2
    return ctx.real(v)


def f_rhs_lt1(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted Sum_rho x^rho/rho for rational 0 < x < 1:

        Sum'_{n<=1/x} Lambda(n)/n + log x + gamma
        - (1/2) log((1+x)/(1-x)) + x,

    the primed sum halving the boundary term when 1/x is a prime power
    (T_sum at alpha = 0); the log((1+x)/(1-x)) piece is the trivial-zero
    contribution together with the first odd power."""
    x = Fraction(x)
    if not (0 < x < 1):
        raise ValueError(f"f_rhs_lt1 requires 0 < x < 1, got {x}")
    t = T_sum(x, Fraction(0), ctx)
    with ctx.workprec(_GUARD):
        xv = ctx.mpf(x)
        v = (t.val + mpmath.log(xv) + mpmath.euler
             - mpmath.log((1 + xv) / (1 - xv)) / 2 + xv)
    return ctx.real(v)


def cosine_rhs(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted critical-line cosine sum Sum_{nu>0} 2cos(nu log x)/(1/4+nu^2)
    for rational x > 1, assembled from the weighted prime sums:

        (x - psi0(x))/sqrt(x) - log(2pi)/sqrt(x)
        - (1/(2 sqrt x)) log(1 - 1/x^2) + sqrt(x) (L(x) - log x)
        + gamma sqrt(x) - (sqrt(x)/2) log((x+1)/(x-1)) + 1/sqrt(x)."""
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"cosine_rhs requires x > 1, got {x}")
    psi, _ = arith_psi0(x, ctx)
    Lx = L_weighted(x, ctx)
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


def S_rhs_gt1(x: Rational, ctx: PrecisionContext) -> HReal:
    """Predicted S(x) = Sum_rho x^rho/(rho(1-rho)) - gamma x + log 2pi
    for rational x > 1:

        1 + x (L(x) - log x) + x - psi0(x)
        - (x/2) log((x+1)/(x-1)) - (1/2) log(1 - 1/x^2)."""
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"S_rhs_gt1 requires x > 1, got {x}")
    psi, _ = arith_psi0(x, ctx)
    Lx = L_weighted(x, ctx)
    with ctx.workprec(_GUARD):
        xv = ctx.mpf(x)
        v = (1 + xv * (Lx.val - mpmath.log(xv)) + xv - psi.val
             - xv * mpmath.log((xv + 1) / (xv - 1)) / 2
             - mpmath.log(1 - 1 / (xv * xv)) / 2)
    return ctx.real(v)


# ----------------------------------------------------------------------
# Partial fractions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFunctionPF:
    """A(t)/B(t) with B = prod (t - alpha_i), deg A < #roots, in
    partial-fraction form Sum_i residues[i]/(t - roots[i])."""

    A: tuple[Fraction, ...]         # polynomial coefficients, low order first
    roots: tuple[Fraction, ...]     # distinct rational poles alpha_i
    residues: tuple[Fraction, ...]  # lam_i = A(alpha_i)/B'(alpha_i)

    def eval_A(self, t: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.A):
            acc = acc * t + c
        return acc

    def eval_B(self, t: Fraction) -> Fraction:
        acc = Fraction(1)
        for r in self.roots:
            acc *= t - r
        return acc

    def eval_pf(self, t: Fraction) -> Fraction:
        """Sum_i residues[i]/(t - roots[i]); raises at a pole."""
        acc = Fraction(0)
        for lam, r in zip(self.residues, self.roots):
            acc += lam / (t - r)
        return acc


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
    return RationalFunctionPF(A=coeffs, roots=roots, residues=tuple(residues))


# ----------------------------------------------------------------------
# Partial-fraction generalized right-hand sides
# ----------------------------------------------------------------------

def _check_gt1_alpha(alpha: Fraction) -> None:
    if alpha == 1:
        raise ValueError("alpha = 1 sits on the pole of zeta")
    if alpha.denominator == 1 and alpha < 0 and alpha.numerator % 2 == 0:
        raise ValueError(f"alpha = {alpha} sits on a trivial zero")


def general_rhs_gt1(x: Rational, pf: RationalFunctionPF,
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


def general_rhs_lt1(x: Rational, pf: RationalFunctionPF,
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


# ----------------------------------------------------------------------
# Selberg-class descriptors
# ----------------------------------------------------------------------

CoeffProvider = Callable[[int, PrecisionContext], mpc]


@dataclass(frozen=True)
class SelbergDescriptor:
    """Data defining an element of the (arithmetic) Selberg class.

    gamma_factors are the (lambda_j, mu_j) of the completed-function
    Gamma factors; coeffs provides Lambda_F(n); gamma_F is the constant
    term in -F'/F(s) = m_F/(s-1) - gamma_F + O(s-1), required only by
    the x < 1, alpha = 0 formula when m_F > 0.  Q_expr is a tiny
    expression language ("1/sqrt(pi)", "sqrt(<q>/pi)", or a decimal)
    so descriptors stay precision-independent.
    """

    label: str
    m_F: int                                   # pole order at s = 1, >= 0
    Q_expr: str                                # positive real, see Q()
    gamma_factors: tuple[tuple[Fraction, Fraction], ...]  # (lambda_j, mu_j)
    w: complex                                 # root number, |w| = 1
    coeffs: CoeffProvider                      # n -> Lambda_F(n)
    gamma_F: Optional[Callable[[PrecisionContext], mpf]] = None
    log_deriv: Optional[Callable[[Fraction, PrecisionContext], mpf]] = None

    def Q(self, ctx: PrecisionContext) -> mpf:
        return _eval_q_expr(self.Q_expr, ctx)

    def degree(self) -> Fraction:
        return 2 * sum(lam for lam, _ in self.gamma_factors)

    def conductor(self, ctx: PrecisionContext) -> mpf:
        """q_F = (2 pi)^d_F Q^2 prod lambda_j^(2 lambda_j)."""
        with ctx.workprec(_GUARD):
            d = self.degree()
            q = (2 * mpmath.pi) ** ctx.mpf(d) * self.Q(ctx) ** 2
            for lam, _ in self.gamma_factors:
                q *= ctx.mpf(lam) ** (2 * ctx.mpf(lam))
            return q

    def theta_shift(self) -> float:
        """theta_F = 2 Im Sum (mu_j - 1/2); zero for real mu_j."""
        return 2 * sum(complex(mu).imag for _, mu in self.gamma_factors)

    def validate(self, ctx: PrecisionContext, arithmetic: bool = True) -> None:
        """Axiom checks: lambda_j > 0, |w| = 1; for the arithmetic class,
        rational lambda/mu with mu >= 0 and q_F near a natural number."""
        for lam, mu in self.gamma_factors:
            if lam <= 0:
                raise ValueError(f"lambda_j must be > 0, got {lam}")
            if arithmetic and mu < 0:
                raise ValueError(f"arithmetic class requires mu_j >= 0, got {mu}")
        if abs(abs(self.w) - 1) > 1e-12:
            raise ValueError(f"|w| must be 1, got {abs(self.w)}")
        if arithmetic:
            with ctx.workprec():
                q = self.conductor(ctx)
                if abs(q - mpmath.nint(q)) > mpf(2) ** (-(ctx.bits // 2)) or q < mpf(1) / 2:
                    raise ValueError(f"conductor {q} is not a natural number")


def _eval_q_expr(expr: str, ctx: PrecisionContext) -> mpf:
    """Evaluate a descriptor Q expression: "1/sqrt(pi)", "sqrt(N/pi)"
    with N a positive integer, or a plain decimal literal."""
    e = expr.strip().replace(" ", "")
    with ctx.workprec(_GUARD):
        if e == "1/sqrt(pi)":
            return 1 / mpmath.sqrt(mpmath.pi)
        if e.startswith("sqrt(") and e.endswith("/pi)"):
            n = int(e[len("sqrt("):-len("/pi)")])
            return mpmath.sqrt(n / mpmath.pi)
        return mpf(e)


def _zeta_coeffs(n: int, ctx: PrecisionContext) -> mpc:
    t = shared_table(max(n, 2))
    p = t.entries[n] if n >= 2 else 0
    if p == 0:
        return mpc(0)
    with ctx.workprec(_GUARD):
        return mpc(mpmath.log(p))


def descriptor_zeta() -> SelbergDescriptor:
    """The descriptor of zeta itself: m_F = 1, Q = pi^(-1/2), one Gamma
    factor (1/2, 0), w = 1, Lambda_F = Lambda, gamma_F = Euler's
    constant; degree 1, conductor 1."""
    return SelbergDescriptor(
        label="zeta",
        m_F=1,
        Q_expr="1/sqrt(pi)",
        gamma_factors=((Fraction(1, 2), Fraction(0)),),
        w=1 + 0j,
        coeffs=_zeta_coeffs,
        gamma_F=lambda ctx: +ctx.euler_gamma,
        log_deriv=lambda s, ctx: zeta_log_deriv(s, ctx).val,
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
    mod q: m_F = 0, Q = sqrt(q/pi), one factor (1/2, a/2) with a the
    parity (chi(-1) = (-1)^a), Lambda_F(n) = chi(n) Lambda(n), w from
    the Gauss sum tau(chi)/(i^a sqrt q), gamma_F = (L'/L)(1, chi)."""
    chi = tuple(chi)
    if len(chi) != q:
        raise ValueError("character table length must equal the modulus")
    if not _is_primitive_real(q, chi):
        raise ValueError(f"character mod {q} is imprimitive")
    a = 0 if chi[(q - 1) % q] == 1 else 1
    with ctx.workprec(_GUARD):
        tau = mpc(0)
        for n in range(1, q + 1):
            if chi[n % q]:
                tau += chi[n % q] * mpmath.expjpi(mpf(2 * n) / q)
        w = tau / (mpc(0, 1) ** a * mpmath.sqrt(q))
        w_c = complex(w)

    def coeffs(n: int, c: PrecisionContext) -> mpc:
        base = _zeta_coeffs(n, c)
        return chi[n % q] * base

    return SelbergDescriptor(
        label=f"dirichlet-{q}",
        m_F=0,
        Q_expr=f"sqrt({q}/pi)",
        gamma_factors=((Fraction(1, 2), Fraction(a, 2)),),
        w=w_c,
        coeffs=coeffs,
        gamma_F=lambda c: dirichlet_log_deriv(1, q, chi, c).val,
        log_deriv=lambda s, c: dirichlet_log_deriv(s, q, chi, c).val,
    )


def load_descriptor(text: str, ctx: PrecisionContext) -> SelbergDescriptor:
    """Parse the plain key-value descriptor format:

        label = zeta
        m_F = 1
        Q = 1/sqrt(pi)
        gamma_factors = (1/2, 0)
        w = 1
        coeffs = builtin:zeta
        gamma_F = euler            # optional

    gamma_factors takes ';'-separated (lambda, mu) pairs of rationals;
    coeffs is builtin:zeta or dirichlet:q,1 (the real primitive
    quadratic character mod q, from the Kronecker symbol); w is a
    decimal or 'a+bi'.  Unknown keys are rejected."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"descriptor line {lineno}: expected key = value")
        k, v = line.split("=", 1)
        fields[k.strip()] = v.strip()
    known = {"label", "m_F", "Q", "gamma_factors", "w", "coeffs", "gamma_F"}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown descriptor keys: {sorted(unknown)}")
    source = fields.get("coeffs", "")
    if source == "builtin:zeta":
        return descriptor_zeta()
    if source.startswith("dirichlet:"):
        spec_part = source[len("dirichlet:"):]
        q_str, idx = (spec_part.split(",") + ["1"])[:2]
        q = int(q_str)
        if idx.strip() != "1":
            raise ValueError("only character index 1 (quadratic) is supported")
        d = q if q % 2 == 1 else q // 4
        from .arith import discriminant_of, kronecker_chi
        if discriminant_of(d) != q:
            raise ValueError(f"no odd quadratic character of conductor {q}")
        return descriptor_dirichlet(q, kronecker_chi(d), ctx)
    raise ValueError(f"unknown coefficient source {source!r}")


# ----------------------------------------------------------------------
# Selberg-class weighted prime sums and right-hand sides
# ----------------------------------------------------------------------

def selberg_psi0(x: Rational, alpha: Rational, F: SelbergDescriptor,
                 ctx: PrecisionContext) -> HComplex:
    """psi0(x, F, alpha) = x^alpha Sum_{n<x} Lambda_F(n)/n^alpha plus the
    unweighted Lambda_F(x)/2 when x is a prime power (same branch rule
    as the plain psi0_alpha)."""
    x = Fraction(x)
    alpha = Fraction(alpha)
    if x <= 1:
        raise ValueError(f"selberg_psi0 requires x > 1, got {x}")
    n_max = x.numerator // x.denominator
    is_pp = x.denominator == 1 and shared_table(max(n_max, 2)).is_prime_power(x.numerator)
    if is_pp:
        n_max -= 1
    with ctx.workprec(_GUARD):
        av = ctx.mpf(alpha)
        acc = mpc(0)
        for n in range(2, n_max + 1):
            lam_n = F.coeffs(n, ctx)
            if lam_n != 0:
                acc += lam_n * mpf(n) ** (-av)
        total = ctx.mpf(x) ** av * acc
        if is_pp:
            total += F.coeffs(x.numerator, ctx) / 2
    with ctx.workprec():
        return HComplex(mpc(total), ctx)


def selberg_T(x: Rational, alpha: Rational, F: SelbergDescriptor,
              ctx: PrecisionContext) -> HComplex:
    """T(x, F, alpha) = x^alpha Sum_{n<1/x} Lambda_F(n)/n^(1-alpha) plus
    (x/2) Lambda_F(1/x) when 1/x is a prime power."""
    x = Fraction(x)
    alpha = Fraction(alpha)
    if not (0 < x < 1):
        raise ValueError(f"selberg_T requires 0 < x < 1, got {x}")
    inv = 1 / x
    n_max = inv.numerator // inv.denominator
    is_pp = inv.denominator == 1 and shared_table(max(n_max, 2)).is_prime_power(inv.numerator)
    if is_pp:
        n_max -= 1
    with ctx.workprec(_GUARD):
        av = ctx.mpf(alpha)
        acc = mpc(0)
        for n in range(2, n_max + 1):
            lam_n = F.coeffs(n, ctx)
            if lam_n != 0:
                acc += lam_n * mpf(n) ** (av - 1)
        xv = ctx.mpf(x)
        total = xv ** av * acc
        if is_pp:
            total += xv * F.coeffs(inv.numerator, ctx) / 2
    with ctx.workprec():
        return HComplex(mpc(total), ctx)


def _trivial_zero_guard_gt1(alpha: Fraction, F: SelbergDescriptor) -> None:
    # alpha must avoid -(n + mu_j)/lambda_j for n >= 0 (the trivial zeros).
    for lam, mu in F.gamma_factors:
        t = -(alpha * lam + mu)  # = n requires n >= 0 integer
        if t.denominator == 1 and t >= 0:
            raise ValueError(f"alpha = {alpha} hits the trivial zero chain "
                             f"(lambda={lam}, mu={mu})")


def selberg_rhs_gt1(x: Rational, alpha: Rational, F: SelbergDescriptor,
                    ctx: PrecisionContext) -> HComplex:
    """Predicted value of x^alpha (F'/F)(alpha) + Sum_rho x^rho/(rho-alpha)
    for rational x > 1:

        m_F x/(1-alpha) - psi0(x, F, alpha)
        + Sum_j [ lambda_j x^(-mu_j/lambda_j) f_{mu_j + alpha lambda_j}(x^(-1/lambda_j))
                  + x^(-mu_j/lambda_j) / (mu_j/lambda_j + alpha) ]
        - m_F/alpha.

    The zero sum runs over the non-trivial zeros of F itself."""
    x = Fraction(x)
    alpha = Fraction(alpha)
    if x <= 1:
        raise ValueError(f"selberg_rhs_gt1 requires x > 1, got {x}")
    if alpha == 1:
        raise ValueError("alpha = 1 sits on the polar term")
    if F.m_F > 0 and alpha == 0:
        raise ValueError("alpha = 0 is excluded when m_F > 0")
    _trivial_zero_guard_gt1(alpha, F)
    psi = selberg_psi0(x, alpha, F, ctx)
    with ctx.workprec(_GUARD):
        xv = ctx.mpf(x)
        acc = -psi.val
        if F.m_F:
            acc += F.m_F * xv / ctx.mpf(1 - alpha)
            acc -= mpf(F.m_F) / ctx.mpf(alpha)
        for lam, mu in F.gamma_factors:
            lamv = ctx.mpf(lam)
            xpow = xv ** (-ctx.mpf(mu) / lamv)
            z = xv ** (-1 / lamv)
            u = mu + alpha * lam
            acc += lamv * xpow * f_u_closed(u, HComplex(mpc(z), ctx), ctx).val
            acc += xpow / (ctx.mpf(mu) / lamv + ctx.mpf(alpha))
    with ctx.workprec():
        return HComplex(mpc(acc), ctx)


def selberg_rhs_lt1(x: Rational, alpha: Union[Rational, str],
                    F: SelbergDescriptor, ctx: PrecisionContext) -> HComplex:
    """Predicted zero-sum side for rational 0 < x < 1, zeros taken from
    the conjugate-coefficient function's table (identical for the real
    -coefficient descriptors shipped here).

    alpha = 0 (or "zero"): predicts Sum_rho x^rho/rho as

        T(x, F, 0) + m_F log x + gamma_F + m_F x
        - Sum_j lambda_j x^(1+mu_j/lambda_j)
              [ f_{lambda_j+mu_j}(x^(1/lambda_j)) + 1/(lambda_j+mu_j) ]

    (requires gamma_F when m_F > 0; also used for m_F = 0, where
    gamma_F = (F'/F)(1)).

    general alpha != 0: predicts Sum_rho x^rho/(rho-alpha)
    - x^alpha (F'/F)(1-alpha) as

        T(x, F, alpha) - m_F/alpha + m_F x/(1-alpha)
        - Sum_j lambda_j x^(1+mu_j/lambda_j)
              [ f_{mu_j + lambda_j (1-alpha)}(x^(1/lambda_j))
                + 1/(mu_j + lambda_j (1-alpha)) ].

    Both carry the sign corrections stated in the module docstring
    (-m_F x/(1-alpha) inside the derivation, hence the forms above),
    which reduce exactly to f_rhs_lt1 / general_rhs_lt1 for zeta.
    """
    x = Fraction(x)
    if not (0 < x < 1):
        raise ValueError(f"selberg_rhs_lt1 requires 0 < x < 1, got {x}")
    at_zero = alpha == "zero" or Fraction(alpha) == 0
    with ctx.workprec(_GUARD):
        xv = ctx.mpf(x)
        if at_zero:
            if F.gamma_F is None:
                raise ValueError("alpha = 0 form requires gamma_F")
            t = selberg_T(x, Fraction(0), F, ctx)
            acc = t.val + F.m_F * mpmath.log(xv) + F.gamma_F(ctx) + F.m_F * xv
            for lam, mu in F.gamma_factors:
                lamv = ctx.mpf(lam)
                denom = lam + mu
                if denom <= 0:
                    raise ValueError("lambda_j + mu_j must be positive")
                xpow = xv ** (1 + ctx.mpf(mu) / lamv)
                z = xv ** (1 / lamv)
                fv = f_u_closed(denom, HComplex(mpc(z), ctx), ctx).val
                acc -= lamv * xpow * (fv + 1 / ctx.mpf(denom))
            with ctx.workprec():
                return HComplex(mpc(acc), ctx)

        alpha = Fraction(alpha)
        if alpha == 1 and F.m_F:
            raise ValueError("alpha = 1 sits on the polar term")
        t = selberg_T(x, alpha, F, ctx)
        acc = t.val
        if F.m_F:
            acc -= mpf(F.m_F) / ctx.mpf(alpha)
            acc += F.m_F * xv / ctx.mpf(1 - alpha)
        for lam, mu in F.gamma_factors:
            lamv = ctx.mpf(lam)
            u = mu + lam * (1 - alpha)
            if u.denominator == 1 and u <= 0:
                raise ValueError(f"alpha = {alpha} hits the trivial-zero chain "
                                 f"(lambda={lam}, mu={mu})")
            xpow = xv ** (1 + ctx.mpf(mu) / lamv)
            z = xv ** (1 / lamv)
            fv = f_u_closed(u, HComplex(mpc(z), ctx), ctx).val
            acc -= lamv * xpow * (fv + 1 / ctx.mpf(u))
        with ctx.workprec():
            return HComplex(mpc(acc), ctx)


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
    """
    x = Fraction(x)
    if identity not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITY_IDS}")
    if F is not None and table.label != F.label:
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
        with ctx.workprec(_GUARD):
            rhs = ctx.real(S_rhs_gt1(x, ctx).val
                           + mpmath.euler * ctx.mpf(x)
                           - mpmath.log(2 * mpmath.pi))
    elif identity in ("general-gt1", "general-lt1"):
        if pf is None:
            raise ValueError(f"{identity} requires pf")
        term = xrho_term(x, pf.roots, pf.residues)
        gt1 = identity == "general-gt1"
        rhs = (general_rhs_gt1 if gt1 else general_rhs_lt1)(x, pf, ctx)
        with ctx.workprec(_GUARD):
            extra = mpf(0)
            for lam, a in zip(pf.residues, pf.roots):
                s = a if gt1 else 1 - Fraction(a)
                extra += ctx.mpf(lam) * zeta_log_deriv(s, ctx).val * ctx.mpf(x) ** ctx.mpf(a)
            extra = extra if gt1 else -extra
    else:  # selberg-gt1, selberg-lt1
        if F is None or alpha is None:
            raise ValueError(f"{identity} requires F and alpha")
        gt1 = identity == "selberg-gt1"
        if not gt1 and (alpha == "zero" or Fraction(alpha) == 0):
            term = xrho_term(x, (0,), (1,))
            rhs = ctx.real(selberg_rhs_lt1(x, 0, F, ctx).val.real)
        else:
            if F.log_deriv is None:
                raise ValueError("descriptor lacks a log-derivative provider")
            a = Fraction(alpha)
            term = xrho_term(x, (a,), (1,))
            rhs_fn = selberg_rhs_gt1 if gt1 else selberg_rhs_lt1
            rhs = ctx.real(rhs_fn(x, a, F, ctx).val.real)
            with ctx.workprec(_GUARD):
                extra = ctx.mpf(x) ** ctx.mpf(a) * F.log_deriv(a if gt1 else 1 - a, ctx)
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
    if identity == "s":
        tail = tail_estimate(float(table.gammas[terms - 1]), 2, float(x), ctx)
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

"""Closed-form right-hand sides, the auxiliary series f_u, rational
kernels, and the descriptor layer that generalizes both."""

import ast
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import prec_to_dps
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from zeta_explicit import arith, explicit
from zeta_explicit.arith import (T_sum, discriminant_of, kronecker_chi, psi0, psi0_alpha,
                                 shared_table)
from zeta_explicit.explicit import (
    IDENTITY_IDS,
    EvalReport,
    SelbergDescriptor,
    S_rhs_gt1,
    cosine_rhs,
    descriptor_dirichlet,
    descriptor_zeta,
    dirichlet_L,
    f_rhs_gt1,
    f_rhs_lt1,
    TAU0,
    f_u_closed,
    g,
    general_rhs_gt1,
    general_rhs_lt1,
    partial_fractions,
    selberg_psi0,
    selberg_T,
    selberg_rhs_gt1,
    selberg_rhs_lt1,
    verify_identity,
)
from zeta_explicit.mpcore import HReal, PrecisionContext, _exact
from explicit_oracles import (HComplex, cosine_rhs_expanded, descriptor_form_fraction,
                              f_u_closed_uncorrected, f_u_reference, f_u_roots_of_unity, f_u_series,
                              general_rhs_gt1_expanded, general_rhs_lt1_expanded,
                              kernel_form_fraction, prime_sum_reference,
                              zeta_log_deriv_dirichlet)
from zeta_explicit.zeros import SumSpec, ZeroTable, fixture_table
from mp_views import mp_euler, mp_pi, workprec

F = Fraction
TINY = mpf(2) ** (-170)


def test_f_rhs_gt1_frozen_values(ctx):
    assert f_rhs_gt1(F(3, 2), ctx).str_digits(25) == \
        "-0.0439837339582859794657939"
    assert f_rhs_gt1(F(11, 10), ctx).str_digits(25) == \
        "0.1377569875273135622509851"


def test_f_rhs_gt1_at_prime_power_boundary(ctx):
    # x = 2 evaluates with the halved boundary weight.
    assert f_rhs_gt1(F(2), ctx).str_digits(25) == \
        "-0.04060962046342767454966603"


def _closed_forms():
    """(name, form above 1, form below 1), each a function of (x, ctx): the
    kernels 1/(rho - 1/2) and 1/((rho - 1/2)(rho + 1/3)) (residues +-6/5),
    and the descriptor form of zeta, chi_-4 and chi_-3 at alpha = 1/3 above 1
    and alpha = 0 (f itself for zeta) below."""
    for poles in ([F(1, 2)], [F(1, 2), F(-1, 3)]):
        pf = partial_fractions([1], poles)
        yield (f"general {poles}", lambda x, c, pf=pf: general_rhs_gt1(x, pf, c),
               lambda x, c, pf=pf: general_rhs_lt1(x, pf, c))
    for D in [descriptor_zeta()] + [descriptor_dirichlet(discriminant_of(d), kronecker_chi(d),
                                                         None) for d in (1, 3)]:
        yield (D.label, lambda x, c, D=D: selberg_rhs_gt1(x, F(1, 3), D, c),
               lambda x, c, D=D: selberg_rhs_lt1(x, F(0), D, c))


@pytest.mark.parametrize("bits", [128, 192, 512])
def test_f_rhs_right_to_its_print_cap(bits):
    # f is g + K in integers rounded once, so every digit str_digits may
    # print, prec_to_dps(bits) - 1, agrees with the same call at bits + 256:
    # at x = 299999/2 psi0 is near 1.5e5 and f near -49.  So does every
    # descriptor and kernel form, whose prime side is x^alpha times one such
    # integer and whose exact inputs enter at bits + 32, rounded once, also
    # at the prime-power endpoints 2^17 and 131101, whose terms are halved
    cap = prec_to_dps(bits) - 1
    for x in (F(21), F(2 ** 17), F(299999, 2), F(2, 299999), F(1, 2 ** 17), F(3, 902)):
        f = f_rhs_gt1 if x > 1 else f_rhs_lt1
        got, ref = f(x, PrecisionContext(bits)).val, f(x, PrecisionContext(bits + 256)).val
        with mpmath.workprec(bits + 256):
            assert abs(got - ref) <= abs(ref) * mpf(10) ** -cap, x
    for name, above, below in _closed_forms():
        for x in (F(299999, 2), F(2 ** 17), F(131101)):
            for rhs, y in ((above, x), (below, 1 / x)):
                got, ref = rhs(y, PrecisionContext(bits)).val, rhs(y, PrecisionContext(bits + 256)).val
                with mpmath.workprec(bits + 256):
                    assert abs(got - ref) <= abs(ref) * mpf(10) ** -cap, (name, y)


@pytest.mark.parametrize("bits", [128, 192, 512])
def test_f_reflected_right_to_its_print_cap(bits):
    # f(x) + x f(1/x) is one integer at the walk's width, rounded once, so
    # the cosine and S forms agree with the same call at bits + 256 in
    # every digit str_digits may print, past LOG_LIMIT too
    cap = prec_to_dps(bits) - 1
    for x in (F(21), F(5, 2), F(2 ** 17), F(299999, 2), F(1000001, 3)):
        for rhs in (cosine_rhs, S_rhs_gt1):
            got, ref = rhs(x, PrecisionContext(bits)).val, rhs(x, PrecisionContext(bits + 256)).val
            with mpmath.workprec(bits + 256):
                assert abs(got - ref) <= abs(ref) * mpf(10) ** -cap, (x, rhs)


@pytest.mark.parametrize("bits", [128, 192, 512])
def test_f_across_log_limit_against_the_exact_product(bits):
    # f = g - log 2pi - psi0 where psi past LOG_LIMIT = 2^17 is the running
    # product's log: at x = 2^17 (a prime power, its log 2 halved), 2^17 + 1/2
    # and 131101, the first prime past 2^17 (its own log halved), against
    # psi as the log of the exact product of the sieve's bases
    cap = prec_to_dps(bits) - 1
    for x, end in ((F(2 ** 17), 2), (F(2 ** 18 + 1, 2), 0), (F(131101), 131101)):
        n = math.floor(x) - (1 if end else 0)
        got = f_rhs_gt1(x, PrecisionContext(bits)).val
        with mpmath.workprec(bits + 64):
            psi = mpmath.log(math.prod(shared_table(n).between(1, n)[1]))
            psi += mpmath.log(end) / 2 if end else 0
            xv = mpf(x.numerator) / x.denominator
            ref = xv - mpmath.log(1 - xv ** -2) / 2 - mpmath.log(2 * mpmath.pi) - psi
            assert abs(got - ref) <= abs(ref) * mpf(10) ** -cap, x


def test_f_rhs_domains(ctx):
    with pytest.raises(ValueError):
        f_rhs_gt1(F(1, 2), ctx)
    with pytest.raises(ValueError):
        f_rhs_lt1(F(3, 2), ctx)
    for s in (F(1), F(-2)):   # the pole, and a trivial zero
        with pytest.raises(ValueError, match="pole"):
            descriptor_zeta().log_deriv(s, ctx)
    for z in (ctx.real(1).val, F(-1, 2)):
        with pytest.raises(ValueError, match="0 <= z < 1"):
            f_u_closed(F(1, 2), z, ctx)
    with pytest.raises(ValueError, match="negative integer"):
        f_u_closed(F(-1), ctx.real(F(1, 2)).val, ctx)
    assert f_u_closed(F(1, 2), 0, ctx).val == 0


@pytest.mark.parametrize("bits", [128, 224, 512])
def test_g_lt1_one_log_matches_two_log_form(bits):
    # x near 0, the turn at 1/plastic (where g' = 0) and x near 1;
    # g in units of 2^-W at the finders' width W = bits + 48
    two_logs = lambda x: mpmath.log(x) + x - mpmath.log((1 + x) / (1 - x)) / 2
    W = bits + 48
    with mpmath.workprec(bits):
        turn = 1 / mpmath.findroot(lambda t: t ** 3 - t - 1, mpf(4) / 3)
        for x in (mpf(2) ** -100, mpf(10) ** -30, turn, 1 - mpf(2) ** -100):
            r, same_bits = _exact(x), two_logs(x)
            got = mpmath.ldexp(g(r.numerator, r.denominator, W), -W)
            with mpmath.workprec(bits + 64):
                ref = two_logs(x)
                assert abs(got - ref) <= mpf(2) ** (4 - bits) * abs(ref), x
                assert abs(got - same_bits) <= mpf(2) ** (4 - bits) * abs(ref), x


def test_weighted_prime_sum_routes_agree(ctx):
    # Two routes to Sum'_{n<=x} Lambda(n)/n must collapse.
    for x in (F(10), F(21, 2), F(8)):
        c = T_sum(1 / x, F(0), ctx).val
        with workprec(ctx, 16):
            b = psi0_alpha(x, F(1), ctx).val / ctx.real(x).val
            assert abs(b - c) < TINY


def test_cosine_regrouping_is_identity(ctx):
    # f(x)/sqrt(x) + sqrt(x) f(1/x) against the hand-expanded assembly.
    for x in (F(4), F(9, 2), F(7), F(3, 2)):
        a = cosine_rhs(x, ctx).val
        b = cosine_rhs_expanded(x, ctx).val
        with workprec(ctx, 16):
            assert abs(a - b) < TINY


def test_cold_cosine_rhs_takes_each_log_once(monkeypatch, ctx):
    # psi0(x) and T(1/x, 0) walk the same primes at the same precision, so
    # one log per prime p <= 10000 serves both: pi(10000) = 1229 logs.
    taken, log = [], arith._log

    def counted(p, W):
        taken.append(p)
        return log(p, W)

    monkeypatch.setattr(arith, "_prefix", {})
    monkeypatch.setattr(arith, "_logs", {})
    monkeypatch.setattr(arith, "_log", counted)
    cosine_rhs(F(20001, 2), ctx)
    assert len(taken) == 1229
    assert taken == [p for p in range(2, 10001) if shared_table(p).prime_of(p) == p]


def test_cosine_rhs_frozen_value(ctx):
    assert cosine_rhs(F(4), ctx).str_digits(25) == \
        "-0.002111280731661878582360226"


def test_s_rhs_frozen_values(ctx):
    assert S_rhs_gt1(F(5, 2), ctx).str_digits(24) == \
        "0.410614333542983023608316"
    assert S_rhs_gt1(F(4), ctx).str_digits(25) == \
        "-0.4752081546601097160301093"


def test_zeta_log_deriv_closed_forms():
    # zeta'/zeta through the one route, the character (1,) mod 1, against
    # two classical closed forms taken at bits + 32: log(2 pi) at s = 0 and
    # gamma/2 + pi/4 + (3/2) log 2 + (1/2) log pi at s = 1/2.
    zeta = descriptor_zeta()
    for bits in (64, 128, 192, 512, 1024):
        ctx = PrecisionContext(bits=bits)
        with mpmath.workprec(bits + 32):
            closed = {F(0): mpmath.log(2 * mpmath.pi),
                      F(1, 2): (mpmath.euler / 2 + mpmath.pi / 4 + 3 * mpmath.log(2) / 2
                                + mpmath.log(mpmath.pi) / 2)}
        for s, ref in closed.items():
            got = zeta.log_deriv(s, ctx)   # an exact quotient
            with mpmath.workprec(bits + 32):
                got = mpf(got.numerator) / got.denominator
                assert abs(got - ref) <= mpf(2) ** (8 - bits) * abs(ref), (bits, s)
        if bits == 192:
            assert ctx.real(zeta.log_deriv(F(1, 2), ctx)).str_digits(25) == \
                "2.686091709612832791116479"


def test_zeta_log_deriv_vs_dirichlet_series(ctx):
    value, tail = zeta_log_deriv_dirichlet(2.0)
    ref = float(descriptor_zeta().log_deriv(F(2), ctx))
    assert abs(value - ref) <= tail
    assert abs(value - ref) > 0
    with pytest.raises(ValueError):
        zeta_log_deriv_dirichlet(1.0)


# ----------------------------------------------------------------------
# f_u: the series Sum_{n>=1} z^n/(n+u)
# ----------------------------------------------------------------------

u_fracs = st.fractions(min_value=F(1, 7), max_value=F(2),
                       max_denominator=7)
radii = st.floats(min_value=0.05, max_value=0.9)
angles = st.floats(min_value=0.0, max_value=2 * math.pi)


@settings(max_examples=25, deadline=None)
@given(u_fracs, radii, angles)
def test_f_u_roots_of_unity_matches_series(u, r, t):
    # the paper's closed form against the direct sum, both complex oracles
    ctx = PrecisionContext(bits=192)
    with workprec(ctx):
        z = mpc(r * math.cos(t), r * math.sin(t))
    a = f_u_roots_of_unity(u, HComplex(z, ctx), ctx).val
    b = f_u_series(u, HComplex(z, ctx), ctx).val
    with workprec(ctx, 16):
        assert abs(a - b) < mpf(1) / 10 ** 20


def test_f_u_frozen_oracle(ctx):
    z = ctx.real(F(1, 4)).val
    series = f_u_series(F(1, 2), ctx.real(z), ctx).real
    closed = f_u_closed(F(1, 2), ctx.real(z), ctx)
    assert series.str_digits(20) == "0.19722457733621938279"
    with workprec(ctx, 16):
        assert abs(series.val - closed.val) < TINY


def test_f_u_uncorrected_variant_fails_oracle(ctx):
    # The variant without the -q/p correction reproduces a known wrong
    # value; it is kept as a regression witness.
    z = ctx.real(F(1, 4)).val
    wrong = f_u_closed_uncorrected(F(1, 2), ctx.real(z), ctx).real
    assert wrong.str_digits(19) == "0.5493061443340548457"
    series = f_u_series(F(1, 2), ctx.real(z), ctx).real
    with workprec(ctx, 16):
        assert abs(wrong.val - series.val) > mpf("0.35")


def test_f_u_closed_at_zero_and_at_tiny_z(ctx):
    # z = 0 is the empty series; a tiny z keeps its relative accuracy
    assert f_u_closed(F(1, 3), 0, ctx).val == 0
    z = F(1, 2 ** (ctx.bits // 2 + 3))
    v = f_u_closed(F(1, 3), z, ctx).val
    ref = f_u_series(F(1, 3), HComplex(mpc(ctx.real(z).val), ctx), ctx).val.real
    with workprec(ctx, 16):
        assert abs(v - ref) < abs(ref) * mpf(2) ** -(ctx.bits + 16)


def test_f_u_integer_u_reduces_to_log(ctx):
    # u = 0: f_0(z) = -log(1 - z).
    z = ctx.real(F(1, 3)).val
    v = f_u_closed(F(0), ctx.real(z), ctx).val
    with workprec(ctx, 16):
        assert abs(v + mpmath.log(1 - z)) < TINY


# abscissas x and shifts u of the f_u grid, z = x^-2; two x straddle
# the branch point tau = TAU0 of f_u_closed
FU_XS = (1 + F(1, 2 ** 40), F(11, 10), F(math.exp(TAU0 / 2)) * (1 - F(1, 2 ** 20)),
         F(math.exp(TAU0 / 2)) * (1 + F(1, 2 ** 20)), F(5, 2), F(3001, 3), F(30001))
FU_US = (F(0), F(1, 2), F(1, 3), F(-1, 4), F(5, 4), F(-5, 4), F(1, 1009), F(1, 10007))


def _f_u_gap(u: F, x: F, bits: int, ref=None) -> mpf:
    """|f_u_closed - reference| / (|reference| + z) at z = x^-2, in units
    of the stated bound 2^-(bits+16)."""
    z = 1 / (x * x)
    v = f_u_closed(u, z, PrecisionContext(bits=bits)).val
    ref = f_u_reference(u, z, bits) if ref is None else ref
    with mpmath.workprec(bits + 64):
        return abs(v - ref) / (abs(ref) + mpf(z.numerator) / z.denominator) \
            * mpf(2) ** (bits + 16)


def test_f_u_branches_straddle_tau0():
    taus = [-math.log1p(float(1 / (x * x) - 1)) for x in FU_XS[2:4]]
    assert taus[0] < TAU0 < taus[1]


@pytest.mark.parametrize("bits", [128, 192, 512, 1024])
def test_f_u_closed_grid_within_stated_bound(bits):
    # both branches against an mpf reference at bits + 64 (the direct
    # sum, or Lerch's expansion regrouped into Bernoulli numbers)
    worst = max(_f_u_gap(u, x, bits) for x in FU_XS for u in FU_US)
    assert worst < 1


def test_f_u_closed_against_lerchphi():
    # mpmath's Lerch transcendent: f_u(z) = z Phi(z, 1, 1 + u)
    bits = 128
    for x in FU_XS[:5]:
        z = 1 / (x * x)
        for u in (F(1, 2), F(-5, 4)):
            with mpmath.workprec(bits + 64):
                zv = mpf(z.numerator) / z.denominator
                ref = zv * mpmath.lerchphi(zv, 1, 1 + mpf(u.numerator) / u.denominator)
            assert _f_u_gap(u, x, bits, ref) < 1


def test_f_u_lerch_stopping_rule_witness():
    # u = 1/2 just below TAU0: B_k(3/2) = k 2^(1-k) at odd k >= 3, so the
    # odd terms fall below 2^-W long before the even ones; a sum stopped
    # at the first small term loses hundreds of bits at 1024 bits
    for bits in (192, 1024):
        assert _f_u_gap(F(1, 2), FU_XS[2], bits) < 1


def test_lerch_branch_and_f_read_one_integer_gamma(monkeypatch):
    # f_u's Lerch branch reads f_const's integer gamma, so a process that
    # takes the branch and then evaluates f never runs mpmath's euler_fixed
    # and computes gamma at one width
    from mpmath.libmp import gammazeta
    from zeta_explicit import mpcore

    def refuse(prec):
        raise AssertionError(f"mpmath's euler_fixed ran at {prec} bits")

    monkeypatch.setattr(gammazeta, "euler_fixed", refuse)
    cell, = mpmath.euler.func.__closure__   # the routine mpmath.euler reads
    monkeypatch.setattr(cell, "cell_contents", refuse)
    mpcore._gamma_fixed.cache_clear()
    monkeypatch.setattr(explicit, "_K_CONST", {})
    ctx, z = PrecisionContext(bits=192), 1 - F(1, 2 ** 20)
    assert -math.log1p(float(z - 1)) < explicit.TAU0   # the Lerch branch
    lerch = explicit.f_u_closed(F(1, 3), z, ctx)
    f = f_rhs_lt1(F(1, 3), ctx)
    assert mpcore._gamma_fixed.cache_info().currsize == 1
    monkeypatch.undo()
    assert lerch == explicit.f_u_closed(F(1, 3), z, ctx) and f == f_rhs_lt1(F(1, 3), ctx)


def test_f_u_small_z_regression_witness():
    # x = 30001, u = 5/6 at 192 bits: the roots-of-unity form loses 56 of
    # its 224 bits to cancellation (2^-168 relative); the series keeps them
    bits, u, x = 192, F(5, 6), F(30001)
    z = 1 / (x * x)
    ctx = PrecisionContext(bits=bits)
    ref = f_u_reference(u, z, bits)
    old = f_u_roots_of_unity(u, HComplex(mpc(ctx.real(z).val), ctx), ctx).val.real
    with mpmath.workprec(bits + 64):
        assert abs(old - ref) / ref > mpf(2) ** -(bits - 16)
    assert _f_u_gap(u, x, bits) < 1


# ----------------------------------------------------------------------
# Rational kernels A/B = Sum lam_i/(t - alpha_i)
# ----------------------------------------------------------------------

root_lists = st.lists(st.fractions(min_value=-3, max_value=3,
                                   max_denominator=6),
                      min_size=1, max_size=3, unique=True)


@settings(max_examples=40, deadline=None)
@given(root_lists, st.data())
def test_partial_fractions_reconstructs(roots, data):
    deg = len(roots)
    numer = [data.draw(st.fractions(min_value=-4, max_value=4,
                                    max_denominator=8))
             for _ in range(deg)]
    if all(c == 0 for c in numer):
        numer[0] = F(1)
    pf = partial_fractions(numer, roots)
    t = data.draw(st.fractions(min_value=4, max_value=9, max_denominator=5))
    direct = sum(c * t ** i for i, c in enumerate(numer)) / \
        math.prod(t - a for a in roots)
    recon = sum(lam / (t - a) for lam, a in zip(pf.residues, pf.roots))
    assert recon == direct  # exact Fraction arithmetic


def test_partial_fractions_rejects_repeated_roots():
    with pytest.raises(ValueError):
        partial_fractions([F(1)], [F(1, 2), F(1, 2)])


def test_partial_fractions_rejects_a_numerator_of_high_degree():
    # A(t)/B(t) is proper: deg A = 2 against two roots is refused, and
    # trailing zero coefficients do not count towards the degree
    with pytest.raises(ValueError, match="deg A must be < number of roots"):
        partial_fractions([F(1), F(0), F(1)], [F(1, 2), F(1, 3)])
    assert partial_fractions([F(1), F(1), F(0)], [F(1, 2), F(1, 3)]).roots == (F(1, 2), F(1, 3))


def test_general_gt1_specializes_to_plain_rhs(ctx):
    # Single pole at 0 with residue 1 reproduces the x > 1 right-hand
    # side up to the constant log(2 pi).
    pf = partial_fractions([F(1)], [F(0)])
    for x in (F(4), F(3, 2), F(21, 2)):
        g = general_rhs_gt1(x, pf, ctx).val
        f = f_rhs_gt1(x, ctx).val
        with workprec(ctx, 16):
            assert abs(g - f - mpmath.log(2 * mpmath.pi)) < TINY


def test_general_domain_guards(ctx):
    with pytest.raises(ValueError):
        general_rhs_gt1(F(4), partial_fractions([F(1)], [F(1)]), ctx)
    with pytest.raises(ValueError):
        general_rhs_gt1(F(4), partial_fractions([F(1)], [F(-2)]), ctx)
    with pytest.raises(ValueError):
        general_rhs_lt1(F(1, 4), partial_fractions([F(1)], [F(0)]), ctx)
    with pytest.raises(ValueError):
        general_rhs_lt1(F(1, 4), partial_fractions([F(1)], [F(3)]), ctx)
    pf = partial_fractions([F(1)], [F(1, 2)])
    for x, rhs in ((F(1), general_rhs_gt1), (F(1), general_rhs_lt1), (F(2), general_rhs_lt1)):
        with pytest.raises(ValueError, match="requires"):
            rhs(x, pf, ctx)


# ----------------------------------------------------------------------
# Descriptor layer
# ----------------------------------------------------------------------

def test_zeta_descriptor_invariants(ctx):
    zeta = descriptor_zeta()
    assert zeta.gamma_F(ctx) == _exact(mp_euler(ctx))


def _L_log_deriv(s, q, chi, ctx):
    """(L'/L)(s, chi), the exact quotient of explicit.dirichlet_L's pair."""
    L, Lp = explicit.dirichlet_L(s, q, chi, ctx)
    return _exact(Lp) / _exact(L)


def test_dirichlet_descriptor_invariants(ctx):
    chi = kronecker_chi(1)
    d4 = descriptor_dirichlet(4, chi, ctx)
    # F'/F and gamma_F follow from the character table.
    assert d4.log_deriv(F(2), ctx) == _L_log_deriv(F(2), 4, chi, ctx)
    assert d4.gamma_F(ctx) == _L_log_deriv(F(1), 4, chi, ctx)


def test_gamma_F_computed_once_per_character_and_bits(monkeypatch):
    # gamma_F = (L'/L)(1, chi) costs one Euler-Maclaurin pass per residue;
    # log_deriv takes it once per (chi, s, bits), also through the alpha = 0
    # form.
    calls = []

    def counted(*args):
        calls.append(args[-1].bits)
        return dirichlet_L(*args)

    monkeypatch.setattr(explicit, "_log_deriv", {})
    monkeypatch.setattr(explicit, "dirichlet_L", counted)
    ctx = PrecisionContext(bits=192)
    d4 = descriptor_dirichlet(4, kronecker_chi(1), ctx)
    first, second, third = (d4.gamma_F(ctx) for _ in range(3))
    assert calls == [192]
    assert first == second == third
    assert first == _L_log_deriv(F(1), 4, d4.chi, ctx)
    for _ in range(3):
        selberg_rhs_lt1(F(1, 10), 0, d4, ctx)
    assert len(calls) == 2              # the reference line above made one
    d4.gamma_F(PrecisionContext(bits=128))
    assert calls == [192, 192, 128]


def test_verify_identity_takes_F_log_deriv_once_per_alpha_and_bits(monkeypatch, fixture100):
    # the x^alpha F'/F(alpha) term: one dirichlet_L pass for three calls at
    # one alpha and one precision, where an uncached log_deriv takes three
    calls = []

    def counted(*args):
        calls.append(args[0])
        return dirichlet_L(*args)

    monkeypatch.setattr(explicit, "_log_deriv", {}, raising=False)
    monkeypatch.setattr(explicit, "dirichlet_L", counted)
    ctx = PrecisionContext(bits=192)
    reports = [verify_identity("selberg-gt1", F(4), fixture100, SumSpec(K=10), ctx,
                               alpha=F(1, 2), F=descriptor_zeta()) for _ in range(3)]
    assert calls == [F(1, 2)]
    assert len({r.lhs.val for r in reports}) == 1


def test_descriptor_fixed_by_its_character(ctx, monkeypatch):
    # A real primitive character fixes its descriptor with no numerics.
    squarefree = [d for d in range(1, 400) if all(d % (p * p) for p in range(2, 20))]
    assert len(squarefree) == 243
    for d in squarefree:
        q, chi = discriminant_of(d), kronecker_chi(d)
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "mpmath", None)   # any import of it fails
            desc = descriptor_dirichlet(q, chi, ctx)
        assert desc == SelbergDescriptor(label=f"dirichlet-{q}", m_F=0,
                                         gamma_factors=((F(1, 2), F(1, 2)),),
                                         chi=tuple(chi))


def test_dirichlet_descriptor_rejects_imprimitive(ctx):
    # The principal character mod 4 is induced from modulus 1.
    with pytest.raises(ValueError):
        descriptor_dirichlet(4, (0, 1, 0, 1), ctx)
    with pytest.raises(ValueError, match="character table length must equal the modulus"):
        descriptor_dirichlet(4, (0, 1, 0), ctx)


def test_dirichlet_descriptor_refuses_the_character_mod_1(ctx):
    # The character mod 1 is zeta, whose pole (m_F = 1) only
    # descriptor_zeta() carries; built with m_F = 0 it would give
    # selberg_rhs_gt1(5/2, 1/3) = 2.3285... against zeta's 3.0785...
    with pytest.raises(ValueError, match="descriptor_zeta"):
        descriptor_dirichlet(1, (1,), ctx)
    zeta = descriptor_zeta()
    assert (zeta.chi, zeta.m_F) == ((1,), 1)
    assert selberg_rhs_gt1(F(5, 2), F(1, 3), zeta, ctx).str_digits(5) == "3.0785"


def test_selberg_matches_plain_evaluators(ctx):
    zeta = descriptor_zeta()
    for x, a in ((F(3, 2), F(1, 3)), (F(4), F(1, 2)), (F(6), F(2, 3))):
        s = selberg_rhs_gt1(x, a, zeta, ctx).val
        g = general_rhs_gt1(x, partial_fractions([F(1)], [a]), ctx).val
        with workprec(ctx, 16):
            assert abs(s - g) < TINY
    for x, a in ((F(1, 10), F(1, 3)), (F(2, 5), F(1, 2))):
        s = selberg_rhs_lt1(x, a, zeta, ctx).val
        g = general_rhs_lt1(x, partial_fractions([F(1)], [a]), ctx).val
        with workprec(ctx, 16):
            assert abs(s - g) < TINY
    # both read f_fixed at alpha = 0, so each is checked against T(x, 0) +
    # log x + gamma - (x/2) f_{1/2}(x^2), f_{1/2} by the roots-of-unity form
    for x in (F(1, 10), F(1, 4)):
        with workprec(ctx, 32):
            xv = ctx.real(x).val
            ref = (T_sum(x, F(0), ctx).val + mpmath.log(xv) + mpmath.euler
                   - xv * f_u_roots_of_unity(F(1, 2), xv * xv, ctx).val.real / 2)
        for got in (selberg_rhs_lt1(x, 0, zeta, ctx).val, f_rhs_lt1(x, ctx).val):
            with workprec(ctx, 16):
                assert abs(got - ref) < TINY


def test_selberg_domain_guards(ctx):
    # the alpha refusals, each with its message, are REFUSALS below
    zeta = descriptor_zeta()
    for fn, x in ((selberg_psi0, F(1)), (selberg_T, F(1)), (selberg_T, F(2)),
                  (selberg_rhs_gt1, F(1)), (selberg_rhs_lt1, F(1))):
        with pytest.raises(ValueError, match="requires"):
            fn(x, F(1, 2), zeta, ctx)


# an even character (mod 5): its Gamma factor has mu = 0 but m_F = 0, so
# at alpha = 0 nothing cancels the n = 0 term 1/alpha above 1
_EVEN5 = descriptor_dirichlet(5, (0, 1, -1, -1, 1), None)
_CHAIN = "hits the trivial-zero chain (lambda=1/2, mu=0)"
REFUSALS = [   # (id, the call, its exact message)
    ("zeta-alpha1-gt1", lambda c: selberg_rhs_gt1(F(4), F(1), descriptor_zeta(), c),
     "alpha = 1 sits on the polar term"),
    ("kernel-pole1-gt1", lambda c: general_rhs_gt1(F(4), partial_fractions([1], [1]), c),
     "alpha = 1 sits on the polar term"),
    ("even5-alpha0-gt1", lambda c: selberg_rhs_gt1(F(4), F(0), _EVEN5, c),
     "alpha = 0 is a pole: the polar term and the trivial zeros at 0 do not cancel"),
    ("even5-alpha1-lt1", lambda c: selberg_rhs_lt1(F(1, 4), F(1), _EVEN5, c),
     f"alpha = 1 {_CHAIN}"),
    ("zeta-alpha-2-gt1", lambda c: selberg_rhs_gt1(F(4), F(-2), descriptor_zeta(), c),
     f"alpha = -2 {_CHAIN}"),
    ("zeta-alpha3-lt1", lambda c: selberg_rhs_lt1(F(1, 4), F(3), descriptor_zeta(), c),
     f"alpha = 3 {_CHAIN}"),
    ("kernel-pole-2-gt1", lambda c: general_rhs_gt1(F(4), partial_fractions([1], [-2]), c),
     f"alpha = -2 {_CHAIN}"),
    ("kernel-pole0-lt1", lambda c: general_rhs_lt1(F(1, 4), partial_fractions([1], [0]), c),
     "alpha = 0 is excluded (1/alpha term)"),
    ("zeta-alpha0-selberg-gt1", lambda c: selberg_rhs_gt1(F(4), F(0), descriptor_zeta(), c),
     "alpha = 0 is excluded when m_F > 0"),
]


@pytest.mark.parametrize("call,message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_descriptor_and_kernel_refusals_word_their_cause(ctx, call, message):
    with pytest.raises(ValueError) as refused:
        call(ctx)
    assert str(refused.value) == message


@pytest.mark.parametrize("D", [descriptor_dirichlet(discriminant_of(d), kronecker_chi(d), None)
                               for d in (1, 3, 7)] + [_EVEN5], ids=lambda D: D.label)
def test_alpha_one_above_one_is_the_limit_of_its_neighbours(D):
    # m_F = 0 leaves no polar term, so alpha = 1 above 1 is a value (the
    # one alpha = 0 below 1 reflects onto), continuous in alpha: it is the
    # mean of the forms at 1 +- h to O(h^2)
    ctx, h = PrecisionContext(bits=192), F(1, 2 ** 100)
    for x in (F(7, 2), F(11)):
        at = selberg_rhs_gt1(x, F(1), D, ctx).val
        up, down = (selberg_rhs_gt1(x, 1 + t, D, ctx).val for t in (h, -h))
        with workprec(ctx, 32):
            assert abs(at - (up + down) / 2) <= mpf(2) ** -180, (D.label, x)


@pytest.mark.parametrize("x,a", [(F(7, 2), F(-1, 10 ** 66)), (F(7, 2), F(1, 10 ** 30)),
                                 (F(2, 7), 1 - F(1, 10 ** 30))])
def test_zeta_form_near_its_cancelling_pole_right_to_its_print_cap(x, a):
    # -m_F/beta cancels zeta's n = 0 term 1/beta (beta = alpha above 1,
    # 1 - alpha below) in the exact rational part, so at 128 bits the form
    # agrees with 512 to its last bits, with 1/beta up to 2^219
    rhs = selberg_rhs_gt1 if x > 1 else selberg_rhs_lt1
    lo, hi = (rhs(x, a, descriptor_zeta(), PrecisionContext(bits=b)).val for b in (128, 512))
    with mpmath.workprec(600):
        assert abs(lo - hi) <= mpf(2) ** -124 * abs(hi)


def test_zeta_form_at_zero_takes_f_and_no_f_u_series(monkeypatch, ctx):
    # the pole at 0 of a zeta kernel above 1, zeta's selberg-lt1 at
    # alpha = 0 and, reflected onto beta = 0, at alpha = 1 and a kernel's
    # pole at 1 below 1 are f (f_fixed), with no call of the f_u series
    calls = []
    f_u = explicit.f_u_closed
    monkeypatch.setattr(explicit, "f_u_closed", lambda *a: calls.append(a) or f_u(*a))
    general_rhs_gt1(F(7, 2), partial_fractions([F(1)], [F(0)]), ctx)
    selberg_rhs_lt1(F(2, 7), 0, descriptor_zeta(), ctx)
    selberg_rhs_lt1(F(2, 7), 1, descriptor_zeta(), ctx)
    general_rhs_lt1(F(2, 7), partial_fractions([F(1)], [F(1)]), ctx)
    assert calls == []
    general_rhs_gt1(F(7, 2), partial_fractions([F(1)], [F(0), F(1, 2)]), ctx)
    assert len(calls) == 1


@pytest.mark.parametrize("x", [F(1, 4), F(2, 7)])
@pytest.mark.parametrize("identity,kw", [
    ("selberg-lt1", {"alpha": F(1), "F": descriptor_zeta()}),
    ("general-lt1", {"pf": partial_fractions([1], [1])})], ids=["selberg", "general"])
def test_zeta_alpha_one_below_one_is_von_mangoldt_reflected(fixture100, x, identity, kw):
    # rho -> 1 - rho maps each pair of the table onto itself and turns
    # Sum x^rho/(rho - 1) into -x Sum (1/x)^rho/rho, so the residual at
    # alpha = 1 below 1 (rhs -x (f(1/x) + log 2pi)) is -x times the
    # von-mangoldt residual at 1/x, pair by pair
    ctx, spec = PrecisionContext(bits=192), SumSpec(K=100)
    at_one = verify_identity(identity, x, fixture100, spec, ctx, **kw).residual.val
    vm = verify_identity("von-mangoldt", 1 / x, fixture100, spec, ctx).residual.val
    with mpmath.workprec(256):
        assert abs(at_one + x.numerator * vm / x.denominator) <= mpf(2) ** -150


@pytest.mark.parametrize("bits,bound", [(128, 120), (192, 180), (512, 180)])
def test_zeta_alpha_one_below_one_is_the_limit_of_its_neighbours(bits, bound):
    # the f route at beta = 0 against the Gamma-factor path at beta =
    # -+2^-100: the form is continuous there, the mean of its neighbours
    # to O(h^2)
    ctx, h, zeta = PrecisionContext(bits=bits), F(1, 2 ** 100), descriptor_zeta()
    for x in (F(1, 4), F(2, 7)):
        at = selberg_rhs_lt1(x, 1, zeta, ctx).val
        up, down = (selberg_rhs_lt1(x, 1 + t, zeta, ctx).val for t in (h, -h))
        with mpmath.workprec(bits + 64):
            assert abs(at - (up + down) / 2) <= mpf(2) ** -bound, x


# m_F = 0, one Gamma factor (1, 1/2) and chi_-4's table: y^(-mu/lambda) =
# y^(-1/2) is not rational, so the form takes its mpf term
_LAMBDA1 = SelbergDescriptor("lambda-1", 0, ((F(1), F(1, 2)),), kronecker_chi(1))


@pytest.mark.parametrize("bits", [128, 192, 512])
def test_descriptor_form_with_an_irrational_gamma_exponent(bits):
    # form + psi0 is the Gamma-factor sum lambda Sum_{n>=0}
    # y^(-(n+mu)/lambda)/(n + mu + lambda beta), summed by nsum
    ctx = PrecisionContext(bits=bits)
    (lam, mu), = _LAMBDA1.gamma_factors
    for y in (F(7, 2), F(11)):
        for beta in (F(1, 3), F(-1, 3), F(3, 2)):
            n, e, d = explicit._descriptor_form(y, beta, _LAMBDA1, ctx)   # n 2^e/d
            form = F(n, d) * F(2) ** e
            prime = selberg_psi0(y, beta, _LAMBDA1, ctx).val
            with mpmath.workprec(bits + 64):
                yv, lv, mv, bv = (mpf(t.numerator) / t.denominator
                                  for t in (y, lam, mu, beta))
                ref = lv * mpmath.nsum(lambda n: yv ** (-(n + mv) / lv) / (n + mv + lv * bv),
                                       [0, mpmath.inf])
                assert abs(form + prime - ref) <= mpf(2) ** (8 - bits) * (1 + abs(ref)), (y, beta)


# The descriptors of the assembly checks: zeta, chi_-4, chi_-3, chi_-8 and _LAMBDA1
_ASSEMBLY_F = (descriptor_zeta(),) + tuple(
    descriptor_dirichlet(q, kronecker_chi(d), PrecisionContext()) for q, d in ((4, 1), (3, 3), (8, 2)))
_ASSEMBLY_ALPHAS = (0, "zero", 1, F(1, 2), F(-1, 2), F(1, 3), F(3, 2), F(5, 7))


@pytest.mark.parametrize("bits", [64, 192, 512, 1024])
def test_closed_forms_round_as_the_fraction_assembly(bits):
    # _descriptor_form's (n, e, d) holds exactly the value of the Fraction
    # sum of the same parts, so every selberg_rhs_* and general_rhs_*
    # rounds to the same (man, exp); a refusal is the package's
    ctx, compared = PrecisionContext(bits), 0
    for Fd in _ASSEMBLY_F + (_LAMBDA1,):
        for x in (F(299, 2), F(11), F(2, 7), F(3, 5123)):
            for alpha in _ASSEMBLY_ALPHAS:
                rhs = selberg_rhs_gt1 if x > 1 else selberg_rhs_lt1
                try:
                    got = rhs(x, alpha, Fd, ctx)
                except ValueError:
                    continue
                a = F(0) if alpha == "zero" else F(alpha)
                n, e, d = explicit._descriptor_form(x, a, Fd, ctx)
                assert F(n, d) * F(2) ** e == descriptor_form_fraction(x, a, Fd, ctx)
                want = kernel_form_fraction(x, (a,), (1,), Fd, ctx)
                assert (got.man, got.exp) == (want.man, want.exp), (Fd.label, x, alpha)
                compared += 1
    for roots in ((F(1, 2), F(-1, 3)), (F(0), F(2)), (F(3, 2), F(1, 3), F(-1, 2)), (F(5, 7),)):
        pf = partial_fractions([1], roots)
        for x in (F(299, 2), F(11), F(2, 7), F(3, 5123)):
            try:
                got = (general_rhs_gt1 if x > 1 else general_rhs_lt1)(x, pf, ctx)
            except ValueError:
                continue
            want = kernel_form_fraction(x, pf.roots, pf.residues, descriptor_zeta(), ctx)
            assert (got.man, got.exp) == (want.man, want.exp), (roots, x)
            compared += 1
    assert compared == 156


def test_warm_selberg_rhs_builds_few_fractions(ctx):
    # the closed form sums integers: a warm selberg_rhs_gt1 call constructs
    # 14 Fractions (49 when each part was a Fraction), counted by profiling
    # Fraction.__new__
    x, alpha, zeta, new = F(299, 2), F(1, 3), descriptor_zeta(), F.__new__.__code__
    selberg_rhs_gt1(x, alpha, zeta, ctx)
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(1) if (
        event == "call" and frame.f_code is new) else None)
    try:
        selberg_rhs_gt1(x, alpha, zeta, ctx)
    finally:
        sys.setprofile(None)
    assert len(calls) == 14


# Odd real primitive characters by modulus: kronecker_chi(d) has period
# discriminant_of(d).
PRIME_SUM_CHARS = {3: 3, 4: 1, 7: 7, 8: 2}
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125,
                128, 169, 243, 256, 289)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([None, 3, 4, 7, 8]),
       st.sampled_from([128, 192, 256]),
       st.one_of(st.sampled_from(PRIME_POWERS).map(F),
                 st.fractions(min_value=F(17, 16), max_value=300,
                              max_denominator=16)),
       st.booleans(),
       st.fractions(min_value=-2, max_value=2, max_denominator=12))
def test_prime_sums_match_per_n_reference(q, bits, y, below_one, alpha):
    # Every prime sum, plain and descriptor, x > 1 and 0 < x < 1, against
    # a term-by-term loop over n with Lambda from trial division.
    ctx = PrecisionContext(bits=bits)
    x = 1 / y if below_one else y
    if q is None:
        chi, F_desc = None, descriptor_zeta()
        plain = T_sum(x, alpha, ctx) if below_one else psi0_alpha(x, alpha, ctx)
        got = [plain.val]
        if not below_one:
            ref0, size0 = prime_sum_reference(x, F(0), None, bits)
            with mpmath.workprec(bits + 64):
                assert abs(psi0(x, ctx).val - ref0) <= mpf(2) ** (8 - bits) * size0
    else:
        chi = kronecker_chi(PRIME_SUM_CHARS[q])
        F_desc = descriptor_dirichlet(q, chi, ctx)
        got = []
    sel = selberg_T(x, alpha, F_desc, ctx) if below_one \
        else selberg_psi0(x, alpha, F_desc, ctx)
    assert isinstance(sel.val, mpf)
    got.append(sel.val)
    ref, size = prime_sum_reference(x, alpha, chi, bits)
    with mpmath.workprec(bits + 64):
        for v in got:
            assert abs(v - ref) <= mpf(2) ** (8 - bits) * size, (x, alpha, q, bits)


def _kernel_admissible(a: F, gt1: bool) -> bool:
    """alpha outside {1, -2, -4, ...} above 1, outside {0, 1, 3, 5, ...}
    below 1."""
    n = a.numerator
    if a.denominator != 1:
        return True
    return n != 1 and not (n < 0 and n % 2 == 0) if gt1 else \
        n != 0 and not (n > 0 and n % 2 == 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([128, 192, 256]),
       st.one_of(st.sampled_from(PRIME_POWERS).map(F),
                 st.fractions(min_value=F(17, 16), max_value=300,
                              max_denominator=16)),
       st.booleans(), st.booleans(), root_lists, st.data())
def test_general_forms_match_expanded_reference(bits, y, below_one, with_zero,
                                                roots, data):
    # The kernels as Sum_i lam_i times the zeta descriptor form, against
    # the hand-expanded zeta forms; above 1 the poles may include 0.
    ctx = PrecisionContext(bits=bits)
    gt1 = not below_one
    x = y if gt1 else 1 / y
    roots = [a for a in roots if _kernel_admissible(a, gt1)]
    if gt1 and with_zero and F(0) not in roots:
        roots.append(F(0))
    assume(roots)
    numer = [data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=8))
             for _ in roots]
    assume(any(numer))
    pf = partial_fractions(numer, roots)
    got = (general_rhs_gt1 if gt1 else general_rhs_lt1)(x, pf, ctx).val
    ref = (general_rhs_gt1_expanded if gt1 else general_rhs_lt1_expanded)(x, pf, ctx).val
    size = abs(ref)
    for lam, a in zip(pf.residues, pf.roots):
        _, prime_size = prime_sum_reference(x, a, None, bits)
        size += abs(lam) * (prime_size + abs(x / (1 - a))
                            + (abs(1 / a) if a else 0) + 1)
    with mpmath.workprec(bits + 64):
        assert abs(got - ref) <= mpf(2) ** (8 - bits) * size, (x, pf.roots, bits)


def test_dirichlet_L_closed_forms(ctx):
    chi4 = kronecker_chi(1)
    v4 = dirichlet_L(F(1), 4, chi4, ctx)[0].val
    chi3 = kronecker_chi(3)
    v3 = dirichlet_L(F(1), 3, chi3, ctx)[0].val
    with workprec(ctx, 16):
        assert abs(v4 - mp_pi(ctx) / 4) < mpf(1) / 10 ** 45
        assert abs(v3 - mp_pi(ctx) / (3 * mpmath.sqrt(3))) < mpf(1) / 10 ** 45


def test_dirichlet_log_deriv_closed_form(ctx):
    # (L'/L)(1) for the conductor-4 character equals
    # gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4).
    chi4 = kronecker_chi(1)
    v = _L_log_deriv(F(1), 4, chi4, ctx)
    with workprec(ctx, 32):
        v = mpf(v.numerator) / v.denominator
        ref = mpmath.euler + 2 * mpmath.log(2) + 3 * mpmath.log(mpmath.pi) \
            - 4 * mpmath.loggamma(mpf(1) / 4)
        assert abs(v - ref) < mpf(1) / 10 ** 45


@pytest.mark.parametrize("bits", [128, 192, 256])
@pytest.mark.parametrize("s", [F(1, 2), F(4, 3), F(3, 2), F(5, 3), F(2)])
@pytest.mark.parametrize("d", [3, 1, 7, 2])   # chi_-3, chi_-4, chi_-7, chi_-8
def test_dirichlet_L_against_mpmath(d, s, bits):
    # L(s, chi) and L'(s, chi) away from s = 1, one pass per residue over
    # the shared set-up, against mpmath's dirichlet at bits + 64.
    chi = kronecker_chi(d)
    L, Lp = dirichlet_L(s, len(chi), chi, PrecisionContext(bits))
    with mpmath.workprec(bits + 64):
        sv = mpf(s.numerator) / s.denominator
        for got, ref in ((L.val, mpmath.dirichlet(sv, chi)), (Lp.val, mpmath.dirichlet(sv, chi, 1))):
            assert abs(got - ref) <= mpf(2) ** (8 - bits) * (1 + abs(ref)), (d, s, bits)


def _L_at_one(chi, prec):
    """(L(1, chi), L'(1, chi)) for an odd real primitive chi mod q at prec
    bits, by Gamma-function closed forms, not mpmath.dirichlet (whose pole
    at s = 1 makes it slow): L(1) = -(1/q) Sum chi(a) psi(a/q), and the
    functional equation of the odd character, with L(0) = -(1/q) Sum a
    chi(a) and L'(0) = Sum chi(a) log Gamma(a/q) + (log q/q) Sum a chi(a)
    (Lerch), gives L'/L(1) = gamma + log 2 - log(q/pi) - L'(0)/L(0)."""
    q = len(chi)
    with mpmath.workprec(prec):
        B = mpmath.fsum(a * chi[a] for a in range(1, q))
        L1 = -mpmath.fsum(chi[a] * mpmath.psi(0, mpf(a) / q) for a in range(1, q)) / q
        dL0 = mpmath.fsum(chi[a] * mpmath.loggamma(mpf(a) / q) for a in range(1, q) if chi[a]) \
            + mpmath.log(q) * B / q
        return L1, L1 * (mpmath.euler + mpmath.log(2) - mpmath.log(q / mpmath.pi) + dL0 * q / B)


@pytest.mark.parametrize("bits", [64, 192, 1024])
@pytest.mark.parametrize("d", [1, 2, 3, 7])   # chi_-4, chi_-8, chi_-3, chi_-7, all odd
def test_dirichlet_L_pair_at_bits_plus_32(d, bits):
    # The HReal pair at bits + 32 against mpmath's dirichlet at bits + 64
    # (at s = 1 against _L_at_one): within 2^-(bits+24) (1 + |ref|), the
    # residues' certified 2^-(bits+31) |Z_n| summed over at most 8 of them.
    chi = kronecker_chi(d)
    for s in (F(1, 3), F(1, 2), F(1), F(4, 3), F(2)):
        got = dirichlet_L(s, len(chi), chi, PrecisionContext(bits))
        assert all(isinstance(v, HReal) and v.ctx.bits == bits + 32 for v in got)
        with mpmath.workprec(bits + 64):
            sv = mpf(s.numerator) / s.denominator
            refs = _L_at_one(chi, bits + 64) if s == 1 else \
                (mpmath.dirichlet(sv, chi), mpmath.dirichlet(sv, chi, 1))
            for v, ref in zip(got, refs):
                assert abs(v.val - ref) <= mpf(2) ** -(bits + 24) * (1 + abs(ref)), (d, s)


@pytest.mark.parametrize("k", [1000, 1073, 2000])
def test_f_u_lerch_branch_near_one(k):
    # z = 1 - 2^-k: tau is below any float's range from k = 1073 on, where a
    # float tau gave log(0); the integer tau keeps W bits, and f_u is within
    # its stated 2^-(bits+16) (|f_u| + z) at 64, 192 and 1024 bits.
    z = 1 - F(1, 2 ** k)
    for bits in (64, 192, 1024):
        for u in (F(1, 3), F(-5, 4)):
            v = f_u_closed(u, z, PrecisionContext(bits)).val
            ref = f_u_reference(u, z, bits)
            with mpmath.workprec(bits + 64):
                assert abs(v - ref) / (abs(ref) + 1) < mpf(2) ** -(bits + 16), (k, bits, u)


def test_selberg_gt1_just_above_one(cli_json):
    # x = 1 + 2^-1100: f_u's argument x^-2 takes the Lerch branch past the
    # float range of tau, and the identity answers instead of a domain error
    x = f"{2 ** 1100 + 1}/{2 ** 1100}"
    out = cli_json("verify", "--identity", "selberg-gt1", "--x", x, "--alpha", "1/3", "--K", "5")
    assert out["identity"] == "selberg-gt1"


def test_dirichlet_L_rejects_principal_at_one(ctx):
    with pytest.raises(ValueError):
        dirichlet_L(F(1), 4, (0, 1, 0, 1), ctx)


# ----------------------------------------------------------------------
# verify_identity plumbing
# ----------------------------------------------------------------------

def test_identity_ids_frozen():
    assert IDENTITY_IDS == ("von-mangoldt", "ingham", "cosine", "s",
                            "general-gt1", "general-lt1",
                            "selberg-gt1", "selberg-lt1")


def test_verify_identity_report_shape(ctx, fixture100, cli_json):
    spec = SumSpec(K=100)
    rep = verify_identity("von-mangoldt", F(21, 2), fixture100, spec, ctx)
    assert rep.identity == "von-mangoldt"
    assert rep.terms_used == 100
    assert rep.bits == 192
    assert rep.trend is not None and rep.tail is None
    assert rep.trend["pairs_half"] == 50
    assert abs(float(rep.residual.val)) < 0.02
    d = cli_json("verify", "--identity", "von-mangoldt", "--x", "21/2", "--K", "100")
    assert set(d) >= {"identity", "x", "terms_used", "lhs", "rhs",
                      "residual", "precision_bits", "trend"}


@pytest.mark.parametrize("identity,x,kw", [
    ("von-mangoldt", F(21, 2), {}),
    ("ingham", F(1, 10), {}),
    ("cosine", F(4), {}),
    ("general-lt1", F(2, 5), {"pf": partial_fractions([F(1)], [F(1, 2)])}),
    ("selberg-gt1", F(4), {"alpha": F(1, 2), "F": descriptor_zeta()}),
])
@pytest.mark.parametrize("K", (99, 100))
def test_verify_identity_half_trend_is_a_prefix(ctx, fixture100, identity, x, kw, K):
    full = verify_identity(identity, x, fixture100, SumSpec(K=K), ctx, **kw)
    half = verify_identity(identity, x, fixture100, SumSpec(K=K // 2), ctx, **kw)
    assert full.trend["pairs_half"] == K // 2
    assert full.trend["residual_half"].val == half.residual.val


def test_verify_identity_s_tail_is_genuine(ctx, fixture100):
    rep = verify_identity("s", F(4), fixture100, SumSpec(K=100), ctx)
    assert rep.tail is not None and rep.trend is None
    assert abs(float(rep.residual.val)) <= float(rep.tail.val)


def test_verify_identity_s_refuses_x_at_most_one(ctx, fixture100):
    with pytest.raises(ValueError, match="x > 1"):
        verify_identity("s", F(1, 2), fixture100, SumSpec(K=10), ctx)


def test_verify_identity_rejects_unknown(ctx, fixture100):
    with pytest.raises(ValueError):
        verify_identity("bogus", F(4), fixture100, SumSpec(K=10), ctx)


@pytest.mark.parametrize("identity,kw,needs", [
    ("general-gt1", {}, "pf"), ("general-lt1", {}, "pf"),
    ("selberg-gt1", {"alpha": F(1, 2)}, "F and alpha"),
    ("selberg-lt1", {"F": descriptor_zeta()}, "F and alpha"),
])
def test_verify_identity_requires_its_inputs(ctx, fixture100, identity, kw, needs):
    x = F(4) if identity.endswith("gt1") else F(1, 10)
    with pytest.raises(ValueError, match=f"requires {needs}"):
        verify_identity(identity, x, fixture100, SumSpec(K=10), ctx, **kw)


def test_verify_identity_rejects_label_mismatch(ctx, fixture100):
    chi = kronecker_chi(1)
    d4 = descriptor_dirichlet(4, chi, ctx)
    with pytest.raises(ValueError, match="label"):
        verify_identity("selberg-gt1", F(4), fixture100, SumSpec(K=10),
                        ctx, alpha=F(1, 2), F=d4)


@pytest.mark.parametrize("identity,x,kw", [
    ("von-mangoldt", F(4), {}), ("ingham", F(1, 10), {}), ("cosine", F(4), {}),
    ("s", F(4), {}), ("general-gt1", F(4), {"pf": partial_fractions([F(1)], [F(1, 2)])}),
    ("general-lt1", F(2, 5), {"pf": partial_fractions([F(1)], [F(1, 2)])}),
])
def test_verify_identity_zeta_identities_refuse_another_label(ctx, fixture100,
                                                              identity, x, kw):
    # every identity but selberg-* sums zeta's zeros, whatever F is passed
    table = ZeroTable(label="dirichlet-4", scale=fixture100.scale,
                      ordinates=fixture100.ordinates, real_parts=fixture100.real_parts,
                      source=fixture100.source, entry_precision=fixture100.entry_precision)
    d4 = descriptor_dirichlet(4, kronecker_chi(1), ctx)
    for F_given in (None, d4):
        with pytest.raises(ValueError, match="does not match descriptor 'zeta'"):
            verify_identity(identity, x, table, SumSpec(K=10), ctx, F=F_given, **kw)


def test_records_compare_by_value(ctx, fixture100):
    # slotted value types and NamedTuple records alike equal their rebuilt twins
    report = lambda: verify_identity("von-mangoldt", F(5, 2), fixture100, SumSpec(K=10), ctx)
    pairs = [(fixture_table(), fixture100), (SumSpec(K=10), SumSpec(K=10)),
             (partial_fractions([F(1)], [F(1, 2), F(1, 3)]), partial_fractions([1], [F(1, 2), F(1, 3)])),
             (descriptor_zeta(), descriptor_zeta()), (report(), report()),
             (arith.class_data.__wrapped__(7), arith.class_data.__wrapped__(7))]
    for a, b in pairs:
        assert a is not b and a == b
        if not isinstance(a, EvalReport):   # its trend field is a dict
            assert hash(a) == hash(b)
    assert SumSpec(K=10) != SumSpec(T=10) and report() != report()._replace(x=F(3))


# ----------------------------------------------------------------------
# The one side-of-1 rule
# ----------------------------------------------------------------------

_PF, _ZETA = partial_fractions([F(1)], [F(1, 2)]), descriptor_zeta()
SIDED = [   # (the name each refusal carries, whether it needs x > 1, the call at x)
    ("psi0", True, lambda x, ctx, t: psi0(x, ctx)),
    ("psi0_alpha", True, lambda x, ctx, t: psi0_alpha(x, F(1, 3), ctx)),
    ("T_sum", False, lambda x, ctx, t: T_sum(x, F(1, 3), ctx)),
    ("f_rhs_gt1", True, lambda x, ctx, t: f_rhs_gt1(x, ctx)),
    ("f_rhs_lt1", False, lambda x, ctx, t: f_rhs_lt1(x, ctx)),
    ("selberg_psi0", True, lambda x, ctx, t: selberg_psi0(x, F(1, 2), _ZETA, ctx)),
    ("selberg_T", False, lambda x, ctx, t: selberg_T(x, F(1, 2), _ZETA, ctx)),
    ("selberg_rhs_gt1", True, lambda x, ctx, t: selberg_rhs_gt1(x, F(1, 2), _ZETA, ctx)),
    ("selberg_rhs_lt1", False, lambda x, ctx, t: selberg_rhs_lt1(x, F(1, 2), _ZETA, ctx)),
    ("general_rhs_gt1", True, lambda x, ctx, t: general_rhs_gt1(x, _PF, ctx)),
    ("general_rhs_lt1", False, lambda x, ctx, t: general_rhs_lt1(x, _PF, ctx)),
    ("cosine_rhs", True, lambda x, ctx, t: cosine_rhs(x, ctx)),
    ("S_rhs_gt1", True, lambda x, ctx, t: S_rhs_gt1(x, ctx)),
    ("the s identity", True, lambda x, ctx, t: verify_identity("s", x, t, SumSpec(K=10), ctx)),
]


@pytest.mark.parametrize("name,above,call", SIDED, ids=[n for n, _, _ in SIDED])
def test_each_side_of_one_entry_refuses_the_other_side(ctx, fixture100, name, above, call):
    side = "x > 1" if above else "0 < x < 1"
    for x in (F(1), F(1, 2)) if above else (F(1), F(2), F(-1, 2)):
        with pytest.raises(ValueError) as refused:
            call(x, ctx, fixture100)
        assert str(refused.value) == f"{name} requires {side}, got {x}"


def test_one_owner_of_the_side_rule():
    # x decides the side: no function takes a gt1 flag, none in arith or
    # explicit a name to word a refusal with, and one function words it
    class Owners(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.stack = module, []

        def visit_FunctionDef(self, node):
            params = {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
            if "gt1" in params or ("name" in params and self.module in ("arith", "explicit")):
                flags.append(f"{self.module}.{node.name}")
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_JoinedStr(self, node):
            text = ast.unparse(node)
            if "requires" in text and ("x > 1" in text or "0 < x < 1" in text):
                owners.add(f"{self.module}.{'.'.join(self.stack)}")

        def visit_Constant(self, node):
            if isinstance(node.value, str):
                self.visit_JoinedStr(node)

    flags, owners = [], set()
    for path in sorted(Path(explicit.__file__).parent.glob("*.py")):
        Owners(path.stem).visit(ast.parse(path.read_text(), str(path)))
    assert not flags
    assert owners == {"arith.require_side"}

"""Closed-form right-hand sides, the auxiliary series f_u, rational
kernels, and the descriptor layer that generalizes both."""

import math
import random
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from zeta_explicit.arith import T_sum, kronecker_chi, psi0_alpha, shared_table
from zeta_explicit.explicit import (
    IDENTITY_IDS,
    L_weighted,
    S_rhs_gt1,
    cosine_rhs,
    descriptor_dirichlet,
    descriptor_zeta,
    dirichlet_L,
    dirichlet_log_deriv,
    f_rhs_gt1,
    f_rhs_lt1,
    f_u_closed,
    f_u_series,
    general_rhs_gt1,
    general_rhs_lt1,
    load_descriptor,
    partial_fractions,
    selberg_rhs_gt1,
    selberg_rhs_lt1,
    verify_identity,
    zeta_log_deriv,
)
from zeta_explicit.mpcore import HComplex, PrecisionContext
from explicit_oracles import (cosine_rhs_regrouped, f_u_closed_uncorrected,
                              zeta_log_deriv_dirichlet)
from zeta_explicit.zeros import SumSpec

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


def test_f_rhs_domains(ctx):
    with pytest.raises(ValueError):
        f_rhs_gt1(F(1, 2), ctx)
    with pytest.raises(ValueError):
        f_rhs_lt1(F(3, 2), ctx)


def test_weighted_prime_sum_routes_agree(ctx):
    # Three routes to Sum'_{n<=x} Lambda(n)/n must collapse.
    for x in (F(10), F(21, 2), F(8)):
        a = L_weighted(x, ctx).val
        c = T_sum(1 / x, F(0), ctx).val
        with ctx.workprec(16):
            b = psi0_alpha(x, F(1), ctx).val / ctx.mpf(x)
            assert abs(a - b) < TINY
            assert abs(a - c) < TINY


def test_cosine_regrouping_is_identity(ctx):
    for x in (F(4), F(9, 2), F(7), F(3, 2)):
        a = cosine_rhs(x, ctx).val
        b = cosine_rhs_regrouped(x, ctx).val
        with ctx.workprec(16):
            assert abs(a - b) < TINY


def test_cosine_rhs_frozen_value(ctx):
    assert cosine_rhs(F(4), ctx).str_digits(25) == \
        "-0.002111280731661878582360226"


def test_s_rhs_frozen_values(ctx):
    assert S_rhs_gt1(F(5, 2), ctx).str_digits(24) == \
        "0.410614333542983023608316"
    assert S_rhs_gt1(F(4), ctx).str_digits(25) == \
        "-0.4752081546601097160301093"


def test_zeta_log_deriv_closed_forms(ctx):
    # At s = 0 the value is log(2 pi); at s = 1/2 it is known in terms
    # of gamma and pi/2 log pi, checked against an mpmath reference.
    with ctx.workprec(16):
        assert abs(zeta_log_deriv(F(0), ctx).val - ctx.log_2pi) < TINY
    assert zeta_log_deriv(F(1, 2), ctx).str_digits(25) == \
        "2.686091709612832791116479"


def test_zeta_log_deriv_vs_dirichlet_series(ctx):
    value, tail = zeta_log_deriv_dirichlet(2.0)
    ref = float(zeta_log_deriv(F(2), ctx).val)
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
def test_f_u_closed_matches_series(u, r, t):
    ctx = PrecisionContext(bits=192)
    with ctx.workprec():
        z = mpc(r * math.cos(t), r * math.sin(t))
    a = f_u_closed(u, HComplex(z, ctx), ctx).val
    b = f_u_series(u, HComplex(z, ctx), ctx).val
    with ctx.workprec(16):
        assert abs(a - b) < mpf(1) / 10 ** 20


def test_f_u_frozen_oracle(ctx):
    z = ctx.mpf(F(1, 4))
    series = f_u_series(F(1, 2), ctx.real(z), ctx).real
    closed = f_u_closed(F(1, 2), ctx.real(z), ctx).real
    assert series.str_digits(20) == "0.19722457733621938279"
    with ctx.workprec(16):
        assert abs(series.val - closed.val) < TINY


def test_f_u_uncorrected_variant_fails_oracle(ctx):
    # The variant without the -q/p correction reproduces a known wrong
    # value; it is kept as a regression witness.
    z = ctx.mpf(F(1, 4))
    wrong = f_u_closed_uncorrected(F(1, 2), ctx.real(z), ctx).real
    assert wrong.str_digits(19) == "0.5493061443340548457"
    series = f_u_series(F(1, 2), ctx.real(z), ctx).real
    with ctx.workprec(16):
        assert abs(wrong.val - series.val) > mpf("0.35")


def test_f_u_integer_u_reduces_to_log(ctx):
    # u = 0: f_0(z) = -log(1 - z).
    z = ctx.mpf(F(1, 3))
    v = f_u_closed(F(0), ctx.real(z), ctx).val
    with ctx.workprec(16):
        assert abs(v + mpmath.log(1 - z)) < TINY


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


def test_general_gt1_specializes_to_plain_rhs(ctx):
    # Single pole at 0 with residue 1 reproduces the x > 1 right-hand
    # side up to the constant log(2 pi).
    pf = partial_fractions([F(1)], [F(0)])
    for x in (F(4), F(3, 2), F(21, 2)):
        g = general_rhs_gt1(x, pf, ctx).val
        f = f_rhs_gt1(x, ctx).val
        with ctx.workprec(16):
            assert abs(g - f - ctx.log_2pi) < TINY


def test_general_domain_guards(ctx):
    with pytest.raises(ValueError):
        general_rhs_gt1(F(4), partial_fractions([F(1)], [F(1)]), ctx)
    with pytest.raises(ValueError):
        general_rhs_gt1(F(4), partial_fractions([F(1)], [F(-2)]), ctx)
    with pytest.raises(ValueError):
        general_rhs_lt1(F(1, 4), partial_fractions([F(1)], [F(0)]), ctx)
    with pytest.raises(ValueError):
        general_rhs_lt1(F(1, 4), partial_fractions([F(1)], [F(3)]), ctx)


# ----------------------------------------------------------------------
# Descriptor layer
# ----------------------------------------------------------------------

def test_zeta_descriptor_invariants(ctx):
    zeta = descriptor_zeta()
    zeta.validate(ctx)
    assert zeta.degree() == 1
    with ctx.workprec(16):
        assert abs(zeta.conductor(ctx) - 1) < TINY
        assert abs(zeta.gamma_F(ctx) - ctx.euler_gamma) < TINY
    assert zeta.theta_shift() == 0


def test_dirichlet_descriptor_invariants(ctx):
    chi = kronecker_chi(1)
    d4 = descriptor_dirichlet(4, chi, ctx)
    d4.validate(ctx)
    assert d4.degree() == 1
    with ctx.workprec(16):
        assert abs(d4.conductor(ctx) - 4) < mpf(2) ** (-160)
    assert abs(d4.w - 1) < 1e-20  # real primitive character, root number 1


def test_dirichlet_descriptor_rejects_imprimitive(ctx):
    # The principal character mod 4 is induced from modulus 1.
    with pytest.raises(ValueError):
        descriptor_dirichlet(4, (0, 1, 0, 1), ctx)


def test_selberg_matches_plain_evaluators(ctx):
    zeta = descriptor_zeta()
    for x, a in ((F(3, 2), F(1, 3)), (F(4), F(1, 2)), (F(6), F(2, 3))):
        s = selberg_rhs_gt1(x, a, zeta, ctx).val.real
        g = general_rhs_gt1(x, partial_fractions([F(1)], [a]), ctx).val
        with ctx.workprec(16):
            assert abs(s - g) < TINY
    for x, a in ((F(1, 10), F(1, 3)), (F(2, 5), F(1, 2))):
        s = selberg_rhs_lt1(x, a, zeta, ctx).val.real
        g = general_rhs_lt1(x, partial_fractions([F(1)], [a]), ctx).val
        with ctx.workprec(16):
            assert abs(s - g) < TINY
    for x in (F(1, 10), F(1, 4)):
        s = selberg_rhs_lt1(x, 0, zeta, ctx).val.real
        f = f_rhs_lt1(x, ctx).val
        with ctx.workprec(16):
            assert abs(s - f) < TINY


def test_selberg_domain_guards(ctx):
    zeta = descriptor_zeta()
    with pytest.raises(ValueError):
        selberg_rhs_gt1(F(4), F(1), zeta, ctx)
    with pytest.raises(ValueError):
        selberg_rhs_gt1(F(4), F(0), zeta, ctx)  # m_F > 0 excludes 0
    with pytest.raises(ValueError):
        selberg_rhs_gt1(F(4), F(-2), zeta, ctx)  # trivial-zero chain


def test_load_descriptor_round_trip(ctx):
    text = """
label = zeta
m_F = 1
Q = 1/sqrt(pi)
gamma_factors = (1/2, 0)
w = 1
coeffs = builtin:zeta
"""
    d = load_descriptor(text, ctx)
    assert d.label == "zeta"
    d4 = load_descriptor("coeffs = dirichlet:4,1", ctx)
    assert d4.label == "dirichlet-4"
    with pytest.raises(ValueError, match="unknown descriptor keys"):
        load_descriptor("coeffs = builtin:zeta\nfoo = 1", ctx)
    with pytest.raises(ValueError):
        load_descriptor("coeffs = dirichlet:6,1", ctx)
    with pytest.raises(ValueError, match="key = value"):
        load_descriptor("just words", ctx)


def test_dirichlet_L_closed_forms(ctx):
    chi4 = kronecker_chi(1)
    v4, _ = dirichlet_L(F(1), 4, chi4, ctx)
    chi3 = kronecker_chi(3)
    v3, _ = dirichlet_L(F(1), 3, chi3, ctx)
    with ctx.workprec(16):
        assert abs(v4 - ctx.pi / 4) < mpf(1) / 10 ** 45
        assert abs(v3 - ctx.pi / (3 * mpmath.sqrt(3))) < mpf(1) / 10 ** 45


def test_dirichlet_log_deriv_closed_form(ctx):
    # (L'/L)(1) for the conductor-4 character equals
    # gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4).
    chi4 = kronecker_chi(1)
    v = dirichlet_log_deriv(F(1), 4, chi4, ctx).val
    with ctx.workprec(32):
        ref = mpmath.euler + 2 * mpmath.log(2) + 3 * mpmath.log(mpmath.pi) \
            - 4 * mpmath.loggamma(mpf(1) / 4)
        assert abs(v - ref) < mpf(1) / 10 ** 45


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


def test_verify_identity_report_shape(ctx, fixture100):
    spec = SumSpec(K=100)
    rep = verify_identity("von-mangoldt", F(21, 2), fixture100, spec, ctx)
    assert rep.identity == "von-mangoldt"
    assert rep.terms_used == 100
    assert rep.bits == 192
    assert rep.trend is not None and rep.tail is None
    assert rep.trend["pairs_half"] == 50
    assert abs(float(rep.residual.val)) < 0.02
    d = rep.to_dict()
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


def test_verify_identity_rejects_unknown(ctx, fixture100):
    with pytest.raises(ValueError):
        verify_identity("bogus", F(4), fixture100, SumSpec(K=10), ctx)


def test_verify_identity_rejects_label_mismatch(ctx, fixture100):
    chi = kronecker_chi(1)
    d4 = descriptor_dirichlet(4, chi, ctx)
    with pytest.raises(ValueError, match="label"):
        verify_identity("selberg-gt1", F(4), fixture100, SumSpec(K=10),
                        ctx, alpha=F(1, 2), F=d4)

"""Precision-context arithmetic, special-function evaluators, and
truncated power-series division."""

import ast
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from deriv_polys_reference import _deriv_polys
from em_reference import bernoulli
from em_reference import em_log_moments as em_log_moments_reference
from em_reference import em_plan as em_plan_reference
from zeta_explicit import mpcore
from zeta_explicit.explicit import f_u_closed
from zeta_explicit.liconst import build_stieltjes_table, stieltjes_shifted
from zeta_explicit.mpcore import (
    HReal,
    PrecisionContext,
    _em_plan,
    _eps_table,
    _exact,
    bernoulli_table,
    em_log_moments,
    exp_fixed,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log_fixed,
    power,
    series_ops,
    zeta_int,
)
from mp_views import as_mpf, as_pair, mp_euler, mp_pi, workprec

def test_context_rejects_low_precision():
    with pytest.raises(ValueError):
        PrecisionContext(bits=32)


def test_value_types_compare_hash_and_refuse_assignment(ctx):
    third = mpmath.mpf(1) / 3
    h = HReal(as_pair(third), ctx)
    assert h == HReal(as_pair(third), PrecisionContext(192)) and hash(h) == hash(HReal(as_pair(third), ctx))
    assert h != HReal(as_pair(third), PrecisionContext(256)) and h != third
    assert PrecisionContext() == ctx and len({ctx, PrecisionContext(bits=192)}) == 1
    for value, field in ((h, "val"), (h, "ctx"), (ctx, "bits")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert (h.val, h.ctx, ctx.bits) == (third, ctx, 192)
    with pytest.raises(AttributeError):
        h.extra = 1   # nor can a new attribute be set


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_values_refused(ctx, value):
    # an mpf is refused as a type, finite or not; a float has no exact
    # value to take at inf or nan
    v = mpmath.mpf(value)
    with pytest.raises(TypeError, match="got mpf"):
        HReal(v, ctx)
    with pytest.raises(TypeError, match="got mpf"):
        _exact(v)
    for refuse in (ctx.real, _exact):
        with pytest.raises((OverflowError, ValueError), match="cannot convert"):
            refuse(float(value))


def test_only_exact_values_are_taken(ctx):
    # int, Fraction, float, (man, exp) pair and HReal: an mpf is refused
    # by every converter, and a Fraction or float wherever no rounding
    # width is given, since a (man, exp) pair is read exactly
    v = mpmath.mpf(1) / 3
    for refuse in (lambda: HReal(v, ctx), lambda: ctx.real(v), lambda: _exact(v),
                   lambda: mpcore._fixed(v, 64)):
        with pytest.raises(TypeError, match="got mpf"):
            refuse()
    for x in (Fraction(1, 3), 0.5):
        with pytest.raises(TypeError, match=f"an HReal, got {type(x).__name__}"):
            HReal(x, ctx)


def test_mpf_exact_for_dyadic_fraction(ctx):
    assert ctx.real(Fraction(3, 4)).val == mpmath.mpf(3) / 4


def test_shared_constants_agree_with_mpmath(ctx):
    with mpmath.workprec(ctx.bits + 64):
        assert abs(mp_pi(ctx) - mpmath.pi) < mpmath.mpf(2) ** (-ctx.bits)
        log_2pi = as_mpf(*mpcore._log_pi(1, ctx.bits + mpcore._GUARD))
        assert abs(log_2pi - mpmath.log(2 * mpmath.pi)) < mpmath.mpf(2) ** (-ctx.bits + 4)


def test_str_digits_round_trips(ctx):
    v = ctx.real(Fraction(1, 3))
    s = v.str_digits(25)
    assert s.startswith("0.3333333333333333333333333")


def test_str_digits_capped_by_context_precision():
    # One digit fewer than the context holds: 17 at 64 bits, 37 at 128.
    third = Fraction(1, 3)
    assert PrecisionContext(64).real(third).str_digits(30) == "0." + "3" * 17
    assert PrecisionContext(128).real(third).str_digits(30) == "0." + "3" * 30
    assert PrecisionContext(128).real(third).str_digits(60) == "0." + "3" * 37


def test_real_rounds_a_wider_value_to_the_context():
    wide = PrecisionContext(256).real(Fraction(1, 3))
    narrow = PrecisionContext(64).real(wide)
    assert narrow.val._mpf_[3] <= 64
    assert narrow.val == PrecisionContext(64).real(Fraction(1, 3)).val


def _printer_cases(rng: random.Random, bits: int, n: int) -> list:
    """(man, exp) dyadics for nstr at n digits: random mantissas of up to
    bits bits at magnitudes 1e-300..1e300, exact decimal ties at digit n + 1
    ((2A+1) 2^-m has m decimals, the last a 5), and runs of 9s (1 - 2^-k,
    10^j - 1, and 99..9.5, a tie that carries into a new leading digit)."""
    out = []
    for _ in range(3):
        man = rng.getrandbits(rng.randint(1, bits)) | 1
        exp = round(rng.uniform(-300, 300) * 3.3219280948873626) - man.bit_length()
        out.append((man, exp))
    m = rng.randint(1, n)
    lo, hi = 10 ** n // 5 ** m + 1, 10 ** (n + 1) // 5 ** m
    if lo < hi:
        man = rng.randrange(lo, hi) | 1
        if len(str(man * 5 ** m)) == n + 1:
            out.append((man, -m))
    k = rng.randint(4, bits)
    out += [((1 << k) - 1, -k), (10 ** n - 1, 0), (2 * 10 ** n - 1, -1)]
    return [(s * man, exp) for man, exp in out if man.bit_length() <= bits for s in (1, -1)]


def test_printer_matches_mpmath_nstr():
    # str_digits and repr print in integers exactly what mpmath.nstr prints,
    # at every width 64..1024 in steps of 64 and every digit count 1..60
    rng = random.Random(46)
    for bits in range(64, 1025, 64):
        ctx = PrecisionContext(bits)
        for n in range(1, 61):
            for value in _printer_cases(rng, bits, n):
                h = ctx.real(value)
                assert h.val == mpmath.make_mpf(mpmath.libmp.from_man_exp(*value))
                want = mpmath.nstr(h.val, min(n, mpmath.libmp.prec_to_dps(bits) - 1))
                assert h.str_digits(n) == want, (bits, n, value)
                assert repr(h) == f"HReal({mpmath.nstr(h.val, 25)})", (bits, value)
    assert repr(ctx.real(0)) == "HReal(0.0)"
    for value in ((3, 4000), (-5, -4100), (1, -3600)):   # past 2^+-3500, in integers too
        h = ctx.real(value)
        assert (h.str_digits(12), repr(h)) == (mpmath.nstr(h.val, 12), f"HReal({mpmath.nstr(h.val, 25)})")
    with pytest.raises(ValueError, match="at least 1 significant digit, got 0"):
        ctx.real(Fraction(2, 3)).str_digits(0)


def test_real_rounds_as_mpmath_does():
    # ints, Fractions and dyadics rounded to nearest, ties to even, each with
    # one rounding: mpf_div's for p/q, normalize's for the others
    rng = random.Random(4646)
    for _ in range(3000):
        bits = rng.choice((64, 65, 128, 192, 320, 1024))
        p = rng.getrandbits(rng.randint(1, 2 * bits)) * rng.choice((1, -1))
        q = rng.getrandbits(rng.randint(1, 2 * bits)) or 1
        e = rng.randint(-2000, 2000)
        ctx = PrecisionContext(bits)
        for x, raw in ((Fraction(p, q), mpmath.libmp.from_rational(p, q, bits, "n")),
                       ((p, e), mpmath.libmp.from_man_exp(p, e, bits, "n")),
                       (p, mpmath.libmp.from_int(p, bits, "n"))):
            assert ctx.real(x).val == mpmath.make_mpf(raw), (x, bits)
    half = PrecisionContext(64).real((1 << 65) + 2)   # a tie, kept even
    assert (half.man, half.exp) == (1, 65)


def test_fixed_floors_as_mpmath_to_fixed():
    # _fixed(v, V) = floor(v 2^V) of a (man, exp) pair or its HReal
    # equals libmp.to_fixed, both signs, shifts left and right
    rng = random.Random(4747)
    ctx = PrecisionContext(64)
    for _ in range(3000):
        p = rng.getrandbits(rng.randint(1, 300)) * rng.choice((1, -1))
        e, V = rng.randint(-400, 100), rng.randint(0, 500)
        want = mpmath.libmp.to_fixed(mpmath.libmp.from_man_exp(p, e), V)
        assert mpcore._fixed((p, e), V) == want, (p, e, V)
        assert mpcore._fixed(HReal((p, e), ctx), V) == want, (p, e, V)


def test_integer_constants_match_mpmath():
    # floor(pi 2^W) and floor(gamma 2^W) are floor-exact against mpmath at
    # W + 64; pi, gamma, log 2pi and log 4pi at W bits are mpmath's values
    # there, bit for bit, as are f_const's gamma and -log 2pi at each walk
    # width W = bits + 48 (_K_CONST, to_fixed of mpmath at W + 8)
    from zeta_explicit import explicit
    for bits in range(64, 1101):
        for W in (bits + 32, bits + 48):
            with mpmath.workprec(W + 64):
                assert mpcore._pi_fixed(W) == mpmath.libmp.to_fixed(mpmath.pi._mpf_, W), W
                assert mpcore._gamma_fixed(W) == mpmath.libmp.to_fixed(mpmath.euler._mpf_, W), W
            with mpmath.workprec(W):
                for got, want in ((mpcore._constant(mpcore._pi_fixed, W), +mpmath.pi),
                                  (mpcore._constant(mpcore._gamma_fixed, W), +mpmath.euler),
                                  (mpcore._log_pi(1, W), mpmath.log(2 * mpmath.pi)),
                                  (mpcore._log_pi(2, W), mpmath.log(4 * mpmath.pi))):
                    assert as_mpf(*got) == want, W
        W = bits + 48
        explicit.f_const(Fraction(3, 2), PrecisionContext(bits))
        with mpmath.workprec(W + 8):
            parent = [mpmath.libmp.to_fixed(c._mpf_, W)
                      for c in (+mpmath.euler, -mpmath.log(2 * mpmath.pi))]
        assert explicit._K_CONST[W] == parent, W
    ctx = PrecisionContext(1024)
    with mpmath.workprec(1024 + 32):
        assert (mp_pi(ctx), mp_euler(ctx)) == (+mpmath.pi, +mpmath.euler)


def test_bernoulli_table():
    assert bernoulli(0) == Fraction(1)
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(7) == Fraction(0)
    with pytest.raises(ValueError, match="Bernoulli index must be >= 0"):
        bernoulli(-1)


def test_bernoulli_matches_mpmath():
    for n in range(301):
        assert bernoulli(n) == Fraction(*mpmath.bernfrac(n)), n


def test_bernoulli_table_is_integers_over_one_denominator():
    # D B_j is an integer for every j <= 300, the table's own entry
    D, table = bernoulli_table(300)
    for j in range(301):
        assert D * Fraction(*mpmath.bernfrac(j)) == table[j], j


def test_zeta_int_even_closed_forms(ctx):
    with workprec(ctx, 16):
        assert abs(zeta_int(2, ctx).val - mpmath.pi ** 2 / 6) < mpmath.mpf(2) ** (-180)
        assert abs(zeta_int(4, ctx).val - mpmath.pi ** 4 / 90) < mpmath.mpf(2) ** (-180)


def test_zeta_int_vs_mpmath(ctx):
    with mpmath.workprec(ctx.bits + 64):
        for j in (3, 5, 11):
            assert abs(zeta_int(j, ctx).val - mpmath.zeta(j)) \
                < mpmath.mpf(2) ** (-ctx.bits + 8)


@pytest.mark.parametrize("bits", (64, 128, 192, 256, 512, 1024))
def test_zeta_int_along_the_precision_axis(bits):
    # The integer loop against mpmath at bits + 64: within 2^(1-bits) zeta(j).
    ctx = PrecisionContext(bits=bits)
    with mpmath.workprec(bits + 64):
        for j in tuple(range(2, 41)) + (64, 200):
            ref = mpmath.zeta(j)
            assert abs(zeta_int(j, ctx).val - ref) <= mpmath.mpf(2) ** (1 - bits) * ref, j


@pytest.mark.parametrize("bits", (128, 1024))
def test_stieltjes_table_S1_column(bits):
    # S1(n) = Sum_{j=2}^{n} C(n, j) (-1)^j (1 - 2^-j) zeta(j), with mpmath's
    # zeta at bits + 64: within 2^(2-bits) (|S1(n)| + 1).
    table = build_stieltjes_table(12, PrecisionContext(bits=bits))
    with mpmath.workprec(bits + 64):
        for n in range(1, 13):
            ref = sum((math.comb(n, j) * (-1) ** j * (1 - mpmath.mpf(2) ** -j)
                       * mpmath.zeta(j) for j in range(2, n + 1)), mpmath.mpf(0))
            assert abs(table.S1[n - 1].val - ref) \
                <= mpmath.mpf(2) ** (2 - bits) * (abs(ref) + 1), n


def test_zeta_int_rejects_bad_argument(ctx):
    with pytest.raises(ValueError):
        zeta_int(1, ctx)
    with pytest.raises(ValueError):
        zeta_int(2.0, ctx)


@pytest.mark.parametrize("s,a", [(Fraction(3, 2), Fraction(1, 4)),
                                 (Fraction(2), Fraction(1)),
                                 (Fraction(5), Fraction(2, 3)),
                                 (Fraction(-1, 2), Fraction(2, 5))])
def test_hurwitz_zeta_matches_reference(ctx, s, a):
    value, bound = hurwitz_zeta(s, a, ctx)
    with mpmath.workprec(ctx.bits + 96):
        ref = mpmath.zeta(mpmath.mpf(s.numerator) / s.denominator,
                          mpmath.mpf(a.numerator) / a.denominator)
        err = abs(value.val - ref)
    assert err <= bound.val + mpmath.mpf(2) ** (-ctx.bits + 8)
    assert err < mpmath.mpf(2) ** (-160)


def test_hurwitz_zeta_rejects_pole(ctx):
    with pytest.raises(ValueError):
        hurwitz_zeta(1, Fraction(1, 4), ctx)


def test_hurwitz_zeta_rejects_shift_outside_unit(ctx):
    with pytest.raises(ValueError):
        hurwitz_zeta(Fraction(3, 2), Fraction(7, 3), ctx)


@pytest.mark.parametrize("a", [Fraction(0), Fraction(-1, 2)])
def test_em_log_moments_refuses_a_nonpositive_shift(ctx, a):
    with pytest.raises(ValueError, match="shift must be positive"):
        em_log_moments(2, a, 1, ctx)


def test_hurwitz_zeta_near_the_pole_is_not_the_pole():
    # s = 1 + 2^-300 rounds to 1 at 192 bits; the check sees the exact s.
    ctx = PrecisionContext(bits=192)
    value, bound = hurwitz_zeta(1 + Fraction(1, 2 ** 300), Fraction(1, 2), ctx)
    with mpmath.workprec(512):
        ref = mpmath.zeta(1 + mpmath.mpf(2) ** -300, mpmath.mpf(1) / 2)
        assert abs(value.val - ref) <= bound.val
    assert bound.val < mpmath.mpf(2) ** (300 - 190)


def test_hurwitz_zeta_takes_a_shift_below_the_float_range():
    # a = 2^-1100 lies in (0, 1] but is 0.0 as a float: the sign check and
    # the plan read the exact a.
    ctx, a = PrecisionContext(bits=192), Fraction(1, 2 ** 1100)
    value, bound = hurwitz_zeta(2, a, ctx)
    with mpmath.workprec(320):
        ref = mpmath.zeta(2, mpmath.mpf(2) ** -1100)
        assert abs(value.val - ref) <= bound.val
        assert bound.val <= abs(ref) * mpmath.mpf(2) ** -180


def test_hurwitz_zeta_rejects_shift_just_above_one():
    # a = 1 + 2^-300 rounds to 1 at 192 bits; the check sees the exact a.
    with pytest.raises(ValueError):
        hurwitz_zeta(3, 1 + Fraction(1, 2 ** 300), PrecisionContext(bits=192))


def test_hurwitz_zeta_ds_matches_reference(ctx):
    value, bound = hurwitz_zeta_ds(Fraction(3, 2), Fraction(1, 3), ctx)
    with mpmath.workprec(ctx.bits + 96):
        ref = mpmath.zeta(mpmath.mpf(3) / 2, mpmath.mpf(1) / 3, 1)
        err = abs(value.val - ref)
    assert err <= bound.val + mpmath.mpf(2) ** (-ctx.bits + 8)
    assert err < mpmath.mpf(2) ** (-160)


@pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(1, 2), Fraction(1)])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_hurwitz_zeta_at_nonpositive_integers(ctx, m, a):
    # zeta(-m, a) = -B_{m+1}(a)/(m+1): f(t) = t^m is a polynomial, so the
    # Euler-Maclaurin sum is exact and only rounding enters the bound.
    x = a
    bernoulli_poly = [x - Fraction(1, 2), x * x - x + Fraction(1, 6),
                      x ** 3 - 3 * x * x / 2 + x / 2][m]
    exact = -bernoulli_poly / (m + 1)
    value, bound = hurwitz_zeta(-m, a, ctx)
    with workprec(ctx, 64):
        err = abs(value.val - mpmath.mpf(exact.numerator) / exact.denominator)
    assert bound.val < mpmath.mpf(2) ** (4 - ctx.bits)
    assert err <= bound.val


core_s = st.one_of(st.just(Fraction(1)),
                   st.fractions(min_value=-5, max_value=6, max_denominator=12)
                   .filter(lambda s: s != 1))
core_a = st.fractions(min_value=0, max_value=1, max_denominator=12) \
    .filter(lambda a: a > 0)


@settings(max_examples=40, deadline=None)
@given(core_s, core_a, st.integers(min_value=0, max_value=3),
       st.sampled_from([64, 128, 192, 320]))
def test_em_log_moments_against_mpmath(s, a, N, bits):
    ctx = PrecisionContext(bits=bits)
    out = em_log_moments(s, a, N, ctx)
    with mpmath.workprec(bits + 64):
        sv = mpmath.mpf(s.numerator) / s.denominator
        av = mpmath.mpf(a.numerator) / a.denominator
        for n, (value, bound) in enumerate(out):
            ref = mpmath.stieltjes(n, av) if s == 1 \
                else (-1) ** n * mpmath.zeta(sv, av, n)
            slack = mpmath.mpf(2) ** (8 - bits) * max(1, abs(ref))
            assert abs(value.val - ref) <= bound.val + slack, (s, a, n, bits)


ref_s = st.one_of(st.just(Fraction(1)),
                  st.integers(min_value=-2, max_value=6).map(Fraction),
                  st.integers(min_value=-3, max_value=6).map(lambda u: Fraction(2 * u + 1, 2)),
                  st.builds(Fraction, st.integers(min_value=-20, max_value=60),
                            st.integers(min_value=3, max_value=12)))
ref_a = st.builds(Fraction, st.integers(min_value=1, max_value=30),
                  st.integers(min_value=1, max_value=12))


@settings(max_examples=60, deadline=None)
@given(ref_s, ref_a, st.integers(min_value=0, max_value=9),
       st.sampled_from([64, 128, 192, 320, 512, 1024]))
# every branch of the closing: integer, half-integer and other s, s = 1,
# the exact polynomial case (s <= 0, n = 0, M = 1) and u < 0
@example(Fraction(3), Fraction(1, 3), 2, 192)
@example(Fraction(5, 2), Fraction(2, 7), 1, 256)
@example(Fraction(4, 3), Fraction(5, 7), 3, 128)
@example(Fraction(1), Fraction(7, 2), 4, 320)
@example(Fraction(-2), Fraction(3, 4), 0, 128)
@example(Fraction(-7, 5), Fraction(1, 9), 2, 192)
def test_em_log_moments_against_mpf_reference(s, a, N, bits):
    # The integer pass against the mpf pass it replaced: the values agree
    # within the two bounds, no bound grows by more than 1%, and each bound
    # is the reference's formula, to 1e-9 relative.
    ctx = PrecisionContext(bits=bits)
    new = em_log_moments(s, a, N, ctx)
    old = em_log_moments_reference(s, a, N, ctx)
    with mpmath.workprec(bits + 64):
        for n, ((v1, b1), (v0, b0)) in enumerate(zip(new, old)):
            assert abs(v1.val - v0.val) <= b1.val + b0.val, (s, a, N, bits, n)
            assert b1.val <= b0.val * mpmath.mpf(1.01), (s, a, N, bits, n)
            assert abs(b1.val - b0.val) <= b0.val * mpmath.mpf(1e-9), (s, a, N, bits, n)


@pytest.mark.parametrize("s,N,bits,shifts", [
    (Fraction(4, 3), 1, 192, [Fraction(a, 7) for a in range(1, 7)]),   # chi_-7's residues
    (Fraction(1), 4, 256, [Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(2, 7)]),
    (Fraction(-3, 2), 0, 128, [Fraction(1, 5), Fraction(3, 5), Fraction(1), Fraction(9, 4)])])
def test_em_set_up_does_not_depend_on_history(s, N, bits, shifts):
    # The set-up shared by the shifts of one (s, N, bits) gives the same
    # values and bounds whichever order the shifts run in, with calls at
    # other widths and orders in between (some evicting the key), and
    # from cleared caches.
    def run(order):
        return {a: em_log_moments(s, a, N, PrecisionContext(bits)) for a in order}

    mpcore._em_setup.cache_clear()
    first, mixed = run(shifts), {}
    for k, a in enumerate(reversed(shifts)):
        for other in range(k % 2 * 5):
            em_log_moments(s, a, N + 1 + other % 2, PrecisionContext(bits + 64 * (other + 1)))
        mixed.update(run([a]))
        em_log_moments(Fraction(5, 2), a, N, PrecisionContext(bits))
    mpcore._em_setup.cache_clear()
    assert mixed == first and run(shifts[::-1]) == first


def test_values_do_not_depend_on_the_bernoulli_table_size(monkeypatch):
    # The common denominator D grows with the Bernoulli table; each use
    # divides by it in one floored ratio, so the Euler-Maclaurin values
    # and bounds (2K <= 40 at 64 and 128 bits, 54 at 192) and f_u's
    # Lerch branch come out the same from a table first grown to 40 or 300.
    def run(size):
        monkeypatch.setattr(mpcore, "_BERNOULLI", (2, [2, -1]))
        mpcore._em_setup.cache_clear()
        bernoulli_table(size)
        em = [em_log_moments(s, a, N, PrecisionContext(bits))
              for s, a, N, bits in ((Fraction(4, 3), Fraction(2, 7), 2, 64),
                                    (Fraction(1), Fraction(1, 3), 3, 128),
                                    (Fraction(-7, 5), Fraction(1), 1, 128),
                                    (Fraction(5, 2), Fraction(3, 4), 1, 192))]
        z = 1 - Fraction(1, 2 ** 20)
        return em, [f_u_closed(u, z, PrecisionContext(bits)) for u in (Fraction(1, 3), Fraction(1, 1009))
                    for bits in (128, 192)]

    assert run(40) == run(300)
    mpcore._em_setup.cache_clear()


PLAN_S = (Fraction(1), Fraction(4, 3), Fraction(5, 3), Fraction(3, 2), Fraction(9, 2),
          Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 5), Fraction(-2))


def _plan_or_refusal(plan, *args):
    try:
        return plan(*args)
    except ArithmeticError as err:
        return str(err)


@pytest.mark.parametrize("s", PLAN_S)
def test_em_plan_matches_float_majorant_plan(s):
    # The plan reads the exact coefficient row of the certified bound; the
    # float majorant it replaced equals that row for s > 0 and bounds it
    # for s <= 0.  So (M, K) is the same for s > 0, and for s <= 0 K is the
    # same and M never larger (a refusal counts as larger than any M).
    for bits in (64, 128, 192, 256, 320, 1024):
        for N in (0, 1, 4, 9, 100):
            for a in (Fraction(1), Fraction(1, 3), Fraction(2, 7)):
                new = _plan_or_refusal(_em_plan, s, a, N, bits)
                old = _plan_or_refusal(em_plan_reference, float(s), a, N, bits)
                if s > 0:
                    assert new == old, (s, a, N, bits)
                elif not isinstance(old, str):
                    assert new[1] == old[1] and new[0] <= old[0], (s, a, N, bits, new, old)


def test_em_plan_refusal_where_the_float_estimate_overflows():
    # gamma_400 at 1024 bits: the float majorant's polynomial is inf at
    # the budget's cap, the log-sum-exp finite; both refuse, in one text.
    s, a, N, bits = Fraction(1), Fraction(1), 400, 1024
    with pytest.raises(ArithmeticError) as old:
        em_plan_reference(float(s), a, N, bits)
    with pytest.raises(ArithmeticError) as new:
        _em_plan(s, a, N, bits)
    assert str(new.value) == str(old.value)
    assert "Euler-Maclaurin plan" in str(new.value) and "1048576" in str(new.value)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=-6, max_value=6, max_denominator=24),
       st.integers(min_value=0, max_value=6))
def test_eps_table_matches_derivative_recurrence(s, n):
    # v^j P_j(L) = Sum_i n!/(n-i)! C[j][i] L^(n-i) (s = u/v), coefficient
    # of L^m at index m, must equal v^j times the per-order recurrence
    # exactly.
    count = 12
    c = _eps_table(s, n, count)
    for j, ref in enumerate(_deriv_polys(s, n, count)):
        built = [math.factorial(n) // math.factorial(m) * c[j][n - m]
                 for m in range(n + 1)]
        assert built == [x * s.denominator ** j for x in ref], (s, n, j)


def test_certified_bounds_tighten_with_precision():
    ladder = (64, 128, 256, 512, 1024)
    routes = (lambda ctx: hurwitz_zeta(Fraction(3, 2), Fraction(1, 3), ctx),
              lambda ctx: hurwitz_zeta_ds(Fraction(3, 2), Fraction(1, 3), ctx),
              lambda ctx: stieltjes_shifted(1, Fraction(2, 7), ctx))
    for route in routes:
        bounds = [route(PrecisionContext(bits=b))[1].val for b in ladder]
        assert all(b1 < b0 for b0, b1 in zip(bounds, bounds[1:])), bounds


small_coeffs = st.lists(st.fractions(min_value=-4, max_value=4,
                                     max_denominator=16),
                        min_size=3, max_size=6)


@settings(max_examples=30, deadline=None)
@given(small_coeffs, small_coeffs)
def test_series_div_undoes_mul(a_coeffs, b_coeffs):
    # in units of 2^-192: each coefficient of a b floored, divided by b's,
    # gives back a's within the 2^42 units that the old 2^-150 allowed
    V = 192
    if b_coeffs[0] == 0:
        b_coeffs[0] = Fraction(1)
    n = min(len(a_coeffs), len(b_coeffs))
    product = [sum(a_coeffs[i] * b_coeffs[k - i] for i in range(k + 1))
               for k in range(n)]
    r = series_ops([math.floor(c * 2 ** V) for c in product],
                   [math.floor(c * 2 ** V) for c in b_coeffs], V)
    assert len(r) == n and all(isinstance(q, int) for q in r)
    for k in range(n):
        assert abs(r[k] - a_coeffs[k] * 2 ** V) < 2 ** (V - 150)


def test_series_div_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        series_ops([1 << 64, 2 << 64], [0, 0], 64)


def _log_arguments() -> list[tuple[int, int]]:
    """(n, d): random n/d up to 10^200 on both sides of 1, powers of two,
    the grid points 1 + j/256, the integers 1 to 3000, and ratios just
    off grid points and just below 2."""
    rng = random.Random(31)
    args = [(rng.randrange(1, 10 ** rng.randrange(1, 201)), rng.randrange(1, 10 ** rng.randrange(1, 201)))
            for _ in range(200)]
    args += [(2 ** k, 1) for k in range(0, 700, 37)] + [(1, 2 ** k) for k in range(0, 700, 37)]
    args += [(256 + j, 256) for j in range(257)] + [(n, 1) for n in range(1, 3001)]
    args += [(((256 + j) << 300) + t, 1 << 308) for j in (0, 1, 255) for t in (-1, 1)]
    return args + [((1 << 301) - 1, 1 << 300), ((1 << 700) - 1, (1 << 699) + 1)]


@pytest.mark.parametrize("V", [64, 112, 240, 560, 1072])
def test_log_fixed_within_one_unit(V):
    # Against mpmath's log at V + 64 bits: every value within 1 unit of 2^-V.
    with mpmath.workprec(V + 64):
        for n, d in _log_arguments():
            ref = mpmath.ldexp(mpmath.log(mpmath.mpf(n)) - mpmath.log(mpmath.mpf(d)), V)
            assert abs(log_fixed(n, d, V) - ref) < 1, (n, d, V)


def test_log_fixed_does_not_depend_on_history(monkeypatch):
    # The same integers from a cold table set and from widths filled in
    # the reverse order; each width's tables come out the same too.
    args, widths = _log_arguments()[::7], [64, 112, 240, 560, 1072]
    monkeypatch.setattr(mpcore, "_LOGS", {})
    first = {V: [log_fixed(n, d, V) for n, d in args] for V in widths}
    tables = dict(mpcore._LOGS)
    mpcore._LOGS.clear()
    again = {V: [log_fixed(n, d, V) for n, d in args] for V in reversed(widths)}
    assert again == first and mpcore._LOGS == tables


def test_no_module_names_mpf_log():
    # Every log of an exact argument is log_fixed's and every exp
    # exp_fixed's: no package module reaches for mpmath's mpf_log or for
    # anything in its libelefun.
    package = Path(mpcore.__file__).parent
    assert [p.name for p in package.rglob("*.py")
            if "mpf_log" in p.read_text() or "libelefun" in p.read_text()] == []


def test_only_the_mpf_views_import_mpmath():
    # One number system and no runtime dependency: mpmath is imported only
    # where an HReal becomes an mpf, HReal.val, which tests and benchmarks read
    found = set()

    def visit(node, where, name):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Import) and any(a.name.split(".")[0] == "mpmath" for a in child.names)
                    or isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "mpmath"
                    or isinstance(child, ast.Constant) and child.value == "mpmath"):
                found.add((name, where))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where, name)
    for path in sorted(Path(mpcore.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.name)
    assert found == {("mpcore.py", "val")}


def test_precision_context_holds_only_its_bits():
    # no mpmath view and no process-wide precision: bits and real alone
    assert [n for n in dir(PrecisionContext(64)) if not n.startswith("_")] == ["bits", "real"]


def test_floor_exact_refuses_an_exact_value():
    # c = 2 is exact: A - 1 and A + 1 floor apart at every width, and the
    # widening stops at its cap instead of recursing without end
    with pytest.raises(ArithmeticError, match="may be an integer"):
        mpcore._floor_exact(lambda G: (2 << G, 1), 64)
    assert mpcore._floor_exact(lambda G: ((5 << G) // 2, 1), 0) == 2


def _exp_arguments(V: int, rng: random.Random) -> list[int]:
    """x in units of 2^-V: 0, floor(k log 2 2^V) for k = +-1, +-7, +-1000
    and the ties (k + 1/2) log 2 of the reduction, and random values of
    both signs below 1, 20 and 2^12 in size."""
    with mpmath.workprec(V + 64):
        ln2 = mpmath.ldexp(mpmath.log(2), V)
        args = [int(mpmath.floor(k * ln2)) for k in (1, 7, 1000, 1.5, 7.5)]
    args += [rng.randrange(1 << V), rng.randrange(20 << V), rng.randrange(1 << V + 12)]
    return [0] + args + [-x for x in args]


@pytest.mark.parametrize("bits", range(64, 1089, 64))
def test_exp_fixed_within_two_units(bits):
    # Against mpmath's exp at V + 64 bits past the value's own size, for V
    # = bits + 32 and bits + 48: every value within its stated 2 units.
    rng = random.Random(bits)
    for V in (bits + 32, bits + 48):
        for x in _exp_arguments(V, rng):
            with mpmath.workprec(V + 64 + max(0, 2 * (x >> V))):
                ref = mpmath.ldexp(mpmath.exp(mpmath.ldexp(x, -V)), V)
                assert abs(exp_fixed(x, V) - ref) < 2, (x, V)


@pytest.mark.parametrize("bits", [64, 192, 1024])
def test_power_exact_at_integers_else_within_its_units(bits):
    # y^t: the exact power at an integer t; else within (|t| + 3)
    # 2^-(bits+32) of mpmath's power at bits + 96, relative, also where
    # y^t is far below 1.
    ctx = PrecisionContext(bits)
    assert power(Fraction(2, 3), Fraction(-5), ctx) == Fraction(243, 32)
    for y in (Fraction(2), Fraction(1, 1000), Fraction(10 ** 30 + 1, 7), Fraction(4)):
        for t in (Fraction(1, 2), Fraction(-1, 3), Fraction(7, 3), Fraction(-40, 7)):
            got = power(y, t, ctx)
            with mpmath.workprec(bits + 96):
                ref = mpmath.power(mpmath.mpf(y.numerator) / y.denominator,
                                   mpmath.mpf(t.numerator) / t.denominator)
                gap = abs(mpmath.mpf(got.numerator) / got.denominator - ref) / ref
                assert gap < (abs(t) + 3) * mpmath.mpf(2) ** -(bits + 32), (y, t)

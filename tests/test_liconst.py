"""Stieltjes constants with certified bounds, the eta expansion of the
log-derivative, Li coefficients, and the two-sided growth bounds."""

import math
import re
from fractions import Fraction

import mpmath
from mpmath import mpf
import numpy
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from zeta_explicit import liconst, zeros
from zeta_explicit.liconst import (
    StieltjesTable,
    build_stieltjes_table,
    eta_from_gamma,
    lambda_direct,
    li_lambda_identity,
    rh_statistic,
    stieltjes,
    stieltjes_shifted,
)
from zeta_explicit.mpcore import PrecisionContext
from zeta_explicit.zeros import SumSpec
from liconst_helpers import build_stieltjes_table_mpf, coffey_decomposition
from mp_views import as_pair, mp_euler, workprec

F = Fraction

LAMBDA_ANCHORS = {
    1: 0.02309570896612103,
    2: 0.09234573522804667,
    3: 0.2076389205543248,
    4: 0.3687904794922416,
    5: 0.5755427144611775,
}


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
def test_stieltjes_matches_mpmath(ctx, n):
    value, bound = stieltjes(n, ctx=ctx)
    with mpmath.workprec(ctx.bits + 64):
        ref = mpmath.stieltjes(n)
        err = abs(value.val - ref)
    assert err <= bound.val
    assert err < mpf(1) / 10 ** 40


def test_stieltjes_bound_is_honest(ctx):
    # Doubling the precision moves the value by less than the coarser
    # certified bound.
    wide = PrecisionContext(bits=384)
    for n in (1, 3, 7):
        v1, b1 = stieltjes(n, ctx=ctx)
        v2, _ = stieltjes(n, ctx=wide)
        with workprec(wide, 16):
            assert abs(v1.val - v2.val) <= b1.val


def test_stieltjes_domain_guards(ctx):
    # gamma_100 at 128 bits needs M (N+1) of about 2.7e6 shift-orders,
    # over the 2^20 budget: refused by the plan, before any summation.
    with pytest.raises(ArithmeticError):
        stieltjes(100, ctx=PrecisionContext(bits=128))
    with pytest.raises(ValueError):
        stieltjes(-1, ctx=ctx)
    with pytest.raises(ValueError):
        stieltjes_shifted(0, F(-1, 2), ctx)
    with pytest.raises(ValueError):
        stieltjes_shifted(0, F(0), ctx)


def _refuse(*args, **kwargs):
    raise AssertionError("summation ran before the input check")


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0, -1e-300])
def test_bad_tolerance_refused_before_summation(ctx, fixture100, monkeypatch,
                                                tolerance):
    monkeypatch.setattr(zeros, "zero_sum", _refuse)
    with pytest.raises(ValueError, match=re.escape(f"tolerance = {tolerance!r}")):
        rh_statistic(fixture100, SumSpec(K=5), ctx, tolerance=tolerance)


@pytest.mark.parametrize("bits", [128, 192])
def test_stieltjes_past_order_29(bits):
    value, bound = stieltjes(40, ctx=PrecisionContext(bits=bits))
    with mpmath.workprec(bits + 64):
        err = abs(value.val - mpmath.stieltjes(40))
    assert err <= bound.val


def test_stieltjes_order_40_bound_falls_with_precision():
    bounds = [stieltjes(40, ctx=PrecisionContext(bits=b))[1].val
              for b in (128, 256, 512)]
    assert all(b1 < b0 for b0, b1 in zip(bounds, bounds[1:])), bounds


def test_shifted_order_zero_is_digamma(ctx):
    for a in (F(1, 4), F(1, 3), F(3, 7)):
        value, bound = stieltjes_shifted(0, a, ctx)
        with mpmath.workprec(ctx.bits + 64):
            ref = -mpmath.digamma(mpmath.mpf(a.numerator) / a.denominator)
            err = abs(value.val - ref)
        assert err <= bound.val
        assert err < mpf(1) / 10 ** 40


def test_shifted_takes_a_shift_above_the_float_range(ctx):
    # a = 10^400 overflows a float: the plan takes log(M + a) from the
    # exact integers.
    value, bound = stieltjes_shifted(0, 10 ** 400, ctx)
    with mpmath.workprec(ctx.bits + 64):
        ref = -mpmath.digamma(mpmath.mpf(10) ** 400)
        err = abs(value.val - ref)
    assert err <= bound.val
    assert err < mpf(1) / 10 ** 40


def test_shifted_reduces_to_plain(ctx):
    v1, _ = stieltjes_shifted(1, F(1), ctx)
    v2, _ = stieltjes(1, ctx=ctx)
    assert v1.val == v2.val


def test_raw_limit_extrapolation_oracle():
    # Independent double-precision oracle: fit a + b/m + c/m^2 through
    # the partial sums Sum_{k<=m} 1/k - log m, then a -> gamma_0.
    ms = [10 ** 3, 10 ** 4, 10 ** 5]
    rows, rhs = [], []
    for m in ms:
        rows.append([1.0, 1.0 / m, 1.0 / m ** 2])
        rhs.append(math.fsum(1.0 / k for k in range(1, m + 1)) - math.log(m))
    gamma0 = float(numpy.linalg.solve(numpy.array(rows), numpy.array(rhs))[0])
    assert abs(gamma0 - 0.5772156649015329) < 1e-9

    # Same protocol for gamma_1 with basis {1, log m / m, 1/m}.
    rows, rhs = [], []
    for m in ms:
        rows.append([1.0, math.log(m) / m, 1.0 / m])
        rhs.append(math.fsum(math.log(k) / k for k in range(2, m + 1))
                   - math.log(m) ** 2 / 2)
    gamma1 = float(numpy.linalg.solve(numpy.array(rows), numpy.array(rhs))[0])
    assert abs(gamma1 - (-0.0728158454836767)) < 1e-8


def test_eta_closed_form_duals(ctx, consts8):
    g0 = consts8.gammas[0][0].val
    g1 = consts8.gammas[1][0].val
    g2 = consts8.gammas[2][0].val
    with workprec(ctx, 16):
        assert abs(consts8.etas[0].val + g0) < mpf(2) ** (-150)
        assert abs(consts8.etas[1].val - (g0 * g0 + 2 * g1)) < mpf(2) ** (-150)
        assert abs(consts8.etas[2].val
                   - (-F(3, 2) * g2 - 3 * g0 * g1 - g0 ** 3)) < mpf(2) ** (-150)


def test_eta_from_gamma_truncates_consistently(ctx, consts8):
    # eta_n reads gamma_0..gamma_n only: a shorter input gives the same
    # leading coefficients bit for bit, and the context-precision gammas
    # reproduce the table's wide-precision etas.
    gammas = [v for v, _ in consts8.gammas]
    full = eta_from_gamma(gammas, ctx)
    assert len(full) == consts8.order + 1
    for G in (1, 3, 6):
        short = eta_from_gamma(gammas[:G + 1], ctx)
        assert [e.val for e in short] == [e.val for e in full[:G]]
    with workprec(ctx, 16):
        for e, ref in zip(full, consts8.etas):
            assert abs(e.val - ref.val) < mpf(2) ** (-180)


def test_eta_from_gamma_rejects_short_input(ctx):
    with pytest.raises(ValueError):
        eta_from_gamma([ctx.real(0)], ctx)


def test_lambda_anchors(consts8):
    for n, ref in LAMBDA_ANCHORS.items():
        assert float(consts8.lam(n).val) == pytest.approx(ref, abs=1e-15)


def test_li_lambda_identity_is_table_value(ctx, consts8):
    for n in (1, 3, 8):
        assert li_lambda_identity(n, consts8, ctx).val == consts8.lam(n).val


def test_table_shape(ctx, consts8, cli_json):
    assert isinstance(consts8, StieltjesTable)
    assert consts8.order == 8
    assert consts8.gammas[3][1].val > 0
    d = cli_json("stieltjes", "--n", "8", "--table")
    assert {"order", "gammas", "etas", "lambdas"} <= set(d)
    for n in (0, -1, 9):   # lambdas[n - 1] would read lambda_8 or lambda_7 below 1
        with pytest.raises(ValueError, match="outside the table's orders"):
            consts8.lam(n)
    for N in (0, -1):
        with pytest.raises(ValueError, match=f"table order must be >= 1, got {N}"):
            build_stieltjes_table(N, ctx)


@pytest.mark.parametrize("bits", [64, 128, 192, 512, 1024])
@pytest.mark.parametrize("N", [1, 2, 8, 20])
def test_table_matches_the_mpf_assembly(bits, N):
    # the integer division, sums and bounds round every entry to the value
    # the earlier mpf assembly at bits + 64 + N gave: each gamma, bound, eta,
    # S1, S2 and lambda
    ctx = PrecisionContext(bits=bits)
    table, oracle = build_stieltjes_table(N, ctx), build_stieltjes_table_mpf(N, ctx)
    for name in ("gammas", "etas", "S1", "S2", "lambdas"):
        assert getattr(table, name) == getattr(oracle, name), name
    assert len(table.etas) == N + 1 and len(table.lambdas) == N


def test_table_rounds_once_at_context_precision():
    # The division and the binomial sums run with guard bits, so every
    # eta_n and lambda_n of a 128-bit table is within 2^(2-bits) of the
    # 384-bit table, relative to max(1, |ref|).
    bits = 128
    coarse = build_stieltjes_table(8, PrecisionContext(bits=bits))
    fine = build_stieltjes_table(8, PrecisionContext(bits=384))
    with mpmath.workprec(400):
        for name in ("etas", "lambdas"):
            for k, (v, ref) in enumerate(zip(getattr(coarse, name),
                                             getattr(fine, name))):
                tol = mpf(2) ** (2 - bits) * max(1, abs(ref.val))
                assert abs(v.val - ref.val) <= tol, (name, k)


def test_table_takes_each_zeta_value_once(ctx, monkeypatch):
    from zeta_explicit import liconst, zeros
    original, calls = liconst.zeta_int, []
    monkeypatch.setattr(liconst, "zeta_int",
                        lambda j, c: calls.append(j) or original(j, c))
    table = build_stieltjes_table(12, ctx)
    assert sorted(calls) == list(range(2, 13))
    for n in (1, 5, 12):
        assert li_lambda_identity(n, table, ctx) is table.lam(n)
        s1, s2, _ = coffey_decomposition(n, table, ctx)
        assert (s1, s2) == (table.S1[n - 1], table.S2[n - 1])
    assert len(calls) == 11
    with pytest.raises(ValueError):
        li_lambda_identity(13, table, ctx)


def test_coffey_reassembly_and_bounds(ctx, consts20):
    with workprec(ctx, 16):
        for n in range(1, 21):
            S1, S2, bounds_ok = coffey_decomposition(n, consts20, ctx)
            rebuilt = 1 - F(n, 2) * ctx.real(as_pair(mpmath.log(4 * mpmath.pi) + mp_euler(ctx))).val \
                + S1.val + S2.val
            assert abs(rebuilt - consts20.lam(n).val) < mpf(2) ** (-140), n
            assert bounds_ok, n
            if n >= 2:
                assert S1.val >= 0, n


def test_coffey_anchor_values(ctx, consts8):
    S1, S2, _ = coffey_decomposition(2, consts8, ctx)
    with workprec(ctx, 16):
        assert abs(S1.val - mpmath.pi ** 2 / 8) < mpf(2) ** (-150)
    assert float(S2.val) == pytest.approx(0.9668850969627005, abs=1e-15)


def test_lambda_direct_two_routes(ctx, fixture100, consts8):
    spec = SumSpec(K=100)
    direct, tail = lambda_direct(1, fixture100, spec, ctx)
    with workprec(ctx, 16):
        corrected = direct.val + tail.val
        gap = abs(corrected - consts8.lam(1).val)
        assert gap < mpf(1) / 10 ** 4  # frozen fixture gap is 3.4e-6
    with pytest.raises(ValueError):
        lambda_direct(0, fixture100, spec, ctx)


def test_rh_statistic_report(ctx, fixture100, cli_json):
    report = rh_statistic(fixture100, SumSpec(K=100), ctx)
    assert report.pairs == 100
    assert report.within_tolerance
    assert float(report.target.val) == pytest.approx(0.046191417932242068,
                                                     abs=1e-15)
    with workprec(ctx, 16):
        assert abs(report.corrected.val - report.target.val) \
            <= abs(report.tail.val)
    d = cli_json("rh-check", "--K", "100")
    assert {"pairs", "corrected", "target", "discrepancy",
            "within_tolerance"} <= set(d)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_lambda_identity_direct_consistency(n):
    # The two routes drift apart only by the truncation tail at fixture
    # scale; 1e-3 is far above the observed gaps yet far below lambda_n.
    ctx = PrecisionContext(bits=192)
    from zeta_explicit.zeros import fixture_table
    table = fixture_table()
    consts = build_stieltjes_table(8, ctx)
    direct, tail = lambda_direct(n, table, SumSpec(K=100), ctx)
    with workprec(ctx, 16):
        corrected = direct.val + tail.val
        assert abs(corrected - consts.lam(n).val) < mpf(1) / 10 ** 3

"""Zero-table ingestion, paired zero sums, and density tail estimates."""

import io
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from zeta_explicit.liconst import lambda_direct
from zeta_explicit.mpcore import PrecisionContext
from zeta_explicit.zeros import (
    S_sum,
    SumSpec,
    ZeroTable,
    cosine_sum,
    cosine_term,
    fixture_table,
    inv_abs_sq_term,
    inv_rho_poly_term,
    load_zeros,
    sum_inv_rho,
    sum_inv_rho_sq,
    tail_estimate,
    xrho_term,
    zero_sum,
)
from zero_sum_reference import reference_sum

INV_RHO = xrho_term(1, (0,), (1,))

PLAIN = """# comment header
14.134725141734693
21.022039638771554
25.010857580145688
"""

CSV = """beta,gamma
0.5,14.134725141734693
0.5,21.022039638771554
"""


def _prefix(table, k):
    return ZeroTable(label=table.label, betas=table.betas[:k],
                     gammas=table.gammas[:k], source="prefix",
                     entry_precision=table.entry_precision)


def test_load_plain_text(ctx):
    t = load_zeros(PLAIN, fmt="plain", label="zeta", ctx=ctx)
    assert len(t) == 3
    assert t.entry_precision == 15
    assert t.all_on_critical_line()
    with ctx.workprec(16):
        assert abs(t.gammas[0] - mpmath.mpf("14.134725141734693")) \
            < mpmath.mpf(2) ** (-180)


def test_load_plain_bytes_and_stream(ctx):
    t1 = load_zeros(PLAIN.encode(), fmt="plain", ctx=ctx)
    t2 = load_zeros(io.BytesIO(PLAIN.encode()), fmt="plain", ctx=ctx)
    assert t1.gammas == t2.gammas


def test_load_csv(ctx):
    t = load_zeros(CSV, fmt="csv", label="zeta", ctx=ctx)
    assert len(t) == 2
    assert t.all_on_critical_line()


def test_load_errors_carry_line_numbers(ctx):
    with pytest.raises(ValueError, match="line 3"):
        load_zeros("14.1\n21.0\nbogus\n", fmt="plain", ctx=ctx)
    with pytest.raises(ValueError, match="line 3"):
        load_zeros("14.1\n21.0\n15.0\n", fmt="plain", ctx=ctx)
    with pytest.raises(ValueError, match="header"):
        load_zeros("gamma,beta\n0.5,14.1\n", fmt="csv", ctx=ctx)
    with pytest.raises(ValueError, match="line 2"):
        load_zeros("beta,gamma\n1.5,14.1\n", fmt="csv", ctx=ctx)
    with pytest.raises(ValueError):
        load_zeros(PLAIN, fmt="xml", ctx=ctx)


def test_fixture_table(fixture100):
    assert len(fixture100) == 100
    assert fixture100.label == "zeta"
    assert fixture100.all_on_critical_line()
    assert float(fixture100.gammas[0]) == pytest.approx(14.134725141734693)


def test_table_validation(ctx):
    with pytest.raises(ValueError, match="not strictly increasing"):
        ZeroTable(label="x", betas=(mpmath.mpf("0.5"),) * 2,
                  gammas=(mpmath.mpf(20), mpmath.mpf(14)),
                  source="t", entry_precision=2)
    with pytest.raises(ValueError, match="outside"):
        ZeroTable(label="x", betas=(mpmath.mpf("1.5"),),
                  gammas=(mpmath.mpf(14),), source="t", entry_precision=2)


def test_sumspec_validation():
    with pytest.raises(ValueError):
        SumSpec()
    with pytest.raises(ValueError):
        SumSpec(T=100.0, K=5)


def test_sumspec_selection(fixture100):
    assert len(SumSpec(K=7).select(fixture100)) == 7
    assert len(SumSpec(T=15.0).select(fixture100)) == 1
    assert len(SumSpec(T=50.0).select(fixture100)) == 10
    with pytest.raises(ValueError):
        SumSpec(K=101).select(fixture100)


def test_zero_sum_frozen_three_pairs(ctx, fixture100):
    t = _prefix(fixture100, 3)
    value, pairs = zero_sum(t, SumSpec(K=3), INV_RHO, ctx)
    assert pairs == 3
    assert value.str_digits(20) == "0.0088585034790710050848"


def test_sum_inv_rho_frozen_one_pair(ctx, fixture100):
    t = _prefix(fixture100, 1)
    value, tail = sum_inv_rho(t, SumSpec(K=1), ctx)
    assert value.str_digits(20) == "0.0049989888337231395935"
    assert tail.str_digits(10) == "0.02038886506"


def test_sum_inv_rho_sq_frozen_one_pair(ctx, fixture100):
    t = _prefix(fixture100, 1)
    value, tail = sum_inv_rho_sq(t, SumSpec(K=1), ctx)
    assert value.str_digits(19) == "0.009997977667446279187"
    assert tail.val > 0


def test_zero_sum_hand_oracle(ctx, fixture100):
    # Plain double-precision complex arithmetic as an independent route.
    t = _prefix(fixture100, 5)
    value, _ = zero_sum(t, SumSpec(K=5), inv_rho_poly_term((0, 0, 1)), ctx)
    hand = sum((2 * (1 / complex(0.5, float(g)) ** 2)).real
               for g in t.gammas)
    assert float(value.val) == pytest.approx(hand, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=4))
def test_zero_sum_prefix_consistency(k, cuts):
    ctx = PrecisionContext(bits=192)
    table = fixture_table(ctx)
    full, _ = zero_sum(table, SumSpec(K=k), INV_RHO, ctx)
    head = _prefix(table, k)
    part, _ = zero_sum(head, SumSpec(K=k), INV_RHO, ctx)
    with ctx.workprec(16):
        assert abs(full.val - part.val) < mpmath.mpf(2) ** (-170)
    # Prefix sums at cut points equal separate calls exactly.
    cuts = [min(c, k) for c in cuts]
    term = xrho_term(Fraction(21, 2), (0,), (1,))
    at_cuts, pairs = zero_sum(table, SumSpec(K=k), term, ctx, cuts=cuts)
    assert pairs == k
    for c, v in zip(cuts, at_cuts):
        assert v.val == zero_sum(table, SumSpec(K=c), term, ctx)[0].val
    with pytest.raises(ValueError):
        zero_sum(table, SumSpec(K=k), term, ctx, cuts=[k + 1])


def test_reflection_expansion(ctx):
    t = ZeroTable(label="synthetic", betas=(mpmath.mpf("0.75"),),
                  gammas=(mpmath.mpf(7),), source="synthetic",
                  entry_precision=15)
    v1, _ = sum_inv_rho(t, SumSpec(K=1), ctx)
    v2, _ = sum_inv_rho_sq(t, SumSpec(K=1), ctx)
    r, rr = complex(0.75, 7.0), complex(0.25, 7.0)
    assert float(v1.val) == pytest.approx((2 / r).real + (2 / rr).real, rel=1e-12)
    assert float(v2.val) == pytest.approx(2 / abs(r) ** 2 + 2 / abs(rr) ** 2,
                                          rel=1e-12)


def test_reflection_skips_critical_line(ctx):
    t = ZeroTable(label="synthetic", betas=(mpmath.mpf("0.5"),),
                  gammas=(mpmath.mpf(7),), source="synthetic",
                  entry_precision=15)
    v, _ = sum_inv_rho(t, SumSpec(K=1), ctx)
    assert float(v.val) == pytest.approx((2 / complex(0.5, 7.0)).real, rel=1e-12)


def test_tail_estimate_contract(ctx):
    te = tail_estimate(1000.0, 2, 4, ctx)
    assert te.str_digits(15) == "0.00772840897197406"
    assert tail_estimate(1000.0, 1.5, 4, ctx) is None
    with pytest.raises(ValueError):
        tail_estimate(5.0, 2, 4, ctx)


def test_cosine_sum_requires_critical_line(ctx):
    t = ZeroTable(label="synthetic", betas=(mpmath.mpf("0.75"),),
                  gammas=(mpmath.mpf(7),), source="synthetic",
                  entry_precision=15)
    with pytest.raises(ValueError):
        cosine_sum(Fraction(4), t, SumSpec(K=1), ctx)


def test_s_sum_domain_and_tail(ctx, fixture100):
    with pytest.raises(ValueError):
        S_sum(Fraction(1, 2), fixture100, SumSpec(K=10), ctx)
    value, tail = S_sum(Fraction(4), fixture100, SumSpec(K=10), ctx)
    assert tail is not None and tail.val > 0


def test_li_lambda_direct_collapses_at_one(ctx, fixture100):
    spec = SumSpec(K=25)
    direct = lambda_direct(1, fixture100, spec, ctx)[0]
    via_inv, _ = sum_inv_rho(fixture100, spec, ctx)
    assert direct.val == via_inv.val
    with pytest.raises(ValueError):
        lambda_direct(0, fixture100, spec, ctx)


OFFLINE_CSV = "beta,gamma\n0.75,7\n"


def test_offline_csv_row_adds_its_reflection(ctx):
    # One off-line row stands for rho = 3/4 + 7i and 1 - rho-bar = 1/4 + 7i.
    t = load_zeros(OFFLINE_CSV, fmt="csv", ctx=ctx)
    v, _ = sum_inv_rho(t, SumSpec(K=1), ctx)
    assert float(v.val) == pytest.approx(0.04046, abs=5e-6)
    assert float(v.val) == pytest.approx(2 * 0.75 / 49.5625 + 2 * 0.25 / 49.0625,
                                         rel=1e-14)


def test_load_keeps_exact_ordinates(ctx):
    t = load_zeros("beta,gamma\n0.7,14.5\n0.5,2.1e1\n", fmt="csv", ctx=ctx)
    assert t.scale == 10
    assert t.ordinates == (145, 210)
    assert t.real_parts == (Fraction(7, 10), Fraction(1, 2))
    assert t.entry_precision == 1


def _synthetic_offline(ctx):
    rows = "".join(f"{b},{g}\n" for b, g in (
        ("0.5", "6.5"), ("0.75", "9.25"), ("0.5", "13.3"), ("0.6", "17.125"),
        ("0.5", "21.02"), ("0.55", "24.5"), ("0.5", "30.4249")))
    return load_zeros("beta,gamma\n" + rows, fmt="csv", label="synthetic", ctx=ctx)


def _binary(ctx):
    t = fixture_table(ctx)
    return ZeroTable(label="zeta", betas=t.betas[:40], gammas=t.gammas[:40],
                     source="binary", entry_precision=0)


TABLES = {"fixture100": fixture_table, "offline": _synthetic_offline,
          "binary": _binary}
TERMS = {
    "xrho_over_rho_gt1": xrho_term(Fraction(21, 2), (0,), (1,)),
    "xrho_over_rho_lt1": xrho_term(Fraction(1, 10), (0,), (1,)),
    "S_poles_0_1": xrho_term(Fraction(4), (0, 1), (1, -1)),
    "shifted": xrho_term(Fraction(3, 2), (Fraction(1, 3),), (1,)),
    "pf_kernel": xrho_term(Fraction(7, 3), (0, Fraction(1, 2)), (-2, 2)),
    "inv_rho": INV_RHO,
    "cosine": cosine_term(Fraction(4)),
    "lambda_3": inv_rho_poly_term((0, 3, -3, 1)),
    "inv_rho_sq": inv_rho_poly_term((0, 0, 1)),
    "inv_abs_sq": inv_abs_sq_term(),
}


@pytest.mark.parametrize("bits", (128, 192, 256))
@pytest.mark.parametrize("table_name", sorted(TABLES))
@pytest.mark.parametrize("term_name", sorted(TERMS))
def test_kernel_matches_mpc_reference(bits, table_name, term_name):
    ctx = PrecisionContext(bits=bits)
    table = TABLES[table_name](PrecisionContext(bits=192))
    term = TERMS[term_name]
    spec = SumSpec(K=len(table))
    if term_name == "cosine" and not table.all_on_critical_line():
        with pytest.raises(ValueError, match="critical-line"):
            zero_sum(table, spec, term, ctx)
        return
    value, pairs = zero_sum(table, spec, term, ctx)
    assert pairs == len(table)
    ref, mag = reference_sum(table, len(table), term, bits)
    with mpmath.workprec(bits + 64):
        assert abs(value.val - ref) <= mpmath.mpf(2) ** -bits * mag

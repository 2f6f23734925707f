"""Zero-table ingestion, paired zero sums, and density tail estimates."""

import io
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from zeta_explicit import zeros
from zeta_explicit.explicit import verify_identity
from zeta_explicit.liconst import lambda_direct, rh_statistic
from zeta_explicit.mpcore import _GUARD, PrecisionContext
from zeta_explicit.zeros import (
    SumSpec,
    ZeroTable,
    cosine_sum,
    cosine_term,
    density_tail,
    fixture_table,
    inv_abs_sq_term,
    inv_rho_poly_term,
    load_zeros,
    sum_inv_rho,
    sum_inv_rho_sq,
    xrho_term,
    zero_sum,
)
from zero_sum_reference import reference_sum

HALF = Fraction(1, 2)
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
    return ZeroTable(label=table.label, scale=table.scale,
                     ordinates=table.ordinates[:k], real_parts=table.real_parts[:k],
                     source="prefix", entry_precision=table.entry_precision)


def _single(beta, gamma):
    """A one-entry table at rho = beta + i gamma, gamma an integer."""
    return ZeroTable(label="synthetic", scale=1, ordinates=(gamma,),
                     real_parts=(Fraction(beta),), source="synthetic",
                     entry_precision=15)


def test_load_plain_text(ctx):
    t = load_zeros(PLAIN, fmt="plain", label="zeta", ctx=ctx)
    assert len(t) == 3
    assert t.entry_precision == 15
    assert t.real_parts == (HALF,) * 3
    assert Fraction(t.ordinates[0], t.scale) == Fraction("14.134725141734693")


def test_load_plain_bytes_and_stream(ctx):
    t1 = load_zeros(PLAIN.encode(), fmt="plain", ctx=ctx)
    t2 = load_zeros(io.BytesIO(PLAIN.encode()), fmt="plain", ctx=ctx)
    assert t1 == t2


def test_load_csv(ctx):
    t = load_zeros(CSV, fmt="csv", label="zeta", ctx=ctx)
    assert len(t) == 2
    assert t.real_parts == (HALF,) * 2


def test_load_errors_carry_line_numbers(ctx):
    with pytest.raises(ValueError, match="line 3"):
        load_zeros("14.1\n21.0\nbogus\n", fmt="plain", ctx=ctx)
    with pytest.raises(ValueError, match="line 3"):
        load_zeros("14.1\n21.0\n15.0\n", fmt="plain", ctx=ctx)
    with pytest.raises(ValueError, match="header"):
        load_zeros("gamma,beta\n0.5,14.1\n", fmt="csv", ctx=ctx)
    with pytest.raises(ValueError, match="line 2"):
        load_zeros("beta,gamma\n1.5,14.1\n", fmt="csv", ctx=ctx)
    with pytest.raises(ValueError, match="line 2: expected two columns"):
        load_zeros("beta,gamma\n0.5\n", fmt="csv", ctx=ctx)
    with pytest.raises(ValueError, match="line 2: ordinate must be positive"):
        load_zeros("14.1\n0.0\n", fmt="plain", ctx=ctx)
    with pytest.raises(ValueError):
        load_zeros(PLAIN, fmt="xml", ctx=ctx)


def test_load_reads_the_label_line(ctx):
    # no label line: zeta; a label line names the table, in either format
    assert load_zeros(PLAIN, fmt="plain", ctx=ctx).label == "zeta"
    t = load_zeros("# label: dirichlet-4\n" + PLAIN, fmt="plain", ctx=ctx)
    assert t.label == "dirichlet-4"
    assert load_zeros(PLAIN + "#label:  x \n", fmt="plain", label="x", ctx=ctx).label == "x"
    assert load_zeros("# label: y\n" + CSV, fmt="csv", ctx=ctx).label == "y"
    assert t.ordinates == load_zeros(PLAIN, fmt="plain", ctx=ctx).ordinates


def test_load_refuses_another_label(ctx):
    with pytest.raises(ValueError, match="holds zeta zeros, not dirichlet-4"):
        load_zeros(PLAIN, fmt="plain", label="dirichlet-4", ctx=ctx)
    with pytest.raises(ValueError, match="holds dirichlet-4 zeros, not zeta"):
        load_zeros("# label: dirichlet-4\n" + PLAIN, fmt="plain", label="zeta", ctx=ctx)
    with pytest.raises(ValueError, match="line 2: a second label line"):
        load_zeros("# label: a\n# label: a\n" + PLAIN, fmt="plain", ctx=ctx)


@pytest.mark.parametrize("line", ("# label: dirichlet-4 (chi_-4)", "# Label: dirichlet-4",
                                  "# label:", "#label : dirichlet-4"))
def test_load_refuses_a_malformed_label_line(ctx, line):
    # a comment that starts like a label line must be one, or a chi_-4
    # file would load as zeta zeros; other comments stay comments
    with pytest.raises(ValueError, match=re.escape(f"line 2: malformed label line {line!r}")):
        load_zeros("# header\n" + line + "\n" + PLAIN, fmt="plain", ctx=ctx)
    assert load_zeros("# labels differ\n" + PLAIN, fmt="plain", ctx=ctx).label == "zeta"


def test_fixture_table(fixture100):
    assert len(fixture100) == 100
    assert fixture100.label == "zeta"
    assert fixture100.real_parts == (HALF,) * 100
    assert fixture100.ordinates[0] / fixture100.scale == pytest.approx(14.134725141734693)


def test_table_validation(ctx):
    with pytest.raises(ValueError, match="not strictly increasing"):
        ZeroTable(label="x", scale=1, ordinates=(20, 14), real_parts=(HALF,) * 2,
                  source="t", entry_precision=2)
    with pytest.raises(ValueError, match="outside"):
        ZeroTable(label="x", scale=1, ordinates=(14,), real_parts=(Fraction(3, 2),),
                  source="t", entry_precision=2)
    with pytest.raises(ValueError, match="length mismatch"):
        ZeroTable(label="x", scale=1, ordinates=(14, 20), real_parts=(HALF,),
                  source="t", entry_precision=2)
    with pytest.raises(ValueError, match="scale must be a positive integer, got 0"):
        ZeroTable(label="x", scale=0, ordinates=(14,), real_parts=(HALF,),
                  source="t", entry_precision=2)


def test_table_refusal_names_the_first_bad_row():
    # rows share one 1/2 object; the refusal still names the first bad row
    with pytest.raises(ValueError, match=r"entry 2: beta 3/2 outside"):
        ZeroTable(label="x", scale=1, ordinates=(1, 2, 3, 4),
                  real_parts=(HALF, HALF, Fraction(3, 2), Fraction(-1)),
                  source="t", entry_precision=2)
    with pytest.raises(ValueError, match="entry 1: ordinates not strictly"):
        ZeroTable(label="x", scale=1, ordinates=(1, 1, 3), real_parts=(HALF, HALF, Fraction(3, 2)),
                  source="t", entry_precision=2)


@pytest.mark.parametrize("build,message", [
    (lambda: xrho_term(0, (0,), (1,)), "x^rho needs x > 0, got 0"),
    (lambda: xrho_term(Fraction(-1, 2), (0,), (1,)), "x^rho needs x > 0, got -1/2"),
    (lambda: xrho_term(2, (0, 1), (1,)), "need one weight per pole"),
    (lambda: xrho_term(2, (), ()), "at least one pole"),
    # the id keeps the refusal's earlier wording, so the case keeps its name
    pytest.param(lambda: cosine_term(Fraction(1, 2)), "the cosine pairing requires x >= 1, got 1/2",
                 id="<lambda>-cosine_sum requires x >= 1, got 1/2"),
    (lambda: inv_rho_poly_term(()), "empty polynomial"),
])
def test_term_constructors_refuse_bad_input(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


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


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
def test_sumspec_refuses_non_finite_height(T):
    with pytest.raises(ValueError, match="T = "):
        SumSpec(T=T)


def test_sumspec_height_is_inclusive_and_exact(ctx):
    # 14.5 is dyadic, so T = 14.5 meets the row exactly and the next
    # float below it, 2^-40 less, does not.
    t = load_zeros("beta,gamma\n0.5,14.5\n0.5,21\n", fmt="csv", ctx=ctx)
    assert len(SumSpec(T=14.5).select(t)) == 1
    assert len(SumSpec(T=14.5 - 2.0 ** -40).select(t)) == 0


_FIXTURE = fixture_table()


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(min_value=-1, max_value=300),
                 st.sampled_from([n / _FIXTURE.scale for n in _FIXTURE.ordinates])))
def test_sumspec_height_matches_fraction_reference(T):
    expected = sum(1 for n in _FIXTURE.ordinates
                   if Fraction(n, _FIXTURE.scale) <= Fraction(T))
    assert len(SumSpec(T=T).select(_FIXTURE)) == expected


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
    hand = sum((2 * (1 / complex(0.5, n / t.scale) ** 2)).real
               for n in t.ordinates)
    assert float(value.val) == pytest.approx(hand, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=4))
def test_zero_sum_prefix_consistency(k, cuts):
    ctx = PrecisionContext(bits=192)
    table = fixture_table()
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
    t = _single(Fraction(3, 4), 7)
    v1, _ = sum_inv_rho(t, SumSpec(K=1), ctx)
    v2, _ = sum_inv_rho_sq(t, SumSpec(K=1), ctx)
    r, rr = complex(0.75, 7.0), complex(0.25, 7.0)
    assert float(v1.val) == pytest.approx((2 / r).real + (2 / rr).real, rel=1e-12)
    assert float(v2.val) == pytest.approx(2 / abs(r) ** 2 + 2 / abs(rr) ** 2,
                                          rel=1e-12)


def test_reflection_skips_critical_line(ctx):
    t = _single(HALF, 7)
    v, _ = sum_inv_rho(t, SumSpec(K=1), ctx)
    assert float(v.val) == pytest.approx((2 / complex(0.5, 7.0)).real, rel=1e-12)


def test_empty_selection_refused_before_any_tail(ctx, fixture100):
    # T = 10 lies below the first ordinate, 14.13...
    spec = SumSpec(T=10.0)
    for route in (lambda: zero_sum(fixture100, spec, INV_RHO, ctx),
                  lambda: sum_inv_rho(fixture100, spec, ctx),
                  lambda: lambda_direct(2, fixture100, spec, ctx),
                  lambda: rh_statistic(fixture100, spec, ctx)):
        with pytest.raises(ValueError, match="empty selection"):
            route()


def test_every_tail_is_the_one_density_tail(ctx, fixture100):
    # weight 1 for Sum 1/rho, 2 for Sum 1/|rho|^2, n^2 for lambda_n and
    # 4 sqrt(x) for the s identity, at the last pair the sum took
    spec = SumSpec(T=50.0)
    count = len(spec.select(fixture100))
    with ctx.workprec(_GUARD):
        s_weight = 4 * mpmath.sqrt(mpmath.mpf(21) / 2)
    assert sum_inv_rho(fixture100, spec, ctx)[1] == density_tail(fixture100, count, 1, ctx)
    assert sum_inv_rho_sq(fixture100, spec, ctx)[1] == density_tail(fixture100, count, 2, ctx)
    assert rh_statistic(fixture100, spec, ctx).tail == density_tail(fixture100, count, 2, ctx)
    assert lambda_direct(3, fixture100, spec, ctx)[1] == density_tail(fixture100, count, 9, ctx)
    assert verify_identity("s", Fraction(21, 2), fixture100, spec, ctx).tail \
        == density_tail(fixture100, count, s_weight, ctx)


def test_density_tail_value_and_refusal(ctx):
    # weight (1/2pi) Integral_T^inf t^-2 log(t/2pi) dt at T = 1000: the
    # closed form against quadrature, and at weight 8 = 4 sqrt(4) the
    # value the s identity reports at x = 4
    at = _single(HALF, 1000)
    with mpmath.workprec(ctx.bits + 32):
        quad = mpmath.quad(lambda t: mpmath.log(t / (2 * mpmath.pi)) / t ** 2,
                           [1000, mpmath.inf]) / (2 * mpmath.pi)
    assert abs(density_tail(at, 1, 1, ctx).val - quad) < mpmath.mpf(2) ** -180 * quad
    assert density_tail(at, 1, 8, ctx).str_digits(15) == "0.00772840897197406"
    # one rule for every tail: T > 2 pi, where the density turns positive
    with pytest.raises(ValueError, match="T > 2 pi"):
        density_tail(_single(HALF, 6), 1, 1, ctx)


with mpmath.workdps(60):
    _TWO_PI_40 = int(mpmath.floor(2 * mpmath.pi * 10 ** 40))   # floor(2 pi 10^40)


@pytest.mark.parametrize("bits", range(64, 1025, 64))
def test_density_tail_against_mpmath(bits):
    # the integer tail, rounded once, within half a unit of the context of
    # mpmath's at bits + 64, at the weights the package passes (4 sqrt(21/2)
    # as the s identity's mpf) and at ordinates just above 2 pi, the last
    # 10^-40 above it (T/2 and pi agree to 133 bits: the comparison widens);
    # just below 2 pi and the last 10^-40 below it, refused
    ctx = PrecisionContext(bits=bits)
    with mpmath.workprec(bits + _GUARD):
        root = 4 * mpmath.sqrt(mpmath.mpf(21) / 2)
    for n, scale in ((1000, 1), (7, 1), (6283185307179587, 10 ** 15),
                     (_TWO_PI_40 + 1, 10 ** 40), (14134725141734693790, 10 ** 18)):
        table = ZeroTable(label="synthetic", scale=scale, ordinates=(n,),
                          real_parts=(HALF,), source="synthetic", entry_precision=15)
        for weight in (1, 2, 9, root):
            value = density_tail(table, 1, weight, ctx)
            with mpmath.workprec(bits + 64):
                T = mpmath.mpf(n) / scale
                ref = (mpmath.mpf(weight) * (mpmath.log(T / (2 * mpmath.pi)) + 1)
                       / (2 * mpmath.pi * T))
                assert abs(value.val - ref) <= 2 ** -bits * (1 + 2 ** -20) * ref, (n, weight)
    for n, scale in ((6283185307179586, 10 ** 15), (_TWO_PI_40, 10 ** 40)):
        table = ZeroTable(label="synthetic", scale=scale, ordinates=(n,),
                          real_parts=(HALF,), source="synthetic", entry_precision=15)
        with pytest.raises(ValueError, match=r"T > 2 pi, got T = 6\.28319"):
            density_tail(table, 1, 1, ctx)


def test_cosine_sum_requires_critical_line(ctx):
    t = _single(Fraction(3, 4), 7)
    with pytest.raises(ValueError):
        cosine_sum(Fraction(4), t, SumSpec(K=1), ctx)


def test_li_lambda_direct_collapses_at_one(ctx, fixture100):
    # The polynomial route and the x = 1 route take one unit and floor the
    # same rational, on the three reference tables at 64, 192 and 1024 bits.
    for name, build in TABLES.items():
        table = build(PrecisionContext(bits=192))
        spec = SumSpec(K=len(table))
        for bits in (64, 192, 1024):
            wide = PrecisionContext(bits=bits)
            direct = lambda_direct(1, table, spec, wide)[0]
            via_inv, _ = sum_inv_rho(table, spec, wide)
            assert direct.val == via_inv.val, (name, bits)
    with pytest.raises(ValueError):
        lambda_direct(0, fixture100, SumSpec(K=25), ctx)


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
    return load_zeros("# label: synthetic\nbeta,gamma\n" + rows, fmt="csv",
                      label="synthetic", ctx=ctx)


def _binary(ctx):
    """The first 40 fixture ordinates rounded to bits + 32 binary digits:
    dyadic values over one power of two."""
    t = fixture_table()
    with mpmath.workprec(ctx.bits + 32):
        parts = [(mpmath.mpf(n) / t.scale).man_exp for n in t.ordinates[:40]]
    k = max(-e for _, e in parts)
    return ZeroTable(label="zeta", scale=2 ** k,
                     ordinates=tuple(m << (k + e) for m, e in parts),
                     real_parts=t.real_parts[:40], source="binary", entry_precision=0)


TABLES = {"fixture100": lambda ctx: fixture_table(), "offline": _synthetic_offline,
          "binary": _binary}
TERMS = {
    "xrho_over_rho_gt1": xrho_term(Fraction(21, 2), (0,), (1,)),
    "xrho_over_rho_lt1": xrho_term(Fraction(1, 10), (0,), (1,)),
    "S_poles_0_1": xrho_term(Fraction(4), (0, 1), (1, -1)),
    "shifted": xrho_term(Fraction(3, 2), (Fraction(1, 3),), (1,)),
    "pf_kernel": xrho_term(Fraction(7, 3), (0, Fraction(1, 2)), (-2, 2)),
    # poles off the table's unit and weights in fifths: M != scale, V = 5
    "unit_weights": xrho_term(Fraction(5, 3), (Fraction(-1, 7), Fraction(2, 3)),
                              (Fraction(3, 5), Fraction(-3, 5))),
    "inv_rho": INV_RHO,
    "cosine": cosine_term(Fraction(4)),
    "lambda_3": inv_rho_poly_term((0, 3, -3, 1)),
    "inv_rho_sq": inv_rho_poly_term((0, 0, 1)),
    "inv_abs_sq": inv_abs_sq_term(),
}


@pytest.mark.parametrize("bits", (128, 192, 256, 512, 1024))
@pytest.mark.parametrize("table_name", sorted(TABLES))
@pytest.mark.parametrize("term_name", sorted(TERMS))
def test_kernel_matches_mpc_reference(bits, table_name, term_name):
    ctx = PrecisionContext(bits=bits)
    table = TABLES[table_name](PrecisionContext(bits=192))
    term = TERMS[term_name]
    spec = SumSpec(K=len(table))
    if term_name == "cosine" and any(b != HALF for b in table.real_parts):
        with pytest.raises(ValueError, match="critical-line"):
            zero_sum(table, spec, term, ctx)
        return
    value, pairs = zero_sum(table, spec, term, ctx)
    assert pairs == len(table)
    ref, mag = reference_sum(table, len(table), term, bits)
    with mpmath.workprec(bits + 64):
        assert abs(value.val - ref) <= mpmath.mpf(2) ** -bits * mag


@pytest.mark.parametrize("table_name, terms, cuts", (
    ("offline", (xrho_term(Fraction(3, 2), (0,), (1,)), xrho_term(Fraction(4), (0, 1), (1, -1))),
     (7, 3, 1, 3, 6, 2)),
    ("fixture100", (xrho_term(Fraction(21, 2), (0,), (1,)), cosine_term(Fraction(4))),
     (100, 37, 1, 64, 37, 99))), ids=("offline", "fixture100"))
def test_zero_sum_cuts_of_two_abscissas(table_name, terms, cuts):
    # Two terms at two abscissas, on one pass: the value at each cut, with
    # x^beta applied to each real part's sum there, equals a call with K =
    # cut, of both terms together and of each alone.
    ctx = PrecisionContext(bits=192)
    table = TABLES[table_name](ctx)
    at_cuts, pairs = zero_sum(table, SumSpec(K=len(table)), terms, ctx, cuts=cuts)
    assert pairs == len(table)
    for j, term in enumerate(terms):
        for c, v in zip(cuts, at_cuts[j]):
            assert v.val == zero_sum(table, SumSpec(K=c), terms, ctx)[0][j].val
            assert v.val == zero_sum(table, SumSpec(K=c), term, ctx)[0].val


def _phase_edges(bits, x):
    """27 (30 when W > 256) binary ordinates at which the phase
    gamma log x mod 2 pi lies, in units of 2^-W at the table width W of
    a one-row sum, on and one unit either side of table-step multiples
    (2^-8 and 2^-18 rad, 2^-26 when W > 256), of quarter turns and of
    0 = 2 pi.  The scale is 2^(W + 48), so each phase sits in the middle
    of its unit, far from the rounding of log x."""
    F = bits + 32 + 1            # zero_sum's width for a one-row table
    W = 64 * -(-(F + 8) // 64)
    steps = [W - 8, W - 18] + ([W - 26] if W > 256 else [])
    rows = []
    with mpmath.workprec(2 * W + 64):
        turn = 2 * mpmath.pi * 2 ** W
        units = [0, 1 << (W - 8), 1608 << (W - 8), (402 << (W - 8)) + (1023 << (W - 18))]
        units += [(j * 37 + 5) << e for j, e in enumerate(steps)]
        units += [int(mpmath.floor(turn * q / 4)) for q in (1, 2, 3)]
        logx = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
        for turns, unit in enumerate(u + d for u in units for d in (-1, 0, 1)):
            theta = (unit + mpmath.mpf(1) / 2) / 2 ** W + 2 * mpmath.pi * (turns + 1)
            rows.append(int(mpmath.nint(theta / logx * 2 ** (W + 48))))
    assert len(rows) == (30 if W > 256 else 27)
    return 2 ** (W + 48), rows


@pytest.mark.parametrize("bits", (192, 512, 1024))
@pytest.mark.parametrize("term", (xrho_term(Fraction(21, 2), (0,), (1,)),
                                  cosine_term(Fraction(21, 2))), ids=("xrho", "cosine"))
def test_kernel_phase_at_table_edges(bits, term):
    # Each row is its own one-row sum, checked against that pair's size
    # with the phase factor taken as 1: 2 x^(1/2) / |rho| for x^rho/rho,
    # 2 / (1/4 + gamma^2) for the cosine pairing.  Near a quarter turn
    # the term itself nearly cancels, so its own |2 Re term| is no bound
    # for a fixed-point error; the pair's size is.
    ctx = PrecisionContext(bits=bits)
    scale, rows = _phase_edges(bits, term.x)
    for n in rows:
        table = ZeroTable(label="edge", scale=scale, ordinates=(n,), real_parts=(HALF,),
                          source="edges", entry_precision=0)
        value, _ = zero_sum(table, SumSpec(K=1), term, ctx)
        ref, _ = reference_sum(table, 1, term, bits)
        with mpmath.workprec(bits + 64):
            gamma, x = mpmath.mpf(n) / scale, mpmath.mpf(term.x.numerator) / term.x.denominator
            size = 2 / (mpmath.mpf(1) / 4 + gamma ** 2)
            if term.kind == "xrho":
                size = 2 * mpmath.sqrt(x / (mpmath.mpf(1) / 4 + gamma ** 2))
            assert abs(value.val - ref) <= mpmath.mpf(2) ** -bits * size, n


def test_phase_tables_depend_on_width_alone(fixture100):
    # a sum after a cold cache equals one after other widths were filled,
    # and a repeated call fills no table
    spec, term = SumSpec(K=40), xrho_term(Fraction(21, 2), (0,), (1,))
    ctx = PrecisionContext(bits=192)
    zeros._turns.cache_clear()
    cold = zero_sum(fixture100, spec, term, ctx)[0]
    cold_tables = zeros._turns(256)
    assert zeros._turns.cache_info().misses == 1
    zeros._turns.cache_clear()
    for bits in (128, 512):
        zero_sum(fixture100, spec, term, PrecisionContext(bits=bits))
    assert zero_sum(fixture100, spec, term, ctx)[0].val == cold.val
    assert zeros._turns(256) == cold_tables
    filled = zeros._turns.cache_info().misses
    assert filled == 3                      # W = 192, 576 and 256
    assert zero_sum(fixture100, spec, term, ctx)[0].val == cold.val
    assert zeros._turns.cache_info().misses == filled


@pytest.mark.parametrize("W", (128, 256, 320, 1088))
def test_turns_entries_within_their_budget(W):
    # Each table entry, e^(i j 2^-lo) built from its integer step, against
    # mpmath's cos_sin at W + 64 bits: each part within the 1 + 2^-20 units
    # of 2^-W that _bind's budget gives a table entry (tables 7.1 = 5 sqrt 2).
    first, finer = zeros._turns(W)[:2]
    tables = [(first, 8)] + [(table, W - shift) for table, shift, _ in finer]
    assert [lo for _, lo in tables] == [8, 18] + ([26] if W > 256 else [])
    with mpmath.workprec(W + 64):
        for table, lo in tables:
            for j, (c, s) in enumerate(table):
                ref = mpmath.cos_sin(mpmath.ldexp(j, -lo))
                for got, r in zip((c, s), ref):
                    assert abs(got - mpmath.ldexp(r, W)) < 1 + mpmath.mpf(2) ** -20, (W, lo, j)


@pytest.mark.parametrize("W", (192, 256, 320, 576, 1088))
@pytest.mark.parametrize("x", (Fraction(21, 2), Fraction(1, 10)), ids=("21/2", "1/10"))
def test_phase_within_stated_units(W, x, table10k):
    # _bind states that a one-pole group adds V 2^F Re(e^(i theta) w / (rho
    # - p)) within 80 2^(F-W) V |w| M (|a| + N) / (a^2 + N^2) units of 2^-F
    # and its one floor, as the phase's cos and sin are each within 80
    # units of 2^-W; F = W - 8, the finest F at width W, is where that is
    # tightest.  Besides x^rho/rho, two probes with weight 2^(W + 40) make
    # the floor 2^-W of the rest and test one part of the phase each: a pole
    # 2^40 below beta (a >> N, the cos part) and a pole at beta (a = 0, the
    # sin part).  Rows: the table-edge ordinates of _phase_edges (bits = W -
    # 64 gives width W; at 1/x for x < 1) and 200 seeded ordinates of the
    # 10^4 table.
    F = W - 8
    big = 2 ** (W + 40)
    probes = ((0, 1), (HALF - 2 ** 40, big), (HALF, big))
    edges = _phase_edges(W - 64, x if x > 1 else 1 / x)
    seeded = (table10k.scale, random.Random(W).sample(table10k.ordinates, 200))
    for scale, rows in (edges, seeded):
        rows = sorted(set(rows))
        table = ZeroTable(label="phase", scale=scale, ordinates=tuple(rows),
                          real_parts=(HALF,) * len(rows), source="phase", entry_precision=0)
        for p, w in probes:
            run, S, *_ = zeros._bind(xrho_term(x, (p,), (w,)), table, scale, F)
            a = int((HALF - p) * scale)        # a table scale is even
            with mpmath.workprec(2 * W + 64):
                logx = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
                for i, n in enumerate(rows):
                    before = S[0]
                    run(i, i + 1)
                    ref = (mpmath.expj(n * logx / scale) * w * scale / mpmath.mpc(a, n)).real
                    ref *= 2 ** F
                    bound = 1 + mpmath.mpf(80 * w * scale) * (abs(a) + n) / (a * a + n * n) / 2 ** (W - F)
                    assert abs(S[0] - before - ref) <= bound, (p, n)

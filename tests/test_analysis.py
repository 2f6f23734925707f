"""Sign-change scanning on both sides of 1, L(1) and L'(1) evaluation,
the class-number cross-check, and the Gamma-product identity."""

import math
import sys
from fractions import Fraction

import mpmath
from mpmath import mpf
import pytest
from hypothesis import Phase, given, settings
import hypothesis.strategies as st

from zeta_explicit import analysis, arith, explicit
from zeta_explicit.analysis import (
    GENUINE,
    JUMP,
    L_one_chi,
    L_prime_one_chi,
    chowla_selberg_check,
    chowla_selberg_rhs,
    class_number_check,
    find_zeros_gt1,
    find_zeros_lt1,
    hypothesis_scan,
)
from zeta_explicit.arith import class_data, is_squarefree
from zeta_explicit.explicit import f_rhs_gt1, f_rhs_lt1, g
from zeta_explicit.mpcore import PrecisionContext
from zeta_explicit.mpcore import _exact
import scan_reference as ref

F = Fraction
TOL = F(1, 10 ** 12)


def test_endpoint_sign_oracle(ctx):
    # The brackets used below genuinely change sign: frozen endpoint
    # values with their leading digits pinned.
    assert f_rhs_gt1(F(23, 20), ctx).str_digits(10) == "0.01771094734"
    assert f_rhs_gt1(F(6, 5), ctx).str_digits(10) == "-0.04506523358"
    assert f_rhs_gt1(F(31, 20), ctx).str_digits(10) == "-0.01875031469"
    assert f_rhs_gt1(F(8, 5), ctx).str_digits(10) == "0.009783652206"


def test_gt1_window_finds_two_roots_and_boundary_jump(ctx):
    records = find_zeros_gt1(F(21, 20), F(2), TOL, ctx)
    genuine = [r for r in records if r.kind == GENUINE]
    jumps = [r for r in records if r.kind == JUMP]
    assert len(genuine) == 2
    assert len(jumps) == 1
    r1, r2 = genuine
    assert F(23, 20) < r1.bracket_lo and r1.bracket_hi < F(6, 5)
    assert F(31, 20) < r2.bracket_lo and r2.bracket_hi < F(8, 5)
    assert abs(float(r1.root.val) - 1.16119986393214) < 1e-11
    assert abs(float(r2.root.val) - 1.583425306075514) < 1e-11
    for r in genuine:
        assert abs(float(r.residual.val)) < 1e-10
    j = jumps[0]
    assert float(j.root.val) == 2.0
    assert abs(float(j.residual.val)) == pytest.approx(0.04060962046342767,
                                                       abs=1e-12)


def test_gt1_window_without_crossings_is_empty(ctx):
    assert find_zeros_gt1(F(3), F(7, 2), TOL, ctx) == []


def test_jump_at_window_start_is_not_a_crossing(ctx):
    # A discontinuity at lo belongs to the previous interval.
    records = find_zeros_gt1(F(2), F(21, 10), TOL, ctx)
    assert all(r.root.val != 2 for r in records)


def test_tolerance_refinement_is_stable(ctx):
    coarse = find_zeros_gt1(F(21, 20), F(2), F(1, 10 ** 6), ctx)
    fine = find_zeros_gt1(F(21, 20), F(2), F(1, 10 ** 9), ctx)
    assert [r.kind for r in coarse] == [r.kind for r in fine]
    for a, b in zip(coarse, fine):
        assert abs(float(a.root.val) - float(b.root.val)) < 1e-5


def test_lt1_window_brackets(ctx):
    records = find_zeros_lt1(F(3, 10), F(3, 5), TOL, ctx)
    kinds = [r.kind for r in records]
    assert kinds == [JUMP, GENUINE, JUMP]
    assert float(records[0].root.val) == pytest.approx(1 / 3, abs=1e-15)
    assert float(records[2].root.val) == 0.5
    assert abs(float(records[1].root.val) - 0.40707225533499998) < 1e-11
    assert abs(float(records[1].residual.val)) < 1e-10


def test_lt1_value_at_jump_is_mean_of_sides(ctx):
    d = F(1, 2 ** 80)
    for j in (F(1, 2), F(1, 3), F(1, 4)):
        at = f_rhs_lt1(j, ctx).val
        lo = f_rhs_lt1(j - d, ctx).val
        hi = f_rhs_lt1(j + d, ctx).val
        with ctx.workprec(16):
            assert abs(at - (lo + hi) / 2) < mpf(2) ** (-40)


def test_record_serialization(cli_json):
    d = cli_json("find-zeros", "--lo", "21/20", "--hi", "2")["records"][0]
    assert set(d) == {"kind", "bracket", "root", "residual"}
    lo, hi = d["bracket"]
    assert "/" in lo and "/" in hi  # exact rational endpoints


def test_finder_window_validation(ctx):
    with pytest.raises(ValueError):
        find_zeros_gt1(F(2), F(3, 2), TOL, ctx)
    with pytest.raises(ValueError):
        find_zeros_gt1(F(1, 2), F(2), TOL, ctx)
    with pytest.raises(ValueError):
        find_zeros_lt1(F(1, 10), F(3, 2), TOL, ctx)


def test_L_one_chi_closed_forms(ctx):
    tol = mpf(2) ** (16 - ctx.bits)
    with ctx.workprec(16):
        assert abs(L_one_chi(1, ctx).val - ctx.pi / 4) < tol
        assert abs(L_one_chi(3, ctx).val - ctx.pi / (3 * mpmath.sqrt(3))) < tol


def test_L_prime_one_chi_closed_form(ctx):
    # (pi/4)(gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4)).
    v = L_prime_one_chi(1, ctx).val
    with ctx.workprec(32):
        ref = mpmath.pi / 4 * (mpmath.euler + 2 * mpmath.log(2)
                               + 3 * mpmath.log(mpmath.pi)
                               - 4 * mpmath.loggamma(mpf(1) / 4))
        assert abs(v - ref) < mpf(2) ** (16 - ctx.bits)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
def test_class_number_two_routes(d):
    # The integer class number formula against the one numerical
    # L(1, chi) route: w sqrt(D) L(1, chi) / (2 pi) = h.
    check = class_number_check(d)
    assert check.match
    assert check.h_forms == check.h_analytic
    assert set(check._asdict()) == {"d", "D", "h_forms", "h_analytic", "match"}
    data = class_data(d)
    for bits in (128, 192, 256):
        ctx = PrecisionContext(bits=bits)
        L1 = L_one_chi(d, ctx).val
        with ctx.workprec(32):
            value = data.w * mpmath.sqrt(data.D) * L1 / (2 * ctx.pi)
            assert abs(value - check.h_analytic) < mpf(2) ** (16 - bits)


def test_class_numbers_from_integers_only(monkeypatch):
    # Dirichlet's formula in exact integers agrees with the reduced-form
    # count for every squarefree d <= 1000, with no real arithmetic.
    def refuse(*args, **kwargs):
        raise AssertionError("class_number_check left the integers")

    monkeypatch.setitem(sys.modules, "mpmath", None)   # any import of it fails
    monkeypatch.setattr(analysis, "dirichlet_L", refuse)
    monkeypatch.setattr(analysis, "L_one_chi", refuse)
    squarefree = [d for d in range(1, 1001) if is_squarefree(d)]
    assert len(squarefree) == 608
    mismatches = [d for d in squarefree if not class_number_check(d).match]
    assert not mismatches


def test_gamma_product_value(ctx):
    # 2 pi (Gamma(3/4)/Gamma(1/4))^2, pinned against the direct Gamma
    # evaluation; also Gamma(1/4) Gamma(3/4) = pi sqrt 2 (reflection).
    rhs = chowla_selberg_rhs(1, ctx)
    assert rhs.str_digits(20) == "0.71777001104612999782"
    with ctx.workprec(32):
        g14 = mpmath.gamma(mpf(1) / 4)
        g34 = mpmath.gamma(mpf(3) / 4)
        assert abs(rhs.val - 2 * mpmath.pi * (g34 / g14) ** 2) < mpf(1) / 10 ** 18
        assert abs(g14 * g34 - mpmath.pi * mpmath.sqrt(2)) < mpf(1) / 10 ** 20


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_gamma_product_identity(ctx, cli_json, d):
    report = chowla_selberg_check(d, ctx)
    assert float(report.rel_err.val) < 1e-6
    payload = cli_json("chowla-selberg", "--d", str(d), "--no-scan")
    assert payload["L_prime_sign"] in "+-"
    assert {"d", "D", "h", "w", "lhs", "rhs", "rel_err"} <= set(payload)


def test_gamma_product_identity_precision_stability(ctx):
    # A second precision above the 192-bit baseline must agree.
    wide = PrecisionContext(bits=256)
    a = chowla_selberg_check(2, ctx)
    b = chowla_selberg_check(2, wide)
    assert abs(float(a.lhs.val) - float(b.lhs.val)) < 1e-8
    assert float(a.lhs.val) == pytest.approx(0.54995046376103, abs=1e-10)


def test_hypothesis_scan_shape(ctx, cli_json):
    scan = hypothesis_scan(1, ctx, denominator=500, threshold=1e-6)
    assert scan.d == 1
    assert scan.evaluated >= 100
    assert not scan.found  # nothing on this grid dips below 1e-6
    assert 0 < scan.argmin < 1
    d = cli_json("chowla-selberg", "--d", "1", "--grid-denominator", "500",
                 "--threshold", "1e-6")["hypothesis_scan"]
    assert d["rational_zero_found"] is False
    assert d["grid_denominator"] == 500
    with pytest.raises(ValueError):
        hypothesis_scan(1, ctx, denominator=1)


@pytest.mark.parametrize("d", [0, -1, Fraction(3, 2)])
def test_hypothesis_scan_refuses_bad_d(ctx, d):
    with pytest.raises(ValueError, match=f"d = {d}"):
        hypothesis_scan(d, ctx, denominator=500)


# d as in the benchmark's scans, 50-3000 grid points, and thresholds loose
# enough that the candidate lists are not empty.
SCAN_D = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31)
# No shrinking: each shrink step reruns the reference scans, so a failing
# example would take minutes to report instead of seconds.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@settings(max_examples=8, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(st.sampled_from(SCAN_D), st.integers(50, 3000),
       st.sampled_from([128, 192, 256]), st.sampled_from([1e-6, 1e-3, 1e-2]))
def test_walked_scan_matches_per_point_reference(d, points, bits, threshold):
    ctx = PrecisionContext(bits=bits)
    den = round(points * math.pi * math.sqrt(d))
    new = hypothesis_scan(d, ctx, denominator=den, threshold=threshold)
    old = ref.hypothesis_scan(d, ctx, denominator=den, threshold=threshold)
    assert new.evaluated == old.evaluated
    assert new.argmin == old.argmin
    assert [x for x, _ in new.candidates] == [x for x, _ in old.candidates]
    # K = f - g is largest at the first grid point, where 1/x is largest
    wide, W = PrecisionContext(bits + 32), bits + 80
    with wide.workprec():
        x1 = _exact(wide.pi * mpmath.sqrt(d) / den)
        K = abs(f_rhs_lt1(x1, wide).val
                - mpmath.ldexp(g(x1.numerator, x1.denominator, W), -W))
        tol = mpf(2) ** (8 - bits) * (1 + K)
        assert abs(new.min_abs.val - old.min_abs.val) <= tol
        for (_, a), (_, b) in zip(new.candidates, old.candidates):
            assert abs(a.val - b.val) <= tol


@pytest.mark.parametrize("kwargs,name", [
    ({"denominator": 1000.5}, "denominator"), ({"denominator": 1}, "denominator"),
    ({"denominator": 1000.0}, "denominator"), ({"threshold": math.nan}, "threshold"),
    ({"threshold": math.inf}, "threshold"), ({"threshold": 0.0}, "threshold"),
    ({"threshold": -1e-6}, "threshold"), ({"threshold": "1e-6"}, "threshold"),
    ({"threshold": Fraction(1, 10 ** 6)}, "threshold"), ({"denominator": 10 ** 80}, "denominator"),
])
def test_hypothesis_scan_refuses_bad_grid_and_threshold(ctx, kwargs, name):
    with pytest.raises(ValueError, match=name):
        hypothesis_scan(1, ctx, **kwargs)


def _same_scan(new, old):
    # bit for bit: every point and every mpf value compared with ==
    assert new.evaluated == old.evaluated
    assert new.argmin == old.argmin
    assert new.min_abs.val == old.min_abs.val
    assert [(x, v.val) for x, v in new.candidates] == \
        [(x, v.val) for x, v in old.candidates]


@settings(max_examples=20, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(st.sampled_from(SCAN_D), st.integers(1, 3000),
       st.sampled_from([128, 192, 256]), st.sampled_from([1e-6, 1e-3, 1e-2, 0.5]))
def test_piece_walk_equals_walked_scan(d, points, bits, threshold):
    ctx = PrecisionContext(bits=bits)
    den = math.ceil(points * math.pi * math.sqrt(d))
    _same_scan(hypothesis_scan(d, ctx, denominator=den, threshold=threshold),
               ref.walked_scan(d, ctx, denominator=den, threshold=threshold))


@pytest.mark.parametrize("d,den,kmax,past_turn", [
    (1, 4, 1, True), (1, 5, 1, False), (1, 7, 2, True), (1, 9, 2, False),
    (1, 10, 3, True), (1, 12, 3, True), (5, 28, 3, False), (7, 9, 1, True),
    (7, 17, 2, True), (7, 25, 3, True), (30, 18, 1, True), (30, 52, 3, True),
])
@pytest.mark.parametrize("bits", [128, 192, 256])
def test_piece_walk_on_tiny_windows(d, den, kmax, past_turn, bits):
    # the top grid point on either side of the turn at 1/plastic
    ctx = PrecisionContext(bits=bits)
    top = math.pi * math.sqrt(d) * kmax / den
    assert (top > 0.7548776662466927) == past_turn
    for threshold in (1e-6, 0.5):
        new = hypothesis_scan(d, ctx, denominator=den, threshold=threshold)
        assert new.evaluated == kmax
        _same_scan(new, ref.walked_scan(d, ctx, denominator=den,
                                        threshold=threshold))


def test_piece_walk_at_1024_bits():
    # W = 1072 bits: past the float range, so the threshold test must be
    # exact; the walk still equals the per-point walk bit for bit and the
    # per-point f_rhs scan in its points
    ctx = PrecisionContext(bits=1024)
    for d, den, threshold in ((1, 9425, 1e-6), (7, 2500, 1e-2)):
        new = hypothesis_scan(d, ctx, denominator=den, threshold=threshold)
        _same_scan(new, ref.walked_scan(d, ctx, denominator=den, threshold=threshold))
    old = ref.hypothesis_scan(7, ctx, denominator=2500, threshold=1e-2)
    assert (new.evaluated, new.argmin) == (old.evaluated, old.argmin)
    assert [x for x, _ in new.candidates] == [x for x, _ in old.candidates]
    with mpmath.workprec(1024):
        assert abs(new.min_abs.val - old.min_abs.val) <= mpf(2) ** -1000


def test_piece_walk_evaluation_count(monkeypatch):
    # d = 1 with 3,000 grid points: the per-point walk takes the
    # fixed-point g 3,000 times, the piece walk only at piece ends,
    # bisections and candidates; K is f_const's one primed sum, with no
    # f_rhs_lt1 call.
    calls = {"g": 0, "f_rhs": 0, "sum": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(analysis, "g", counted("g", g))
    monkeypatch.setattr(analysis, "f_rhs_lt1", counted("f_rhs", f_rhs_lt1))
    monkeypatch.setattr(explicit, "primed_sum", counted("sum", arith.primed_sum))
    scan = hypothesis_scan(1, PrecisionContext(bits=192),
                           denominator=round(3000 * math.pi))
    assert scan.evaluated == 3000
    assert (calls["sum"], calls["f_rhs"]) == (1, 0)
    assert calls["g"] <= 300


def test_cold_scan_takes_each_log_at_one_width(monkeypatch):
    # K's prime sum and the drops read one log table: pi(3000) = 430 logs,
    # all at W = 192 + 32 + 16 bits, none at a second width.  The finder
    # on the same reciprocal window takes K by the scan's rule and reads
    # the same one table.  A log is counted where _log misses the table.
    log, ctx = arith._log, PrecisionContext(bits=192)

    def cold(run):
        taken = {}

        def counted(p, W):
            if p not in arith._logs.get(W, {}):
                taken.setdefault(W, []).append(p)
            return log(p, W)

        monkeypatch.setattr(arith, "_prefix", {})
        monkeypatch.setattr(arith, "_logs", {})
        monkeypatch.setattr(arith, "_log", counted)
        monkeypatch.setattr(analysis, "_log", counted)
        run()
        assert all(ps == sorted(set(ps)) for ps in taken.values())
        return {W: len(ps) for W, ps in taken.items()}

    assert cold(lambda: hypothesis_scan(1, ctx, denominator=9425)) == {240: 430}
    assert cold(lambda: find_zeros_lt1(Fraction(1, 3000), Fraction(9, 10),
                                       Fraction(1, 10 ** 6), ctx)) == {240: 430}

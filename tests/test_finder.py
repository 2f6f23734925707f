"""The interval walk against the grid scan it replaced, its pieces, and
frozen zero counts on long windows."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from zeta_explicit import analysis
from zeta_explicit.analysis import (GENUINE, JUMP, _dg, _pieces, find_zeros_gt1,
                                    find_zeros_lt1)
from zeta_explicit.arith import shared_table
from zeta_explicit.explicit import f_rhs_gt1, f_rhs_lt1, g
from zeta_explicit.mpcore import PrecisionContext
import finder_reference as ref
from mp_views import workprec

F = Fraction
TOL = F(1, 10 ** 12)

# Windows drawn like the benchmark's find ops: lo in [1.1, 50] in steps
# of 1/20 with width up to 12 above 1; lo = 1/n, n in [3, 60], below 1.
gt1_windows = st.builds(lambda k, m: (F(k, 20), F(k, 20) + F(m, 8)),
                        st.integers(22, 1000), st.integers(1, 96))
lt1_windows = st.builds(lambda n, m: (F(1, n), min(F(19, 20), F(1, n) + F(m, 40))),
                        st.integers(3, 60), st.integers(1, 24))


# every discontinuity the windows below can reach
JUMPS = {x for n in range(2, 100) if shared_table(n).prime_of(n)
         for x in (F(n), F(1, n))}


def _agrees_with_grid_scan(lo, hi, ctx, walk, scan, f, sides):
    new = walk(lo, hi, TOL, ctx)
    old = scan(lo, hi, TOL, ctx)
    assert [r.kind for r in new] == [r.kind for r in old]
    assert ([r.bracket_lo for r in new if r.kind == JUMP]
            == [r.bracket_lo for r in old if r.kind == JUMP])
    wide = PrecisionContext(ctx.bits + 64)

    def value(x, incoming):
        # the one-sided limit at a discontinuity, f itself elsewhere
        if x in JUMPS:
            left, _, right = sides(x, wide)
            return left if incoming else right
        return f(x, wide).val

    for a, b in zip(new, old):
        if a.kind != GENUINE:
            continue
        with workprec(ctx):
            assert abs(a.root.val - b.root.val) <= ctx.real(TOL).val
        assert 0 <= a.bracket_hi - a.bracket_lo <= TOL
        assert lo <= a.bracket_lo and a.bracket_hi <= hi
        assert not any(a.bracket_lo < j < a.bracket_hi for j in JUMPS)
        fa, fb = value(a.bracket_lo, False), value(a.bracket_hi, True)
        assert fa == 0 or fb == 0 or (fa < 0) != (fb < 0)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(gt1_windows)
def test_walk_matches_grid_scan_gt1(ctx, window):
    _agrees_with_grid_scan(*window, ctx, find_zeros_gt1, ref.find_zeros_gt1,
                           f_rhs_gt1, ref._gt1_sides)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(lt1_windows)
def test_walk_matches_grid_scan_lt1(ctx, window):
    _agrees_with_grid_scan(*window, ctx, find_zeros_lt1, ref.find_zeros_lt1,
                           f_rhs_lt1, ref._lt1_sides)


def _counts(records):
    return (sum(r.kind == GENUINE for r in records),
            sum(r.kind == JUMP for r in records))


def test_frozen_counts_gt1(ctx):
    assert _counts(find_zeros_gt1(F(21, 20), F(200), TOL, ctx)) == (46, 45)


def test_frozen_counts_lt1(ctx):
    assert _counts(find_zeros_lt1(F(1, 300), F(19, 20), TOL, ctx)) == (57, 56)


@pytest.mark.parametrize("bits", [128, 512, 1024])
def test_frozen_counts_across_precisions(bits):
    # the counts above (192 bits) at the other widths of the walk
    ctx = PrecisionContext(bits=bits)
    assert _counts(find_zeros_gt1(F(21, 20), F(200), TOL, ctx)) == (46, 45)
    assert _counts(find_zeros_lt1(F(1, 300), F(19, 20), TOL, ctx)) == (57, 56)


def _prime_of(n):
    """p when n = p^k, else 0: by trial division, apart from the sieve."""
    p = next(q for q in range(2, n + 1) if n % q == 0)
    while n % p == 0:
        n //= p
    return p if n == 1 else 0


# Ends at prime powers (2, 8; 1/9, 1/2; 1/7, 1/5), no discontinuity
# inside (3, 7/2; 1/7, 1/5), the turn inside (5/4, 3/2; 3/5, 9/10) and
# the long windows of the frozen counts.
PIECE_WINDOWS = [(F(21, 20), F(200)), (F(2), F(8)), (F(3), F(7, 2)),
                 (F(5, 4), F(3, 2)), (F(1, 300), F(19, 20)), (F(1, 9), F(1, 2)),
                 (F(1, 7), F(1, 5)), (F(3, 5), F(9, 10))]


@pytest.mark.parametrize("bits", [128, 192, 512])
@pytest.mark.parametrize("lo,hi", PIECE_WINDOWS)
def test_pieces_tile_the_window_with_the_walked_K(lo, hi, bits):
    ctx, wide = PrecisionContext(bits=bits), PrecisionContext(bits=bits + 64)
    above = lo > 1
    f_rhs = f_rhs_gt1 if above else f_rhs_lt1
    with workprec(wide):
        turn = mpmath.findroot(lambda x: x ** 3 - x - 1, 1.3)
        turn, eps = (turn if above else 1 / turn), mpmath.ldexp(1, -bits)
    pieces = list(_pieces(lo, hi, ctx))
    assert pieces[0][0] == lo and pieces[-1][1] == hi
    assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))
    # K and drop are integers in units of 2^-W, W = bits + 48; g is read
    # at W + 64
    W = bits + 48
    for a, b, K, drop in pieces:
        K, drop = mpmath.ldexp(K, -W), mpmath.ldexp(drop, -W)
        assert a < b
        # n of each discontinuity x = n (above 1) or x = 1/n (below 1) in (a, b)
        inside = (range(math.floor(a) + 1, math.ceil(b)) if above
                  else range(math.floor(1 / b) + 1, math.ceil(1 / a)))
        assert not any(map(_prime_of, inside))
        n = b if above else 1 / b
        p = _prime_of(n.numerator) if n.denominator == 1 else 0
        mid = (a + b) / 2
        with workprec(wide):
            assert not wide.real(a).val + eps < turn < wide.real(b).val - eps
            gap = f_rhs(mid, wide).val \
                - mpmath.ldexp(g(mid.numerator, mid.denominator, W + 64), -W - 64) - K
            assert abs(gap) <= mpmath.ldexp(1 + abs(K), 8 - bits)
            fall = mpmath.log(p) / (1 if above else n.numerator) if p else 0
            assert abs(drop - fall) <= mpmath.ldexp(1, 8 - bits)


PRIME_POWERS = [n for n in range(2, 128) if _prime_of(n)] + [2 ** 19, 999983]
# x near 0 and near 1 on both sides, the prime powers and their
# reciprocals, and rationals up to 10^6
walk_points = st.one_of(
    st.sampled_from([F(1, 2 ** 40), 1 - F(1, 2 ** 30), 1 + F(1, 2 ** 30), F(10 ** 6)]
                    + [F(n) for n in PRIME_POWERS] + [F(1, n) for n in PRIME_POWERS]),
    st.builds(F, st.integers(1, 10 ** 9), st.integers(1, 1000))
    .filter(lambda x: x != 1 and x <= 10 ** 6))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([128, 192, 512, 1024]), walk_points)
def test_fixed_point_g_and_slope_against_mpmath(bits, x):
    # g within 2 units of 2^-W and g' (floored) within 1, W = bits + 48,
    # against mpmath at W + 64
    W, p, q = bits + 48, x.numerator, x.denominator
    with mpmath.workprec(W + 64):
        X = mpmath.mpf(p) / q
        if x > 1:
            got, ref = g(p, q, W), X - mpmath.log(1 - 1 / X ** 2) / 2
            slope = 1 - 1 / (X ** 3 - X)
        else:
            got, ref = g(p, q, W), mpmath.log(X) + X - mpmath.log((1 + X) / (1 - X)) / 2
            slope = 1 / X + 1 - 1 / (1 - X ** 2)
        assert abs(got - mpmath.ldexp(ref, W)) <= 2
        assert abs(_dg(p, q, W) - mpmath.ldexp(slope, W)) <= 1


REFINE_W, REFINE_BITS, REFINE_K = 240, 192, 20   # h = 2^-20 at 192 bits
REFINE_CELL = 1 << REFINE_W - REFINE_K           # units of 2^-W per cell
# g rises on [1/8, 1/4] and falls on [17/20, 19/20], |g'| > 1 on both
REFINE_PIECES = [(F(1, 8), F(1, 4), F(3, 16)), (F(17, 20), F(19, 20), F(9, 10))]


def _grid_unit(x):
    """The grid point of hZ at or below x, in units of 2^-W."""
    return math.floor(x * 2 ** REFINE_K) * REFINE_CELL


@pytest.mark.parametrize("a,b,c", REFINE_PIECES)
@pytest.mark.parametrize("case", ["generic", "on-grid", "grid-1", "grid+1",
                                  "first-iterate", "short-straddling", "short-inside",
                                  "steep"])
def test_refine_on_a_synthetic_monotone_F(a, b, c, case):
    # F(X) = floor((X - R) g'(R)): exact, monotone like g + K, with its one
    # sign change at the integer R (F(R) = 0, a zero counting with the
    # positive side), so Newton's slope _dg is F's near R.  The steep F is
    # three times that: every Newton step overshoots by 2 (X - R), only the
    # shrinking bracket converges, and X is good to the stall rule's
    # |X| 2^-(bits+8), not to a unit.
    W, h = REFINE_W, F(1, 1 << REFINE_K)
    grid = _grid_unit(c)
    lo, hi = -(-(a.numerator << W) // a.denominator), (b.numerator << W) // b.denominator
    R = {"generic": (c.numerator << W) // c.denominator + (1 << W - 12) + 12345,
         "steep": (c.numerator << W) // c.denominator + (1 << W - 12) + 12345,
         "on-grid": grid, "grid-1": grid - 1, "grid+1": grid + 1,
         "first-iterate": (lo + hi) >> 1,
         "short-straddling": grid + 5, "short-inside": grid + REFINE_CELL // 4}[case]
    if case.startswith("short"):   # a piece shorter than one cell around R
        a = F(R - REFINE_CELL // 3 if case == "short-straddling" else grid + 1, 1 << W)
        b = F(R + REFINE_CELL // 3, 1 << W)
        assert b - a < h
    d = _dg(R, 1 << W, W) * (3 if case == "steep" else 1)
    calls = []

    def Fs(X):
        calls.append(X)
        assert len(calls) <= 4 * W     # bisection alone takes about W
        return (X - R) * d >> W

    fa, fb = Fs(math.ceil(a * 2 ** W)), Fs(math.floor(b * 2 ** W))
    assert (fa < 0) != (fb < 0)
    v, w, X = analysis._refine(a, b, fa, REFINE_K, Fs, W, REFINE_BITS)
    assert a <= v < w <= b and w - v <= h
    assert v * 2 ** W <= R <= w * 2 ** W          # the cell holds the root
    for end, ref_sign in ((v, fa), (w, fb)):      # each end keeps its side's sign
        if end not in (a, b):
            assert (end * 2 ** W).denominator == 1 and end / h == end // h
            value = Fs(int(end * 2 ** W))
            assert value == 0 or (value < 0) == (ref_sign < 0)
    assert abs(X - R) <= (R >> REFINE_BITS + 8 if case == "steep" else 1)
    if case == "first-iterate":                   # F(X) = 0 at once: no Newton step
        assert X == R and calls[2] == R


@pytest.mark.parametrize("a,b,c", REFINE_PIECES)
def test_refine_moves_the_cell_to_the_sign_change(a, b, c):
    # F vanishes on [G - 2, G + 2], G a grid point, and the first iterate
    # (the bracket midpoint) is a zero of F in the cell beside the one that
    # holds the sign change (G - 2 rising, G + 2 falling): the cell moves.
    W, grid = REFINE_W, _grid_unit(c)
    d = _dg(grid, 1 << W, W)
    mid = grid + 1 if d > 0 else grid - 1
    a, b = F(mid - REFINE_CELL // 3, 1 << W), F(mid + REFINE_CELL // 3, 1 << W)

    def Fs(X):
        t = X - grid
        return (t - 2 if t > 2 else t + 2 if t < -2 else 0) * d >> W

    v, w, X = analysis._refine(a, b, Fs(mid - REFINE_CELL // 3), REFINE_K, Fs, W, REFINE_BITS)
    assert X == mid and Fs(X) == 0
    assert (v, w) == ((a, F(grid, 1 << W)) if d > 0 else (F(grid, 1 << W), b))


@pytest.mark.parametrize("finder,lo,hi,bound", [
    # 342 and 225 for a refinement that probed the grid around every
    # Newton iterate and then polished X in a second loop
    (find_zeros_lt1, F(1, 60), F(19, 20), 217),
    (find_zeros_gt1, F(21, 20), F(50), 175),
])
def test_refinement_evaluation_count(monkeypatch, finder, lo, hi, bound):
    # one F per Newton iterate plus the cell-end probes, at 192 bits; K
    # (f_const) takes no g, and the residuals' g is explicit's, uncounted
    calls = []

    def counted(*args, fn=g):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(analysis, "g", counted)
    finder(lo, hi, TOL, PrecisionContext(bits=192))
    assert len(calls) <= bound


@pytest.mark.parametrize("finder,lo,hi", [(find_zeros_gt1, F(21, 20), F(2)),
                                          (find_zeros_lt1, F(1, 10), F(9, 10))])
@pytest.mark.parametrize("tol,match", [(F(0), "positive"), (F(-1, 8), "positive"),
                                       (F(1, 2 ** 177), "precision floor")])
def test_finder_refuses_tol_outside_its_range(ctx, finder, lo, hi, tol, match):
    # the floor at 192 bits is 2^-176
    with pytest.raises(ValueError, match=match):
        finder(lo, hi, tol, ctx)


def test_each_record_takes_one_residual(monkeypatch):
    # The finder reads f_rhs_gt1 and f_rhs_lt1 through the module, where
    # the benchmark tracer's wrappers sit: one call per record.
    calls = []
    for name in ("f_rhs_gt1", "f_rhs_lt1"):
        def counted(x, ctx, fn=getattr(analysis, name), name=name):
            calls.append(name)
            return fn(x, ctx)
        monkeypatch.setattr(analysis, name, counted)
    ctx = PrecisionContext(bits=192)
    records = find_zeros_gt1(F(21, 20), F(100), F(1, 10 ** 6), ctx)
    assert len(records) == 60 and calls == ["f_rhs_gt1"] * 60
    calls.clear()
    records = find_zeros_lt1(F(1, 300), F(19, 20), F(1, 10 ** 6), ctx)
    assert calls == ["f_rhs_lt1"] * len(records) and len(records) == 113

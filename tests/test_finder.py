"""The interval walk against the grid scan it replaced, and frozen zero
counts on long windows."""

from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from zeta_explicit.analysis import GENUINE, JUMP, find_zeros_gt1, find_zeros_lt1
from zeta_explicit.arith import shared_table
from zeta_explicit.explicit import f_rhs_gt1, f_rhs_lt1
from zeta_explicit.mpcore import PrecisionContext
import finder_reference as ref

F = Fraction
TOL = F(1, 10 ** 12)

# Windows drawn like the benchmark's find ops: lo in [1.1, 50] in steps
# of 1/20 with width up to 12 above 1; lo = 1/n, n in [3, 60], below 1.
gt1_windows = st.builds(lambda k, m: (F(k, 20), F(k, 20) + F(m, 8)),
                        st.integers(22, 1000), st.integers(1, 96))
lt1_windows = st.builds(lambda n, m: (F(1, n), min(F(19, 20), F(1, n) + F(m, 40))),
                        st.integers(3, 60), st.integers(1, 24))


# every discontinuity the windows below can reach
JUMPS = {x for n in range(2, 100) if shared_table(n).is_prime_power(n)
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
        with ctx.workprec():
            assert abs(a.root.val - b.root.val) <= ctx.mpf(TOL)
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

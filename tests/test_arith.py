"""Prime-power sieve, weighted Chebyshev sums and their prefix
checkpoints, Kronecker characters, and imaginary-quadratic class data."""

import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import libelefun
from hypothesis import given, settings
import hypothesis.strategies as st

from zeta_explicit import arith
from zeta_explicit.arith import (
    BLOCK,
    T_sum,
    class_data,
    discriminant_of,
    is_squarefree,
    kronecker_chi,
    mangoldt_sieve,
    prime_power_sum,
    psi0,
    psi0_alpha,
    shared_table,
    walk_width,
    weighted_sum,
)
from zeta_explicit.mpcore import PrecisionContext
from explicit_oracles import prime_sum_reference
from kronecker_reference import kronecker_symbol
from mp_views import as_mpf, workprec


def chi_fn(d: int):
    """chi_{-d} as a function of any nonnegative integer."""
    table = kronecker_chi(d)
    return lambda n: table[n % len(table)]


def _prime_power_base(n: int) -> int:
    """Trial-division oracle: p if n = p^k, else 0."""
    if n < 2:
        return 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            m = n
            while m % p == 0:
                m //= p
            return p if m == 1 else 0
        p += 1
    return n


def test_sieve_matches_trial_division():
    # the smallest tables, the edges of the slice marking (N = p^2 - 1 and
    # p^2, the first multiple that p marks) and of the higher powers
    # flagged back (27, 32, 125, 128)
    for N in (1, 2, 3, 4, 8, 9, 24, 25, 27, 32, 48, 49, 120, 121, 125, 128, 5000):
        t = mangoldt_sieve(N)
        assert t.limit == N
        assert list(t.powers) == [n for n in range(N + 1) if _prime_power_base(n)], N
        for n in range(1, N + 1):
            assert t.prime_of(n) == _prime_power_base(n), (N, n)


@pytest.mark.parametrize("N", [1000, 1024])
def test_walk_slice_is_the_prime_powers_in_lo_hi(N):
    # the (lo, hi] slice prime_power_sum and _pieces read, with lo and hi on
    # and off prime powers, at 1 and at the limit (1024 = 2^10 is one, 1000
    # is not); hi <= lo gives an empty slice, and hi past the limit is refused
    t = mangoldt_sieve(N)
    ref = [(n, _prime_power_base(n)) for n in range(N + 1) if _prime_power_base(n)]
    ends = (1, 2, 3, 4, 6, 8, 9, 10, 30, 31, 32, 121, 127, 128, 500, N - 1, N)
    for lo in ends:
        for hi in ends:
            got = list(zip(*t.between(lo, hi)))
            assert got == [(n, p) for n, p in ref if lo < n <= hi], (lo, hi)
    with pytest.raises(ValueError, match="table limit"):
        t.between(1, N + 1)


def test_sieve_queries(ctx):
    t = shared_table(100)
    assert t.prime_of(8) == 2
    assert t.prime_of(12) == 0
    assert t.prime_of(9) == 3
    assert t.prime_of(1) == 0
    W = walk_width(ctx)
    with workprec(ctx, 16):
        L = mpmath.mpf((arith._log(t.prime_of(49), W), -W))
        assert abs(L - mpmath.log(7)) < mpmath.mpf(2) ** (-180)
    assert t.prime_of(10) == 0
    with pytest.raises(ValueError):
        mangoldt_sieve(100).prime_of(101)
    for N in (0, arith.MAX_SIEVE + 1):   # refused before any allocation
        with pytest.raises(ValueError, match="sieve limit"):
            mangoldt_sieve(N)


def test_shared_table_grows_monotonically():
    a = shared_table(10)
    b = shared_table(500)
    assert b.limit >= a.limit
    assert shared_table(100) is shared_table(50)  # served from the big one


def test_shared_table_growth_stops_at_budget(monkeypatch):
    # Doubling 3000 would ask for 6000 > budget; any N within the budget
    # must still be served, and only N beyond it refused.
    monkeypatch.setattr(arith, "MAX_SIEVE", 5000)
    monkeypatch.setattr(arith, "_table_cache", {})
    assert shared_table(3000).limit >= 3000
    t = shared_table(4000)
    assert 4000 <= t.limit <= 5000
    t = shared_table(5000)
    assert t.limit == 5000
    with pytest.raises(ValueError, match="memory budget"):
        shared_table(5001)
    assert arith._table_cache["t"] is t       # a refusal keeps the cached table


def test_sieve_growth_frees_the_old_table_first(monkeypatch):
    # Growing from 5*10^5 to 10^6 entries: the table keeps 8 bytes per
    # prime power, 0.64 per entry, and a sieve peaks near 1.65; the old
    # table (0.33 bytes per new entry) must be gone before the new one is
    # sieved, or the peak is near 2.
    monkeypatch.setattr(arith, "_table_cache", {})
    tracemalloc.start()
    try:
        shared_table(500_000)
        tracemalloc.reset_peak()
        assert shared_table(500_001).limit == 1_000_000
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 1_000_000
    assert current <= 0.7 * 1_000_000


def test_psi0_plain_value(ctx):
    v = psi0(Fraction(10), ctx)
    assert v.str_digits(25) == "7.832014180505468990748299"


def test_psi0_halves_boundary_weight(ctx):
    v = psi0(Fraction(8), ctx)
    with workprec(ctx, 16):
        full = 3 * mpmath.log(2) + mpmath.log(3) + mpmath.log(5) + mpmath.log(7)
        assert abs(v.val - (full - mpmath.log(2) / 2)) < mpmath.mpf(2) ** (-180)


def test_psi0_rejects_domain(ctx):
    with pytest.raises(ValueError):
        psi0(Fraction(1), ctx)
    with pytest.raises(ValueError, match="x > 1"):
        psi0_alpha(Fraction(1), Fraction(1, 2), ctx)


def test_psi0_alpha_reduces_to_psi0(ctx):
    for x in (Fraction(10), Fraction(8), Fraction(21, 2)):
        v0 = psi0(x, ctx)
        va = psi0_alpha(x, Fraction(0), ctx)
        with workprec(ctx, 16):
            assert abs(v0.val - va.val) < mpmath.mpf(2) ** (-180)


def test_psi0_alpha_hand_sum(ctx):
    # x = 5, alpha = 1/2: x^a (log2/2^a + log3/3^a + log2/4^a) + log5/2.
    v = psi0_alpha(Fraction(5), Fraction(1, 2), ctx)
    with workprec(ctx, 16):
        a = mpmath.mpf(1) / 2
        hand = mpmath.mpf(5) ** a * (
            mpmath.log(2) * mpmath.mpf(2) ** -a
            + mpmath.log(3) * mpmath.mpf(3) ** -a
            + mpmath.log(2) * mpmath.mpf(4) ** -a) + mpmath.log(5) / 2
        assert abs(v.val - hand) < mpmath.mpf(2) ** (-180)


def test_t_sum_frozen_value(ctx):
    v = T_sum(Fraction(1, 10), Fraction(0), ctx)
    assert v.str_digits(25) == "1.694650657924468904866818"


def test_t_sum_hand_sum(ctx):
    # x = 1/5, alpha = 1/3; boundary 1/x = 5 carries weight x/2.
    v = T_sum(Fraction(1, 5), Fraction(1, 3), ctx)
    with workprec(ctx, 16):
        a = mpmath.mpf(1) / 3
        x = mpmath.mpf(1) / 5
        hand = x ** a * (mpmath.log(2) * mpmath.mpf(2) ** (a - 1)
                         + mpmath.log(3) * mpmath.mpf(3) ** (a - 1)
                         + mpmath.log(2) * mpmath.mpf(4) ** (a - 1)) \
            + x * mpmath.log(5) / 2
        assert abs(v.val - hand) < mpmath.mpf(2) ** (-180)


def test_t_sum_rejects_domain(ctx):
    with pytest.raises(ValueError):
        T_sum(Fraction(2), Fraction(0), ctx)


# Prefix checkpoints of prime_power_sum.  chi_{-d} for d = 3, 1, 7, 2 has
# modulus 3, 4, 7, 8.
# The denominators 3, 5, 4, 7, 13, ROOT_BOUND and ROOT_BOUND + 1 (1/3, 2/5,
# -5/4, -3/7, 7/13, -1/ROOT_BOUND and ABOVE_BOUND): those up to the bound,
# like -1/2, 3/2 and 401/2, read the root table, and the rest take
# exp_fixed.  60 and 401/2 make the first term, p0^-s, smaller than
# 2^-bits, where a walk kept at a width of a fixed number of bits past 1
# would lose it.
ABOVE_BOUND = Fraction(-1, arith.ROOT_BOUND + 1)
TABLE_S = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(-1, 2), Fraction(3, 2),
           Fraction(2, 5), Fraction(-5, 4), Fraction(-3, 7), Fraction(-1, arith.ROOT_BOUND),
           Fraction(7, 13), ABOVE_BOUND, Fraction(60), Fraction(401, 2))
TABLE_CHI = (None, 3, 1, 7, 2)
# x = N + 1/2 reads the terms n <= N in full; the integer prime powers
# 251 < 256 = 2^8 < 257 and 509 < 512 = 2^9 < 521 sit around the first two
# block edges and halve their own term.
EDGE_X = ([Fraction(2 * (j * BLOCK + e) + 1, 2) for j in (1, 2) for e in (-1, 0, 1)]
          + [Fraction(n) for n in (251, 256, 257, 509, 512, 521)])


@pytest.mark.parametrize("bits", [128, 192, 256, 512, 1024])
@pytest.mark.parametrize("d", TABLE_CHI)
def test_checkpointed_sums_match_per_n_reference(bits, d):
    ctx = PrecisionContext(bits=bits)
    chi = (1,) if d is None else kronecker_chi(d)
    for s in TABLE_S:
        for x in EDGE_X:
            got = as_mpf(*weighted_sum(x, s, ctx, chi))
            ref, size = prime_sum_reference(x, s, chi, bits)
            with mpmath.workprec(bits + 64):
                assert abs(got - ref) <= mpmath.mpf(2) ** (8 - bits) * size, (x, s, d)


@pytest.mark.parametrize("x,alpha", [(Fraction(17, 2), Fraction(200)),
                                     (Fraction(2, 1001), Fraction(-60)),
                                     (Fraction(2, 1001), Fraction(-399, 2))])
def test_large_s_sums_keep_relative_precision(x, alpha):
    # psi0_alpha at s = alpha and T_sum at s = 1 - alpha (the T form, which
    # TABLE_S does not reach), for s of 61 and more: every term is below
    # 2^-bits, yet the sum keeps the contract.
    ctx = PrecisionContext(bits=128)
    got = (psi0_alpha if x > 1 else T_sum)(x, alpha, ctx).val
    ref, size = prime_sum_reference(x, alpha, None, 128)
    with mpmath.workprec(192):
        assert abs(got - ref) <= mpmath.mpf(2) ** (8 - 128) * size


@pytest.mark.parametrize("bits", [128, 192])
@pytest.mark.parametrize("d", [None, 1, 7])
def test_half_integer_s_takes_exact_square_roots(monkeypatch, bits, d):
    # n^-s at s = a/b, 2 <= b <= ROOT_BOUND, is read from the integer root
    # table (math.isqrt at b = 2), so the walk's exp_fixed is never called;
    # both forms, x > 1 (s = alpha) and x < 1 (s = 1 - alpha).
    def refuse(*args):
        raise AssertionError("exp_fixed called at a denominator within the bound")

    monkeypatch.setattr(arith, "_prefix", {})
    monkeypatch.setattr(arith, "exp_fixed", refuse)   # the name the walk reads
    ctx = PrecisionContext(bits=bits)
    chi = (1,) if d is None else kronecker_chi(d)
    S = [Fraction(401, 2)] + [Fraction(a, b) for b in range(2, arith.ROOT_BOUND + 1)
                              for a in (1, -1, b + 1)]
    for s in S:
        for x, alpha in ((Fraction(1001, 2), s), (Fraction(2, 1001), 1 - s),
                         (Fraction(509), s)):
            got = as_mpf(*weighted_sum(x, alpha, ctx, chi))
            ref, size = prime_sum_reference(x, alpha, chi, bits)
            with mpmath.workprec(bits + 64):
                assert abs(got - ref) <= mpmath.mpf(2) ** (8 - bits) * size, (x, s)


@pytest.mark.parametrize("bits", [128, 192, 1024])
def test_root_table_holds_exact_floors(monkeypatch, bits):
    # Every stored root of every denominator b <= ROOT_BOUND is
    # floor(2^W p^(-1/b)): r^b p <= 2^(bW) < (r + 1)^b p, for each prime
    # the walk reached, and only for those.
    monkeypatch.setattr(arith, "_prefix", {})
    monkeypatch.setattr(arith, "_roots", {})
    ctx = PrecisionContext(bits=bits)
    W = walk_width(ctx)
    primes = [p for p in range(2, 1201) if _prime_power_base(p) == p]
    for b in range(2, arith.ROOT_BOUND + 1):
        prime_power_sum(1200, Fraction(1, b), ctx)
        roots = arith._roots[b, W]
        assert sorted(roots) == primes
        for p, r in roots.items():
            assert r ** b * p <= 1 << b * W < (r + 1) ** b * p, (p, b)


def _stated_error(N: int, s: Fraction, chi, e: int) -> float:
    """prime_power_sum's stated bound on its error, in units of 2^-(W+e):
    1 + (1 + (j p^(1/b) + 1) log p) 2^e n^(-s) + 2 j p^q log p summed over
    its terms, m = ak, q = max(0, ceil(-m/b)), j = qb + m."""
    a, b, total = s.numerator, s.denominator, 0.0
    for n in range(2, N + 1):
        p = _prime_power_base(n)
        if p and (chi is None or chi[n % len(chi)]):
            m = a * round(math.log(n, p))
            q = max(0, -(m // b))
            j = q * b + m
            total += 1 + (1 + (j * p ** (1 / b) + 1) * math.log(p)) * 2.0 ** e * n ** -float(s) \
                + 2 * j * p ** q * math.log(p)
    return total


@pytest.mark.parametrize("bits", [128, 192, 1024])
@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                               Fraction(1, 3), Fraction(2, 3), Fraction(5, 3),
                               Fraction(13, 2), Fraction(-7, arith.ROOT_BOUND)])
@pytest.mark.parametrize("d", [None, 3])
def test_root_walk_within_stated_error(bits, s, d):
    # The unrounded sum against a per-n sum at 64 bits past its unit: the
    # difference stays below the sum of the stated term errors.
    ctx, N = PrecisionContext(bits=bits), 1500
    chi = (1,) if d is None else kronecker_chi(d)
    man, exp = prime_power_sum(N, s, ctx, chi)
    with mpmath.workprec(-exp + 64):
        ref = mpmath.fsum((1 if chi is None else chi[n % len(chi)])
                          * mpmath.log(_prime_power_base(n))
                          * mpmath.power(n, -mpmath.mpf(s.numerator) / s.denominator)
                          for n in range(2, N + 1) if _prime_power_base(n))
        err = abs(man - mpmath.ldexp(ref, -exp))
    assert err < _stated_error(N, s, chi, -exp - walk_width(ctx))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _log_floor(p: int, W: int) -> int:
    """floor(log(p) 2^W) from mpmath's log at W + 64 bits past the unit."""
    with mpmath.workprec(W + 72):
        return int(mpmath.floor(mpmath.ldexp(mpmath.log(p), W)))


LOG_PRIMES = ([p for p in range(2, 200) if _is_prime(p)]
              + [p for p in range(arith.LOG_LIMIT - 300, arith.LOG_LIMIT + 300) if _is_prime(p)]
              + [p for p in range(arith.MAX_SIEVE - 600, arith.MAX_SIEVE) if _is_prime(p)])


@pytest.mark.parametrize("W", [112, 240, 560, 1072])
def test_log_is_exact_floor_by_every_route(monkeypatch, W):
    # The chain in increasing and in decreasing p, and the anchor alone
    # (chain state cleared before each call), all give the exact floor
    # near 2, around LOG_LIMIT and just below MAX_SIEVE.  The log table
    # is cleared with the chain, so no route reads another's floors.
    monkeypatch.setattr(arith, "_logs", {})
    monkeypatch.setattr(arith, "_chain", {})
    up = [arith._log(p, W) for p in LOG_PRIMES]
    kept = arith._logs.pop(W)
    arith._chain.clear()
    down = [arith._log(p, W) for p in reversed(LOG_PRIMES)][::-1]
    anchored = []
    for p in LOG_PRIMES:
        arith._logs.clear()
        arith._chain.clear()
        anchored.append(arith._log(p, W))
    assert up == down == anchored == [_log_floor(p, W) for p in LOG_PRIMES]
    assert kept == {p: L for p, L in zip(LOG_PRIMES, up) if p <= arith.LOG_LIMIT}


@pytest.mark.parametrize("W", [112, 1072])
def test_log_near_tie_takes_the_wide_fallback(monkeypatch, W):
    # A chain state whose L for p lands on a multiple of 2^32 within its
    # counted error: the guard bits cannot certify the floor, and one
    # log_fixed 64 bits wider decides it.
    q, V = arith.LOG_LIMIT - 1, W + 32
    p = next(n for n in range(q + 1, 2 * q) if _is_prime(n))
    monkeypatch.setattr(arith, "_logs", {})
    monkeypatch.setattr(arith, "_chain", {W: (q, arith.log_fixed(q, 1, V), 4)})
    arith._log(p, W)
    _, L, err = arith._chain[W]
    assert err < 1 << 12
    shift = (1 << 31) - (L + (1 << 31)) % (1 << 32)   # L + shift: the nearest multiple of 2^32
    monkeypatch.setattr(arith, "_chain", {W: (q, arith.log_fixed(q, 1, V) + shift, 4 + abs(shift))})
    widths, log_fixed = [], arith.log_fixed
    monkeypatch.setattr(arith, "log_fixed", lambda n, d, V: widths.append(V) or log_fixed(n, d, V))
    assert arith._log(p, W) == _log_floor(p, W)
    assert widths == [W + 96] and arith._chain[W][2] == 2


@pytest.mark.parametrize("W", [240, 1072])
def test_cold_log_chain_anchors_rarely(monkeypatch, W):
    # A cold pass over the 25,997 primes to 3 10^5, in increasing order,
    # takes at most 100 log_fixed calls: the chain steps from prime to
    # prime and re-anchors only where a floor is left undecided.
    primes = [p for n, p in zip(*shared_table(300_000).between(1, 300_000)) if n == p]
    monkeypatch.setattr(arith, "_logs", {})
    monkeypatch.setattr(arith, "_chain", {})
    widths, log_fixed = [], arith.log_fixed
    monkeypatch.setattr(arith, "log_fixed", lambda n, d, V: widths.append(V) or log_fixed(n, d, V))
    logs = [arith._log(p, W) for p in primes]
    assert len(primes) == 25_997 and len(widths) <= 100
    assert [logs[0], logs[-1]] == [_log_floor(primes[0], W), _log_floor(primes[-1], W)]


@pytest.mark.parametrize("bits", [128, 192, 1024])
def test_root_is_exact_floor_near_the_sieve_budget(monkeypatch, bits):
    # _root's Newton guard grows with the bits of p: the floor holds for
    # primes just above LOG_LIMIT and just below MAX_SIEVE, where no table
    # keeps the root, at b = 2 to 12.
    monkeypatch.setattr(arith, "_roots", {})
    W = walk_width(PrecisionContext(bits=bits))
    primes = ([p for p in range(arith.LOG_LIMIT, arith.LOG_LIMIT + 60) if _is_prime(p)]
              + [p for p in range(arith.MAX_SIEVE - 300, arith.MAX_SIEVE) if _is_prime(p)])
    for b in range(2, 13):
        for p in primes:
            r = arith._root(p, b, W)
            assert r ** b * p <= 1 << b * W < (r + 1) ** b * p, (p, b)
    assert arith._roots == {}


@pytest.mark.parametrize("bits", [128, 192])
@pytest.mark.parametrize("s,d", [(Fraction(1, 2), None), (Fraction(1, 3), None),
                                 (Fraction(-2, 3), 3), (Fraction(5, 3), 7),
                                 (Fraction(1, arith.ROOT_BOUND + 1), None)])
def test_primes_past_log_limit_take_exp_fixed_at_b_above_2(monkeypatch, bits, s, d):
    # Past LOG_LIMIT no table keeps a root: up to ROOT_BOUND = 3 each such
    # prime takes its root afresh (math.isqrt at b = 2, a Newton root at
    # b = 3), never an exp_fixed; only b above the bound takes exp_fixed.
    # The terms in (N1, N2] agree with a per-n sum to a few units of
    # 2^-(W+e) per unit of their size.
    calls, exp_fixed = [], arith.exp_fixed
    monkeypatch.setattr(arith, "_prefix", {})
    monkeypatch.setattr(arith, "exp_fixed", lambda *a: calls.append(a) or exp_fixed(*a))
    ctx, N1, N2 = PrecisionContext(bits=bits), arith.LOG_LIMIT - 200, arith.LOG_LIMIT + 400
    chi = (1,) if d is None else kronecker_chi(d)
    m1, e1 = prime_power_sum(N1, s, ctx, chi)
    m2, e2 = prime_power_sum(N2, s, ctx, chi)
    terms = [(n, _prime_power_base(n)) for n in range(N1 + 1, N2 + 1)]
    terms = [(n, p, 1 if chi is None else chi[n % len(chi)]) for n, p in terms
             if p and (chi is None or chi[n % len(chi)])]
    assert any(p > arith.LOG_LIMIT for _, p, _ in terms)
    assert bool(calls) == (s.denominator > arith.ROOT_BOUND)
    assert not any(p > arith.LOG_LIMIT for roots in arith._roots.values() for p in roots)
    e = -e1 - walk_width(ctx)
    with mpmath.workprec(-e1 + 64):
        ref = mpmath.fsum(c * mpmath.log(p) * mpmath.power(n, -mpmath.mpf(s.numerator) / s.denominator)
                          for n, p, c in terms)
        err = abs((m2 - m1) - mpmath.ldexp(ref, -e1))
    assert e1 == e2
    assert err < 16 * sum((1 + 2.0 ** e * n ** -float(s)) * math.log(p) for n, p, _ in terms)


def test_huge_denominator_takes_exp_fixed(monkeypatch):
    # s = 1 + 2^-300 would need a 2^300-th root; above ROOT_BOUND the walk
    # takes exp_fixed, once per term, and stores no roots.
    calls, exp_fixed = [], arith.exp_fixed
    monkeypatch.setattr(arith, "_prefix", {})
    monkeypatch.setattr(arith, "exp_fixed", lambda *a: calls.append(a) or exp_fixed(*a))
    ctx, x, alpha = PrecisionContext(bits=128), Fraction(1001, 2), 1 + Fraction(1, 2 ** 300)
    start = time.perf_counter()
    got = psi0_alpha(x, alpha, ctx).val
    assert time.perf_counter() - start < 1.0
    assert len(calls) == sum(1 for n in range(2, 501) if _prime_power_base(n))
    assert not any(b > arith.ROOT_BOUND for b, _ in arith._roots)
    ref, size = prime_sum_reference(x, alpha, None, 128)
    with mpmath.workprec(192):
        assert abs(got - ref) <= mpmath.mpf(2) ** (8 - 128) * size


TABLE_N = (3000, 255, 256, 257, 1, 1023, 5000, 2 * BLOCK)


@pytest.mark.parametrize("s,d", [(Fraction(0), None), (Fraction(1, 3), None),
                                 (Fraction(1), 1), (Fraction(-1, 2), 7),
                                 (Fraction(2, 3), 3)])
def test_checkpointed_sums_do_not_depend_on_history(monkeypatch, s, d):
    # at s = 0 also N past LOG_LIMIT, which the running product takes, one
    # block and a tail past the limit, and on a block edge
    ctx = PrecisionContext(bits=192)
    chi = (1,) if d is None else kronecker_chi(d)
    ns = TABLE_N + ((arith.LOG_LIMIT + 300, arith.LOG_LIMIT + 2 * BLOCK) if s == 0 else ())

    def reset(logs_from=None):
        # empty checkpoint, ratio, log and root tables; or logs and roots
        # grown by a walk past every N (below LOG_LIMIT) at logs_from's
        # precision and s' = 1/b, b the denominator of s: s = 2/3 then
        # reads the roots that 1/3 took
        for name in ("_prefix", "_ratios", "_logs", "_roots"):
            monkeypatch.setattr(arith, name, {})
        if logs_from is not None:
            prime_power_sum(2 * max(TABLE_N), Fraction(1, s.denominator), logs_from, chi)
            monkeypatch.setattr(arith, "_prefix", {})

    fresh = {}
    for N in ns:
        reset()
        fresh[N] = prime_power_sum(N, s, ctx, chi)
    for logs_from in (None, ctx, PrecisionContext(bits=128)):
        for order in (sorted(ns), sorted(ns, reverse=True), ns):
            reset(logs_from)
            grown = {N: prime_power_sum(N, s, ctx, chi) for N in order}
            assert grown == fresh, (order, logs_from)


_BASES: list = []


def _per_integer_sum(N: int, s: Fraction, ctx: PrecisionContext, chi) -> tuple[int, int]:
    """prime_power_sum's terms at s >= 0 summed over every integer n <= N,
    each n's prime by trial division, not from the sieve: the walk as it
    was before it read the table's prime powers."""
    _BASES.extend(_prime_power_base(n) for n in range(len(_BASES), N + 1))
    W, a, b, q = walk_width(ctx), s.numerator, s.denominator, len(chi)
    e = max(0, math.ceil(s * math.log2(next(n for n in (2, 3) if chi[n % q]))))
    acc = 0
    for n in range(2, N + 1):
        if (p := _BASES[n]) and (c := chi[n % q]):
            L, k = arith._log(p, W), round(math.log(n, p))
            if b == 1:
                acc += c * (L << e) // n ** a if a > 0 else c * L * n ** -a
            elif b <= arith.ROOT_BOUND:
                acc += c * L * arith._power(arith._root(p, b, W) << e, a * k, W + e) >> W
            else:
                acc += c * L * libelefun.exp_fixed(-a * k * (L << e) // b, W + e) >> W
    return acc, -W - e


@pytest.mark.parametrize("s", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3)])
@pytest.mark.parametrize("d", [None, 1])
def test_prime_power_walk_matches_per_integer_sum(s, d):
    # bit-identical at the block edges 255, 256, 257 and around LOG_LIMIT,
    # past which s = 1/3 takes an untabled root instead of a tabled one
    ctx = PrecisionContext(bits=192)
    chi = (1,) if d is None else kronecker_chi(d)
    for N in (255, 256, 257, arith.LOG_LIMIT - 1, arith.LOG_LIMIT + 1):
        assert prime_power_sum(N, s, ctx, chi) == _per_integer_sum(N, s, ctx, chi), N


@pytest.mark.parametrize("s", [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1),
                               Fraction(-1, 2)])
@pytest.mark.parametrize("d", [None, 7])
def test_primed_sum_halves_the_endpoint_in_one_walk(monkeypatch, s, d):
    # at a prime power y, primed_sum walks once to y - 1 and adds y's own
    # term: the same (man, exp) as the mean of the sums to y - 1 and to y,
    # on both sides of the checkpoints at BLOCK and 2 BLOCK (256 and 512 are
    # prime powers on them) and past LOG_LIMIT, where s = 0 keeps the two reads
    ctx = PrecisionContext(bits=192)
    chi = (1,) if d is None else kronecker_chi(d)
    calls = []
    walked = arith.prime_power_sum
    monkeypatch.setattr(arith, "prime_power_sum", lambda *a, **k: calls.append(a[0]) or walked(*a, **k))
    for y in (251, 256, 257, 509, 512, 521, arith.LOG_LIMIT + 29):   # 131101 is prime
        assert shared_table(y).prime_of(y)
        calls.clear()
        got = arith.primed_sum(Fraction(y), s, ctx, chi)
        S, e = walked(y, s, ctx, chi)
        assert got == (S + walked(y - 1, s, ctx, chi)[0], e - 1), y
        assert calls == ([y, y - 1] if s == 0 and y > arith.LOG_LIMIT else [y]), y
    assert arith.primed_sum(Fraction(513, 2), s, ctx, chi) == walked(256, s, ctx, chi)


def _exact_log_ratio(lo: int, hi: int, chi, W: int) -> mpmath.mpf:
    """2^W log(P+/P-) at W + 64 bits, P+- the exact products, by a product
    tree, of the p of the n = p^k in (lo, hi] with chi(n) = +-1, p by
    trial division."""
    def tree(xs):
        while len(xs) > 1:
            xs = [math.prod(xs[i:i + 2]) for i in range(0, len(xs), 2)]
        return xs[0] if xs else 1

    _BASES.extend(_prime_power_base(n) for n in range(len(_BASES), hi + 1))
    up, down = (tree([_BASES[n] for n in range(lo + 1, hi + 1)
                      if _BASES[n] and chi[n % len(chi)] == c]) for c in (1, -1))
    with mpmath.workprec(W + 64):
        return (mpmath.log(up) - mpmath.log(down)) * mpmath.mpf(2) ** W


_LIM = arith.LOG_LIMIT
RATIO_N = (_LIM, _LIM + 1, 131101, _LIM + BLOCK - 1, _LIM + BLOCK, _LIM + BLOCK + 1,
           _LIM + 2 * BLOCK - 1, _LIM + 2 * BLOCK, _LIM + 2 * BLOCK + 1, 300_000)


@pytest.mark.parametrize("bits", [128, 192, 512, 1024])
@pytest.mark.parametrize("d", [None, 1])
def test_s0_past_log_limit_is_the_log_of_the_product(bits, d):
    # s = 0 past LOG_LIMIT (131101 is the first prime past 2^17, and
    # LOG_LIMIT + j BLOCK the ratio's checkpoints): the walk to the limit
    # plus the log of the exact products, within the product's 2 units
    ctx, chi = PrecisionContext(bits=bits), (1,) if d is None else kronecker_chi(d)
    W = walk_width(ctx)
    walked = prime_power_sum(_LIM, Fraction(0), ctx, chi)
    for N in RATIO_N:
        got, e = prime_power_sum(N, Fraction(0), ctx, chi)
        assert e == walked[1] == -W
        assert abs(got - walked[0] - _exact_log_ratio(_LIM, N, chi, W)) < 2, N


def test_cold_s0_sum_takes_no_log_past_log_limit(monkeypatch):
    # psi to 3 10^5 takes the logs of the primes to LOG_LIMIT, kept for
    # every other s and the finders' drops, and none past it
    taken, log = [], arith._log

    def counted(p, W):
        taken.append(p)
        return log(p, W)

    for name in ("_prefix", "_ratios", "_logs", "_chain"):
        monkeypatch.setattr(arith, name, {})
    monkeypatch.setattr(arith, "_log", counted)
    prime_power_sum(300_000, Fraction(0), PrecisionContext(bits=192))
    assert taken == [p for n, p in zip(*shared_table(_LIM).between(1, _LIM)) if n == p]


@pytest.mark.parametrize("bits", [128, 192, 1024])
def test_mangoldt_reads_its_width_from_the_context(bits):
    # Lambda(n) = log p to 2^-W at the walk's width, whatever precision
    # mpmath holds when it is called
    ctx = PrecisionContext(bits=bits)
    W = arith.walk_width(ctx)
    got = set()
    for prec in (53, bits, 2 * W):
        with mpmath.workprec(prec):
            got.add(arith._log(shared_table(7 ** 3).prime_of(7 ** 3), W))
    value, = got
    with mpmath.workprec(2 * W):
        assert abs(mpmath.mpf((value, -W)) - mpmath.log(7)) < mpmath.mpf(2) ** -W


@pytest.mark.parametrize("s", [Fraction(0), Fraction(1), Fraction(2, 5), Fraction(-3, 7)])
def test_log_table_stops_at_its_limit(monkeypatch, s):
    # A sum and a Lambda(n) across the limit, set to 500, no multiple of
    # BLOCK: logs above it are taken per use, and the sum equals the one
    # with every log kept and the per-n reference.  At s = 0 the terms past
    # the limit are the running product's log, which keeps no walk's floors
    # bit for bit: there they are checked against the log of the exact
    # products, within the product's 2 units, in place of the kept sum.
    ctx, x = PrecisionContext(bits=192), Fraction(2001, 2)
    W = walk_width(ctx)
    for name in ("_prefix", "_ratios", "_logs"):
        monkeypatch.setattr(arith, name, {})
    kept = weighted_sum(x, s, ctx)
    monkeypatch.setattr(arith, "LOG_LIMIT", 500)
    for name in ("_prefix", "_ratios", "_logs"):
        monkeypatch.setattr(arith, name, {})
    got = weighted_sum(x, s, ctx)
    with workprec(ctx, 32):
        L = mpmath.mpf((arith._log(shared_table(503 ** 2).prime_of(503 ** 2), W), -W))
        assert abs(L - mpmath.log(503)) < mpmath.mpf(2) ** (-216)
    logs, = arith._logs.values()
    assert list(logs) == [p for p in range(2, 501) if _prime_power_base(p) == p]
    if s == 0:
        past = prime_power_sum(1000, s, ctx)[0] - prime_power_sum(500, s, ctx)[0]
        assert abs(past - _exact_log_ratio(500, 1000, (1,), W)) < 2
    else:
        assert got == kept
    ref, size = prime_sum_reference(x, s, None, 192)
    with mpmath.workprec(256):
        assert abs(as_mpf(*got) - ref) <= mpmath.mpf(2) ** (8 - 192) * size


@pytest.mark.parametrize("N", [1, BLOCK - 1, BLOCK, BLOCK + 1, 10_000])
def test_checkpoint_table_size(monkeypatch, N):
    monkeypatch.setattr(arith, "_prefix", {})
    ctx = PrecisionContext(bits=192)
    prime_power_sum(N, Fraction(0), ctx)
    prime_power_sum(N // 3, Fraction(0), ctx)
    sums, = arith._prefix.values()
    assert len(sums) <= math.ceil(N / BLOCK) + 1


@pytest.mark.parametrize("N", [arith.LOG_LIMIT + 1, arith.LOG_LIMIT + BLOCK,
                               arith.LOG_LIMIT + BLOCK + 1, 300_000])
def test_ratio_table_size(monkeypatch, N):
    # s = 0 past LOG_LIMIT: the walk's table stops at the limit, and the
    # running product's holds one checkpoint per block past it, its
    # mantissas in fixed-width bytes beside an array of exponents
    for name in ("_prefix", "_ratios"):
        monkeypatch.setattr(arith, name, {})
    ctx = PrecisionContext(bits=192)
    prime_power_sum(N, Fraction(0), ctx)
    prime_power_sum((N + arith.LOG_LIMIT) // 2, Fraction(0), ctx)
    sums, = arith._prefix.values()
    (mants, exps), = arith._ratios.values()
    assert len(sums) <= math.ceil(arith.LOG_LIMIT / BLOCK) + 1
    assert len(exps) <= math.ceil((N - arith.LOG_LIMIT) / BLOCK) + 1
    assert len(mants) == len(exps) * ((walk_width(ctx) + 64) // 8 + 1)


def test_zeta_and_the_character_mod_1_share_one_checkpoint_table(monkeypatch):
    # zeta is the character table (1,) mod 1: the default chi and an
    # explicit (1,) read and grow one table, to the same integers
    monkeypatch.setattr(arith, "_prefix", {})
    ctx, s = PrecisionContext(bits=192), Fraction(1, 2)
    first = prime_power_sum(3000, s, ctx)
    assert prime_power_sum(3000, s, ctx, (1,)) == first
    assert prime_power_sum(5000, s, ctx, [1]) == prime_power_sum(5000, s, ctx)
    assert list(arith._prefix) == [(s, (1,), walk_width(ctx))]


def test_kronecker_symbol_small_table():
    # Rows: chi_{-1} = (-4 | n) and chi_{-2} = (-8 | n) for n = 1..8.
    assert [kronecker_chi(1)[n % 4] for n in range(1, 9)] == \
        [1, 0, -1, 0, 1, 0, -1, 0]
    assert [kronecker_chi(2)[n % 8] for n in range(1, 9)] == \
        [1, 0, 1, 0, -1, 0, -1, 0]


def test_kronecker_chi_equals_the_general_symbol():
    # The table built from chi at the primes equals (-D | n), n mod D,
    # from the general Kronecker symbol, for every squarefree d <= 400
    # and for d = 3001.
    for d in [d for d in range(1, 401) if is_squarefree(d)] + [3001]:
        D = discriminant_of(d)
        assert kronecker_chi(d) == tuple(kronecker_symbol(-D, n) for n in range(D)), d


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=400),
       st.sampled_from([1, 2, 3, 7, 11, 15]))
def test_chi_is_completely_multiplicative(m, n, d):
    chi = chi_fn(d)
    assert chi(m * n) == chi(m) * chi(n)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
def test_chi_period_and_support(d):
    table = kronecker_chi(d)
    D = discriminant_of(d)
    assert len(table) == D
    chi = chi_fn(d)
    for n in range(1, 3 * D):
        assert chi(n) == chi(n + D)
        assert (chi(n) == 0) == (math.gcd(n, D) > 1)
    assert chi(D - 1) == -1  # odd character


def test_kronecker_chi_rejects_non_squarefree():
    with pytest.raises(ValueError):
        kronecker_chi(12)


def test_squarefree_and_discriminant():
    assert is_squarefree(1) and is_squarefree(10) and not is_squarefree(18)
    assert not any(map(is_squarefree, (0, -1, -2)))   # squarefree means d >= 1
    assert discriminant_of(1) == 4
    assert discriminant_of(2) == 8
    assert discriminant_of(3) == 3
    assert discriminant_of(5) == 20
    assert discriminant_of(7) == 7


KNOWN_CLASS_NUMBERS = {1: 1, 2: 1, 3: 1, 5: 2, 6: 2, 7: 1, 10: 2, 11: 1,
                       13: 2, 14: 4, 15: 2, 23: 3, 47: 5}


@pytest.mark.parametrize("d,h", sorted(KNOWN_CLASS_NUMBERS.items()))
def test_class_data_known_values(d, h):
    data = class_data(d)
    assert data.h == h
    assert data.D == discriminant_of(d)
    assert data.w == (6 if data.D == 3 else 4 if data.D == 4 else 2)


def test_class_data_rejects_non_squarefree():
    with pytest.raises(ValueError):
        class_data(8)

"""Exact arithmetic substrate: von Mangoldt sieve, weighted prime-power
sums, the characters chi_{-d}, and imaginary-quadratic class data.

The half-corrected prime-power sums evaluated here are the left-hand
ingredients of the explicit formulas of the Selberg-class descriptors,
Lambda_F = chi Lambda with chi a completely multiplicative character
table; zeta is the table (1,) mod 1, the default:

  psi0(x)          = Sum'_{n<=x} Lambda(n)
  psi0_alpha(x,a)  = x^a Sum'_{n<=x} Lambda(n)/n^a
  T_sum(x,a)       = x^a Sum'_{n<=1/x} Lambda(n)/n^(1-a)   for 0 < x < 1

where Sum' halves the boundary term when the endpoint is a prime power.
Inputs x are exact rationals so the "is the endpoint a prime power"
branch is decidable: primed_sum decides it for every sum, f's too, as the
mean of the sums to y - 1 and to y, one integer.  Both forms are
weighted_sum, x^a (mpcore.power) times primed_sum, which reads
prime_power_sum at bits + 32: fixed-point integers, each prime's log
floored once per width by _log, the one log lookup (at s = 0 past
LOG_LIMIT one product's log), and root p^(-1/b) per (b, width), b <=
ROOT_BOUND (untabled past LOG_LIMIT), checkpointed every BLOCK = 256 per
(s, chi, width); none depends on history.

The class data of Q(sqrt(-d)) is exact integers, chi_{-d} a table built
by complete multiplicativity from its values at the primes.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import NamedTuple, Optional, Sequence

from .mpcore import (_GUARD, HReal, PrecisionContext, _atanh2, _power_ratio, _round, _Value,
                     exp_fixed, log_fixed)

# Sieve memory budget (tracemalloc): the table keeps 8 pi(N)/N bytes per entry, 0.64
# at N = 10^6; a sieve peaks near 1.65 (1 flag byte, N/2 marking bytes, the arrays).
MAX_SIEVE = 20_000_000
LOG_LIMIT = 2 ** 17   # primes whose logs are kept, per width (about 12k); s = 0 walks no further


# ----------------------------------------------------------------------
# von Mangoldt sieve
# ----------------------------------------------------------------------

class MangoldtTable(_Value):
    """Exact von Mangoldt data up to a limit: the prime powers n = p^k
    <= limit in increasing order and the prime p of each, so
    Lambda(n) = log p taken lazily at whatever precision the consumer
    wants.  Immutable after construction."""

    __slots__ = _fields = ("limit",     # table covers 1..limit inclusive
                           "powers",    # every n = p^k <= limit, increasing
                           "bases")     # bases[i] = p where powers[i] = p^k

    def between(self, lo: int, hi: int) -> tuple[array, array]:
        """(powers, bases) of the prime powers n with lo < n <= hi."""
        if hi > self.limit:
            raise ValueError(f"n = {hi} outside table limit {self.limit}")
        i, j = bisect_right(self.powers, lo), bisect_right(self.powers, hi)
        return self.powers[i:j], self.bases[i:j]

    def prime_of(self, n: int) -> int:
        """p if n = p^k, else 0."""
        if not (1 <= n <= self.limit):
            raise ValueError(f"n = {n} outside table limit {self.limit}")
        i = bisect_left(self.powers, n)
        return self.bases[i] if i < len(self.powers) and self.powers[i] == n else 0


def mangoldt_sieve(N: int) -> MangoldtTable:
    """Exact MangoldtTable for 1..N.

    One flag byte per integer: the primes p <= sqrt(N) clear their
    multiples from p^2 by slice assignment and flag back their powers p^k,
    k >= 2; itertools.compress lists the flagged n as powers, and bases is
    powers with each higher power's p written in.  Raises when N exceeds
    the configured memory budget.
    """
    if N < 1:
        raise ValueError(f"sieve limit must be >= 1, got {N}")
    if N > MAX_SIEVE:
        raise ValueError(f"sieve limit {N} exceeds memory budget {MAX_SIEVE}")
    flags, higher = bytearray(b"\1") * (N + 1), []
    flags[:2] = bytes(2)
    for p in range(2, math.isqrt(N) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(range(p * p, N + 1, p)))
            higher += [(p ** k, p) for k in range(2, N.bit_length()) if p ** k <= N]
    for n, _ in higher:
        flags[n] = 1
    powers = array("i", compress(range(N + 1), flags))
    bases = array("i", powers)
    for n, p in higher:
        bases[bisect_left(powers, n)] = p
    return MangoldtTable(N, powers, bases)


_table_cache: dict[str, Optional[MangoldtTable]] = {}


def shared_table(N: int) -> MangoldtTable:
    """Process-wide sieve cache, grown geometrically on demand up to the
    memory budget; N > MAX_SIEVE raises before the cache is touched."""
    if N > MAX_SIEVE:
        raise ValueError(f"sieve limit {N} exceeds memory budget {MAX_SIEVE}")
    t = _table_cache.get("t")
    if t is None or t.limit < N:
        grown = min(max(1024, 2 * (t.limit if t else 0)), MAX_SIEVE)
        t = _table_cache["t"] = None  # free the old table before sieving the new one
        t = _table_cache["t"] = mangoldt_sieve(max(N, grown))
    return t


# ----------------------------------------------------------------------
# Half-corrected prime-power sums
# ----------------------------------------------------------------------

BLOCK = 256   # spacing of prime_power_sum's prefix checkpoints
ROOT_BOUND = 3   # largest denominator of s whose roots are tabled; see prime_power_sum
_prefix: dict[tuple, list] = {}
_logs: dict[int, dict[int, int]] = {}   # width W -> {p: floor(log(p) 2^W)}
_chain: dict[int, tuple] = {}   # W -> (q, L, err): _log's last prime at W, L within err of log(q) 2^(W+32)
_roots: dict[tuple, dict[int, int]] = {}   # (b, W) -> {p: floor(2^W p^(-1/b))}
_ratios: dict[tuple, tuple[bytearray, array]] = {}   # (chi, W) -> _log_ratio's checkpoints
_FIXED = 16   # guard bits of the walk's width, for its per-term roundings


def walk_width(ctx: PrecisionContext) -> int:
    """W = bits + _GUARD + _FIXED, the prime walk's fixed-point width, also
    the width of the finders' and the grid scan's integer walk."""
    return ctx.bits + _GUARD + _FIXED


def _log(p: int, W: int) -> int:
    """floor(log(p) 2^W), exactly: the one log behind every Lambda(n), read
    from W's table, and on a miss taken and kept there when p <= LOG_LIMIT.
    L is log(p) 2^V within err units, V = W + 32: log q + _atanh2(p - q,
    p + q) from the last prime q logged at W (k + 1 units added to err for
    its series to odd index k); or log_fixed(p, 1, V) (err 1), the anchor,
    when 64|p - q| >= p.  L >> 32 is the floor when L - err and L + err
    share it; else log_fixed, 64 bits wider each time, decides it and
    re-anchors the chain."""
    if L := _logs.get(W, {}).get(p):
        return L
    V, (q, L, err), g = W + 32, _chain.get(W, (1, 0, 0)), 32
    if 64 * abs(p - q) < p:
        A, k = _atanh2(abs(p - q), p + q, V)
        L, err = L + A if p > q else L - A, err + k + 1
    else:
        L, err = log_fixed(p, 1, V), 1
    while (L - err) >> g != (L + err) >> g:
        g += 64
        L, err = log_fixed(p, 1, W + g), 1
    _chain[W] = (p, L, err) if g == 32 else (p, L >> g - 32, 2)
    if p <= LOG_LIMIT:
        _logs.setdefault(W, {})[p] = L >> g
    return L >> g


def _power(x: int, j: int, U: int) -> int:
    """2^U (x 2^-U)^j, j >= 0, products floored: < j units of 2^-U low if x <= 2^U."""
    y = x if j else 1 << U
    for bit in bin(j)[3:]:
        y = y * y >> U
        if bit == "1":
            y = y * x >> U
    return y


def _root(p: int, b: int, W: int) -> int:
    """floor(2^W p^(-1/b)) = floor(X^(1/b)), X = floor(2^(bW)/p), exactly,
    b >= 2, kept in the (b, W) table when p <= LOG_LIMIT.  math.isqrt at
    b = 2; else integer Newton r = ((b-1) r + X // r^(b-1)) // b, which from
    any r >= the floor stays >= it and falls to it, stopping there.  It runs
    at widths v doubling up to W, each from the last floor at w shifted,
    (r + 1) 2^(v-w) (above the floor at v), after a float seed raised."""
    if b == 2:
        r = math.isqrt((1 << 2 * W) // p)
    else:
        widths = [W]
        while widths[-1] > 320:
            widths.append(widths[-1] // 2)
        r, w = int(math.ldexp(p ** (-1 / b), 48)) + 1, 48
        for v in reversed(widths):
            r, w, X = (r + 1) << v - w, v, (1 << b * v) // p
            while (y := ((b - 1) * r + X // r ** (b - 1)) // b) < r:
                r = y
    if p <= LOG_LIMIT:
        _roots.setdefault((b, W), {})[p] = r
    return r


def prime_power_sum(N: int, s: Fraction, ctx: PrecisionContext,
                    chi: Sequence[int] = (1,), half: bool = False) -> tuple[int, int]:
    """Sum_{p^k <= N} chi(p)^k log(p) p^(-ks), chi(n) = chi[n % len(chi)]
    (zeta: (1,), the default), as (man, exp), man 2^exp, at bits + 32: the
    one loop behind every prime-power sum.  With half (N a prime power, and
    not s = 0 past LOG_LIMIT), N's own term is halved: 2 S(N - 1) + t(N) at
    exp - 1, the sum walked once to N - 1 and N's term added.

    Integers at width W + e, unrounded: W = walk_width(ctx), and
    e = s log2 p0 keeps the first term p0^(-s) (p0 the least prime chi
    keeps) at W bits.  L = floor(log(p) 2^W) comes from W's table; n = p^k
    gives n^(-s) as an exact power of n at integer s.  At s = a/b,
    2 <= b <= ROOT_BOUND, r = floor(2^W p^(-1/b)) comes from the (b, W) root
    table, shared by every numerator, character and form: with m = ak,
    q = max(0, ceil(-m/b)) and j = qb + m, n^(-s) = p^q p^(-j/b); the term
    c L p^q _power(r << e, j, W + e) >> W errs (L under 1 unit low) by less
    than 1 + (1 + (j p^(1/b) + 1) log p) 2^e n^(-s) + 2 j p^q log p units
    of 2^-(W+e).
    Past LOG_LIMIT no table keeps the root: _root takes it afresh.  Larger
    b take mpcore.exp_fixed(-s k log p) (within 2 units); ROOT_BOUND = 3
    is the largest b a measured workload reads (README).
    At s = 0 the terms past LOG_LIMIT are one log, _log_ratio's: 2 units in all.
    The walk reads the table's prime powers in (lo, hi]; its checkpoints
    every BLOCK per (s, chi, W) grow by whole blocks in increasing n: no
    value depends on history.
    """
    W, a, b, q = walk_width(ctx), s.numerator, s.denominator, len(chi)
    sums = _prefix.setdefault((s, tuple(chi), W), [0])
    table = shared_table(N)
    logs = _logs.setdefault(W, {})
    roots = _roots.setdefault((b, W), {}) if 1 < b <= ROOT_BOUND else None
    p0 = next((n for n in range(2, 3 + q) if chi[n % q]), 2)
    e = max(0, math.ceil(s * math.log2(p0)))   # e = 0 for s <= 0

    def walk(acc: int, lo: int, hi: int) -> int:
        for n, p in zip(*table.between(lo, hi)):
            if c := chi[n % q]:                  # n = p^k, chi(n) = chi(p)^k
                L = logs.get(p) or _log(p, W)
                if b == 1:                       # n^-s as an exact power of n
                    acc += c * (L << e) // n ** a if a > 0 else c * L * n ** -a
                elif roots is None:
                    k = 1 if p == n else round(math.log(n, p))
                    acc += c * L * exp_fixed(-a * k * (L << e) // b, W + e) >> W
                else:
                    m = a * (1 if p == n else round(math.log(n, p)))
                    r = (roots.get(p) or _root(p, b, W)) << e
                    if m > 0:                    # q = 0, j = m
                        acc += c * L * (r if m == 1 else _power(r, m, W + e)) >> W
                    else:                        # e = 0, j = m mod b
                        acc += c * L * p ** -(m // b) * _power(r, m % b, W) >> W
        return acc

    top = (N if s or N <= LOG_LIMIT else LOG_LIMIT) - half
    for j in range(len(sums), top // BLOCK + 1):
        sums.append(walk(sums[-1], (j - 1) * BLOCK, j * BLOCK))
    acc = walk(sums[top // BLOCK], top // BLOCK * BLOCK, top)
    if half:
        return 2 * acc + walk(0, top, N), -W - e - 1
    return acc + (_log_ratio(N, tuple(chi), W) if top < N else 0), -W - e


def _log_ratio(N: int, chi: tuple, W: int) -> int:
    """floor(log(P+/P-) 2^W), N > LOG_LIMIT, chi real: P+- the products of the
    p of the n = p^k in (LOG_LIMIT, N] with chi(n) = +-1, their ratio m 2^E,
    2^(V-1) <= m < 2^(V+1), V = W + 64, floored once a block and checkpointed
    per (chi, W), m in w bytes, E in an array.  log_fixed(m T+, T-, V) + E log 2,
    T+- the tail's products, errs by 2^18 + 1 + |E| < 2^26 units of 2^-V."""
    V, w, q, table = W + 64, (W + 64) // 8 + 1, len(chi), shared_table(N)
    mants, exps = _ratios.setdefault((chi, W), (bytearray((1).to_bytes(w, "big")), array("i", [0])))

    def split(lo: int, hi: int) -> tuple[int, int]:
        P = [1, 1, 1]   # indexed by chi(n): P[1] = P+, P[-1] = P-
        for n, p in zip(*table.between(lo, hi)):
            P[chi[n % q]] *= p
        return P[1], P[-1]

    for j in range(len(exps), (N - LOG_LIMIT) // BLOCK + 1):
        up, down = split(LOG_LIMIT + (j - 1) * BLOCK, LOG_LIMIT + j * BLOCK)
        k = V + down.bit_length() - (num := int.from_bytes(mants[-w:], "big") * up).bit_length()
        mants += ((num << k if k >= 0 else num >> -k) // down).to_bytes(w, "big")
        exps.append(exps[-1] - k)
    j = (N - LOG_LIMIT) // BLOCK
    up, down = split(LOG_LIMIT + j * BLOCK, N)
    m = int.from_bytes(mants[j * w:j * w + w], "big")
    return log_fixed(m * up, down, V) + exps[j] * log_fixed(2, 1, V) >> 64


def primed_sum(y: Fraction, s: Fraction, ctx: PrecisionContext,
               chi: Sequence[int] = (1,)) -> tuple[int, int]:
    """Sum'_{n<=y} chi(n) Lambda(n) n^(-s), y >= 1 rational, as (man, exp)
    at bits + 32: prime_power_sum to floor(y), and when y is an integer
    prime power its own term halved exactly, by half; at s = 0 past
    LOG_LIMIT, where the tail is one log, the mean of the sums to y - 1 and
    to y.  The one endpoint rule of every primed sum."""
    n = y.numerator // y.denominator
    if y.denominator > 1 or not shared_table(n).prime_of(n):
        return prime_power_sum(n, s, ctx, chi)
    if s or n <= LOG_LIMIT:
        return prime_power_sum(n, s, ctx, chi, half=True)
    S, e = prime_power_sum(n, s, ctx, chi)
    return S + prime_power_sum(n - 1, s, ctx, chi)[0], e - 1


def weighted_sum(x: Fraction, alpha: Fraction, ctx: PrecisionContext,
                 chi: Sequence[int] = (1,)) -> tuple[int, int]:
    """x^alpha = n/d (mpcore.power's integers) times primed_sum(y, s) = S 2^e, as (man, exp):
    n S 2^e over d rounded once at bits + 32, y = x, s = alpha above 1 (the psi0 form) and
    y = 1/x, s = 1 - alpha below 1 (the T form); callers check the side (require_side)."""
    x, alpha = Fraction(x), Fraction(alpha)
    y, s = (x, alpha) if x > 1 else (1 / x, 1 - alpha)
    (n, d), (S, e) = _power_ratio(x, alpha, ctx.bits), primed_sum(y, s, ctx, chi)
    return _round((n * S, e), ctx.bits + _GUARD, d)


def require_side(fn: str, x, above: bool):
    """x, refused unless x > 1 (above) or 0 < x < 1: the one side-of-1
    rule, each closed form and prime sum naming itself as fn."""
    if not (Fraction(x) > 1 if above else 0 < Fraction(x) < 1):
        raise ValueError(f"{fn} requires {'x > 1' if above else '0 < x < 1'}, got {x}")
    return x


def psi0(x: Fraction, ctx: PrecisionContext) -> HReal:
    """Sum'_{n<=x} Lambda(n) for x > 1."""
    require_side("psi0", x, True)
    return HReal(weighted_sum(x, Fraction(0), ctx), ctx)


def psi0_alpha(x: Fraction, alpha: Fraction, ctx: PrecisionContext) -> HReal:
    """x^alpha Sum'_{n<=x} Lambda(n)/n^alpha for x > 1."""
    require_side("psi0_alpha", x, True)
    return HReal(weighted_sum(x, alpha, ctx), ctx)


def T_sum(x: Fraction, alpha: Fraction, ctx: PrecisionContext) -> HReal:
    """x^alpha Sum'_{n<=1/x} Lambda(n)/n^(1-alpha) for 0 < x < 1."""
    require_side("T_sum", x, False)
    return HReal(weighted_sum(x, alpha, ctx), ctx)


# ----------------------------------------------------------------------
# Kronecker characters
# ----------------------------------------------------------------------

def is_squarefree(d: int) -> bool:
    return d >= 1 and all(d % (f * f) for f in range(2, math.isqrt(d) + 1))


def discriminant_of(d: int) -> int:
    """Absolute discriminant D of Q(sqrt(-d)): D = d when -d = 1 mod 4,
    else 4d."""
    return d if (-d) % 4 == 1 else 4 * d


def kronecker_chi(d: int) -> tuple[int, ...]:
    """Character table (chi(0), ..., chi(D-1)) of the quadratic character
    chi_{-d}(n) = kronecker(-D | n) attached to Q(sqrt(-d)); D is the
    absolute discriminant, -D the fundamental discriminant, and the
    table has exact period D.  By complete multiplicativity: chi(p) = 0
    for p | D, chi(2) = +-1 as -D = 1 or 5 mod 8, chi(p) = (-D)^((p-1)/2)
    mod p for odd p (Euler's criterion), and a composite n takes chi of
    its least prime factor times chi of the cofactor."""
    if not is_squarefree(d):
        raise ValueError(f"d = {d} is not squarefree")
    D = discriminant_of(d)
    least = list(range(D))   # least[n] = n's least prime factor, n >= 2
    for f in range(math.isqrt(D), 1, -1):
        least[f * f::f] = [f] * len(range(f * f, D, f))
    chi = [0, 1] + [0] * (D - 2)
    for n in range(2, D):
        if (p := least[n]) < n:
            chi[n] = chi[p] * chi[n // p]
        elif D % p:
            chi[n] = 1 if (-D % 8 == 1 if p == 2 else pow(-D, (p - 1) // 2, p) == 1) else -1
    return tuple(chi)


# ----------------------------------------------------------------------
# Imaginary-quadratic class data
# ----------------------------------------------------------------------

class ImaginaryQuadraticData(NamedTuple):
    """Class data of Q(sqrt(-d)) for squarefree d >= 1.

    h is the exhaustive count of reduced binary quadratic forms
    (a, b, c) with b^2 - 4ac = -D, |b| <= a <= c, and b >= 0 when
    |b| = a or a = c.  Dirichlet's class number formula
    h = -(w/2D) Sum_{a=1}^{D-1} a chi(a) is cross-checked downstream.
    """

    d: int                    # squarefree positive integer
    D: int                    # absolute discriminant of Q(sqrt(-d))
    h: int                    # class number, by reduced-form count
    w: int                    # unit-group order: 6 iff D=3, 4 iff D=4, else 2
    chi: tuple[int, ...]      # chi_{-d}(a) for a mod D


def reduced_form_count(D: int) -> int:
    """Number of reduced forms (a, b, c), b^2 - 4ac = -D: b = D mod 2 (b^2 =
    D mod 4) up to sqrt(D/3), a | m = (b^2 + D)/4 from max(b, 1) to sqrt(m),
    c = m/a, and (a, -b, c) a second form unless b = 0, a = b or a = c."""
    h = 0
    for b in range(D % 2, math.isqrt(D // 3) + 1, 2):
        m, r = divmod(b * b + D, 4)
        h += 0 if r else sum(1 if b == 0 or a == b or a * a == m else 2
                             for a in range(max(b, 1), math.isqrt(m) + 1) if m % a == 0)
    return h


@lru_cache(maxsize=1)
def class_data(d: int) -> ImaginaryQuadraticData:
    """Full ImaginaryQuadraticData for squarefree d, the last d's kept;
    kronecker_chi refuses any other d, and its table's length is D."""
    chi = kronecker_chi(d)
    D = len(chi)
    w = 6 if D == 3 else (4 if D == 4 else 2)
    return ImaginaryQuadraticData(d=d, D=D, h=reduced_form_count(D), w=w, chi=chi)

"""Exact arithmetic substrate: von Mangoldt sieve, weighted prime-power
sums, Kronecker characters, and imaginary-quadratic class data.

The half-corrected prime-power sums evaluated here are the left-hand
ingredients of the explicit formulas of the Selberg-class descriptors,
Lambda_F = chi Lambda with chi a completely multiplicative character
table; zeta is the table (1,) mod 1, the default:

  psi0(x)          = Sum'_{n<=x} Lambda(n)
  psi0_alpha(x,a)  = x^a Sum'_{n<=x} Lambda(n)/n^a
  T_sum(x,a)       = x^a Sum'_{n<=1/x} Lambda(n)/n^(1-a)   for 0 < x < 1

where Sum' halves the boundary term when the endpoint is a prime power.
Inputs x are exact rationals so the "is the endpoint a prime power"
branch is decidable (_endpoint decides it for every sum).  Both forms
are weighted_sum, which reads prime_power_sum at bits + 32: fixed-point
integers, each prime's log taken once into a table per width and its
root p^(-1/b) once into one per (b, width), b <= ROOT_BOUND, checkpointed
every BLOCK = 256 per (s, chi, width); no value depends on history.

The class data of Q(sqrt(-d)) is exact integers.  mpmath.loggamma, in
analysis, is the only mpmath special function production code calls.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
from mpmath import libmp, mpf
from mpmath.libmp.libelefun import exp_fixed   # an mpmath 1.3 internal

from .mpcore import _GUARD, HReal, PrecisionContext, _to_mpf

# Sieve memory budget: 4 bytes per entry kept, 6 at the peak of a sieve (tracemalloc).
MAX_SIEVE = 20_000_000
LOG_LIMIT = 2 ** 17   # primes whose logs are kept, per width: about 12k


# ----------------------------------------------------------------------
# von Mangoldt sieve
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MangoldtTable:
    """Exact von Mangoldt data up to a limit.

    entries[n] is 0 when Lambda(n) = 0 and the prime p when n = p^k,
    so Lambda(n) = log(entries[n]) taken lazily at whatever precision
    the consumer wants.  Immutable after construction.
    """

    limit: int        # table covers 1..limit inclusive
    entries: array    # entries[n] = p if n = p^k else 0; entries[0..1] = 0

    def prime_of(self, n: int) -> int:
        """p if n = p^k, else 0."""
        if not (1 <= n <= self.limit):
            raise ValueError(f"n = {n} outside table limit {self.limit}")
        return self.entries[n]

    def is_prime_power(self, n: int) -> bool:
        return 1 <= n <= self.limit and self.entries[n] != 0


def mangoldt_sieve(N: int) -> MangoldtTable:
    """Exact MangoldtTable for 1..N.

    Boolean prime sieve marked by slice assignment, then each prime marks
    its powers.  Raises when N exceeds the configured memory budget.
    """
    if N < 1:
        raise ValueError(f"sieve limit must be >= 1, got {N}")
    if N > MAX_SIEVE:
        raise ValueError(f"sieve limit {N} exceeds memory budget {MAX_SIEVE}")
    entries = array("i", [0]) * (N + 1)
    is_comp = bytearray(N + 1)
    for p in range(2, N + 1):
        if is_comp[p]:
            continue
        is_comp[p * p::p] = b"\1" * len(range(p * p, N + 1, p))
        q = p
        while q <= N:
            entries[q] = p
            q *= p
    return MangoldtTable(limit=N, entries=entries)


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
_logs: dict[int, dict[int, int]] = {}   # width W -> {p: log(p) 2^W}
_roots: dict[tuple, dict[int, int]] = {}   # (b, W) -> {p: floor(2^W p^(-1/b))}
_FIXED = 16   # guard bits of the walk's width, for its per-term roundings


def walk_width(ctx: PrecisionContext) -> int:
    """W = bits + _GUARD + _FIXED, the prime walk's fixed-point width, also
    the width of the finders' and the grid scan's integer walk."""
    return ctx.bits + _GUARD + _FIXED


def _log(p: int, W: int) -> int:
    """log(p) 2^W, the one log behind every Lambda(n); kept in the
    width's table when p <= LOG_LIMIT, so each such p takes it once."""
    L = libmp.to_fixed(libmp.mpf_log(libmp.from_int(p), W), W)
    if p <= LOG_LIMIT:
        _logs.setdefault(W, {})[p] = L
    return L


def _log_at(p: int, W: int) -> int:
    """log(p) 2^W from W's table, taken by _log on a miss."""
    return _logs.get(W, {}).get(p) or _log(p, W)


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


def mangoldt(n: int, ctx: PrecisionContext) -> mpf:
    """Lambda(n) = log p to 2^-W, W = walk_width(ctx), exactly as the prime
    walk's table holds it: an mpf not rounded to mpmath's precision."""
    p, W = shared_table(n).prime_of(n), walk_width(ctx)
    return mpmath.make_mpf(libmp.from_man_exp(_log_at(p, W), -W)) if p else mpf(0)


def prime_power_sum(N: int, s: Fraction, ctx: PrecisionContext,
                    chi: Sequence[int] = (1,)) -> tuple[int, int]:
    """Sum_{p^k <= N} chi(p)^k log(p) p^(-ks), chi(n) = chi[n % len(chi)]
    (zeta: (1,), the default), as (man, exp), man 2^exp, at bits + 32: the
    one loop behind every prime-power sum.

    Integers at width W + e, unrounded: W = walk_width(ctx), and
    e = s log2 p0 keeps the first term p0^(-s) (p0 the least prime chi
    keeps) at W bits.  log p comes from W's table; n = p^k gives n^(-s) as
    an exact power of n at integer s.  At s = a/b, 2 <= b <= ROOT_BOUND,
    r = floor(2^W p^(-1/b)) comes from the (b, W) root table, shared by
    every numerator, character and form: with m = ak, q = max(0, ceil(-m/b))
    and j = qb + m, n^(-s) = p^q p^(-j/b); the term c L p^q
    _power(r << e, j, W + e) >> W errs (L within 2 log p units) by less than
    1 + ((j p^(1/b) + 3) 2^e n^(-s) + 2 j p^q) log p units of 2^-(W+e).
    Larger b, and p > LOG_LIMIT at b >= 3 (roots no table keeps, each a
    Newton root dearer than one exp_fixed), take exp_fixed(-s k log p).
    ROOT_BOUND = 3 is the largest b a measured workload reads (prime-scan's
    s = 1/2, 3/2, -1/2, 1/3, 2/3); at b = 4..12 a cold table through roots
    costs 0.5 to 1.7 times one through exp_fixed, which only reuse repays.
    Checkpoints every BLOCK per (s, chi, W) grow by whole blocks in
    increasing n: no value depends on history, nor on mpmath's precision.
    """
    W, a, b, q = walk_width(ctx), s.numerator, s.denominator, len(chi)
    sums = _prefix.setdefault((s, tuple(chi), W), [0])
    entries = shared_table(N).entries
    logs = _logs.setdefault(W, {})
    roots = _roots.setdefault((b, W), {}) if 1 < b <= ROOT_BOUND else None
    p0 = next((n for n in range(2, 3 + q) if chi[n % q]), 2)
    e = max(0, math.ceil(s * math.log2(p0)))   # e = 0 for s <= 0

    def walk(acc: int, lo: int, hi: int) -> int:
        for n in range(lo + 1, hi + 1):
            p = entries[n]
            if p and (c := chi[n % q]):          # n = p^k, chi(n) = chi(p)^k
                L = logs.get(p) or _log(p, W)
                if b == 1:                       # n^-s as an exact power of n
                    acc += c * (L << e) // n ** a if a > 0 else c * L * n ** -a
                elif roots is None or (b > 2 and p > LOG_LIMIT):
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

    for j in range(len(sums), N // BLOCK + 1):
        sums.append(walk(sums[-1], (j - 1) * BLOCK, j * BLOCK))
    return walk(sums[N // BLOCK], N // BLOCK * BLOCK, N), -W - e


def _endpoint(y: Fraction) -> tuple[int, int]:
    """(N, p) for a primed sum over n <= y: the terms n <= N enter in
    full, and when y is an integer prime power p^k its own term enters
    halved (p = 0 otherwise)."""
    n = y.numerator // y.denominator
    p = shared_table(n).prime_of(n) if y.denominator == 1 and n >= 2 else 0
    return (n - 1 if p else n), p


def weighted_sum(x: Fraction, alpha: Fraction, ctx: PrecisionContext,
                 chi: Sequence[int] = (1,)) -> mpf:
    """x^alpha Sum'_{n<=y} chi(n) Lambda(n) n^(-s) at bits + 32, in the
    two forms of the explicit formulas: y = x, s = alpha for x > 1 (the
    psi0 form) and y = 1/x, s = 1 - alpha for 0 < x < 1 (the T form).
    The endpoint term of an integer prime power y enters halved with
    its weight x^alpha y^(-s) collapsed exactly: 1 for x > 1, x below.
    Callers check the domain (x > 0, x != 1)."""
    x, alpha = Fraction(x), Fraction(alpha)
    y, s, w = (x, alpha, Fraction(1)) if x > 1 else (1 / x, 1 - alpha, x)
    N, p = _endpoint(y)
    with ctx.workprec(_GUARD):
        total = _to_mpf(x) ** _to_mpf(alpha) * mpf(prime_power_sum(N, s, ctx, chi))
        if p:
            total += mangoldt(p, ctx) * chi[y.numerator % len(chi)] * _to_mpf(w) / 2
    return total


def psi0(x: Fraction, ctx: PrecisionContext) -> HReal:
    """Sum'_{n<=x} Lambda(n) for x > 1."""
    if Fraction(x) <= 1:
        raise ValueError(f"psi0 requires x > 1, got {x}")
    return ctx.real(weighted_sum(x, Fraction(0), ctx))


def psi0_alpha(x: Fraction, alpha: Fraction, ctx: PrecisionContext) -> HReal:
    """x^alpha Sum'_{n<=x} Lambda(n)/n^alpha for x > 1."""
    if Fraction(x) <= 1:
        raise ValueError(f"psi0_alpha requires x > 1, got {x}")
    return ctx.real(weighted_sum(x, alpha, ctx))


def T_sum(x: Fraction, alpha: Fraction, ctx: PrecisionContext) -> HReal:
    """x^alpha Sum'_{n<=1/x} Lambda(n)/n^(1-alpha) for 0 < x < 1."""
    if not 0 < Fraction(x) < 1:
        raise ValueError(f"T_sum requires 0 < x < 1, got {x}")
    return ctx.real(weighted_sum(x, alpha, ctx))


# ----------------------------------------------------------------------
# Kronecker characters
# ----------------------------------------------------------------------

def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the completely multiplicative extension
    of the Jacobi symbol with the standard conventions at 2, -1, 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


def discriminant_of(d: int) -> int:
    """Absolute discriminant D of Q(sqrt(-d)): D = d when -d = 1 mod 4,
    else 4d."""
    return d if (-d) % 4 == 1 else 4 * d


def kronecker_chi(d: int) -> tuple[int, ...]:
    """Character table (chi(0), ..., chi(D-1)) of the quadratic character
    chi_{-d}(n) = kronecker(-D | n) attached to Q(sqrt(-d)); D is the
    absolute discriminant, -D the fundamental discriminant, and the
    table has exact period D."""
    if not is_squarefree(d):
        raise ValueError(f"d = {d} is not squarefree")
    D = discriminant_of(d)
    return tuple(kronecker_symbol(-D, a) for a in range(D))


# ----------------------------------------------------------------------
# Imaginary-quadratic class data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ImaginaryQuadraticData:
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
    """Number of reduced forms (a, b, c), b^2 - 4ac = -D."""
    h = 0
    b = D % 2  # need b^2 = D mod 4, squares are 0 or 1 mod 4
    while b * b <= D // 3:
        m4 = b * b + D
        if m4 % 4 == 0:
            m = m4 // 4
            a = max(b, 1)
            while a * a <= m:
                if m % a == 0:
                    c = m // a
                    if b == 0 or a == b or a == c:
                        h += 1
                    else:
                        h += 2  # (a, b, c) and (a, -b, c)
                a += 1
        b += 2
    return h


def class_data(d: int) -> ImaginaryQuadraticData:
    """Full ImaginaryQuadraticData for squarefree d."""
    if not is_squarefree(d):
        raise ValueError(f"d = {d} is not squarefree")
    D = discriminant_of(d)
    w = 6 if D == 3 else (4 if D == 4 else 2)
    h = reduced_form_count(D)
    return ImaginaryQuadraticData(d=d, D=D, h=h, w=w, chi=kronecker_chi(d))

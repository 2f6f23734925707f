"""Precision-controlled real arithmetic and core special functions.

Everything downstream (zero sums, explicit-formula evaluators, constant
pipelines) consumes the types and functions defined here:

  PrecisionContext   immutable working-precision handle (binary digits;
                     rounding is always to nearest)
  HReal              a finite high-precision real bound to a context; every
                     public result is one
  em_log_moments     the one Euler-Maclaurin core: Sum log^n(k+a) (k+a)^(-s)
                     for n = 0..N in one pass, continued in s, regularized
                     at s = 1 (the Stieltjes constants gamma_n(a)), each
                     value with a certified bound
  hurwitz_zeta(s,a)  zeta(s, a) = Z_0 of that core; hurwitz_zeta_ds = -Z_1
  zeta_int(j)        zeta(j), integer j >= 2, from an accelerated alternating
                     series in exact integers (not the Euler-Maclaurin core)
  series_ops         the truncated quotient of two power series given as
                     coefficient lists (fixed-point integers, degree 0 up)
  log_fixed(n,d,V)   2^V log(n/d) in integers: the package's one log
  exp_fixed(x,V)     2^V e^(x 2^-V) in integers: its one exp; power(y,t) is
                     y^t, exact at integer t, else exp_fixed of a log_fixed

Numeric backend: Python integers.  HReal is an exact dyadic that prints
itself as mpmath.nstr would; ctx.real rounds half to even as mpmath does;
pi and gamma are integer series rounded as mpmath rounds its constants.
Hurwitz zeta and the Stieltjes constants are Bernoulli-number expansions
with computable error terms, in integers (logs from log_fixed, one integer
Bernoulli table, bounds rounded up, the set-up kept per exact (s, N,
bits)); they and zeta_int round once.  The package has one number
system and no runtime dependency: it takes exact values only (an int, a
Fraction, a float, a (man, exp) pair or an HReal), every combination is
exact or fixed point, rounded once, and mpmath is imported only by
HReal.val, which tests and benchmarks read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence, Union

Scalar = Union[int, float, Fraction, "HReal", tuple[int, int]]

# Guard bits added on top of the context for internal evaluations so that
# accumulated rounding stays below the reported bounds.
_GUARD = 32


# ----------------------------------------------------------------------
# Precision context and scalar wrappers
# ----------------------------------------------------------------------

class _Value:
    """Base of the hot value types: slotted, immutable, equal and hashed by _fields."""

    __slots__ = _fields = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__


class PrecisionContext(_Value):
    """Working precision for every derived quantity.

    All arithmetic routed through this context is rounded to nearest at
    `bits` binary digits, so each elementary operation carries a relative
    error of at most 2^-bits, comfortably within the 2^(8-bits) budget
    that callers may assume.  Instances are immutable: no precision is global.
    """

    __slots__ = _fields = ("bits",)    # binary working precision, >= 64

    def __init__(self, bits: int = 192) -> None:
        if bits < 64:
            raise ValueError(f"precision must be >= 64 bits, got {bits}")
        _Value.__init__(self, bits)

    def real(self, x: Scalar) -> "HReal":
        """x rounded to nearest at bits, ties to even as mpmath's round_nearest,
        in integers: an int, a Fraction or float (one rounding of the exact
        value), a (man, exp) pair for man 2^exp or an HReal."""
        return HReal(_round(x, self.bits), self)


def _round(x, bits: int = 0, q: int = 1) -> tuple[int, int]:
    """(man, exp), man 2^exp: an HReal, a (man, exp) pair or an int, exactly,
    or rounded to nearest at bits > 0, ties to even as libmpf.normalize's
    round_nearest; a Fraction, a float or x over q != 1 (bits > 0) from its
    quotient, unreduced, to bits + 2 bits or more and a sticky bit, as mpf_div.
    Any other value, a Fraction at bits = 0 too, is refused."""
    if isinstance(x, (HReal, tuple, int)):
        man, exp = (x.man, x.exp) if isinstance(x, HReal) else x if isinstance(x, tuple) else (x, 0)
    elif isinstance(x, (Fraction, float)) and bits:
        (man, q), exp = x.as_integer_ratio(), 0
    else:
        raise TypeError(f"expected an int, a (man, exp) pair, an HReal{', a Fraction or a float' if bits else ''},"
                        f" got {type(x).__name__}")
    if q != 1:
        s = max(0, bits + 2 + q.bit_length() - abs(man).bit_length())
        m, r = divmod(abs(man) << s, abs(q))
        man, exp = (2 * m + (r > 0)) * (-1 if (man < 0) != (q < 0) else 1), exp - s - 1
    a, n = abs(man), abs(man).bit_length() - bits
    if bits and n > 0:
        t = a >> n - 1   # the kept bits and the half bit
        a, exp = (t >> 1) + (t & 1 and bool(t & 2 or a & (1 << n - 1) - 1)), exp + n
    return (-a if man < 0 else a), exp


def _exact(v) -> Fraction:
    """The exact rational value of an int, Fraction, float, HReal or (man, exp) pair."""
    if not isinstance(v, (HReal, tuple, int)) and isinstance(v, (float, Fraction)):
        return Fraction(v)
    man, exp = _round(v)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _fixed(v, V: int) -> int:
    """floor(v 2^V) of an HReal, an int or a (man, exp) pair, exactly."""
    man, exp = _round(v)
    return man << exp + V if exp + V >= 0 else man >> -exp - V


class HReal(_Value):
    """A finite high-precision real bound to a PrecisionContext: the exact
    dyadic man 2^exp, man odd (or 0 with exp 0), and the context that
    produced it.  .val is that value as an mpmath mpf."""

    __slots__ = _fields = ("man", "exp",   # the value, normalized
                           "ctx")          # precision the value was produced under

    def __init__(self, val, ctx: PrecisionContext) -> None:   # val kept exactly, as _round reads it
        man, exp = _round(val)
        z = (man & -man).bit_length() - 1   # trailing zero bits
        object.__setattr__(self, "man", man >> z if man else 0)   # as _Value.__init__, without its loop
        object.__setattr__(self, "exp", exp + z if man else 0)
        object.__setattr__(self, "ctx", ctx)

    @property
    def val(self) -> mpf:
        """The value as an mpf, exactly: the one place the package names
        mpmath, imported on first read, for tests and benchmarks."""
        from mpmath import make_mpf
        from mpmath.libmp import from_man_exp
        return make_mpf(from_man_exp(self.man, self.exp))

    def __repr__(self) -> str:
        return f"HReal({_nstr(self.man, self.exp, 25)})"

    def str_digits(self, digits: int = 25) -> str:
        """The value to digits significant digits, capped at one digit
        fewer than the context holds (libmpf.prec_to_dps) so that the
        last-bit error does not reach the last printed digit."""
        cap = max(1, int(round(self.ctx.bits / 3.3219280948873626) - 1)) - 1
        return _nstr(self.man, self.exp, min(digits, cap))


def _nstr(man: int, exp: int, n: int) -> str:
    """mpmath.nstr(man 2^exp, n), n >= 1, in integers, libmpf.to_str's path:
    to_digits_exp's n + 3 digits or more, floored, rounded half up to n,
    printed in fixed point at decimal exponents in (min(-(n//3), -5), n);
    above 2^bitprec floored over a power of 10 that leaves n + 3 digits or
    more, exactly, so that every exponent prints in integers."""
    if n < 1:
        raise ValueError(f"need at least 1 significant digit, got {n}")
    if not man:
        return "0.0"
    bc = abs(man).bit_length()
    bitprec = int((n + 3) * math.log(10, 2)) + 10
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5) if fixprec else int((bitprec - exp - bc) / math.log(10, 2))
    a = abs(man) << exp + fixprec if exp + fixprec >= 0 else abs(man) >> -exp - fixprec
    digits = str(a * 10 ** fixdps >> fixprec if fixdps >= 0 else a // 10 ** -fixdps)
    expo = len(digits) - fixdps - 1
    if len(digits) > n and digits[n] in "56789":
        digits = str(int(digits[:n]) + 1)
        expo += len(digits) > n   # 99..9 rounded up to 10..0
    digits = digits[:n]
    if min(-(n // 3), -5) < expo < n:
        digits, split, expo = "0" * -expo + digits if expo < 0 else digits, max(expo, 0) + 1, 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    out = ("-" if man < 0 else "") + digits + ("0" if digits[-1] == "." else "")
    return out if expo == 0 else f"{out}e{expo:+d}"


# ----------------------------------------------------------------------
# pi and Euler's gamma in integers, rounded as mpmath rounds its constants
# ----------------------------------------------------------------------

def _floor_exact(approx, V: int) -> int:
    """floor(c 2^V) from approx(G) = (A, err), A within err of c 2^G, G = V + g, g = 32 widened
    by 64 until A - err and A + err floor alike, or ArithmeticError past g = 1,056 (exact c)."""
    for g in range(32, 1057, 64):
        A, err = approx(V + g)
        if (A - err) >> g == (A + err) >> g:
            return A >> g
    raise ArithmeticError(f"floor of c 2^{V} undecided at 2^-{V + 1056}: c 2^{V} may be an integer")


@lru_cache(maxsize=None)
def _pi_fixed(V: int) -> int:
    """floor(pi 2^V) by Machin's pi = 16 atan(1/5) - 4 atan(1/239), each
    atan's series floored term by term, under a unit off a term and its tail."""
    def approx(G: int) -> tuple[int, int]:
        A, err = 0, 20
        for c, x in ((16, 5), (-4, 239)):
            t, k = (1 << G) // x, 1
            while t:
                A, err = A + c * (t // k if k % 4 == 1 else -(t // k)), err + abs(c)
                t, k = t // (x * x), k + 2
        return A, err
    return _floor_exact(approx, V)


@lru_cache(maxsize=None)
def _gamma_fixed(V: int) -> int:
    """floor(gamma 2^V) by Brent and McMillan (Math. Comp. 34, 1980, B1):
    gamma = U/S - log n within pi e^(-4n), U = Sum_k (n^k/k!)^2 H_k and
    S = Sum_k (n^k/k!)^2, n = 2^p >= (G + 2) log(2)/4, log n = p log 2 from
    _atanh2, each term floored at G bits; log n's k + 1 units per p lead."""
    def approx(G: int) -> tuple[int, int]:
        p = math.ceil(math.log2((G + 2) * math.log(2) / 4))
        (L, k), j = _atanh2(1, 3, G), 0
        A = U = -p * L
        B = S = 1 << G
        while B:
            j += 1
            B = B * 4 ** p // (j * j)
            A = (A * 4 ** p // j + B) // j
            U, S = U + A, S + B
        return (U << G) // S, p * (k + 1) + 4
    return _floor_exact(approx, V)


def _constant(fixed, prec: int) -> tuple[int, int]:
    """A constant c in [1/2, 4) as mpmath gives it at prec bits:
    floor(c 2^(prec+20)) rounded to nearest (mpmath's def_mpf_constant)."""
    return _round((fixed(prec + 20), -prec - 20), prec)


@lru_cache(maxsize=None)
def _log_pi(k: int, prec: int) -> tuple[int, int]:
    """mpmath.log(2^k * mpmath.pi) at prec bits, 1 <= k: the log of mpmath's
    pi at prec times 2^k, by log_fixed at prec + 24, rounded to nearest."""
    m, e = _constant(_pi_fixed, prec)
    V = prec + 24
    return _round((log_fixed(m << max(0, e + k), 1 << max(0, -e - k), V), -V), prec)


# ----------------------------------------------------------------------
# Bernoulli numbers and logs of exact rationals (tables grown on demand)
# ----------------------------------------------------------------------

_BERNOULLI = (2, [2, -1])   # bernoulli_table's (D, [D B_0, ..., D B_n])


def bernoulli_table(n: int) -> tuple[int, list[int]]:
    """(D, [D B_0, D B_1, ...]) to index n or past it, integers, shared (read
    only): D the product of the primes <= the list's length, a multiple of every
    denominator (von Staudt-Clausen), D B_2k = (-1)^(k-1) D 2k T_k/(4^k (4^k - 1))
    exactly, T_k the tangent numbers (Brent and Harvey, arXiv:1108.0286).  D grows
    with the table: each use divides by it in one floored ratio, the same for any D."""
    global _BERNOULLI
    if n >= len(_BERNOULLI[1]):
        m, D = n // 2, math.prod(p for p in range(2, n + 2)
                                 if all(p % d for d in range(2, math.isqrt(p) + 1)))
        T = [0] + [math.factorial(k - 1) for k in range(1, m + 1)]   # tan x = Sum T_k x^(2k-1)/(2k-1)!
        for k in range(2, m + 1):
            for j in range(k, m + 1):
                T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
        even = [(-1) ** (k - 1) * (D * 2 * k * T[k] // (4 ** k * (4 ** k - 1))) for k in range(1, m + 1)]
        _BERNOULLI = D, ([D, -D // 2] + [x for b2k in even for x in (b2k, 0)])[:n + 1]
    return _BERNOULLI


_LOGS: dict[int, list[list[int]]] = {}   # T -> 2^T log(1 + j/2^B) for B = 8 (j <= 256), 12, 16
_LN2: dict[int, int] = {}   # G -> log_fixed(2, 1, G), exp_fixed's


def _atanh2(d: int, s: int, V: int) -> tuple[int, int]:
    """(A, k): A = 2^V 2 atanh(d/s), 0 <= 3d <= s, its series in integers
    to odd index k, each term floored: under k + 1 units low.  Past V/4
    bits of s (callers keep d/s < 2^-8 there) each term takes z^2 2^V
    instead.  log_fixed's atanh, and the step of arith._log's chain."""
    y = (d << V + 1) // s
    A, k, d2, s2, sh = (y, 1, d * d, s * s, 0) if 4 * s.bit_length() <= V else (y, 1, y * y >> V + 2, 1, V)
    while y := y * d2 >> sh if sh else y * d2 // s2:
        k += 2
        A += y // k
    return A, k


def log_fixed(n: int, d: int, V: int) -> int:
    """2^V log(n/d) within 1 unit, n and d positive integers, in integers at
    U = V + 40 bits: n/d = 2^e a/b, 1 <= a/b < 2 (a, b cut to U + 16 bits);
    levels B = 8, 12, 16 divide out 1 + j/2^B <= a/b, its log read from the
    tables of T = 256 ceil(U/256) (B = 8 alone at its grid points, such as
    the integers below 512), and leave 2 atanh(z), 0 <= z < 2^-17, to
    _atanh2: within |e| + U units of 2^-U in all.  Entries are within 1 unit;
    B = 8's sum the logs of 2..512, a prime's log(p - 1) + 2 atanh(1/(2p - 1))."""
    U, T = V + 40, -(-(V + 40) // 256) * 256
    if T not in _LOGS:
        lg = [0] * 513
        for m in range(2, 513):
            lg[m] = lg[m] or lg[m - 1] + _atanh2(1, 2 * m - 1, T + 24)[0]
            for k in range(2, min(m, 512 // m) + 1):
                lg[m * k] = lg[m] + lg[k]
        _LOGS[T] = [[(x - 8 * lg[2] + (1 << 23)) >> 24 for x in lg[256:]]] + [
            [(_atanh2(j, (2 << B) + j, T + 24)[0] + (1 << 23)) >> 24 for j in range(16)] for B in (12, 16)]
    e, L = n.bit_length() - d.bit_length(), min(max(n.bit_length(), d.bit_length()), U + 16)
    a, b = n << L >> n.bit_length(), d << L >> d.bit_length()
    a, e = (a << 1, e - 1) if a < b else (a, e)
    acc = e * _LOGS[T][0][256]
    for B, grid in zip((8,) if (a << 8) % b == 0 else (8, 12, 16), _LOGS[T]):
        j = (a << B) // b - (1 << B)
        a, b, acc = a << B, b * ((1 << B) + j), acc + grid[j]
    A = _atanh2(a - b, a + b, U)[0] if a > b else 0
    return ((acc >> T - U) + A + (1 << 39)) >> 40


def exp_fixed(x: int, V: int) -> int:
    """2^V e^(x 2^-V) within 2 units, x an integer (Brent and Zimmermann,
    Modern Computer Arithmetic, 4.3-4.4): x 2^-V = n log 2 + y, n nearest,
    y in units of 2^-G, G = V + max(n, 0) + g, within |n| (log 2 log_fixed's,
    kept per G); e^z, z = y 2^-k, k = sqrt(V)/2, is C + z S, the even and odd
    Taylor sums in z^2, m <= G/2 terms floored: within |n| 2^-k + 2m + 7 units;
    k squarings (values in (0.7, 1.42)) scale that by 1.1 2^k, and g = k +
    bits of 2(V + |n|) + 2 leaves it under 1 unit of 2^-V before the floor."""
    n, k = round(x / (1 << V) / 0.6931471805599453), math.isqrt(V) // 2
    g = k + (2 * (V + abs(n))).bit_length() + 2
    G = V + max(n, 0) + g
    z = ((x << G - V) - n * (_LN2.get(G) or _LN2.setdefault(G, log_fixed(2, 1, G)))) >> k
    zz, C, S, j = z * z >> G, 1 << G, 1 << G, 2
    a = zz
    while a:
        a //= j
        C, j = C + a, j + 1
        a //= j
        S, j, a = S + a, j + 1, a * zz >> G
    E = C + (z * S >> G)
    for _ in range(k):
        E = E * E >> G
    return E >> G - V - n


def power(y: Fraction, t: Fraction, ctx: PrecisionContext) -> Fraction:
    """y^t, y > 0 and t rational: exact at an integer t, else
    exp_fixed(floor(t log y 2^V)) 2^-V, V = bits + 32 + max(0, -t log2 y), so
    that 2^V y^t >= 2^(bits+32): the log's unit times |t|, the floor and
    exp_fixed's 2 units leave it within (|t| + 3) 2^-(bits+32), relative."""
    return Fraction(*_power_ratio(y, t, ctx.bits))


def _power_ratio(y: Fraction, t: Fraction, bits: int) -> tuple[int, int]:
    """power's y^t at bits as integers (n, d), d > 0, unreduced: d = 2^V at a fractional t."""
    (n, d), (u, v) = y.as_integer_ratio(), t.as_integer_ratio()
    if v == 1:
        return (n ** u, d ** u) if u >= 0 else (d ** -u, n ** -u)
    V = bits + _GUARD + max(0, math.ceil(u * (math.log2(d) - math.log2(n)) / v))
    return exp_fixed(u * log_fixed(n, d, V) // v, V), 1 << V


# ----------------------------------------------------------------------
# Euler-Maclaurin core: zeta(s, a), its s-derivatives and gamma_n(a)
# ----------------------------------------------------------------------

_EM_BUDGET = 1 << 20  # refuse, before any summation, plans with M (N+1) above this


def _eps_table(s: Fraction, N: int, count: int) -> list[list[int]]:
    """C[j][i] = v^j [eps^i] (-1)^j (s-eps)_j for j = 0..count, i = 0..N,
    with s = u/v in lowest terms and (x)_j the rising factorial: integers,
    by C[j+1][i] = -(u + j v) C[j][i] + v C[j][i-1].

    d^j/dt^j t^(-(s-eps)) = (-1)^j (s-eps)_j t^(-(s-eps)-j), and the
    eps^n/n! coefficient of t^(-(s-eps)) is f(t) = log^n(t) t^(-s), so
    f^(j)(t) = P_j(log t) t^(-s-j) with
    P_j(L) = v^(-j) Sum_i n!/(n-i)! C[j][i] L^(n-i).
    """
    u, v = s.numerator, s.denominator
    rows = [[1] + [0] * N]
    for j in range(count):
        p = rows[-1]
        rows.append([-(u + j * v) * x + v * y for x, y in zip(p, [0] + p[:-1])])
    return rows


@lru_cache(maxsize=4)   # the last 4 keys: an order-120 table at 1024 bits holds megabytes
def _em_setup(s: Fraction, N: int, bits: int) -> tuple:
    """The shift-free part of a pass for the last 4 exact (s, N, bits), shared
    (read only): K; _em_plan's c = s + 2K - 1, base = log(2.5 e 2^(bits+20)/((2 pi v)^2K c))
    and pairs (m, x), x = log(N!/(N-i)! |C[2K][i]|) of exact integers, m = N - i:
    the bound's own row; C = _eps_table(s, N, 2K); bernoulli_table(2K)."""
    K = max(math.ceil((bits + 20) / 8), math.floor((1 - s) / 2) + 1)
    C, c = _eps_table(s, N, 2 * K), float(s) + 2 * K - 1
    lc = [(N - i, math.log(math.perm(N, i)) + math.log(abs(x))) for i, x in enumerate(C[2 * K]) if x]
    base = (bits + 20) * math.log(2) + 1 + math.log(2.5) - 2 * K * math.log(2 * math.pi * s.denominator)
    return K, c, base - math.log(c), lc, C, bernoulli_table(2 * K)


def _em_plan(s: Fraction, a: Scalar, N: int, bits: int) -> tuple[int, int]:
    """Shift count M and Bernoulli count K for em_log_moments at exact s.

    Near R = M + a = 2K each Bernoulli term gains about 2 log2(2 pi e) =
    8.2 bits, so K = (bits + 20)/8, raised if needed so that s + 2K > 1
    (the remainder integral converges).  M is then the least shift whose
    remainder bound for order N, estimated from the set-up's logs of |P_2K|
    (the certified bound's own row), finite at any order, at log R or at
    the integrand's peak N/c past it, meets 2^-(bits+20).
    A plan with M (N+1) > 2^20 is refused before any summation.
    """
    K, c, base, lc = _em_setup(s, N, bits)[:4]
    if not lc:
        return 1, K  # f is a polynomial of degree < 2K: the sum is exact
    p, q = _exact(a).numerator, _exact(a).denominator

    def above_target(M: int) -> bool:
        # log(M + a) for a = p/q of any size, or the integrand's peak past it
        L = max(math.log(M * q + p) - math.log(q), N / c)
        lL = math.log(L or 1)   # L = 0 only at N = 0, where m = 0
        top = max(x + m * lL for m, x in lc)   # a log-sum-exp: no overflow
        return base + top + math.log(sum(math.exp(x + m * lL - top) for m, x in lc)) - c * L > 0

    cap = _EM_BUDGET // (N + 1)  # the largest admissible shift count
    lo, hi = 0, 1
    while above_target(hi):
        if hi >= cap:
            raise ArithmeticError(
                f"Euler-Maclaurin plan for s = {float(s):g}, N = {N} at {bits} bits "
                f"needs M (N+1) > {_EM_BUDGET}")
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above_target(mid) else (lo, mid)
    return hi, K


def em_log_moments(s: Scalar, a: Scalar, N: int, ctx: PrecisionContext
                   ) -> tuple[tuple[HReal, HReal], ...]:
    """(value, certified bound) of Z_n(s, a) = Sum_{k>=0} log^n(k+a) (k+a)^(-s)
    = (-1)^n d^n/ds^n zeta(s, a) for n = 0..N, real s, a > 0.  At s = 1
    the values are the regularized constants
    gamma_n(a) = lim_R [Sum_{k+a<=R} log^n(k+a)/(k+a) - log^(n+1)(R)/(n+1)].

    One Euler-Maclaurin pass with f(t) = log^n(t) t^(-s), R = M + a and
    (M, K) from _em_plan:

      Z_n = Sum_{k<M} f(k+a) + I_n + f(R)/2
            - Sum_{j=1}^{K} B_2j/(2j)! P_{2j-1}(log R) R^(1-s-2j) + remainder,

      I_n = R^(1-s) Sum_{j<=n} (n!/(n-j)!) log^(n-j)(R) / (s-1)^(j+1)
            (the continued Integral_R^inf f; -log^(n+1)(R)/(n+1) at s = 1),

      |remainder| <= 2 zeta(2K)/(2 pi)^(2K) Integral_R^inf |f^(2K)(t)| dt

    and 2 zeta(2K)/(2 pi)^(2K) = |B_2K|/(2K)! exactly.  The P_j come from
    the set-up's _eps_table, so the Bernoulli corrections contract over j
    once per eps power i and each order costs O(n):

      correction_n = Sum_i n!/(n-i)! log^(n-i)(R) D_i,
      D_i = Sum_j B_2j/(2j)! c[2j-1][i] R^(1-s-2j).

    s = u/v and a = p/q are exact (_exact), so R = P/q with P = M q + p.
    The pass runs in integers, in units of 2^-H, H = W + N log2(lmax) + 4
    and W = bits + extra: t = (kq + p)/q takes log t = log(kq + p) - log q
    (log_fixed), t^(-s) an exact power at integer s, an exact isqrt at
    half-integer s, else exp_fixed(-u log t / v), and its moments
    w <- w log t >> H; each truncation, grown by at most lmax^N, stays
    below 2^-W.  log R = log_fixed(P, q, H), its powers floored; R^(-s) by
    the same rule at t = R, floored in units of 2^-(H+G), G = s log2 R, so
    that it keeps H bits; D_i = R^(-s) Num_i/Den over one common
    denominator, Den = bd (2K)! (vP)^(2K-1), bd bernoulli_table's D, from
    the integer table C[j] = v^j c[j], floored in units of 2^-(H+X),
    2^X >= n!/(n-i)! lmax^(n-i); I_n = (P/q) R^(-s) times the exact
    1/(s-1)^(j+1) = (v/(u-v))^(j+1) over (u-v)^(n+1), f(R)/2 and each
    correction floored once.  The bound is a ceiling in every part: the
    remainder integral is Sum_m |[L^m] P_2K| e^(-cL) T_m, c = s + 2K - 1,
    T_m = e^(cL) Integral_L^inf u^m e^(-cu) du = L^m/c + (m/c) T_(m-1)
    ceiled from ceiled powers of (log R + 2^-H), times the exact ratio
    |B_2K|/(2K)! R^(-s) (q/P)^(2K-1) v^-2K, R^(-s) taken as its value
    (1 + |u| 2^-H) + 8 units (the log's and exp_fixed's errors); the
    rounding slop of the pass, (M + 2K + 16) (n + 4 + |s| lmax) 2^-W
    (lmax^n mass + |I_n| + |corr| + 1) with lmax the exact ratio of its
    float, mass = Sum_{k<M} (k+a)^(-s) and |corr| the correction with each
    D_i as |D_i|; and 2^(1-bits) (|value| + 1) for the one rounding of the
    value to the context, as the bound's own.
    """
    s, a = _exact(s), _exact(a)
    sf = float(s)
    if not a > 0:
        raise ValueError(f"Euler-Maclaurin shift must be positive, got {a}")
    M, K = _em_plan(s, a, N, ctx.bits)
    C, (bd, bt) = _em_setup(s, N, ctx.bits)[4:]
    u, v, p, q = s.numerator, s.denominator, a.numerator, a.denominator
    P, e = M * q + p, abs(u)
    lR = math.log(P) - math.log(q)   # log R in floats, for R beyond their range
    lmax = max(2.0, lR, abs(math.log(p) - math.log(q)))  # bounds |log t| on [a, R]
    # bits that cancel between the partial sum and I_n
    extra = _GUARD + math.ceil(max(0.0, 1 - sf) * lR / math.log(2)
                               + N * math.log2(lmax) + math.log2(M))
    W = ctx.bits + extra
    H = W + math.ceil(N * math.log2(lmax)) + 4
    G, X = max(0, math.ceil(sf * lR / math.log(2))), math.ceil(N * math.log2(max(N, lmax)))

    def power(n: int, V: int, lt: int) -> int:   # 2^V (n/q)^(-s), lt = 2^V log(n/q)
        x, y = (q, n) if u > 0 else (n, q)  # (n/q)^(-s) = (x/y)^(e/v)
        if v == 1:
            return (x ** e << V) // y ** e
        if v == 2:
            return math.isqrt((x ** e << 2 * V) // y ** e)
        return exp_fixed(-u * lt // v, V)

    lq, lt = log_fixed(q, 1, H), 0
    sums = [0] * (N + 1)
    for k in range(M):
        n = k * q + p
        if N or v > 2:
            lt = log_fixed(n, 1, H) - lq
        sums[0] += (w := power(n, H, lt))
        for i in range(1, N + 1):
            w = w * lt >> H
            sums[i] += w
    num, g = [0] * (N + 1), 1  # g = (2K)!/(2j)! (vP)^(2K-2j)
    for j in range(K, 0, -1):
        f = bt[2 * j] * g * q ** (2 * j - 1)
        num = [y + f * x for x, y in zip(C[2 * j - 1], num)]
        g *= 2 * j * (2 * j - 1) * (v * P) ** 2
    den, F, L = bd * g // (v * P), 1 << H, log_fixed(P, q, H)
    wR = power(P, H + G, L << G)
    Lpow, Lup, T, cu = [F], [F], [0], u + (2 * K - 1) * v   # c = cu/v, T[m + 1] = 2^H T_m
    for m in range(N + 1):  # log^m R floored, and ceiled from L + 1 > 2^H log R
        T.append(-(-(Lup[m] + m * T[-1]) * v // cu))
        Lpow.append(Lpow[-1] * L >> H)
        Lup.append(-(-Lup[-1] * (L + 1) >> H))
    D = [(wR * x << X) // (den << G) for x in num]
    ln, ld = lmax.as_integer_ratio()
    rem_num = abs(bt[2 * K]) * (wR + (e * wR >> H) + 8) * q ** (2 * K - 1)
    rem_den = den * v << H + G   # bd (2K)! v^2K P^(2K-1)
    out = []
    for n in range(N + 1):
        I = -Lpow[n + 1] // (n + 1) if s == 1 else P * wR * sum(
            math.perm(n, j) * Lpow[n - j] * v ** (j + 1) * (u - v) ** (n - j)
            for j in range(n + 1)) // (q * (u - v) ** (n + 1) << H + G)
        terms = [math.perm(n, i) * Lpow[n - i] for i in range(n + 1)]
        corr, corr_abs = sum(t * d for t, d in zip(terms, D)), sum(t * abs(d) for t, d in zip(terms, D))
        tail = sum(math.perm(n, i) * abs(C[2 * K][i]) * T[n - i + 1] for i in range(n + 1))
        value = sums[n] + I + (Lpow[n] * wR >> H + G + 1) - (corr >> H + X)
        slop = (M + 2 * K + 16) * ((n + 4) * v * ld + e * ln) * (
            ln ** n * sums[0] + ld ** n * (abs(I) + (-(-corr_abs >> H + X)) + F))
        bound = -(-rem_num * tail // rem_den) - (-slop // (v * ld ** (n + 1) << W)) \
            - (-(abs(value) + F) >> ctx.bits - 1)
        out.append((ctx.real((value, -H)), ctx.real((bound, -H))))
    return tuple(out)


def _hurwitz_domain(s: Scalar, a: Scalar, name: str) -> None:
    if _exact(s) == 1:
        raise ValueError(f"{name} has a pole at s = 1")
    if not 0 < _exact(a) <= 1:
        raise ValueError(f"{name} requires a in (0, 1], got {a}")


def hurwitz_zeta(s: Scalar, a: Scalar, ctx: PrecisionContext) -> tuple[HReal, HReal]:
    """zeta(s, a) = Sum_{n>=0} (n+a)^(-s), continued, for real s != 1,
    a in (0, 1].  Returns (value, bound): Z_0 of em_log_moments."""
    _hurwitz_domain(s, a, "hurwitz_zeta")
    return em_log_moments(s, a, 0, ctx)[0]


def hurwitz_zeta_ds(s: Scalar, a: Scalar, ctx: PrecisionContext) -> tuple[HReal, HReal]:
    """d/ds zeta(s, a) = -Z_1 of em_log_moments, for real s != 1,
    a in (0, 1].  Returns (value, bound)."""
    _hurwitz_domain(s, a, "hurwitz_zeta_ds")
    value, bound = em_log_moments(s, a, 1, ctx)[1]
    return HReal((-value.man, value.exp), ctx), bound


# ----------------------------------------------------------------------
# zeta(j) for integer j >= 2, independent of the Euler-Maclaurin core
# ----------------------------------------------------------------------

def zeta_int(j: int, ctx: PrecisionContext) -> HReal:
    """zeta(j) for integer j >= 2 through the alternating series
    eta(j) = Sum (-1)^(n-1) n^(-j) accelerated with Chebyshev weights
    (Cohen-Rodriguez Villegas-Zagier), then zeta = eta / (1 - 2^(1-j)).

    The acceleration error decays like (3 + sqrt 8)^(-n), so n is chosen
    from the context precision.  All in integers: d = T_n(3) by T_(m+1) =
    6 T_m - T_(m-1); the weights b_k = -(-4)^k n/(n+k) C(n+k, 2k) and c_k,
    |c_k| <= d, are exact (so is each division); acc = Sum c_k floor(2^W /
    (k+1)^j) at W = bits + 32 + bits of n, so acc/(d 2^W) is within n units
    of 2^-W of the accelerated sum, and is rounded once to the context.
    Independent of the Euler-Maclaurin evaluator: the pair is a two-route check.
    """
    if not isinstance(j, int) or j < 2:
        raise ValueError(f"zeta_int requires an integer j >= 2, got {j!r}")
    n = int((ctx.bits + 16) * math.log(2) / math.log(3 + math.sqrt(8))) + 4
    W = ctx.bits + _GUARD + n.bit_length()
    t, d = 1, 3   # T_0(3), T_1(3)
    for _ in range(n - 1):
        t, d = d, 6 * d - t
    b, c, acc = -1, -d, 0
    for k in range(n):
        c = b - c
        acc += c * ((1 << W) // (k + 1) ** j)
        b = 2 * b * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    h = 1 << (j - 1)   # zeta = eta 2^(j-1) / (2^(j-1) - 1)
    return ctx.real(Fraction(acc * h, d * (h - 1) << W))


# ----------------------------------------------------------------------
# Truncated power series
# ----------------------------------------------------------------------

def series_ops(num: Sequence[int], den: Sequence[int], V: int) -> list[int]:
    """The quotient num/den of power series given by their coefficients
    from degree 0 up, each an integer in units of 2^-V, truncated to the
    shorter operand, in units of 2^-V: q_k = floor((2^V num_k - Sum_{i<k}
    q_i den_(k-i)) / den_0), one floor a coefficient.  Raises
    ZeroDivisionError when den[0] = 0."""
    if not den or den[0] == 0:
        raise ZeroDivisionError("series divisor has a zero constant term")
    q: list[int] = []
    for k in range(min(len(num), len(den))):
        q.append(((num[k] << V) - sum(map(mul, q, den[k:0:-1]))) // den[0])
    return q

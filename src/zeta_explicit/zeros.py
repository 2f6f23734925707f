"""Zero-table data model, ingestion, and truncated sums over non-trivial
zeros with the symmetric-pairing summation convention.

A table entry (beta, gamma) stands for the conjugate PAIR rho = beta +
i gamma and rho-bar, and an entry off the critical line (beta != 1/2)
also for its reflection 1 - rho-bar, 1 - rho; every sum combines a pair
first, term(rho) + term(rho-bar) = 2 Re term(rho), before accumulating
(the symmetric limit over |Im rho| <= T).  All sums run through one
kernel (zero_sum), one pass per term over its pairs, from small term
constructors, in the table's own integers: at one unit M per call, gamma
M, (beta - p) M for each pole p and |rho - p|^2 M^2 are exact, so a pair
is off only by its phase e^(i gamma log x) (process-wide tables and a
short tan(r/2) series, left unnormalized for the pair's one division),
cos and sin each within 0.32 units of 2^-F, and by its floors to 2^-F:
one per pole group, or per division and Horner step of a polynomial in
1/rho.
Conditionally convergent sums (x^rho / rho) carry no claimed tail bound,
only trend data; absolutely convergent sums (x^rho / (rho (1-rho)), 1/rho,
1/|rho|^2) get density-integral tail estimates, dN(t) ~ (1/2pi) log(t/2pi) dt.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
import os
import re
from fractions import Fraction
from functools import cache
from operator import lt, mul
from typing import NamedTuple, Optional, Sequence, Union

from .mpcore import (_GUARD, HReal, PrecisionContext, _exact, _floor_exact, _nstr, _pi_fixed,
                     _round, _Value, exp_fixed, log_fixed)

_HALF = Fraction(1, 2)

_HERE = os.path.dirname(__file__)

# First zeta ordinates shipped with the package (15 decimals).
FIXTURE_PATH = os.path.join(_HERE, "data", "zeta_zeros_100.txt")
_LABEL_LINE = re.compile(r"#\s*label:\s*(\S+)")
_LABEL_START = re.compile(r"#\s*label\s*:", re.IGNORECASE)   # must then be a _LABEL_LINE


# ----------------------------------------------------------------------
# Data model
# ----------------------------------------------------------------------

class ZeroTable(_Value):
    """Ordered upper-half-strip zeros of one L-function, kept exactly:
    load_zeros keeps the decimal text of each ordinate over scale, a power
    of ten.
    """

    _fields = ("label",              # identifier of the L-function
               "scale",              # common denominator of the ordinates
               "ordinates",          # gamma_i * scale, strictly increasing, > 0
               "real_parts",         # beta_i, each in (0, 1)
               "source",             # provenance string
               "entry_precision")    # decimal digits of the ordinates
    # _parts: the distinct real parts the sums visit, reflections included,
    # and for each entry the indices of those it stands for
    __slots__ = _fields + ("_parts",)

    def __init__(self, label, scale, ordinates, real_parts, source, entry_precision) -> None:
        if len(ordinates) != len(real_parts):
            raise ValueError("ordinate/real-part length mismatch")
        if scale < 1:
            raise ValueError(f"scale must be a positive integer, got {scale}")
        # each distinct real-part object once (a plain table's rows share 1/2)
        distinct = {id(b): b for b in real_parts}
        inside = all(0 < b < 1 for b in distinct.values())
        if not (inside and all(map(lt, (0, *ordinates), ordinates))):   # name the entry at fault
            prev = 0
            for i, (b, n) in enumerate(zip(real_parts, ordinates)):
                if not (inside or 0 < b < 1):
                    raise ValueError(f"entry {i}: beta {b} outside (0, 1)")
                if n <= prev:
                    raise ValueError(f"entry {i}: ordinates not strictly increasing")
                prev = n
        _Value.__init__(self, label, scale, ordinates, real_parts, source, entry_precision)
        index: dict = {}
        rows = {key: tuple(index.setdefault(v, len(index))
                           for v in ((b,) if b == _HALF else (b, 1 - b)))
                for key, b in distinct.items()}
        object.__setattr__(self, "_parts",
                           (tuple(index), tuple(rows[id(b)] for b in real_parts)))

    def __len__(self) -> int:
        return len(self.ordinates)


class SumSpec(_Value):
    """Truncation convention for one zero sum.

    Exactly one of T (height cutoff: include pairs with gamma <= T) and
    K (pair count) is set.  T is compared with the exact ordinates, so a
    pair at gamma = T is included.  Sums are exact integer accumulations,
    so no ordering is needed: the same selection gives the same bits.
    """

    __slots__ = _fields = ("T",        # height cutoff, gamma <= T, finite
                           "K")        # number of leading pairs

    def __init__(self, T: Optional[float] = None, K: Optional[int] = None) -> None:
        if (T is None) == (K is None):
            raise ValueError("exactly one of T, K must be set")
        if T is not None and not math.isfinite(T):
            raise ValueError(f"height cutoff T = {T} is not finite")
        _Value.__init__(self, T, K)

    def select(self, table: ZeroTable) -> range:
        """Indices of the selected pairs in ascending-gamma order."""
        if self.K is not None:
            if self.K < 0 or self.K > len(table):
                raise ValueError(f"K = {self.K} outside table of {len(table)} pairs")
            return range(self.K)
        # gamma = n / scale <= T exactly when the integer n <= floor(T scale).
        return range(bisect_right(table.ordinates, math.floor(Fraction(self.T) * table.scale)))


# ----------------------------------------------------------------------
# Ingestion
# ----------------------------------------------------------------------

_DECIMAL_RE = re.compile(r"^([+-]?)(?:(\d+)(?:\.(\d*))?|\.(\d+))(?:[eE]([+-]?\d+))?$")


def _parse_decimal(tok: str, lineno: int) -> tuple[int, int, int]:
    """(m, k, d): the decimal token equals m / 10^k exactly and carries
    d digits after its point; a table's usual digits.digits skips the regex."""
    whole, _, frac = tok.partition(".")
    if whole.isdecimal() and frac.isdecimal():
        return int(whole + frac), len(frac), len(frac)
    match = _DECIMAL_RE.match(tok.strip())
    if not match:
        raise ValueError(f"line {lineno}: unparsable decimal {tok.strip()!r}")
    sign, whole, frac, bare, exp = match.groups()
    frac = frac if frac is not None else (bare or "")
    m = int((whole or "") + frac or "0")
    return (-m if sign == "-" else m), len(frac) - int(exp or 0), len(frac)


def load_zeros(source: Union[bytes, str, io.IOBase], fmt: str = "plain",
               label: Optional[str] = None, source_name: str = "",
               ctx: Optional[PrecisionContext] = None) -> ZeroTable:
    """Parse a zero table from bytes, text, a readable stream, or a path.

    plain format: UTF-8 text, LF or CRLF, '#'-prefixed comment lines
    ignored, one positive decimal ordinate per non-comment line,
    strictly ascending; beta defaults to 1/2.  csv format: header
    "beta,gamma", decimal columns.  Parse errors report line numbers.
    The decimals are kept exactly, as integers over a common power of
    ten.  In either format one comment line "# label: NAME" names the
    L-function the zeros belong to; a file without one holds zeta zeros.
    Any other comment that starts "label:", in any case and with spaces
    before the colon allowed, is refused.
    A label that differs from the file's is refused; None takes the
    file's.  ctx is unused, kept for callers that pass one.
    """
    if isinstance(source, io.IOBase):
        data = source.read()
    elif isinstance(source, str) and "\n" not in source and os.path.exists(source):
        # A newline-free string naming an existing file is read from disk.
        with open(source, "rb") as fh:
            data = fh.read()
        source_name = source_name or source
    else:
        data = source
    text = data.decode("utf-8") if isinstance(data, bytes) else data

    if fmt not in ("plain", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    csv = header = fmt == "csv"
    reals: list[Fraction] = []
    rows = [(0, 0, 0)]   # (m, k, digits) per row, gamma = m / 10^k; (0, 0, 0) precedes row 1
    named: Optional[str] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            if _LABEL_START.match(line):
                if not (tag := _LABEL_LINE.fullmatch(line)):
                    raise ValueError(f"line {lineno}: malformed label line {line!r}, "
                                     "expected '# label: NAME'")
                if named is not None:
                    raise ValueError(f"line {lineno}: a second label line")
                named = tag.group(1)
            continue
        if header:
            if [c.strip() for c in line.split(",")] != ["beta", "gamma"]:
                raise ValueError(f"line {lineno}: expected header 'beta,gamma'")
            header = False
            continue
        if csv:
            cols = line.split(",")
            if len(cols) != 2:
                raise ValueError(f"line {lineno}: expected two columns")
            q, e, _ = _parse_decimal(cols[0], lineno)
            b = Fraction(q) / Fraction(10) ** e
            if not (0 < b < 1):
                raise ValueError(f"line {lineno}: beta {cols[0]} outside (0, 1)")
            reals.append(b)
            line = cols[1]
        pm, pk, _ = rows[-1]
        m, k, _ = row = _parse_decimal(line, lineno)
        if m <= 0:
            raise ValueError(f"line {lineno}: ordinate must be positive")
        if m <= pm if k == pk else m * 10 ** pk <= pm * 10 ** k:
            raise ValueError(f"line {lineno}: non-monotone ordinate {line}")
        rows.append(row)

    named = named or "zeta"
    if label is not None and label != named:
        raise ValueError(f"the table holds {named} zeros, not {label} zeros")
    mants, places, digits = zip(*rows)
    shift = max(places)
    up = {k: 10 ** (shift - k) for k in set(places)}
    return ZeroTable(label=named, scale=10 ** shift,
                     ordinates=tuple(map(mul, mants, map(up.get, places)))[1:],
                     real_parts=tuple(reals) if csv else (_HALF,) * (len(rows) - 1),
                     source=source_name or "<stream>", entry_precision=max(digits))


def fixture_table() -> ZeroTable:
    """The embedded 100-ordinate smoke-test table."""
    with open(FIXTURE_PATH, "rb") as fh:
        return load_zeros(fh, "plain", label="zeta", source_name=FIXTURE_PATH)


# ----------------------------------------------------------------------
# Term constructors
# ----------------------------------------------------------------------

class Term(NamedTuple):
    """One family of summands term(rho) in a form the kernel evaluates
    in fixed point; build it with the constructors below."""

    kind: str                             # xrho | cos | poly | abs2
    x: Optional[Fraction] = None          # abscissa; None means x = 1
    poles: tuple[Fraction, ...] = ()
    weights: tuple[Fraction, ...] = ()
    coeffs: tuple[Fraction, ...] = ()


def xrho_term(x, poles: Sequence, weights: Sequence) -> Term:
    """x^rho * Sum_i weights[i] / (rho - poles[i]) for x > 0 and real
    rational poles; x = 1 drops the x^rho factor (x^rho/rho at x = 1 is
    1/rho)."""
    xv = _exact(x)
    if xv <= 0:
        raise ValueError(f"x^rho needs x > 0, got {xv}")
    if len(poles) != len(weights) or not poles:
        raise ValueError("need one weight per pole and at least one pole")
    return Term("xrho", x=None if xv == 1 else xv,
                poles=tuple(_exact(p) for p in poles),
                weights=tuple(_exact(w) for w in weights))


def cosine_term(x) -> Term:
    """The critical-line pairing 2 cos(gamma log x) / (1/4 + gamma^2) of
    x^rho x^(-1/2) / (rho (1 - rho)); x >= 1, critical-line tables only."""
    xv = _exact(x)
    if xv < 1:
        raise ValueError(f"the cosine pairing requires x >= 1, got {xv}")
    # 1/rho - 1/(rho - 1) = 1/(rho (1 - rho)) = 1/(1/4 + gamma^2) on the line.
    return Term("cos", x=None if xv == 1 else xv, poles=(Fraction(0), Fraction(1)),
                weights=(Fraction(1), Fraction(-1)))


def inv_rho_poly_term(coeffs: Sequence) -> Term:
    """Sum_k coeffs[k] rho^(-k), a polynomial in 1/rho."""
    if not coeffs:
        raise ValueError("empty polynomial")
    return Term("poly", coeffs=tuple(_exact(c) for c in coeffs))


def inv_abs_sq_term() -> Term:
    """1/|rho|^2 (a pair contributes 2/|rho|^2)."""
    return Term("abs2")


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------

def _cos_sin(h: int, G: int) -> list:
    """((C, err), (S, err)): cos and sin of 2^-h, h >= 8, in units of 2^-G
    by their Taylor series, each term floored from the last (under 2 units
    low), to the first zero term: each within err = 2k + 4 units, k terms."""
    cs, t, k = [0, 0], 1 << G, 0
    while t:
        cs[k & 1] += -t if k & 2 else t
        k, t = k + 1, (t >> h) // (k + 1)
    return [(v, 2 * k + 4) for v in cs]


@cache
def _turns(W: int) -> tuple:
    """Process-wide phase data at width W: e^(i j/2^8) for the 1,609 j of
    one turn, e^(i j/2^18) for j < 1,024 and, when W > 256, e^(i j/2^26)
    for j < 256, each from the powers of one step (cos, sin)(2^-lo),
    floored exactly at W + 32 bits (_cos_sin, _floor_exact), each power
    floored there, then floored to W; the finer tables with the shift and
    mask that cut their j from theta; the mask of the remainder r < 2^-lo
    left by the last table and the shift W - 2 lo of its square; the
    coefficients of tan(r/2) in r^(2k+1), k = K..0, exact then floored at
    2^(W - 2 lo k), K the least that leaves a tail below 2^-(W-5)."""
    V = W + 32
    tables = []
    for size, lo in ((1609, 8), (1024, 18), (256, 26))[:2 + (W > 256)]:
        sc, ss = (_floor_exact(lambda G, i=i: _cos_sin(lo, G)[i], V) for i in (0, 1))
        c, s, table = 1 << V, 0, []
        for _ in range(size):
            table.append((c >> 32, s >> 32))
            c, s = (c * sc - s * ss) >> V, (c * ss + s * sc) >> V
        tables.append((table, W - lo, size - 1))
    tan = [Fraction(1)]   # tan y = Sum t_k y^(2k+1)
    while True:  # tan' = 1 + tan^2: (2k + 1) t_k = Sum_m t_m t_(k-1-m)
        t = sum(map(mul, tan, reversed(tan))) / (2 * len(tan) + 1)
        if t.numerator << (W - 5) < t.denominator << (lo + 1) * (2 * len(tan) + 1):
            break
        tan.append(t)
    return (tables[0][0], tables[1:], (1 << (W - lo)) - 1, W - 2 * lo,
            [(t.numerator << W - 2 * lo * k) // (t.denominator << 2 * k + 1)
             for k, t in enumerate(tan)][::-1])


def _bind(term: Term, table: ZeroTable, M: int, F: int):
    """(run, S, X, e, V): run(start, stop) adds V 2^F Re term(rho) / x^beta
    for the pairs start..stop-1 to S[k], for each k of a pair's real parts,
    at rho = real[k] + i N / M, real = table._parts[0], N = n M / scale; X[k]
    = floor(2^e x^beta + d), 0 <= d < 2^-15, 2^-F relative (exp_fixed of
    log_fixed at e + g bits, its error bound added before the cut, so exact
    at an exact power), or 1 without it.  V is the lcm of the weights'
    denominators, 1 for abs2 and poly.

    A pole group, the poles p that share one a^2 = ((beta - p) M)^2, adds
    floor(2^F (A cos theta + N Z sin theta) / (a^2 + N^2)), A = V M Sum w a
    and Z = V M Sum w over the group, theta = gamma log x (0 without x),
    reduced mod 2 pi in integers at P bits (log x / scale and 2 pi each an
    exact floor: log_fixed, _pi_fixed), whose P - W spare bits absorb n
    times those floors, then cut to the table width W = 64 ceil((F + 8) /
    64).  The product of _turns(W) entries is rotated by (1 + i t)^2, t =
    tan(r/2) by one Horner loop, to C + i S at W bits and left unnormalized:
    e^(i theta) = (C + i S) / (1 + t^2), and the group's one division is
    floor(2^F (C A + S N Z) / ((a^2 + N^2) (1 + t^2))).  That phase's parts
    are each within 80 units of 2^-W of cos theta and sin theta: theta 1.07
    (the cut's 1 and 2^-4 for the floors); tables 7.1 = 5 sqrt 2, three
    entries (each step an exact floor at W + 32, whose 1,608 rotations add
    under 2^-20 units of 2^-W before the floor to W) and two products'
    floors; t's tail and floors 2 (32 + 1.1), t^2's floor 2 and the
    rotation's 1; at W >= F + 8, under 0.32 units of 2^-F.  So a group is
    off by under 0.32 (|A| + |N Z|) / (a^2 + N^2) units of 2^-F and its one
    floor; a polynomial in 1/rho by one floor per division and Horner step."""
    real = table._parts[0]
    ords, parts, U = table.ordinates, table._parts[1], M // table.scale
    B = [b.numerator * (M // b.denominator) for b in real]
    BB = [b * b for b in B]
    S, X, e, V = [0] * len(B), [1] * len(B), 0, 1
    if term.kind == "poly":  # Horner at 2^F in 1/rho = M (a - i N) / (a^2 + N^2)
        MF = M << F
        top, *rest = [(c.numerator << F) // c.denominator for c in reversed(term.coeffs)]

        def run(start: int, stop: int) -> None:
            for n, ks in zip(ords[start:stop], parts[start:stop]):
                N = n * U
                NN = N * N
                for k in ks:
                    den = BB[k] + NN
                    ur, ui = MF * B[k] // den, -(MF * N // den)
                    pr, pi = top, 0
                    for c in rest:
                        pr, pi = ((pr * ur - pi * ui) >> F) + c, (pr * ui + pi * ur) >> F
                    S[k] += pr
        return run, S, X, e, V

    if term.kind == "abs2":  # 2^F / |rho|^2 = M^2 2^F / (a^2 + N^2)
        PW = [[(bb, M * M, 0)] for bb in BB]
    else:  # Re e^(i gamma log x) Sum_i w_i / (rho - p_i), where w / (rho - p)
        # = w M (a - i N) / (a^2 + N^2), a = (beta - p) M, for each pole
        if term.kind == "cos" and any(b != _HALF for b in real):
            raise ValueError("the cosine pairing requires a critical-line table (all beta = 1/2)")
        V = math.lcm(*(w.denominator for w in term.weights))
        P = [(p.numerator * (M // p.denominator), w.numerator * (V // w.denominator) * M)
             for p, w in zip(term.poles, term.weights)]
        PW = []
        for b in B:  # (a^2, A, Z) per a^2
            g = {}
            for p, w in P:
                a = b - p
                g[a * a] = [u + v for u, v in zip(g.get(a * a, (0, 0)), (w * a, w))]
            PW.append([(aa, A, Z) for aa, (A, Z) in g.items()])
    if term.x is None:
        PW = [[(aa, A << F) for aa, A, _ in g] for g in PW]

        def run(start: int, stop: int) -> None:
            for n, ks in zip(ords[start:stop], parts[start:stop]):
                NN = n * U * n * U
                for k in ks:
                    for aa, A in PW[k]:
                        S[k] += A // (aa + NN)
        return run, S, X, e, V
    xn, xd = term.x.numerator, term.x.denominator
    if term.kind == "xrho":  # below 1, x^beta > x: extra bits keep 2^-F relative
        e = F + (math.ceil(1 / term.x).bit_length() if term.x < 1 else 0)
        g, err = 20 + (xn // xd).bit_length(), 2 * (xn // xd) + 5   # units of 2^-(e+g)
        L = log_fixed(xn, xd, e + g)
        X = [(exp_fixed(b.numerator * L // b.denominator, e + g) + err) >> g for b in real]
    W = 64 * -(-(F + 8) // 64)
    first, finer, rest, US, (top, *tan) = _turns(W)
    P = W + (ords[-1] * (math.ceil(abs(math.log(xn) - math.log(xd))) + 1)).bit_length() + 4
    LX = _floor_exact(lambda G: (log_fixed(xn, xd, G) // table.scale, 2), P)
    one, cut, W8, TP = 1 << W, P - W, W - 8, _pi_fixed(P + 1)

    def run(start: int, stop: int) -> None:
        for n, ks in zip(ords[start:stop], parts[start:stop]):
            theta = ((n * LX) % TP) >> cut
            c, s = first[theta >> W8]
            for tab, sh, mask in finer:
                c2, s2 = tab[(theta >> sh) & mask]
                c, s = (c * c2 - s * s2) >> W, (c * s2 + s * c2) >> W
            r, N = theta & rest, n * U
            u, t = r * r >> W, top
            for q in tan:
                t = (t * u >> US) + q
            t = t * r >> W
            tt = t * t >> W
            c2, s2 = one - tt, t << 1
            c, s = (c * c2 - s * s2) >> W, (c * s2 + s * c2) >> W
            D, NN, sN = one + tt, N * N, s * N
            for k in ks:
                for aa, A, Z in PW[k]:  # the group's one division
                    S[k] += ((c * A + sN * Z) << F) // ((aa + NN) * D)
    return run, S, X, e, V


def zero_sum(table: ZeroTable, spec: SumSpec, term: Union[Term, Sequence[Term]],
             ctx: PrecisionContext, cuts: Optional[Sequence[int]] = None) -> tuple:
    """Paired sum over the selected pairs of 2 Re term(rho), each
    off-line entry adding its reflection 1 - rho-bar, in one pass.

    The unit M = lcm(scale, the denominators of the real parts and of
    every pole) makes N = gamma M, a = (beta - p) M and a^2 + N^2 exact
    integers, so a pair is off only by the phase's cos and sin, within
    0.32 units of 2^-F at F = bits + guard bits (see _bind), and by a
    floor, under one unit of 2^-F, per pole group or per division and
    Horner step; no value depends on M.  Each term is summed exactly per
    real part, in one pass per segment between cuts, and x^beta
    multiplies each real part's sum once at each cut.  Before the final
    rounding the error is below 2^-bits times the sum of each pair's size
    with its phase factor taken as 1, and the prefix sum at each k in
    cuts is bit-identical to a call with K = k.  term is one Term or a
    sequence of Terms summed together.  Returns (values, pairs): values
    mirrors term, each an HReal, or with cuts a tuple with one per cut.
    """
    count = len(spec.select(table))
    if count == 0:
        raise ValueError("empty selection: truncation excludes every zero pair")
    stops = (count,) if cuts is None else tuple(cuts)
    if any(not 1 <= k <= count for k in stops):
        raise ValueError(f"cuts {stops} outside 1..{count}")
    single = isinstance(term, Term)
    terms = (term,) if single else tuple(term)
    F = ctx.bits + _GUARD + len(table).bit_length()
    M = math.lcm(table.scale, *(q.denominator for q in table._parts[0]),
                 *(p.denominator for t in terms for p in t.poles))
    bound = [_bind(t, table, M, F) for t in terms]
    at, start = {}, 0
    for stop in sorted(set(stops)):  # the segments between cuts
        for run, *_ in bound:
            run(start, stop)
        at[stop] = [ctx.real(Fraction(2 * sum(map(mul, X, S)), V << F + e))
                    for _, S, X, e, V in bound]
        start = stop
    out = [at[count][j] if cuts is None else tuple(at[k][j] for k in stops)
           for j in range(len(terms))]
    return (out[0] if single else tuple(out)), count


# ----------------------------------------------------------------------
# Tail estimates
# ----------------------------------------------------------------------

def density_tail(table: ZeroTable, count: int, weight: Union[int, Fraction, mpf],
                 ctx: PrecisionContext) -> HReal:
    """weight (1/2pi) Integral_T^inf t^(-2) log(t/2pi) dt, T the count-th
    ordinate, equal to weight (log(T/2pi) + 1) / (2pi T): the density
    estimate of what pairs of size weight/gamma^2 above the first count
    pairs add.  A correction, not a bound.  In integers at V = bits + 32,
    widened by 64 while floor(2^V T/2) = P = floor(2^V pi), so that T <= 2pi,
    where the density is not yet positive, is refused exactly: the weight
    (read by _exact) times (L + 2^V)/(2P T), L = log_fixed(T 2^V/2P), within
    2^-(bits+30) of the tail, relative, rounded once."""
    n, s = table.ordinates[count - 1], table.scale   # T = n/s
    V = ctx.bits + _GUARD
    while (A := (n << V) // (2 * s)) == (P := _pi_fixed(V)):
        V += 64
    if A < P:
        T = _nstr(*_round(Fraction(n, s), ctx.bits + _GUARD), 6)
        raise ValueError(f"density tail needs T > 2 pi, got T = {T}")
    return ctx.real(_exact(weight) * (log_fixed(n << V, 2 * s * P, V) + (1 << V)) * s / (2 * P * n))


# ----------------------------------------------------------------------
# Named sums
# ----------------------------------------------------------------------

def sum_inv_rho(table: ZeroTable, spec: SumSpec,
                ctx: PrecisionContext) -> tuple[HReal, HReal]:
    """Truncated Sum 1/rho (pairs combine to 2 beta/|rho|^2) plus its
    tailored tail estimate Integral_T^inf t^(-2) dN(t); value + tail
    approximates the target constant 1 + gamma/2 - log(4 pi)/2.

    The tail here is the plain density integral with no safety factor:
    it is a CORRECTION (best estimate of the missing mass), not a bound,
    and on critical-line tables each missing pair contributes
    2 beta/|rho|^2 = 1/|rho|^2, matching the integrand t^(-2) exactly.
    """
    value, count = zero_sum(table, spec, xrho_term(1, (0,), (1,)), ctx)
    return value, density_tail(table, count, 1, ctx)


def sum_inv_rho_sq(table: ZeroTable, spec: SumSpec,
                   ctx: PrecisionContext) -> tuple[HReal, HReal]:
    """Truncated Sum 1/|rho|^2 (each pair contributes 2/|rho|^2) plus
    the doubled density-integral tail; value + tail approximates
    2 + gamma - log 4 pi (twice the Sum 1/rho constant when every zero
    sits on the critical line)."""
    value, count = zero_sum(table, spec, inv_abs_sq_term(), ctx)
    return value, density_tail(table, count, 2, ctx)


def cosine_sum(x, table: ZeroTable, spec: SumSpec,
               ctx: PrecisionContext) -> HReal:
    """Sum over pairs of 2 cos(gamma log x) / (1/4 + gamma^2), the
    critical-line pairing of x^rho x^(-1/2); requires every beta = 1/2
    and x >= 1."""
    return zero_sum(table, spec, cosine_term(x), ctx)[0]

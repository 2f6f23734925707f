"""Zero-table data model, ingestion, and truncated sums over non-trivial
zeros with the symmetric-pairing summation convention.

A table entry (beta, gamma) stands for the conjugate PAIR rho = beta +
i gamma and rho-bar, and an entry off the critical line (beta != 1/2)
also for its reflection 1 - rho-bar, 1 - rho; every sum combines a pair
first,

    term(rho) + term(rho-bar) = 2 Re term(rho),

before accumulating (the symmetric limit over |Im rho| <= T).  All sums
run through one fixed-point kernel (zero_sum) over small term
constructors.  Conditionally convergent sums (x^rho / rho) carry no
claimed tail bound, only trend data; absolutely convergent sums
(x^rho / (rho (1-rho)), 1/rho, 1/|rho|^2) get density-integral tail
estimates driven by dN(t) ~ (1/2pi) log(t/2pi) dt.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

import mpmath
from mpmath import mpf
from mpmath.libmp import from_man_exp, to_fixed, to_rational
from mpmath.libmp.libelefun import cos_sin_fixed, pi_fixed

from .mpcore import HReal, PrecisionContext

# Extra binary digits used inside accumulation loops.
_GUARD = 32

_HALF = Fraction(1, 2)

_HERE = os.path.dirname(__file__)

# First zeta ordinates shipped with the package (15 decimals).
FIXTURE_PATH = os.path.join(_HERE, "data", "zeta_zeros_100.txt")


def _exact(v) -> Fraction:
    """The exact rational value of an int, Fraction, float, mpf or HReal."""
    v = v.val if isinstance(v, HReal) else v
    if isinstance(v, mpf):
        if not mpmath.isfinite(v):
            raise ValueError(f"non-finite value {v}")
        return Fraction(*to_rational(v._mpf_))
    return Fraction(v)


# ----------------------------------------------------------------------
# Data model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTable:
    """Ordered upper-half-strip zeros of one L-function.

    Each entry represents the conjugate pair rho, rho-bar; an entry with
    beta != 1/2 additionally stands for 1-rho, 1-rho-bar.  The sums read
    the exact values gamma_i = ordinates[i] / scale and beta_i =
    real_parts[i]: load_zeros keeps them from the decimal text, and a
    table built from binary mpf values alone derives them from those
    (every mpf is an exact dyadic rational).
    """

    label: str                       # identifier of the L-function
    betas: tuple[mpf, ...]           # real parts, each in (0, 1)
    gammas: tuple[mpf, ...]          # ordinates, strictly increasing, > 0
    source: str                      # provenance string
    entry_precision: int             # decimal digits of the ordinates
    scale: int = field(default=0, repr=False, compare=False)
    ordinates: tuple[int, ...] = field(default=(), repr=False, compare=False)
    real_parts: tuple[Fraction, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.betas) != len(self.gammas):
            raise ValueError("beta/gamma length mismatch")
        prev = mpf(0)
        for i, (b, g) in enumerate(zip(self.betas, self.gammas)):
            if not (0 < b < 1):
                raise ValueError(f"entry {i}: beta {b} outside (0, 1)")
            if g <= prev:
                raise ValueError(f"entry {i}: ordinates not strictly increasing")
            prev = g
        if not self.ordinates:
            gs = [_exact(g) for g in self.gammas]
            scale = max((g.denominator for g in gs), default=1)    # powers of 2
            set_ = object.__setattr__
            set_(self, "scale", scale)
            set_(self, "ordinates", tuple(g.numerator * (scale // g.denominator) for g in gs))
            set_(self, "real_parts", tuple(_exact(b) for b in self.betas))
        if not (len(self.ordinates) == len(self.real_parts) == len(self.gammas)):
            raise ValueError("exact ordinates do not match the table")

    def __len__(self) -> int:
        return len(self.gammas)

    def all_on_critical_line(self) -> bool:
        half = mpf(1) / 2
        return all(b == half for b in self.betas)

    @cached_property
    def _parts(self) -> tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...]]:
        """The distinct real parts the sums visit, reflections included,
        and for each entry the indices of those it stands for."""
        index: dict = {}
        rows: dict = {}
        for b in self.real_parts:
            if b not in rows:
                row = (b,) if b == _HALF else (b, 1 - b)
                rows[b] = tuple(index.setdefault(v, len(index)) for v in row)
        return tuple(index), tuple(rows[b] for b in self.real_parts)


@dataclass(frozen=True)
class SumSpec:
    """Truncation convention for one zero sum.

    Exactly one of T (height cutoff: include pairs with gamma <= T) and
    K (pair count) is set.  Sums are exact integer accumulations, so no
    ordering is needed: the same selection gives the same bits.
    """

    T: Optional[float] = None        # height cutoff, gamma <= T
    K: Optional[int] = None          # number of leading pairs

    def __post_init__(self) -> None:
        if (self.T is None) == (self.K is None):
            raise ValueError("exactly one of T, K must be set")

    def select(self, table: ZeroTable) -> range:
        """Indices of the selected pairs in ascending-gamma order."""
        if self.K is not None:
            if self.K < 0 or self.K > len(table):
                raise ValueError(f"K = {self.K} outside table of {len(table)} pairs")
            return range(self.K)
        return range(bisect_right(table.gammas, mpf(self.T)))


# ----------------------------------------------------------------------
# Ingestion
# ----------------------------------------------------------------------

_DECIMAL_RE = re.compile(r"^([+-]?)(?:(\d+)(?:\.(\d*))?|\.(\d+))(?:[eE]([+-]?\d+))?$")


def _parse_decimal(tok: str, lineno: int) -> tuple[int, int, int]:
    """(m, k, d): the decimal token equals m / 10^k exactly and carries
    d digits after its point."""
    match = _DECIMAL_RE.match(tok.strip())
    if not match:
        raise ValueError(f"line {lineno}: unparsable decimal {tok.strip()!r}")
    sign, whole, frac, bare, exp = match.groups()
    frac = frac if frac is not None else (bare or "")
    m = int((whole or "") + frac or "0")
    return (-m if sign == "-" else m), len(frac) - int(exp or 0), len(frac)


def load_zeros(source: Union[bytes, str, io.IOBase], fmt: str = "plain",
               label: str = "zeta", source_name: str = "",
               ctx: Optional[PrecisionContext] = None) -> ZeroTable:
    """Parse a zero table from bytes, text, a readable stream, or a path.

    plain format: UTF-8 text, LF or CRLF, '#'-prefixed comment lines
    ignored, one positive decimal ordinate per non-comment line,
    strictly ascending; beta defaults to 1/2.  csv format: header
    "beta,gamma", decimal columns.  Parse errors report line numbers.
    The decimals are kept exactly (as integers over a common power of
    ten) for the sums; the mpf betas and gammas are rounded at the
    context precision plus guard bits.
    """
    ctx = ctx or PrecisionContext()
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
    header = fmt == "csv"
    betas: list[Fraction] = []
    mants: list[int] = []        # gamma_i = mants[i] / 10^places[i]
    places: list[int] = []
    precision = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header:
            if [c.strip() for c in line.split(",")] != ["beta", "gamma"]:
                raise ValueError(f"line {lineno}: expected header 'beta,gamma'")
            header = False
            continue
        b = _HALF
        if fmt == "csv":
            cols = line.split(",")
            if len(cols) != 2:
                raise ValueError(f"line {lineno}: expected two columns")
            m, k, _ = _parse_decimal(cols[0], lineno)
            b = Fraction(m) / Fraction(10) ** k
            if not (0 < b < 1):
                raise ValueError(f"line {lineno}: beta {cols[0]} outside (0, 1)")
            line = cols[1]
        m, k, digits = _parse_decimal(line, lineno)
        if m <= 0:
            raise ValueError(f"line {lineno}: ordinate must be positive")
        if mants and m * 10 ** places[-1] <= mants[-1] * 10 ** k:
            raise ValueError(f"line {lineno}: non-monotone ordinate {line}")
        betas.append(b)
        mants.append(m)
        places.append(k)
        precision = max(precision, digits)

    shift = max(places + [0])
    ordinates = tuple(m if k == shift else m * 10 ** (shift - k)
                      for m, k in zip(mants, places))
    with ctx.workprec(_GUARD):
        half = mpf(1) / 2
        return ZeroTable(label=label,
                         betas=tuple(half if b is _HALF else _mpq(b) for b in betas),
                         gammas=tuple(mpf(n) / 10 ** shift for n in ordinates),
                         source=source_name or "<stream>", entry_precision=precision,
                         scale=10 ** shift, ordinates=ordinates, real_parts=tuple(betas))


def fixture_table(ctx: Optional[PrecisionContext] = None) -> ZeroTable:
    """The embedded 100-ordinate smoke-test table."""
    with open(FIXTURE_PATH, "rb") as fh:
        return load_zeros(fh, "plain", label="zeta",
                          source_name=FIXTURE_PATH, ctx=ctx)


# ----------------------------------------------------------------------
# Term constructors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
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
        raise ValueError(f"cosine_sum requires x >= 1, got {xv}")
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

def _fixed(q: Fraction, F: int) -> int:
    return (q.numerator << F) // q.denominator


def _mpq(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def _phase(x: Fraction, table: ZeroTable, F: int):
    """n -> fixed-point (cos, sin) of gamma log x at gamma = n / scale.

    log x and 2 pi scale are taken to P > F bits, so the phase
    n log x mod 2 pi scale is reduced exactly in integers; the P - F
    spare bits absorb gamma times the rounding of log x."""
    D = table.scale
    top = -(-table.ordinates[-1] // D)
    logx = abs(math.log(x.numerator) - math.log(x.denominator))
    P = F + (top * (math.ceil(logx) + 1)).bit_length() + 4
    with mpmath.workprec(P + D.bit_length() + 16):
        LX = to_fixed(mpmath.log(_mpq(x))._mpf_, P)
        TP = to_fixed((2 * mpmath.pi * D)._mpf_, P)
    DS = D << (P - F)
    pi2 = pi_fixed(F - 1)

    def cos_sin(n: int) -> tuple[int, int]:
        return cos_sin_fixed(((n * LX) % TP) // DS, F, pi2)
    return cos_sin


def _bind(term: Term, table: ZeroTable, F: int):
    """f(k, n): the fixed-point (scale 2^F) value of Re term(rho) at
    rho = real[k] + i n / scale."""
    real, _ = table._parts
    D = table.scale
    B = [_fixed(b, F) for b in real]
    F2 = 2 * F

    if term.kind == "abs2":
        one3 = 1 << (3 * F)

        def f(k: int, n: int) -> int:
            G = (n << F) // D
            return one3 // (B[k] * B[k] + G * G)
        return f

    if term.kind == "poly":
        C = [_fixed(c, F) for c in reversed(term.coeffs)]
        top, rest = C[0], C[1:]

        def f(k: int, n: int) -> int:
            G = (n << F) // D
            b = B[k]
            den = b * b + G * G
            ur = (b << F2) // den
            ui = -((G << F2) // den)
            pr, pi = top, 0
            for c in rest:
                pr, pi = ((pr * ur - pi * ui) >> F) + c, (pr * ui + pi * ur) >> F
            return pr
        return f

    # xrho and cos: x^beta e^(i gamma log x) Sum_i w_i / (rho - p_i), cos
    # without the x^beta factor.
    if term.kind == "cos" and any(b != _HALF for b in real):
        raise ValueError("cosine_sum requires a critical-line table (all beta = 1/2)")
    PW = [(_fixed(p, F), _fixed(w, F)) for p, w in zip(term.poles, term.weights)]
    cos_sin = None if term.x is None else _phase(term.x, table, F)
    X = [1 << F] * len(real)
    if cos_sin is not None and term.kind == "xrho":
        with mpmath.workprec(F + 16):
            X = [to_fixed(mpmath.power(_mpq(term.x), _mpq(b))._mpf_, F) for b in real]

    def f(k: int, n: int) -> int:
        G = (n << F) // D
        GG = G * G
        b = B[k]
        sr = si = 0
        for p, w in PW:
            a = b - p
            den = a * a + GG
            sr += ((w * a) << F) // den
            si -= ((w * G) << F) // den
        if cos_sin is None:
            return sr
        c, s = cos_sin(n)
        return (X[k] * ((c * sr - s * si) >> F)) >> F
    return f


def zero_sum(table: ZeroTable, spec: SumSpec, term: Union[Term, Sequence[Term]],
             ctx: Optional[PrecisionContext] = None,
             cuts: Optional[Sequence[int]] = None) -> tuple:
    """Paired sum over the selected pairs of 2 Re term(rho), each
    off-line entry adding its reflection 1 - rho-bar, in one pass.

    Each pair is evaluated once in integer fixed point at bits + guard
    bits (exact ordinates, phase reduced mod 2 pi in integers) and
    accumulated exactly, so the error is below 2^-bits Sum |2 Re term|
    before the final rounding, and the prefix sum at each k in cuts is
    bit-identical to a call with K = k.  term is one Term or a sequence
    of Terms summed together.  Returns (values, pairs): values mirrors
    term, each entry an HReal, or with cuts a tuple with one per cut.
    """
    ctx = ctx or PrecisionContext()
    count = len(spec.select(table))
    if count == 0:
        raise ValueError("empty selection: truncation excludes every zero pair")
    stops = (count,) if cuts is None else tuple(cuts)
    if any(not 1 <= k <= count for k in stops):
        raise ValueError(f"cuts {stops} outside 1..{count}")
    single = isinstance(term, Term)
    terms = (term,) if single else tuple(term)
    # x < 1 shrinks x^beta: keep its relative precision with extra bits.
    small = max([math.ceil(1 / t.x).bit_length() for t in terms if t.x and t.x < 1] + [0])
    F = ctx.bits + _GUARD + len(table).bit_length() + small
    fns = [_bind(t, table, F) for t in terms]
    _, parts = table._parts
    nums = table.ordinates
    wanted = set(stops)
    acc = [0] * len(fns)
    at = {}
    for i in range(count):
        n = nums[i]
        for j, f in enumerate(fns):
            for k in parts[i]:
                acc[j] += f(k, n)
        if i + 1 in wanted:
            at[i + 1] = tuple(acc)

    def value(j: int, k: int) -> HReal:
        return ctx.real(mpmath.make_mpf(from_man_exp(2 * at[k][j], -F)))

    out = [value(j, count) if cuts is None else tuple(value(j, k) for k in stops)
           for j in range(len(fns))]
    return (out[0] if single else tuple(out)), count


# ----------------------------------------------------------------------
# Tail estimates
# ----------------------------------------------------------------------

def _density_integral(T: mpf, p: mpf) -> mpf:
    """(1/2pi) Integral_T^inf t^(-p) log(t/2pi) dt for p > 1, equal to
    (1/2pi) [ log(T/2pi) / ((p-1) T^(p-1)) + 1 / ((p-1)^2 T^(p-1)) ]."""
    twopi = 2 * mpmath.pi
    Tp = T ** (p - 1)
    return (mpmath.log(T / twopi) / ((p - 1) * Tp)
            + 1 / ((p - 1) ** 2 * Tp)) / twopi


def tail_estimate(T: float, p: float, x: float,
                  ctx: Optional[PrecisionContext] = None) -> Optional[HReal]:
    """Heuristic bound for the zero-sum mass above height T when each
    pair contributes at most 2 x^(1/2) / gamma^p:

        2 x^(1/2) * Integral_T^inf t^(-p) dN(t),  dN ~ (1/2pi) log(t/2pi) dt,

    multiplied by a safety factor 2 for the density approximation.
    Returns None (no-bound marker) for p < 2, the conditionally
    convergent regime where no bound is claimed.
    """
    ctx = ctx or PrecisionContext()
    if p < 2:
        return None
    with ctx.workprec(_GUARD):
        Tv = ctx.mpf(T)
        if Tv <= 2 * mpmath.pi:
            raise ValueError("tail estimate requires T > 2 pi")
        est = 2 * mpmath.sqrt(ctx.mpf(x)) * _density_integral(Tv, ctx.mpf(p)) * 2
    return ctx.real(est)


def _selected_height(table: ZeroTable, spec: SumSpec) -> mpf:
    idx = spec.select(table)
    if len(idx) == 0:
        raise ValueError("empty selection: truncation excludes every zero pair")
    return table.gammas[idx[-1]]


# ----------------------------------------------------------------------
# Named sums
# ----------------------------------------------------------------------

def _abscissa(x, what: str) -> Fraction:
    xv = _exact(x)
    if xv <= 0 or xv == 1:
        raise ValueError(f"{what} requires x in (0,1) or x > 1, got {float(xv)}")
    return xv


def sum_inv_rho(table: ZeroTable, spec: SumSpec,
                ctx: Optional[PrecisionContext] = None) -> tuple[HReal, HReal]:
    """Truncated Sum 1/rho (pairs combine to 2 beta/|rho|^2) plus its
    tailored tail estimate Integral_T^inf t^(-2) dN(t); value + tail
    approximates the target constant 1 + gamma/2 - log(4 pi)/2.

    The tail here is the plain density integral with no safety factor:
    it is a CORRECTION (best estimate of the missing mass), not a bound,
    and on critical-line tables each missing pair contributes
    2 beta/|rho|^2 = 1/|rho|^2, matching the integrand t^(-2) exactly.
    """
    ctx = ctx or PrecisionContext()
    value, _ = zero_sum(table, spec, xrho_term(1, (0,), (1,)), ctx)
    with ctx.workprec(_GUARD):
        tail = _density_integral(_selected_height(table, spec), mpf(2))
    return value, ctx.real(tail)


def sum_inv_rho_sq(table: ZeroTable, spec: SumSpec,
                   ctx: Optional[PrecisionContext] = None) -> tuple[HReal, HReal]:
    """Truncated Sum 1/|rho|^2 (each pair contributes 2/|rho|^2) plus
    the doubled density-integral tail; value + tail approximates
    2 + gamma - log 4 pi (twice the Sum 1/rho constant when every zero
    sits on the critical line)."""
    ctx = ctx or PrecisionContext()
    value, _ = zero_sum(table, spec, inv_abs_sq_term(), ctx)
    with ctx.workprec(_GUARD):
        tail = 2 * _density_integral(_selected_height(table, spec), mpf(2))
    return value, ctx.real(tail)


def cosine_sum(x, table: ZeroTable, spec: SumSpec,
               ctx: Optional[PrecisionContext] = None) -> HReal:
    """Sum over pairs of 2 cos(gamma log x) / (1/4 + gamma^2), the
    critical-line pairing of x^rho x^(-1/2); requires every beta = 1/2
    and x >= 1."""
    return zero_sum(table, spec, cosine_term(x), ctx)[0]


def S_sum(x, table: ZeroTable, spec: SumSpec,
          ctx: Optional[PrecisionContext] = None) -> tuple[HReal, Optional[HReal]]:
    """Truncated paired Sum x^rho / (rho (1 - rho)) for x > 1, with the
    generic tail_estimate(T, 2, x); the series is absolutely convergent
    so the estimate is a genuine (heuristic-density) bound."""
    ctx = ctx or PrecisionContext()
    if _exact(x) <= 1:
        raise ValueError(f"S_sum requires x > 1, got {x}")
    value, _ = zero_sum(table, spec, xrho_term(x, (0, 1), (1, -1)), ctx)
    T = _selected_height(table, spec)
    return value, tail_estimate(float(T), 2, x, ctx)


def sum_xrho_over_rho(x, table: ZeroTable, spec: SumSpec,
                      ctx: Optional[PrecisionContext] = None) -> HReal:
    """Truncated paired Sum x^rho / rho, the zero-sum side of the
    explicit formulas (conditionally convergent; no tail claimed)."""
    term = xrho_term(_abscissa(x, "sum x^rho/rho"), (0,), (1,))
    return zero_sum(table, spec, term, ctx)[0]


def sum_xrho_shifted(x, alpha, table: ZeroTable, spec: SumSpec,
                     ctx: Optional[PrecisionContext] = None) -> HReal:
    """Truncated paired Sum x^rho / (rho - alpha) for real alpha not
    hitting a zero (conditionally convergent; no tail claimed)."""
    term = xrho_term(_abscissa(x, "sum x^rho/(rho-alpha)"), (alpha,), (1,))
    return zero_sum(table, spec, term, ctx)[0]


def sum_pf_kernel(x, poles: Sequence, residues: Sequence,
                  table: ZeroTable, spec: SumSpec,
                  ctx: Optional[PrecisionContext] = None) -> HReal:
    """Truncated paired Sum x^rho * Sum_i residues[i]/(rho - poles[i]),
    the zero-sum side of the partial-fraction generalization."""
    term = xrho_term(_abscissa(x, "kernel sum"), poles, residues)
    return zero_sum(table, spec, term, ctx)[0]

"""Independent oracles for every op kind.

Nothing here imports the package.  The oracles run in the orchestrating
process after the worker has exited, so their mpmath work cannot warm
caches the timed code uses.

* Zero sums: a float64 evaluation of the same truncated sum.  The phase
  gamma log x is reduced modulo 2 pi exactly, in integers (gamma as an
  integer over 10^p, log x and 2 pi in fixed point), before float cos
  and sin; the tolerance is the input budget of the table's p-decimal
  ordinates plus the float rounding of the sum.  Rows off the critical
  line count with their reflections 1 - rho, as the README promises.
* Prime sums and closed forms: the oracle's own sieve and prime-power
  sums, in float64 (any x) and in mpmath at bits + 64 (small x).
* Constants: mpmath.zeta(s, a[, 1]), mpmath.stieltjes, mpmath.loggamma,
  mpmath.dirichlet and mpmath.digamma at bits + 64.

A check is "working precision" (``wp``) when its oracle carries at least
the op's precision; only those feed ``min_oracle_digits``.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from fractions import Fraction as Fr

import mpmath
from mpmath import fp, mp, mpf

EPS = 2.0 ** -52
SPACING_GT1 = Fr(1, 64)      # package defaults of find_zeros_gt1/_lt1
SPACING_LT1 = Fr(1, 128)
SCAN_THRESHOLD = 1e-6        # package default of hypothesis_scan


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

class Checks:
    """Outcome of one op's oracle comparisons."""

    def __init__(self):
        self.items: list = []    # (name, ok, digits or None, detail)

    def close(self, name, got, ref, tol, *, wp=False, res=0.0):
        """|got - ref| <= tol; with wp, also record the correct digits
        (relative, floored at the resolution res of ref)."""
        with mp.workprec(max(mp.prec, 64)):
            got = mpf(got)
            ref = mpf(ref)
            d = abs(got - ref)
            ok = bool(d <= tol)
            digits = None
            if wp:
                scale = max(abs(ref), mpf(2) ** -1000)
                err = max(d, mpf(res), scale * mpf(10) ** -200)
                digits = float(-mpmath.log10(err / scale))
        self.items.append((name, ok, digits,
                           "" if ok else f"got {mpmath.nstr(got, 20)} "
                           f"want {mpmath.nstr(ref, 20)} off {mpmath.nstr(d, 3)}"
                           f" > tol {mpmath.nstr(mpf(tol), 3)}"))

    def true(self, name, cond, detail=""):
        self.items.append((name, bool(cond), None, "" if cond else detail))

    def failures(self) -> list:
        return [f"{n}: {d}" for n, ok, _, d in self.items if not ok]

    def digits(self) -> list:
        return [d for _, _, d, _ in self.items if d is not None]


# ----------------------------------------------------------------------
# Own sieve and characters
# ----------------------------------------------------------------------

class Primes:
    """Smallest-prime-factor sieve, grown on demand."""

    def __init__(self):
        self.n = 1
        self.spf = [0, 0]
        self.list: list = []

    def _grow(self, n):
        n = max(n, 2 * self.n, 1000)
        spf = list(range(n + 1))
        for p in range(2, int(n ** 0.5) + 1):
            if spf[p] == p:
                for m in range(p * p, n + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        self.spf, self.n = spf, n
        self.list = [p for p in range(2, n + 1) if spf[p] == p]

    def upto(self, n) -> list:
        if n > self.n:
            self._grow(n)
        return self.list[:bisect.bisect_right(self.list, n)]

    def prime_of(self, n) -> int:
        """p when n = p^k (k >= 1), else 0."""
        if n < 2:
            return 0
        if n > self.n:
            self._grow(n)
        p = self.spf[n]
        while n % p == 0:
            n //= p
        return p if n == 1 else 0


PRIMES = Primes()


def _jacobi(a: int, n: int) -> int:
    a %= n
    r = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                r = -r
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            r = -r
        a %= n
    return r if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """(a | n) for n >= 1."""
    r = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            r = -r
    return r * _jacobi(a, n)


def conductor(d: int) -> int:
    return d if (-d) % 4 == 1 else 4 * d


def chi_table(d: int) -> list:
    """chi_{-d}(n) = (-D | n), n = 0..D-1."""
    D = conductor(d)
    return [kronecker(-D, n) if n else 0 for n in range(D)]


class Family:
    """zeta, or the odd character chi_{-d} named "chi-d"."""

    def __init__(self, name: str):
        if name == "zeta":
            self.chi, self.q = None, 1
        else:
            d = int(name.split("-")[1])
            self.chi, self.q = chi_table(d), conductor(d)

    def c(self, n: int) -> int:
        return 1 if self.chi is None else self.chi[n % self.q]


# ----------------------------------------------------------------------
# Prime-power sums and closed forms, in C = mpmath.fp or mpmath.mp
# ----------------------------------------------------------------------

def _num(C, r: Fr):
    r = Fr(r)
    return C.mpf(r.numerator) / r.denominator


def _fsum(C, terms):
    return math.fsum(terms) if C is fp else mpmath.fsum(terms)


_LOGS: dict = {}


def _log(C, p: int):
    if C is fp:
        return math.log(p)
    key = (p, mp.prec)
    if key not in _LOGS:
        _LOGS[key] = mpmath.log(p)
    return _LOGS[key]


def _weighted(C, n_top: int, expo, F: Family):
    """(Sum_{n <= n_top} chi Lambda(n) n^expo, Sum of |terms|)."""
    terms = []
    for p in PRIMES.upto(n_top):
        lp = _log(C, p)
        pk = p
        while pk <= n_top:
            c = F.c(pk)
            if c:
                terms.append(c * lp * (C.mpf(pk) ** expo if expo else 1))
            pk *= p
    return _fsum(C, terms), _fsum(C, [abs(t) for t in terms])


def psi(C, x: Fr, a: Fr, F: Family):
    """x^a Sum_{n<x} chi Lambda(n) n^-a, plus chi(x) Lambda(x)/2 at an
    integer prime power x.  Returns (value, magnitude)."""
    n_top = x.numerator // x.denominator
    p_at = PRIMES.prime_of(n_top) if x.denominator == 1 else 0
    if p_at:
        n_top -= 1
    s, mag = _weighted(C, n_top, -_num(C, a), F)
    xa = _num(C, x) ** _num(C, a)
    value, mag = xa * s, xa * mag
    if p_at:
        value += F.c(x.numerator) * C.log(p_at) / 2
        mag += C.log(p_at)
    return value, mag


def tsum(C, x: Fr, a: Fr, F: Family):
    """x^a Sum_{n<1/x} chi Lambda(n) n^(a-1), plus (x/2) chi Lambda(1/x)
    when 1/x is an integer prime power."""
    inv = 1 / x
    n_top = inv.numerator // inv.denominator
    p_at = PRIMES.prime_of(n_top) if inv.denominator == 1 else 0
    if p_at:
        n_top -= 1
    s, mag = _weighted(C, n_top, _num(C, a) - 1, F)
    xv = _num(C, x)
    xa = xv ** _num(C, a)
    value, mag = xa * s, xa * mag
    if p_at:
        value += xv * F.c(inv.numerator) * C.log(p_at) / 2
        mag += C.log(p_at)
    return value, mag


def f_u(C, u: Fr, z):
    """Sum_{n>=1} z^n/(n+u) for 0 < z < 1, summed directly."""
    uv = _num(C, u)
    target = C.mpf(2) ** (-(mp.prec + 8 if C is mp else 60))
    acc = 0
    zn = 1
    n = 0
    while True:
        n += 1
        zn *= z
        acc += zn / (n + uv)
        if zn < target:
            return acc


def residues(roots) -> list:
    """Partial-fraction residues of 1 / prod (t - r_i)."""
    out = []
    for i, ri in enumerate(roots):
        b = Fr(1)
        for j, rj in enumerate(roots):
            if j != i:
                b *= ri - rj
        out.append(1 / b)
    return out


def f_gt1(C, x: Fr):
    ps, mag = psi(C, x, Fr(0), Family("zeta"))
    xv = _num(C, x)
    return xv - ps - C.log(2 * C.pi) - C.log(1 - 1 / (xv * xv)) / 2, mag + xv


def f_lt1(C, x: Fr):
    t, mag = tsum(C, x, Fr(0), Family("zeta"))
    xv = _num(C, x)
    return (t + C.log(xv) + C.euler - C.log((1 + xv) / (1 - xv)) / 2 + xv,
            mag + abs(C.log(xv)) + 2)


def general_gt1(C, x: Fr, roots):
    xv = _num(C, x)
    z = 1 / (xv * xv)
    acc, mag = 0, 0
    for lam, a in zip(residues(roots), roots):
        ps, m = psi(C, x, a, Family("zeta"))
        lv = _num(C, lam)
        acc += lv * (xv / (1 - _num(C, a)) - ps + f_u(C, a / 2, z) / 2)
        mag += abs(lv) * (m + xv + 1)
    return acc, mag


def general_lt1(C, x: Fr, roots):
    xv = _num(C, x)
    z = xv * xv
    acc, mag = 0, 0
    for lam, a in zip(residues(roots), roots):
        t, m = tsum(C, x, a, Family("zeta"))
        lv = _num(C, lam)
        acc += lv * (t - 1 / _num(C, a) - xv * f_u(C, (1 - a) / 2, z) / 2)
        mag += abs(lv) * (m + 1 / abs(_num(C, a)) + 1)
    return acc, mag


def selberg_gt1(C, x: Fr, alpha: Fr, F: Family):
    if F.chi is None:
        return general_gt1(C, x, [alpha])
    xv = _num(C, x)
    ps, mag = psi(C, x, alpha, F)
    val = -ps + f_u(C, (1 + alpha) / 2, 1 / (xv * xv)) / (2 * xv) \
        + 1 / (xv * (1 + _num(C, alpha)))
    return val, mag + 1


def selberg_lt1(C, x: Fr, alpha, F: Family):
    xv = _num(C, x)
    if alpha == "zero":
        if F.chi is not None:
            raise ValueError("no oracle for gamma_F of a character")
        t, mag = tsum(C, x, Fr(0), F)
        return t + C.log(xv) + C.euler - xv * f_u(C, Fr(1, 2), xv * xv) / 2, \
            mag + abs(C.log(xv)) + 2
    if F.chi is None:
        return general_lt1(C, x, [alpha])
    t, mag = tsum(C, x, alpha, F)
    u = 1 - alpha / 2
    return t - xv * xv * (f_u(C, u, xv * xv) + 1 / _num(C, u)) / 2, mag + 1


def s_rhs(C, x: Fr):
    """S_rhs_gt1(x) + gamma x - log 2 pi, as verify reports it."""
    xv = _num(C, x)
    ps, m0 = psi(C, x, Fr(0), Family("zeta"))
    p1, m1 = psi(C, x, Fr(1), Family("zeta"))
    Lw = p1 / xv
    v = (1 + xv * (Lw - C.log(xv)) + xv - ps
         - xv * C.log((xv + 1) / (xv - 1)) / 2 - C.log(1 - 1 / (xv * xv)) / 2
         + C.euler * xv - C.log(2 * C.pi))
    return v, m0 + m1 + 3 * xv


def verify_rhs(C, a: dict):
    ident, x = a["identity"], Fr(a["x"])
    F = Family(a.get("F", "zeta"))
    if ident == "von-mangoldt":
        return f_gt1(C, x)
    if ident == "ingham":
        return f_lt1(C, x)
    if ident == "cosine":
        g, m1 = f_gt1(C, x)
        h, m2 = f_lt1(C, 1 / x)
        r = C.sqrt(_num(C, x))
        return g / r + r * h, m1 + r * m2
    if ident == "s":
        return s_rhs(C, x)
    if ident == "general-gt1":
        return general_gt1(C, x, [Fr(r) for r in a["roots"]])
    if ident == "general-lt1":
        return general_lt1(C, x, [Fr(r) for r in a["roots"]])
    alpha = a["alpha"] if a["alpha"] == "zero" else Fr(a["alpha"])
    if ident == "selberg-gt1":
        return selberg_gt1(C, x, alpha, F)
    return selberg_lt1(C, x, alpha, F)


# ----------------------------------------------------------------------
# Log-derivatives (mpmath, current precision)
# ----------------------------------------------------------------------

def log_deriv(s: Fr, F: Family):
    sv = _num(mp, s)
    if F.chi is None:
        return mpmath.zeta(sv, 1, 1) / mpmath.zeta(sv)
    q = F.q
    L = dL = mpf(0)
    for k in range(1, q):
        c = F.chi[k]
        if c:
            L += c * mpmath.zeta(sv, mpf(k) / q)
            dL += c * mpmath.zeta(sv, mpf(k) / q, 1)
    qs = mpf(q) ** (-sv)
    return (-mpmath.log(q) * qs * L + qs * dL) / (qs * L)


def verify_extra(a: dict):
    """The log-derivative part verify_identity adds to the zero sum."""
    ident, x = a["identity"], Fr(a["x"])
    xv = _num(mp, x)
    if ident in ("general-gt1", "general-lt1"):
        roots = [Fr(r) for r in a["roots"]]
        acc = mpf(0)
        for lam, r in zip(residues(roots), roots):
            s = r if ident == "general-gt1" else 1 - r
            acc += _num(mp, lam) * log_deriv(s, Family("zeta")) * xv ** _num(mp, r)
        return acc if ident == "general-gt1" else -acc
    if ident in ("selberg-gt1", "selberg-lt1") and a["alpha"] != "zero":
        al = Fr(a["alpha"])
        F = Family(a["F"])
        if ident == "selberg-gt1":
            return xv ** _num(mp, al) * log_deriv(al, F)
        return -xv ** _num(mp, al) * log_deriv(1 - al, F)
    return mpf(0)


# ----------------------------------------------------------------------
# Zero tables and the float64 zero sum with exact phase reduction
# ----------------------------------------------------------------------

_TABLE_CACHE: dict = {}


def read_table(path: str) -> list:
    """[(beta, gamma)] as Fractions from a plain ordinate file."""
    if path not in _TABLE_CACHE:
        rows = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    rows.append((Fr(1, 2), Fr(line)))
        _TABLE_CACHE[path] = rows
    return _TABLE_CACHE[path]


_FIX = 160    # fixed-point bits of log x and 2 pi


def _decimals(rows) -> int:
    dec = 0
    for _, g in rows:
        while (g * 10 ** dec).denominator != 1:
            dec += 1
    return dec


def pair_terms(rows, kind: str, x=None, poles=(), weights=(), n=1):
    """Per-row float pair values 2 Re term(rho) (plus the reflected
    partner 1 - rho-bar for rows off the critical line), per-row input
    budget, and per-row float error bound.

    kind: xrho (x^rho * Sum w_i/(rho - p_i)), s (x^rho/(rho(1-rho))),
    cos (2 cos(gamma log x)/(1/4 + gamma^2)), inv_rho, inv_rho_sq,
    lambda ((1 - (1 - 1/rho)^n))."""
    dec = _decimals(rows)
    half_ulp = 0.5 * 10.0 ** -dec
    Lf = 0.0
    if x is not None:
        x = Fr(x)
        with mp.workprec(_FIX + 140):
            L = mpmath.log(_num(mp, x))
            LX = int(mpmath.nint(L * 2 ** _FIX))
            TP = int(mpmath.nint(2 * mpmath.pi * 10 ** dec * 2 ** _FIX))
            Lf = float(L)
        denom = float(10 ** dec) * float(2 ** _FIX)
    pf = [float(p) for p in poles]
    wf = [float(w) for w in weights]
    vals, budget, err = [], [], []
    for beta, gamma in rows:
        G = int(gamma * 10 ** dec)
        gf = float(gamma)
        if x is not None:
            theta = ((G * LX) % TP) / denom
            c, s = math.cos(theta), math.sin(theta)
        v = b = e = 0.0
        betas = (beta,) if beta == Fr(1, 2) else (beta, 1 - beta)
        for bt in betas:
            bf = float(bt)
            rho = complex(bf, gf)
            if kind == "cos":
                mag = 2.0 / (0.25 + gf * gf)
                v += mag * c
                b += mag * (abs(Lf) + 2 / gf) * half_ulp
                e += 8 * EPS * mag
                continue
            if kind in ("xrho", "s"):
                xr = math.exp(bf * Lf) * complex(c, s)
                if kind == "s":
                    t = xr / (rho * (1 - rho))
                    dist = min(abs(rho), abs(1 - rho))
                else:
                    t = xr * sum(w / (rho - p) for p, w in zip(pf, wf))
                    dist = min(abs(rho - p) for p in pf)
                extra = abs(Lf)
            elif kind == "inv_rho":
                t, dist, extra = 1 / rho, abs(rho), 0.0
            elif kind == "inv_rho_sq":
                t, dist, extra = 1 / (bf * bf + gf * gf), abs(rho), 0.0
            else:  # lambda
                t, dist, extra = 1 - (1 - 1 / rho) ** n, abs(rho), 0.0
                e += 16 * n * EPS
            v += 2 * t.real if isinstance(t, complex) else 2 * t
            mag = 2 * abs(t)
            b += mag * (extra + 2 / dist) * half_ulp
            e += 16 * EPS * mag
        vals.append(v)
        budget.append(b)
        err.append(e)
    return vals, budget, err


def zero_sum(rows, K: int, kind: str, **kw):
    """(full, half, tol_full, tol_half) for the first K rows; half is
    the first max(1, K // 2) rows, the truncation verify uses."""
    vals, budget, err = pair_terms(rows[:K], kind, **kw)
    h = max(1, K // 2)
    full, half = math.fsum(vals), math.fsum(vals[:h])
    tol_f = math.fsum(budget) + math.fsum(err) + 4 * EPS * abs(full)
    tol_h = math.fsum(budget[:h]) + math.fsum(err[:h]) + 4 * EPS * abs(half)
    return full, half, tol_f, tol_h


def verify_kind(a: dict):
    """(kind, keyword args) of the zero sum behind one identity."""
    ident, x = a["identity"], Fr(a["x"])
    if ident == "cosine":
        return "cos", {"x": x}
    if ident == "s":
        return "s", {"x": x}
    if ident in ("general-gt1", "general-lt1"):
        roots = [Fr(r) for r in a["roots"]]
        return "xrho", {"x": x, "poles": roots, "weights": residues(roots)}
    if ident.startswith("selberg") and a["alpha"] != "zero":
        return "xrho", {"x": x, "poles": [Fr(a["alpha"])], "weights": [1]}
    return "xrho", {"x": x, "poles": [0], "weights": [1]}


def density_tail(T, p):
    """(1/2pi) Integral_T^inf t^-p log(t/2pi) dt."""
    twopi = 2 * mpmath.pi
    Tp = T ** (p - 1)
    return (mpmath.log(T / twopi) / ((p - 1) * Tp) + 1 / ((p - 1) ** 2 * Tp)) / twopi


def _wp(bits: int, extra: int = 64):
    return mp.workprec(bits + extra)


def _rel(bits: int, shift: int = 8):
    return mpf(2) ** (shift - bits)


# ----------------------------------------------------------------------
# Per-kind checks.  ``out`` holds the worker's decimal strings.
# ----------------------------------------------------------------------

_STIELTJES: dict = {}


def stieltjes(n: int, a: Fr):
    key = f"{n}|{a}|{mp.prec}"
    if key not in _STIELTJES:
        _STIELTJES[key] = mpmath.stieltjes(n, _num(mp, a))
    return _STIELTJES[key]


def load_stieltjes(path: str) -> None:
    """Reuse the Stieltjes values of earlier runs (mpmath.stieltjes at
    bits + 64 is most of the oracle's time); values are stored exactly."""
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        return
    for key, (sign, man, exp, bc) in stored.items():
        _STIELTJES.setdefault(key, mp.make_mpf((sign, int(man, 16), exp, bc)))


def save_stieltjes(path: str) -> None:
    stored = {}
    for key, v in _STIELTJES.items():
        sign, man, exp, bc = v._mpf_
        stored[key] = [sign, hex(man), exp, bc]
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
    os.replace(path + ".tmp", path)


def _res(ref, bits):
    return abs(ref) * mpf(2) ** -(bits + 64)


def check_verify(ch: Checks, a: dict, out: dict, rows: list, *, printed=None):
    bits, K = a["bits"], a["K"]
    kind, kw = verify_kind(a)
    full, half, tf, th = zero_sum(rows, K, kind, **kw)
    with _wp(bits):
        extra = verify_extra(a)
        rhs, mag = verify_rhs(mp, a)
        rtol = _rel(bits, 16) * (mag + 1)
        res = _res(rhs, bits)
        if printed:
            res = abs(rhs) * mpf(10) ** (1 - printed)
            rtol += res
            tf += float(abs(extra + full)) * 10.0 ** (1 - printed)
        ch.close("rhs", out["rhs"], rhs, rtol, wp=True, res=res)
        ch.close("lhs", out["lhs"], extra + full, tf + abs(extra) * _rel(bits))
        if "pairs_half" in out:
            ch.true("pairs_half", out["pairs_half"] == max(1, K // 2))
            ch.close("residual_half", out["residual_half"], half + extra - rhs,
                     th + rtol + abs(extra) * _rel(bits) + (1e-14 if printed else 0))
    ch.true("terms", out["terms"] == K, f"terms {out['terms']} != K {K}")


def check_zero_sum(ch: Checks, kind: str, a: dict, out: dict, rows: list):
    """sum_inv_rho, sum_inv_rho_sq, lambda_direct: (value, tail)."""
    bits, K = a["bits"], a["K"]
    zkind, factor = {"sum_inv_rho": ("inv_rho", 1), "sum_inv_rho_sq": ("inv_rho_sq", 2),
                     "lambda_direct": ("lambda", a.get("n", 1) ** 2)}[kind]
    full, _, tf, _ = zero_sum(rows, K, zkind, n=a.get("n", 1))
    ch.close("value", out["value"], full, tf)
    with _wp(bits):
        tail = factor * density_tail(_num(mp, rows[K - 1][1]), 2)
        ch.close("tail", out["tail"], tail, _rel(bits) * abs(tail), wp=True,
                 res=_res(tail, bits))


def check_rh(ch: Checks, a: dict, out: dict, rows: list):
    bits, K = a["bits"], len(rows) if "rows" in a else a["K"]
    sq, _, tsq, _ = zero_sum(rows, K, "inv_rho_sq")
    inv, _, tinv, _ = zero_sum(rows, K, "inv_rho")
    ch.close("sum_inv_rho_sq", out["sum"], sq, tsq)
    ch.close("doubled_inv_rho", out["doubled_inv_rho"], 2 * inv, 2 * tinv)
    with _wp(bits):
        target = 2 + mpmath.euler - mpmath.log(4 * mpmath.pi)
        ch.close("target", out["target"], target, _rel(bits), wp=True,
                 res=_res(target, bits))
        tail = 2 * density_tail(_num(mp, rows[K - 1][1]), 2)
        ch.close("tail", out["tail"], tail, _rel(bits) * tail, wp=True,
                 res=_res(tail, bits))


_MP_MAX_X = 2000     # abscissas up to here also get a bits + 64 oracle


def check_closed_form(ch: Checks, kind: str, a: dict, out: dict):
    x = Fr(a["x"])
    fn = {"f_rhs_gt1": lambda C: f_gt1(C, x),
          "general_rhs_gt1": lambda C: general_gt1(C, x, [Fr(r) for r in a["roots"]]),
          "selberg_rhs_gt1": lambda C: selberg_gt1(C, x, Fr(a["alpha"]), Family(a["F"])),
          "selberg_rhs_lt1": lambda C: selberg_lt1(
              C, x, a["alpha"] if a["alpha"] == "zero" else Fr(a["alpha"]),
              Family(a["F"]))}[kind]
    v, mag = fn(fp)
    ch.close("value_f64", out["value"], v, 64 * EPS * (mag + abs(v) + 10))
    if max(x, 1 / x) <= _MP_MAX_X:
        with _wp(a["bits"]):
            v, mag = fn(mp)
            ch.close("value", out["value"], v, _rel(a["bits"], 16) * (mag + 1),
                     wp=True, res=_res(v, a["bits"]))


def _jumps(lo: Fr, hi: Fr, side: str) -> list:
    if side == "gt1":
        return [Fr(n) for n in range(max(2, math.ceil(lo)), math.floor(hi) + 1)
                if PRIMES.prime_of(n)]
    return sorted(Fr(1, n) for n in range(max(2, math.ceil(1 / hi)),
                                          math.floor(1 / lo) + 1)
                  if PRIMES.prime_of(n))


def check_find(ch: Checks, a: dict, records: list, side: str):
    """Independent scan on the package's default grid: the genuine
    sign-change count and jump crossings must match, and every genuine
    bracket must have width <= tol, hold no jump inside, and show a
    sign change (one-sided limits at jumps) at bits + 64."""
    lo, hi, tol = Fr(a["lo"]), Fr(a["hi"]), Fr(a["tol"])
    spacing = SPACING_GT1 if side == "gt1" else SPACING_LT1

    def f(x):
        return (f_gt1 if side == "gt1" else f_lt1)(mp, x)[0]

    with _wp(a["bits"]):
        jumps = _jumps(lo, hi, side)
        jset = set(jumps)
        lim = {}
        for j in jumps:
            at = f(j)
            n = j.numerator if side == "gt1" else j.denominator
            half = mpmath.log(PRIMES.prime_of(n)) / (2 if side == "gt1" else 2 * n)
            lim[j] = (at + half, at, at - half)

        def val(x, incoming):
            if x in jset:
                left, _, right = lim[x]
                return left if incoming else right
            return f(x)

        expected = 0
        bounds = [lo] + [j for j in jumps if lo < j < hi] + [hi]
        for ia, ib in zip(bounds, bounds[1:]):
            pts = [ia]
            k = 1
            while ia + k * spacing < ib:
                pts.append(ia + k * spacing)
                k += 1
            pts.append(ib)
            vals = [val(ia, False)] + [f(p) for p in pts[1:-1]] + [val(ib, True)]
            for i in range(len(pts) - 1):
                if vals[i] == 0 and lo < pts[i] < hi and pts[i] not in jset:
                    expected += 1
                elif vals[i] * vals[i + 1] < 0:
                    expected += 1
        want_jumps = sorted(j for j, (l, _, r) in lim.items() if j > lo and l * r < 0)
        genuine = [(Fr(r[1]), Fr(r[2])) for r in records if r[0] == "genuine-zero"]
        got_jumps = sorted(Fr(r[1]) for r in records if r[0] == "jump-crossing")
        ch.true("genuine_count", len(genuine) == expected,
                f"{len(genuine)} genuine records, oracle scan finds {expected}")
        ch.true("jumps", got_jumps == want_jumps, f"{got_jumps} != {want_jumps}")
        for ba, bb in genuine:
            ch.true("bracket_width", 0 <= bb - ba <= tol, f"[{ba}, {bb}]")
            ch.true("bracket_jump_free", not any(ba < j < bb for j in jumps))
            fa = val(ba, False) if ba in jset else f(ba)
            fb = val(bb, True) if bb in jset else f(bb)
            ch.true("bracket_sign", fa == 0 or fb == 0 or (fa < 0) != (fb < 0),
                    f"f({ba}) = {mpmath.nstr(fa, 5)}, f({bb}) = {mpmath.nstr(fb, 5)}")


def check_scan(ch: Checks, a: dict, out: dict):
    d, den = a["d"], a["denominator"]
    with _wp(a["bits"]):
        kmax = int(mpmath.floor(den / (mpmath.pi * mpmath.sqrt(d))))
    ch.true("evaluated", out["evaluated"] == kmax, f"{out['evaluated']} != {kmax}")
    scale = math.pi * math.sqrt(d)
    top = math.ceil(den / scale) + 2
    cum = [0.0] * (top + 1)
    for n in range(2, top + 1):
        p = PRIMES.prime_of(n)
        cum[n] = cum[n - 1] + (math.log(p) / n if p else 0.0)
    best_v, best_k, cand = math.inf, 0, 0
    vals = {}
    for k in range(1, kmax + 1):
        x = scale * k / den
        if not 0 < x < 1:
            continue
        v = abs(cum[math.floor(1 / x)] + math.log(x) + fp.euler
                - math.log((1 + x) / (1 - x)) / 2 + x)
        vals[k] = v
        if v < best_v:
            best_v, best_k = v, k
        cand += v < SCAN_THRESHOLD
    tol = 1e-11
    got = Fr(out["argmin"])
    got_k = got.numerator * den // got.denominator if den % got.denominator == 0 else -1
    ch.true("argmin", got_k == best_k or abs(vals.get(got_k, math.inf) - best_v) <= tol,
            f"argmin {got} vs {best_k}/{den}")
    ch.close("min_abs", out["min_abs"], best_v, tol)
    ch.true("candidates", out["candidates"] == cand, f"{out['candidates']} != {cand}")


def check_hurwitz(ch: Checks, a: dict, out: dict, deriv: bool):
    bits = a["bits"]
    with _wp(bits):
        s, q = _num(mp, Fr(a["s"])), _num(mp, Fr(a["a"]))
        ref = mpmath.zeta(s, q, 1) if deriv else mpmath.zeta(s, q)
        tol = mpf(out["bound"]) + _rel(bits, 24) * max(1, abs(ref))
        ch.close("value", out["value"], ref, tol, wp=True, res=_res(ref, bits))


def check_stieltjes(ch: Checks, a: dict, out: dict):
    bits = a["bits"]
    with _wp(bits):
        ref = stieltjes(a["n"], Fr(a["a"]))
        ch.close("value", out["value"], ref,
                 mpf(out["bound"]) + _rel(bits) * (1 + abs(ref)),
                 wp=True, res=_res(ref, bits))


def li_constants(N: int):
    """(gammas 0..N+1, etas 0..N, lambdas 1..N) at the current precision,
    the etas as coefficients of -B'/B for B(t) = t zeta(1 + t)."""
    g = [stieltjes(k, Fr(1)) for k in range(N + 2)]
    B = [mpf(1)] + [(-1) ** k * g[k] / math.factorial(k) for k in range(N + 1)]
    dB = [(k + 1) * B[k + 1] for k in range(N + 1)]
    q = []
    for k in range(N + 1):            # q = dB / B, B[0] = 1
        q.append(dB[k] - sum(q[i] * B[k - i] for i in range(k)))
    etas = [-c for c in q]
    lams = []
    for n in range(1, N + 1):
        acc = 1 - mpf(n) * (mpmath.euler + mpmath.log(4 * mpmath.pi)) / 2
        for j in range(2, n + 1):
            acc += (-1) ** j * math.comb(n, j) * (1 - mpf(2) ** -j) * mpmath.zeta(j)
        acc -= sum(math.comb(n, j) * etas[j - 1] for j in range(1, n + 1))
        lams.append(acc)
    return g, etas, lams


def check_table(ch: Checks, a: dict, out: dict):
    bits, N = a["bits"], a["N"]
    with _wp(bits):
        g, etas, lams = li_constants(N)
        bmax = max(mpf(b) for b in out["bounds"])
        for k, (v, b) in enumerate(zip(out["gammas"], out["bounds"])):
            ch.close(f"gamma_{k}", v, g[k], mpf(b) + _rel(bits) * (1 + abs(g[k])),
                     wp=True, res=_res(g[k], bits))
        etol = 1e3 * bmax + _rel(bits, 24)
        for k, v in enumerate(out["etas"]):
            ch.close(f"eta_{k}", v, etas[k], etol, wp=True, res=_res(etas[k], bits))
        ltol = 2 ** N * etol
        for n, v in enumerate(out["lambdas"], start=1):
            ch.close(f"lambda_{n}", v, lams[n - 1], ltol, wp=True,
                     res=_res(lams[n - 1], bits))
        ch.close("li_lambda_identity", out["lambda_N"], lams[N - 1], ltol)


def check_dirichlet(ch: Checks, a: dict, out: dict):
    bits, d = a["bits"], a["d"]
    chi, q = chi_table(d), conductor(d)
    with _wp(bits):
        s = _num(mp, Fr(a["s"]))
        L = mpmath.dirichlet(s, chi)
        qs = mpf(q) ** -s
        dL = -mpmath.log(q) * L + qs * mpmath.fsum(
            chi[k] * mpmath.zeta(s, mpf(k) / q, 1) for k in range(1, q) if chi[k])
        tol = _rel(bits, 24) * q
        ch.close("L", out["L"], L, tol * max(1, abs(L)), wp=True, res=_res(L, bits))
        ch.close("dL", out["dL"], dL, tol * max(1, abs(dL)), wp=True, res=_res(dL, bits))


def reduced_forms(D: int) -> int:
    """Class number h(-D) by enumerating reduced forms."""
    h = 0
    for a in range(1, math.isqrt(D // 3) + 2):
        for b in range(-a + 1, a + 1):
            if (b * b + D) % (4 * a):
                continue
            c = (b * b + D) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            h += 1
    return h


CHOWLA_REL = 1e-12   # method allowance for L(1), L'(1) by differences


def check_chowla(ch: Checks, d: int, bits: int, out: dict, printed=None):
    D = conductor(d)
    chi = chi_table(d)
    w = 6 if D == 3 else (4 if D == 4 else 2)
    h = reduced_forms(D)
    ch.true("D", out["D"] == D)
    ch.true("h", out["h"] == h, f"h {out['h']} != {h}")
    ch.true("w", out["w"] == w)
    with _wp(bits):
        L1 = -mpmath.fsum(chi[k] * mpmath.digamma(mpf(k) / D) for k in range(1, D)) / D
        G1 = mpmath.fsum(chi[k] * stieltjes(1, Fr(k, D)) for k in range(1, D) if chi[k])
        dL1 = -mpmath.log(D) * L1 - G1 / D
        lg = mpmath.fsum(chi[k] * mpmath.loggamma(mpf(k) / D) for k in range(1, D))
        rhs = 2 * mpmath.pi * mpmath.exp(-mpf(w) / (2 * h) * lg)
        lhs = mpmath.exp(dL1 / L1 - mpmath.euler)
        for name, ref, rel in (("rhs", rhs, _rel(bits, 16)), ("L_one", L1, CHOWLA_REL),
                               ("L_prime_one", dL1, CHOWLA_REL), ("lhs", lhs, CHOWLA_REL)):
            res = _res(ref, bits)
            if printed:
                res = abs(ref) * mpf(10) ** (1 - printed)
            ch.close(name, out[name], ref, abs(ref) * rel + res, wp=True, res=res)


def check_op(op: dict, out: dict, tables: dict) -> Checks:
    """Oracle checks of one warm-workload op."""
    ch = Checks()
    kind, a = op["kind"], op["args"]
    if kind == "verify":
        check_verify(ch, a, out, tables[a.get("table", "zeta")])
    elif kind in ("sum_inv_rho", "sum_inv_rho_sq", "lambda_direct"):
        check_zero_sum(ch, kind, a, out, tables["zeta"])
    elif kind == "rh_statistic":
        check_rh(ch, a, out, tables["zeta"])
    elif kind == "offline_csv":
        check_rh(ch, a, out, [(Fr(b), Fr(g)) for b, g in a["rows"]])
    elif kind in ("f_rhs_gt1", "general_rhs_gt1", "selberg_rhs_gt1", "selberg_rhs_lt1"):
        check_closed_form(ch, kind, a, out)
    elif kind in ("find_zeros_gt1", "find_zeros_lt1"):
        check_find(ch, a, out["records"], kind[-3:])
    elif kind == "hypothesis_scan":
        check_scan(ch, a, out)
    elif kind in ("hurwitz_zeta", "hurwitz_zeta_ds"):
        check_hurwitz(ch, a, out, kind.endswith("_ds"))
    elif kind == "stieltjes_shifted":
        check_stieltjes(ch, a, out)
    elif kind == "stieltjes_table":
        check_table(ch, a, out)
    elif kind == "dirichlet_L":
        check_dirichlet(ch, a, out)
    elif kind == "chowla_selberg":
        check_chowla(ch, a["d"], a["bits"], out)
    else:
        raise ValueError(f"no oracle for op kind {kind!r}")
    return ch


def load_tables(root: str) -> dict:
    data = os.path.join(root, "src", "zeta_explicit", "data")
    return {"zeta": read_table(os.path.join(root, "data", "zeros_10k.txt")),
            "chi-1": read_table(os.path.join(data, "dirichlet4_zeros_10.txt")),
            "fixture": read_table(os.path.join(data, "zeta_zeros_100.txt"))}


def _cli_opts(argv: list) -> dict:
    opts = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if "=" in key:
            key, value = key.split("=", 1)
            opts[key] = value
            i += 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


PRINTED = 25    # default --digits of the command line


def check_cli(argv: list, out: dict, tables: dict) -> Checks:
    """The warm-workload oracles applied to one --json payload, at the
    digits the command prints."""
    ch = Checks()
    sub, opts = argv[0], _cli_opts(argv)
    bits = int(opts.get("bits", 192))
    rows = tables["fixture"]
    ch.true("command", out.get("command") == sub)
    pr = mpf(10) ** (1 - PRINTED)
    if sub == "eval-f":
        x = Fr(opts["x"])
        with _wp(bits):
            v, mag = (f_gt1 if x > 1 else f_lt1)(mp, x)
            ch.close("value", out["value"], v, abs(v) * pr + _rel(bits, 16) * (mag + 1),
                     wp=True, res=abs(v) * pr)
    elif sub == "verify":
        a = {"identity": opts["identity"], "x": opts["x"], "K": int(opts["K"]),
             "bits": bits, "F": "zeta"}
        if "pf-roots" in opts:
            a["roots"] = opts["pf-roots"].split(",")
        if "alpha" in opts:
            a["alpha"] = opts["alpha"]
        o = {"lhs": out["lhs"], "rhs": out["rhs"], "terms": out["terms_used"]}
        if "trend" in out:
            o["pairs_half"] = out["trend"]["pairs_half"]
            o["residual_half"] = out["trend"]["residual_half"]
        check_verify(ch, a, o, rows, printed=30)
    elif sub == "find-zeros":
        a = {"lo": opts["lo"], "hi": opts["hi"],
             "tol": opts.get("tol", "1/1000000000000"), "bits": bits}
        recs = [[r["kind"], r["bracket"][0], r["bracket"][1]] for r in out["records"]]
        check_find(ch, a, recs, out["side"])
    elif sub == "li":
        n, K = int(opts["n"]), int(opts["K"])
        full, _, tf, _ = zero_sum(rows, K, "lambda", n=n)
        ch.close("lambda_direct", out["lambda_direct"], full, tf + abs(full) * 1e-24)
        with _wp(bits):
            _, _, lams = li_constants(max(n, 1))
            ref = lams[n - 1]
            ch.close("lambda_identity", out["lambda_identity"], ref,
                     abs(ref) * pr + mpf(10) ** -30, wp=True, res=abs(ref) * pr)
            tail = n * n * density_tail(_num(mp, rows[K - 1][1]), 2)
            ch.close("tail", out["tail"], tail, tail * 1e-9)
    elif sub == "stieltjes":
        with _wp(bits):
            ref = stieltjes(int(opts["n"]), Fr(1))
            ch.close("gamma_n", out["gamma_n"], ref,
                     abs(ref) * pr + 2 * mpf(out["bound"]), wp=True, res=abs(ref) * pr)
    elif sub == "rh-check":
        K = int(opts["K"])
        sq, _, tsq, _ = zero_sum(rows, K, "inv_rho_sq")
        ch.close("sum_inv_rho_sq", out["sum_inv_rho_sq"], sq, tsq + sq * 1e-19)
        with _wp(bits):
            target = 2 + mpmath.euler - mpmath.log(4 * mpmath.pi)
            ch.close("target", out["target"], target, abs(target) * mpf(10) ** -19,
                     wp=True, res=abs(target) * mpf(10) ** -19)
    elif sub == "chowla-selberg":
        check_chowla(ch, int(opts["d"]), bits, out, printed=PRINTED)
    elif sub == "sum":
        K = int(opts["K"])
        term = opts["term"]
        if term == "xrho-over-rho":
            full, _, tf, _ = zero_sum(rows, K, "xrho", x=Fr(opts["x"]), poles=[0],
                                      weights=[1])
        else:
            full, _, tf, _ = zero_sum(rows, K, term.replace("-", "_"))
        ch.close("value", out["value"], full, tf + abs(full) * 1e-24)
        if term != "xrho-over-rho":
            with _wp(bits):
                tail = (1 if term == "inv-rho" else 2) * density_tail(
                    _num(mp, rows[K - 1][1]), 2)
                ch.close("tail", out["tail"], tail, tail * 1e-9)
    else:
        raise ValueError(f"no oracle for subcommand {sub!r}")
    return ch

"""Seeded op lists for the four benchmark workloads.

Every op is a plain dict ``{"id", "kind", "args", "pairs"}``
whose arguments are JSON values (rationals as "p/q" strings), so the
same list can be written to disk, handed to a worker process, or
turned into command-line arguments.  Nothing here imports the package:
the program under test only ever sees the generated inputs.

A list is built from whole "decks".  A deck holds each op kind of the
workload a fixed number of times, in a seeded order, and a run holds a
number of decks fixed by its seconds, so every seed gets the same mix.
Sizes that dominate cost (pair counts, abscissas, bit sizes) come from
fixed grids and balanced bags (``_Draw``) that the seed only permutes,
so every seed's list costs about the same while its inputs differ.
``pairs`` is the number of zero pairs the op asks for (0 if none).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial

WORKLOADS = ("zero-sums", "prime-scan", "constants", "cli-cold")

# Milliseconds per deck, in host-speed-scaled time, at the seed commit
# (2-core Xeon, pure-Python mpmath backend), so that 12 s gives four
# decks (20 for prime-scan), which the bags of four divide evenly.
_DECK_MS = {"zero-sums": 2750.0, "prime-scan": 600.0,
            "constants": 3200.0, "cli-cold": 2900.0}

# Shared inputs: a few shifts, kernels and discriminants that ops reuse,
# as real use of one zero table and one precision setting would.
ALPHAS = ("1/2", "1/3", "-1/2", "3/2")
PF_GT1 = (("1/2",), ("1/3",), ("0", "1/2"), ("-1/2", "1/3"))
PF_LT1 = (("1/2",), ("1/3",), ("-1/2",), ("1/3", "3/2"))
CHI_D = (1, 2, 3, 7)            # chi_{-d}: conductors 4, 8, 3, 7
SHIFTS = ("1", "1/2", "1/3", "2/3", "1/4", "3/4", "2/7", "5/7")
SCAN_D = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23,
          26, 29, 30, 31)
IDENTITIES = ("von-mangoldt", "ingham", "cosine", "s",
              "general-gt1", "general-lt1", "selberg-gt1", "selberg-lt1")
GT1_IDS = ("von-mangoldt", "cosine", "s", "general-gt1", "selberg-gt1")
PRIME_SCAN_MAX_X = 300_000


def fstr(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class _Draw:
    """Seeded draws that give every seed the same amount of work.

    ``strat(key)`` walks a fixed grid of n midpoints (n = decks in the
    run) in a seeded order, so a size drawn once per deck takes every
    grid value exactly once per run; ``pick(key, options)`` draws from a
    seeded bag that holds each option once and refills when empty.  Free
    choices that barely change cost use ``choice``."""

    def __init__(self, rng: random.Random, n: int):
        self.rng = rng
        self.n = n
        self._grid: dict = {}
        self._bags: dict = {}

    def strat(self, key: str) -> float:
        order = self._grid.get(key)
        if not order:
            order = self._grid[key] = list(range(self.n))
            self.rng.shuffle(order)
        return (order.pop() + 0.5) / self.n

    def pick(self, key: str, options):
        bag = self._bags.get(key)
        if not bag:
            bag = self._bags[key] = list(options)
            self.rng.shuffle(bag)
        return bag.pop()

    def loguni(self, key: str, lo: float, hi: float) -> float:
        return lo * (hi / lo) ** self.strat(key)

    def choice(self, seq):
        return self.rng.choice(seq)

    def gt1(self, key: str, hi: float, dens=(1, 2, 3, 4, 5, 6)) -> Fraction:
        """Rational x > 1 with a small denominator, log-uniform up to hi."""
        q = self.choice(dens)
        v = self.loguni(key, 1.1, hi)
        p = max(q + 1, round(v * q))
        return Fraction(p, q)

    def lt1(self, dens=tuple(range(2, 13))) -> Fraction:
        q = self.choice(dens)
        return Fraction(self.rng.randint(1, q - 1), q)


def _slot(u: float, values: tuple):
    """The value of a fixed tuple at grid point u in (0, 1): ties a second
    size to a stratified one, so that costly pairs (negative s at 256
    bits, a dear kernel at a large K) occur equally often in every run
    instead of at the seed's whim."""
    return values[min(len(values) - 1, int(u * len(values)))]


# ----------------------------------------------------------------------
# zero-sums: verify_identity and zero sums on the 10^4-pair table
# ----------------------------------------------------------------------

def _zs_verify(d: _Draw, identity: str) -> dict:
    u = d.strat("K:" + identity)
    K = round(500 * 20 ** u)                  # log-uniform in [500, 10^4]
    x = d.gt1("x:" + identity, 40.0) if identity in GT1_IDS else d.lt1()
    args = {"identity": identity, "x": fstr(x), "K": K, "bits": 192}
    # Kernels and shifts are tied to K's grid point (see _slot).
    if identity == "general-gt1":
        args["roots"] = list(_slot(u, PF_GT1))
    elif identity == "general-lt1":
        args["roots"] = list(_slot(u, PF_LT1))
    elif identity == "selberg-gt1":
        args["F"], args["alpha"] = "zeta", _slot(u, ALPHAS)
    elif identity == "selberg-lt1":
        args["F"], args["alpha"] = "zeta", _slot(u, ("zero",) + ALPHAS[:3])
    return {"kind": "verify", "args": args, "pairs": K}


def _zs_sum(d: _Draw, kind: str) -> dict:
    K = round(d.loguni("K:" + kind, 500, 10_000))
    args = {"K": K, "bits": 192}
    if kind == "lambda_direct":
        args["n"] = d.pick("n:lambda", range(1, 9))
    return {"kind": kind, "args": args, "pairs": K}


def _zs_d4(d: _Draw) -> dict:
    """chi_{-4} descriptor on its shipped 10-pair table."""
    K = d.rng.randint(4, 10)
    if d.pick("side:d4", "gl") == "g":
        args = {"identity": "selberg-gt1", "x": fstr(d.gt1("x:d4", 40.0))}
    else:
        args = {"identity": "selberg-lt1", "x": fstr(d.lt1())}
    args.update({"K": K, "bits": 192, "F": "chi-1", "alpha": d.pick("alpha:d4", ALPHAS),
                 "table": "chi-1"})
    return {"kind": "verify", "args": args, "pairs": K}


def _zs_offline_csv(d: _Draw) -> dict:
    """A beta,gamma table with off-line rows, generated here: a
    known-defect probe (see ``defect_probes``).

    The README promises that an off-line row stands for rho and 1 - rho
    (and their conjugates); the oracle sums both, so this op keeps the
    reflection contract under test."""
    rows = []
    g = 5.0 + 5.0 * d.rng.random()
    n = d.rng.randint(12, 30)
    offline = set(d.rng.sample(range(n), d.rng.randint(1, 3)))
    for i in range(n):
        beta = d.choice(("0.55", "0.6", "0.65", "0.7", "0.75", "0.8")) \
            if i in offline else "0.5"
        rows.append([beta, f"{g:.6f}"])
        g += 1.0 + 5.0 * d.rng.random()
    return {"kind": "offline_csv", "args": {"rows": rows, "bits": 192},
            "pairs": n}


def _deck_zero_sums(d: _Draw) -> list:
    deck = [partial(_zs_verify, d, ident) for ident in IDENTITIES]
    deck += [partial(_zs_sum, d, k) for k in ("sum_inv_rho", "sum_inv_rho_sq",
                                               "rh_statistic", "lambda_direct")]
    return deck + [partial(_zs_d4, d)]


# ----------------------------------------------------------------------
# prime-scan: closed forms at large x, zero finding, the grid scan
# ----------------------------------------------------------------------

def _big_gt1(d: _Draw, key: str, hi: float) -> Fraction:
    n = int(d.loguni(key, 10, hi))
    if d.rng.random() < 0.25:
        return Fraction(n)            # integer: maybe a prime power branch
    q = d.choice((2, 3, 4, 5, 7, 8))
    return n + Fraction(d.rng.randint(1, q - 1), q)


def _ps_f_gt1(d: _Draw, slot: int) -> dict:
    x = _big_gt1(d, f"x:f{slot}", PRIME_SCAN_MAX_X)
    return {"kind": "f_rhs_gt1", "args": {"x": fstr(x), "bits": 192}, "pairs": 0}


def _ps_general(d: _Draw) -> dict:
    x = _big_gt1(d, "x:general", 100_000)
    roots = d.pick("pf:gt1", PF_GT1)
    return {"kind": "general_rhs_gt1",
            "args": {"x": fstr(x), "roots": list(roots), "bits": 192}, "pairs": 0}


def _ps_selberg_gt1(d: _Draw, F: str) -> dict:
    x = _big_gt1(d, "x:sgt1:" + F[:4], 30_000)
    return {"kind": "selberg_rhs_gt1",
            "args": {"x": fstr(x), "alpha": d.pick("alpha:sgt1", ALPHAS), "F": F,
                     "bits": 192}, "pairs": 0}


def _ps_selberg_lt1(d: _Draw, F: str) -> dict:
    inv = _big_gt1(d, "x:slt1:" + F[:4], 30_000)
    alphas = ALPHAS + ("zero",) if F == "zeta" else ALPHAS
    return {"kind": "selberg_rhs_lt1",
            "args": {"x": fstr(1 / inv), "alpha": d.pick("alpha:slt1:" + F[:4], alphas),
                     "F": F,
                     "bits": 192}, "pairs": 0}


def _ps_find_gt1(d: _Draw) -> dict:
    lo = Fraction(round(d.loguni("lo:fgt1", 1.06, 50.0) * 20), 20)
    hi = lo + Fraction(round(d.loguni("w:fgt1", 2.0, 12.0) * 8), 8)
    return {"kind": "find_zeros_gt1",
            "args": {"lo": fstr(lo), "hi": fstr(hi), "tol": "1/1000000000000",
                     "bits": 192}, "pairs": 0}


def _ps_find_lt1(d: _Draw) -> dict:
    lo = Fraction(1, round(d.loguni("lo:flt1", 3.0, 60.0)))
    hi = min(Fraction(19, 20), lo + Fraction(round(d.loguni("w:flt1", 0.1, 0.6) * 40), 40))
    return {"kind": "find_zeros_lt1",
            "args": {"lo": fstr(lo), "hi": fstr(hi), "tol": "1/1000000000000",
                     "bits": 192}, "pairs": 0}


def _ps_scan(d: _Draw) -> dict:
    dd = d.pick("d:scan", SCAN_D)
    den = round(d.loguni("evals:scan", 300, 3000) * math.pi * math.sqrt(dd))
    evals = den / (math.pi * math.sqrt(dd))
    return {"kind": "hypothesis_scan",
            "args": {"d": dd, "denominator": den, "bits": 192}, "pairs": 0}


def _deck_prime_scan(d: _Draw) -> list:
    chi = f"chi-{d.pick('chi', CHI_D)}"
    return [partial(_ps_f_gt1, d, 0), partial(_ps_f_gt1, d, 1), partial(_ps_general, d),
            partial(_ps_selberg_gt1, d, "zeta"), partial(_ps_selberg_gt1, d, chi),
            partial(_ps_selberg_lt1, d, "zeta"), partial(_ps_selberg_lt1, d, chi),
            partial(_ps_find_gt1, d), partial(_ps_find_lt1, d), partial(_ps_scan, d)]


# ----------------------------------------------------------------------
# constants: Hurwitz zeta, Stieltjes constants, L values, Chowla-Selberg
# ----------------------------------------------------------------------

def _const_s(d: _Draw, key: str) -> tuple:
    """(s, bits): rational s in [-2, 6] near a grid value (cost depends on
    s), s != 1 and not a non-positive integer (those are a known-defect
    probe, below), with bits tied to the grid value."""
    u = d.strat("s:" + key)
    v = -2 + 8 * u
    q = d.choice((2, 3, 4, 5, 6, 7))
    s = Fraction(round(v * q), q)
    if s == 1 or (s.denominator == 1 and s <= 0):
        s += Fraction(1, q)
    return s, _slot(u, (256, 192, 128, 192))


def _const_a(d: _Draw) -> Fraction:
    q = d.choice(range(1, 10))
    return Fraction(d.rng.randint(1, q), q)


def _c_hurwitz(d: _Draw, kind: str) -> dict:
    s, bits = _const_s(d, kind)
    return {"kind": kind, "args": {"s": fstr(s), "a": fstr(_const_a(d)), "bits": bits},
            "pairs": 0}


def _c_hurwitz_320(d: _Draw) -> dict:
    """A Hurwitz-only probe at 320 bits (s >= 4 keeps it near 0.5 s)."""
    return {"kind": "hurwitz_zeta",
            "args": {"s": d.pick("s:320", ("4", "9/2", "5", "6")),
                     "a": d.pick("a:320", SHIFTS), "bits": 320}, "pairs": 0}


def _c_hurwitz_nonpositive(d: _Draw) -> dict:
    """zeta(s, a) at s = 0, -1 or -2, inside the documented domain (real
    s != 1, a in (0, 1]): a known-defect probe (see ``defect_probes``).
    At the seed commit the shift-count search rejects every integer
    s <= 0, so this op fails there."""
    return {"kind": "hurwitz_zeta",
            "args": {"s": d.pick("s:nonpositive", ("0", "-1", "-2", "0")),
                     "a": fstr(_const_a(d)),
                     "bits": d.pick("bits:nonpositive", (128, 192))},
            "pairs": 0}


def _c_stieltjes(d: _Draw) -> dict:
    a, bits = d.pick("stj", [(a, b) for a in SHIFTS for b in (128, 256)])
    return {"kind": "stieltjes_shifted",
            "args": {"n": d.pick("n:stj", range(5)), "a": a, "bits": bits}, "pairs": 0}


def _c_table(d: _Draw) -> dict:
    u = d.strat("N:table")
    return {"kind": "stieltjes_table",
            "args": {"N": 1 + int(8 * u), "bits": _slot(u, (256, 192, 128, 192))},
            "pairs": 0}


# s for L(s, chi) by bits.  At 256 bits the cost depends on s (from 0.3
# to 1.9 s), so only s of about equal cost are drawn there.
_L_S = {256: ("1/2", "3/2", "5/2"), 192: ("4/3", "5/3", "2", "3"),
        128: ("4/3", "5/3", "2", "3")}


def _c_dirichlet(d: _Draw) -> dict:
    dd, bits = d.pick("L", ((1, 256), (3, 256), (7, 192), (2, 128)))
    s = d.choice(_L_S[bits])
    return {"kind": "dirichlet_L", "args": {"s": s, "d": dd, "bits": bits}, "pairs": 0}


def _c_chowla(d: _Draw) -> dict:
    dd, bits = d.pick("chowla", ((1, 128), (2, 128), (3, 192), (7, 128)))
    return {"kind": "chowla_selberg", "args": {"d": dd, "bits": bits}, "pairs": 0}


def _deck_constants(d: _Draw) -> list:
    # One zeta(s, a) op per deck (besides the two probes) keeps the median
    # op inside the cluster of Stieltjes ops, not at its edge.
    return ([partial(_c_hurwitz, d, "hurwitz_zeta")]
            + [partial(_c_hurwitz, d, "hurwitz_zeta_ds")] * 2
            + [partial(_c_stieltjes, d)] * 4
            + [partial(f, d) for f in (_c_table, _c_dirichlet, _c_chowla,
                                       _c_hurwitz_320)])


# ----------------------------------------------------------------------
# cli-cold: one fresh interpreter per op over the eight subcommands
# ----------------------------------------------------------------------

def _cli(argv: list, pairs: int = 0) -> dict:
    return {"kind": "cli", "args": {"argv": argv}, "pairs": pairs}


def _cli_bits(d: _Draw, key: str) -> list:
    return ["--bits", str(d.pick("bits:" + key, (128, 192)))]


def _cli_eval(d: _Draw) -> dict:
    x = d.gt1("x:eval", 1000.0, dens=(1, 2, 3, 5, 8)) \
        if d.pick("side:eval", "ggll") == "g" else d.lt1()
    return _cli(["eval-f", "--x", fstr(x)] + _cli_bits(d, "eval"))


def _cli_verify(d: _Draw) -> dict:
    ident = d.pick("identity", IDENTITIES)
    K = 10 + int(91 * d.strat("K:verify"))
    x = d.gt1("x:verify", 20.0) if ident in GT1_IDS else d.lt1()
    argv = ["verify", "--identity", ident, "--x", fstr(x), "--K", str(K)]
    # --opt=value, since values may start with "-"
    if ident == "general-gt1":
        argv.append("--pf-roots=" + ",".join(d.choice(PF_GT1)))
    elif ident == "general-lt1":
        argv.append("--pf-roots=" + ",".join(d.choice(PF_LT1)))
    elif ident == "selberg-gt1":
        argv.append("--alpha=" + d.choice(ALPHAS))
    elif ident == "selberg-lt1":
        argv.append("--alpha=" + d.choice(ALPHAS[:3]))
    return _cli(argv + _cli_bits(d, "verify"), K)


def _cli_find(d: _Draw) -> dict:
    if d.pick("side:find", "gl") == "g":
        lo = Fraction(round(d.loguni("lo:find", 1.06, 16.0) * 20), 20)
        hi = lo + Fraction(round(d.loguni("w:find", 1.0, 4.0) * 8), 8)
    else:
        lo = Fraction(1, d.rng.randint(3, 20))
        hi = min(Fraction(9, 10), lo + Fraction(d.rng.randint(2, 12), 40))
    return _cli(["find-zeros", "--lo", fstr(lo), "--hi", fstr(hi)]
                + _cli_bits(d, "find"))


def _cli_li(d: _Draw) -> dict:
    n = d.pick("n:li", (1, 2, 2, 3))
    K = 20 + int(81 * d.strat("K:li"))
    return _cli(["li", "--n", str(n), "--K", str(K)] + _cli_bits(d, "li"), K)


def _cli_stieltjes(d: _Draw) -> dict:
    n = d.pick("n:stieltjes", range(9))
    return _cli(["stieltjes", "--n", str(n)] + _cli_bits(d, "stieltjes"))


def _cli_rh(d: _Draw) -> dict:
    K = 10 + int(91 * d.strat("K:rh"))
    return _cli(["rh-check", "--K", str(K)] + _cli_bits(d, "rh"), K)


def _cli_chowla(d: _Draw) -> dict:
    dd, bits = d.pick("chowla", ((1, 128), (2, 128), (3, 128), (1, 192)))
    return _cli(["chowla-selberg", "--d", str(dd), "--no-scan", "--bits", str(bits)])


def _cli_sum(d: _Draw) -> dict:
    term = d.pick("term", ("inv-rho", "inv-rho-sq", "xrho-over-rho", "xrho-over-rho"))
    K = 10 + int(91 * d.strat("K:sum"))
    argv = ["sum", "--term", term, "--K", str(K)]
    if term == "xrho-over-rho":
        argv += ["--x", fstr(d.gt1("x:sum", 20.0) if d.rng.random() < 0.5 else d.lt1())]
    return _cli(argv + _cli_bits(d, "sum"), K)


def _deck_cli(d: _Draw) -> list:
    """The eight subcommands; verify twice, so a run of four decks
    covers every identity once, and stieltjes twice, so that the tail
    percentile falls among ops of one kind and cost."""
    return [partial(f, d) for f in (_cli_eval, _cli_verify, _cli_verify, _cli_find,
                                    _cli_li, _cli_stieltjes, _cli_stieltjes, _cli_rh,
                                    _cli_chowla, _cli_sum)]


_CONSTANT_KINDS = ("hurwitz_zeta", "hurwitz_zeta_ds", "stieltjes_shifted",
                   "stieltjes_table", "dirichlet_L", "chowla_selberg")

_DECKS = {"zero-sums": _deck_zero_sums, "prime-scan": _deck_prime_scan,
          "constants": _deck_constants, "cli-cold": _deck_cli}


def op_key(op: dict) -> str:
    """Canonical identity of an op: kind plus arguments."""
    args = op["args"]
    parts = [op["kind"]] + [f"{k}={args[k]}" for k in sorted(args)]
    return "|".join(str(p) for p in parts)


def _fill(deck_of, rng: random.Random, n_decks: int, seen: set) -> list:
    d = _Draw(rng, n_decks)
    ops: list = []
    for _ in range(n_decks):
        deck = deck_of(d)
        rng.shuffle(deck)
        for draw in deck:
            # An op equal to an earlier one is drawn again from the same
            # generator; after a few tries the slot is left empty.
            for _ in range(12):
                op = draw()
                if op_key(op) not in seen:
                    break
            else:
                continue
            seen.add(op_key(op))
            ops.append(op)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def _shrink(op: dict) -> dict:
    """The same op at a small size, for the warm-up."""
    a = dict(op["args"])
    if "K" in a:
        a["K"] = min(a["K"], 40)
    if a.get("bits", 0) > 128 and op["kind"] in _CONSTANT_KINDS:
        a["bits"] = 128
    if op["kind"] in ("f_rhs_gt1", "general_rhs_gt1", "selberg_rhs_gt1"):
        a["x"] = fstr(Fraction(a["x"]) % 200 + 2)
    elif op["kind"] == "selberg_rhs_lt1":
        a["x"] = fstr(1 / (1 / Fraction(a["x"]) % 200 + 2))
    elif op["kind"] in ("find_zeros_gt1", "find_zeros_lt1"):
        lo = Fraction(a["lo"])
        a["hi"] = fstr(lo + (Fraction(1, 2) if op["kind"] == "find_zeros_gt1"
                             else Fraction(1, 40)))
    elif op["kind"] == "hypothesis_scan":
        a["denominator"] = 400
    elif op["kind"] == "stieltjes_table":
        a["N"] = 1
    elif op["kind"] == "dirichlet_L":
        a["d"] = 3
    elif op["kind"] == "chowla_selberg":
        a["d"] = 5               # no timed op uses d = 5
    return dict(op, args=a)


def warmup_ops(workload: str, seed: int) -> list:
    """Short warm-up from a stream no timed list draws from: the first op
    of each kind (and identity) in one deck, shrunk to a small size.  The
    stream does not depend on the seed, so every run sets up the same way
    and setup_s varies only with the host; ``seed`` is kept so that a
    timed list can be checked against the warm-up of its own run.
    prime-scan also evaluates once at the largest abscissa, so the shared
    sieve is grown before timing, as it would be after any earlier large
    evaluation."""
    if workload == "cli-cold":
        return []
    rng = random.Random(f"perfbench/{workload}/warmup")
    ops, kinds = [], set()
    for op in _fill(_DECKS[workload], rng, 1, set()):
        kind = (op["kind"], op["args"].get("identity"))
        if kind not in kinds:
            kinds.add(kind)
            ops.append(_shrink(op))
    if workload == "prime-scan":
        ops.append({"kind": "f_rhs_gt1",
                    "args": {"x": f"{2 * PRIME_SCAN_MAX_X + 1}/2", "bits": 192}, "pairs": 0})
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def timed_ops(workload: str, seed: int, seconds: float) -> list:
    """The fixed op list of one run: a function of workload, seed and
    seconds only, with no op repeated and none equal to a warm-up op."""
    seen = {op_key(op) for op in warmup_ops(workload, seed)}
    rng = random.Random(f"perfbench/{workload}/timed/{seed}")
    n_decks = max(1, round(seconds * 1000.0 / _DECK_MS[workload]))
    return _fill(_DECKS[workload], rng, n_decks, seen)


# Known-defect probes: op kinds that fail at the seed commit because of a
# defect in the package, not in the benchmark.  They are kept out of the
# timed list, so that the workload itself has no failing op, and run after
# it, untimed, in every untraced run; their oracle outcome is printed and
# counted in ok_frac, so the defect stays visible until it is fixed.
N_PROBES = 4
_PROBES = {"zero-sums": _zs_offline_csv, "constants": _c_hurwitz_nonpositive}


def defect_probes(workload: str, seed: int) -> list:
    """The known-defect probes of one run (empty for most workloads), from
    a stream of their own."""
    if workload not in _PROBES:
        return []
    rng = random.Random(f"perfbench/{workload}/probes/{seed}")
    return _fill(lambda d: [partial(_PROBES[workload], d)], rng, N_PROBES, set())

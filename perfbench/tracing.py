"""Layer spans recorded from outside the package, and the per-layer
metrics derived from them.

``install`` wraps the public functions of the seven modules.  Modules
bind each other's functions by name (``from .explicit import
f_rhs_gt1``, ``psi0 as arith_psi0``) and call them through module
globals, so every binding of an original function in every module is
replaced, not only the defining one.  A span is
``(name, start, end, parent, op, attr)``: ``parent`` is the index of the
enclosing span (-1 at top level), ``op`` the op id or a phase name
("setup", "warmup"), and ``attr`` one number the metric needs (bits,
pairs, abscissa coverage).  Spans stay in memory until the worker ends.

The hottest boundary, ``arith.shared_table``, is counted rather than
spanned: calls, and calls that built a sieve.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from time import perf_counter

PACKAGE = "zeta_explicit"
MODULES = ("mpcore", "arith", "zeros", "explicit", "liconst", "analysis", "cli")

CLOSED_FORMS = ("f_rhs_gt1", "f_rhs_lt1", "cosine_rhs", "S_rhs_gt1",
                "general_rhs_gt1", "general_rhs_lt1", "selberg_rhs_gt1",
                "selberg_rhs_lt1")
SCANS = ("analysis.find_zeros_gt1", "analysis.find_zeros_lt1",
         "analysis.hypothesis_scan")

WRAPPED = {
    "mpcore": ("hurwitz_zeta", "hurwitz_zeta_ds", "zeta_int", "series_ops"),
    "liconst": ("stieltjes_shifted", "build_stieltjes_table"),
    "zeros": ("zero_sum", "cosine_sum", "load_zeros"),
    "arith": ("psi0", "psi0_alpha", "T_sum", "mangoldt_sieve"),
    "explicit": CLOSED_FORMS + ("verify_identity", "selberg_psi0", "selberg_T",
                                "f_u_closed", "dirichlet_L"),
    "analysis": ("find_zeros_gt1", "find_zeros_lt1", "hypothesis_scan",
                 "L_one_chi", "L_prime_one_chi"),
    "cli": ("main",),
}


def _bits(a, k):
    ctx = k.get("ctx", a[2] if len(a) > 2 else None)
    return getattr(ctx, "bits", 0)


def _floor_x(a, k, out):
    return math.floor(Fraction(a[0]))


def _floor_inv(a, k, out):
    return math.floor(1 / Fraction(a[0]))


_ATTR = {
    "mpcore.hurwitz_zeta": lambda a, k, out: _bits(a, k),
    "mpcore.hurwitz_zeta_ds": lambda a, k, out: _bits(a, k),
    "zeros.zero_sum": lambda a, k, out: out[1],
    "zeros.cosine_sum": lambda a, k, out: len(a[2].select(a[1])),
    "arith.psi0": _floor_x,
    "arith.psi0_alpha": _floor_x,
    "arith.T_sum": _floor_inv,
    "explicit.selberg_psi0": _floor_x,
    "explicit.selberg_T": _floor_inv,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = "setup"
        self.table_calls = 0
        self.table_builds = 0
        self._in_table = 0

    def wrap(self, name: str, fn):
        spans, stack, attr = self.spans, self.stack, _ATTR.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **k):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            if name == "arith.mangoldt_sieve" and tracer._in_table:
                tracer.table_builds += 1
            out = None
            t0 = perf_counter()
            try:
                out = fn(*a, **k)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                value = attr(a, k, out) if attr is not None and out is not None else 0
                spans[i] = (name, t0, t1, parent, tracer.op, value)
        return wrapper

    def count_table(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **k):
            tracer.table_calls += 1
            tracer._in_table += 1
            try:
                return fn(*a, **k)
            finally:
                tracer._in_table -= 1
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "table_calls": self.table_calls,
                "table_builds": self.table_builds}


def _rebind(mods, orig, new) -> int:
    n = 0
    for m in mods:
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, new)
                n += 1
    return n


def install(tracer: Tracer) -> int:
    """Wrap every listed function wherever the package binds it; returns
    the number of bindings replaced.  Raises if an original survives."""
    import importlib
    mods = [importlib.import_module(PACKAGE)]
    mods += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    originals = []
    n = 0
    for modname, names in WRAPPED.items():
        home = sys.modules[f"{PACKAGE}.{modname}"]
        for fname in names:
            orig = getattr(home, fname)
            originals.append(orig)
            n += _rebind(mods, orig, tracer.wrap(f"{modname}.{fname}", orig))
    arith = sys.modules[f"{PACKAGE}.arith"]
    orig = arith.shared_table
    originals.append(orig)
    n += _rebind(mods, orig, tracer.count_table(orig))
    for m in mods:
        for key, value in vars(m).items():
            if any(value is o for o in originals):
                raise RuntimeError(f"{m.__name__}.{key} still bound to the original")
    return n


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

# name -> (unit, better); the order is the order printed.
LAYER_METRICS = {
    "mpcore.hurwitz_zeta.calls": ("count", "lower"),
    "mpcore.hurwitz_zeta.self_s.b128": ("s", "lower"),
    "mpcore.hurwitz_zeta.self_s.b192": ("s", "lower"),
    "mpcore.hurwitz_zeta.self_s.b256": ("s", "lower"),
    "mpcore.hurwitz_zeta.self_s.b320": ("s", "lower"),
    "mpcore.hurwitz_zeta_ds.self_s": ("s", "lower"),
    "mpcore.zeta_int.self_s": ("s", "lower"),
    "mpcore.series_ops.self_s": ("s", "lower"),
    "liconst.stieltjes_shifted.calls": ("count", "lower"),
    "liconst.stieltjes_shifted.self_s": ("s", "lower"),
    "liconst.build_stieltjes_table.self_s": ("s", "lower"),
    "zeros.pairs": ("count", "lower"),
    "zeros.zero_sum.self_s": ("s", "lower"),
    "zeros.us_per_pair": ("us", "lower"),
    "zeros.pairs_per_requested": ("ratio", "lower"),
    "zeros.load_zeros.self_s": ("s", "lower"),
    "arith.prime_sums.calls": ("count", "lower"),
    "arith.prime_sums.self_s": ("s", "lower"),
    "arith.prime_sums.n_covered": ("count", "lower"),
    "arith.mangoldt_sieve.calls": ("count", "lower"),
    "arith.mangoldt_sieve.self_s": ("s", "lower"),
    "arith.shared_table.hit_ratio": ("ratio", "higher"),
    "explicit.closed_form.calls": ("count", "lower"),
    "explicit.closed_form.self_s": ("s", "lower"),
    "explicit.closed_form_per_verify": ("ratio", "lower"),
    "explicit.verify_identity.self_s": ("s", "lower"),
    "explicit.selberg_prime_sums.self_s": ("s", "lower"),
    "explicit.selberg_prime_sums.n_covered": ("count", "lower"),
    "explicit.f_u_closed.calls": ("count", "lower"),
    "explicit.f_u_closed.self_s": ("s", "lower"),
    "explicit.dirichlet_L.calls": ("count", "lower"),
    "explicit.dirichlet_L.self_s": ("s", "lower"),
    "analysis.f_evals": ("count", "lower"),
    "analysis.scan.self_s": ("s", "lower"),
    "analysis.L_one_chi.self_s": ("s", "lower"),
    "analysis.L_prime_one_chi.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.interpreter_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op, attr in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _has_ancestor(spans: list, i: int, names) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans: list, table_calls: int, table_builds: int,
                  requested_pairs: int) -> dict:
    """Per-layer values from the spans of timed ops and set-up (spans of
    the warm-up phase are left out).  cli.* and trace.* are filled in by
    the caller."""
    keep = [i for i, s in enumerate(spans) if s[4] != "warmup"]
    self_t = self_times(spans)
    calls: dict = {}
    selfs: dict = {}
    attrs: dict = {}
    for i in keep:
        name = spans[i][0]
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + self_t[i]
        attrs[name] = attrs.get(name, 0) + spans[i][5]

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def st(*names):
        return sum(selfs.get(n, 0.0) for n in names)

    def at(*names):
        return sum(attrs.get(n, 0) for n in names)

    hz_bits = {b: 0.0 for b in (128, 192, 256, 320)}
    cf_names = tuple(f"explicit.{f}" for f in CLOSED_FORMS)
    cf_in_verify = cf_in_scan = 0
    for i in keep:
        name = spans[i][0]
        if name == "mpcore.hurwitz_zeta" and spans[i][5] in hz_bits:
            hz_bits[spans[i][5]] += self_t[i]
        elif name in cf_names:
            if _has_ancestor(spans, i, ("explicit.verify_identity",)):
                cf_in_verify += 1
            if _has_ancestor(spans, i, SCANS):
                cf_in_scan += 1

    pairs = at("zeros.zero_sum", "zeros.cosine_sum")
    zs_self = st("zeros.zero_sum", "zeros.cosine_sum")
    prime = ("arith.psi0", "arith.psi0_alpha", "arith.T_sum")
    selberg = ("explicit.selberg_psi0", "explicit.selberg_T")
    verifies = c("explicit.verify_identity")
    out = {
        "mpcore.hurwitz_zeta.calls": c("mpcore.hurwitz_zeta"),
        "mpcore.hurwitz_zeta.self_s.b128": hz_bits[128],
        "mpcore.hurwitz_zeta.self_s.b192": hz_bits[192],
        "mpcore.hurwitz_zeta.self_s.b256": hz_bits[256],
        "mpcore.hurwitz_zeta.self_s.b320": hz_bits[320],
        "mpcore.hurwitz_zeta_ds.self_s": st("mpcore.hurwitz_zeta_ds"),
        "mpcore.zeta_int.self_s": st("mpcore.zeta_int"),
        "mpcore.series_ops.self_s": st("mpcore.series_ops"),
        "liconst.stieltjes_shifted.calls": c("liconst.stieltjes_shifted"),
        "liconst.stieltjes_shifted.self_s": st("liconst.stieltjes_shifted"),
        "liconst.build_stieltjes_table.self_s": st("liconst.build_stieltjes_table"),
        "zeros.pairs": pairs,
        "zeros.zero_sum.self_s": zs_self,
        "zeros.us_per_pair": 1e6 * zs_self / pairs if pairs else 0.0,
        "zeros.pairs_per_requested": pairs / requested_pairs if requested_pairs else 0.0,
        "zeros.load_zeros.self_s": st("zeros.load_zeros"),
        "arith.prime_sums.calls": c(*prime),
        "arith.prime_sums.self_s": st(*prime),
        "arith.prime_sums.n_covered": at(*prime),
        "arith.mangoldt_sieve.calls": c("arith.mangoldt_sieve"),
        "arith.mangoldt_sieve.self_s": st("arith.mangoldt_sieve"),
        "arith.shared_table.hit_ratio":
            (table_calls - table_builds) / table_calls if table_calls else 1.0,
        "explicit.closed_form.calls": c(*cf_names),
        "explicit.closed_form.self_s": st(*cf_names),
        "explicit.closed_form_per_verify": cf_in_verify / verifies if verifies else 0.0,
        "explicit.verify_identity.self_s": st("explicit.verify_identity"),
        "explicit.selberg_prime_sums.self_s": st(*selberg),
        "explicit.selberg_prime_sums.n_covered": at(*selberg),
        "explicit.f_u_closed.calls": c("explicit.f_u_closed"),
        "explicit.f_u_closed.self_s": st("explicit.f_u_closed"),
        "explicit.dirichlet_L.calls": c("explicit.dirichlet_L"),
        "explicit.dirichlet_L.self_s": st("explicit.dirichlet_L"),
        "analysis.f_evals": cf_in_scan,
        "analysis.scan.self_s": st(*SCANS),
        "analysis.L_one_chi.self_s": st("analysis.L_one_chi"),
        "analysis.L_prime_one_chi.self_s": st("analysis.L_prime_one_chi"),
        "cli.import_s": 0.0,
        "cli.main.self_s": st("cli.main"),
        "cli.interpreter_s": 0.0,
        "trace.overhead_frac": 0.0,
    }
    return out

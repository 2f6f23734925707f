"""Benchmark worker: one process, one thread, one closed-loop caller.

Run from the repository root with ``src`` on ``PYTHONPATH``:

    python perfbench/worker.py --workload zero-sums --ops OPS.json \\
        --out RESULT.json [--trace] [--setup-only]

It imports the package, loads what the workload shares (zero tables,
descriptors, character tables), runs the warm-up ops, then runs the
timed ops one after another and writes per-op times and every output
value (as decimal strings with all digits) to RESULT.json; times are
scaled to the reference host state (hostspeed.py), raw ones kept.  With
``--trace`` the layer wrappers are installed right after import and
the spans are written to RESULT.json's ``.spans`` sibling at the end.
With ``--setup-only`` it stops after the warm-up and reports only the
set-up time.  Without either flag, the known-defect probes of OPS.json
run after the timed ops, untimed, and their outputs are written too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction as Fr

T_START = time.perf_counter()

import mpmath  # noqa: E402

import hostspeed  # noqa: E402

# Host speed at the start of set-up; the probe's own time is not set-up.
_T_PROBE = time.perf_counter()
P_START = hostspeed.probe()
T_PROBE = time.perf_counter() - _T_PROBE

DIGITS = 110   # decimal digits written for every value (covers 320 bits)


def S(v) -> str:
    """All digits of an HReal/HComplex/mpf/mpc (real part of complexes)."""
    v = getattr(v, "val", v)
    if isinstance(v, mpmath.mpc):
        v = v.real
    return mpmath.nstr(v, DIGITS, min_fixed=-mpmath.inf, max_fixed=mpmath.inf) \
        if mpmath.isfinite(v) else str(v)


class Env:
    """What ops of one workload share, built once during set-up."""

    def __init__(self, workload: str):
        from zeta_explicit import arith, explicit, zeros
        from zeta_explicit.mpcore import PrecisionContext
        ctx = PrecisionContext(bits=192)
        self.tables = {}
        self.descriptors = {"zeta": explicit.descriptor_zeta()}
        self.chi = {}
        pkg_data = os.path.join(os.path.dirname(zeros.__file__), "data")
        if workload == "zero-sums":
            self.tables["zeta"] = zeros.load_zeros(
                os.path.join("data", "zeros_10k.txt"), "plain", label="zeta", ctx=ctx)
            self.tables["chi-1"] = zeros.load_zeros(
                os.path.join(pkg_data, "dirichlet4_zeros_10.txt"), "plain",
                label="dirichlet-4", ctx=ctx)
        for d in (1, 2, 3, 7):
            chi = arith.kronecker_chi(d)
            self.chi[d] = chi
            if workload in ("zero-sums", "prime-scan"):
                self.descriptors[f"chi-{d}"] = explicit.descriptor_dirichlet(
                    arith.discriminant_of(d), chi, ctx)


# ----------------------------------------------------------------------
# Op executors: each calls the package through module attributes (so a
# traced run sees every call) and returns the raw result; ``_out_*``
# turn results into JSON after the timed region.
# ----------------------------------------------------------------------

def _ctx(a):
    from zeta_explicit.mpcore import PrecisionContext
    return PrecisionContext(bits=a["bits"])


def _alpha(text):
    return "zero" if text == "zero" else Fr(text)


def run_verify(a, env):
    from zeta_explicit import explicit, zeros
    pf = explicit.partial_fractions([Fr(1)], [Fr(r) for r in a["roots"]]) \
        if "roots" in a else None
    return explicit.verify_identity(
        a["identity"], Fr(a["x"]), env.tables[a.get("table", "zeta")],
        zeros.SumSpec(K=a["K"]), _ctx(a), pf=pf,
        alpha=_alpha(a["alpha"]) if "alpha" in a else None,
        F=env.descriptors[a["F"]] if "F" in a else None)


def _out_verify(r):
    out = {"lhs": S(r.lhs), "rhs": S(r.rhs), "terms": r.terms_used}
    if r.trend is not None:
        out["pairs_half"] = r.trend["pairs_half"]
        out["residual_half"] = S(r.trend["residual_half"])
    return out


def _spec(a):
    from zeta_explicit import zeros
    return zeros.SumSpec(K=a["K"])


def run_sum_inv_rho(a, env):
    from zeta_explicit import zeros
    return zeros.sum_inv_rho(env.tables["zeta"], _spec(a), _ctx(a))


def run_sum_inv_rho_sq(a, env):
    from zeta_explicit import zeros
    return zeros.sum_inv_rho_sq(env.tables["zeta"], _spec(a), _ctx(a))


def run_lambda_direct(a, env):
    from zeta_explicit import liconst
    return liconst.lambda_direct(a["n"], env.tables["zeta"], _spec(a), _ctx(a))


def _out_pair(r):
    return {"value": S(r[0]), "tail": S(r[1])}


def run_rh_statistic(a, env):
    from zeta_explicit import liconst
    return liconst.rh_statistic(env.tables["zeta"], _spec(a), _ctx(a))


def _out_rh(r):
    return {"sum": S(r.sum_value), "tail": S(r.tail), "target": S(r.target),
            "doubled_inv_rho": S(r.doubled_inv_rho), "pairs": r.pairs}


def run_offline_csv(a, env):
    from zeta_explicit import liconst, zeros
    text = "beta,gamma\n" + "".join(f"{b},{g}\n" for b, g in a["rows"])
    ctx = _ctx(a)
    table = zeros.load_zeros(text, "csv", label="zeta", ctx=ctx)
    return liconst.rh_statistic(table, zeros.SumSpec(K=len(table)), ctx)


def run_f_rhs_gt1(a, env):
    from zeta_explicit import explicit
    return explicit.f_rhs_gt1(Fr(a["x"]), _ctx(a))


def run_general_rhs_gt1(a, env):
    from zeta_explicit import explicit
    pf = explicit.partial_fractions([Fr(1)], [Fr(r) for r in a["roots"]])
    return explicit.general_rhs_gt1(Fr(a["x"]), pf, _ctx(a))


def run_selberg_rhs_gt1(a, env):
    from zeta_explicit import explicit
    return explicit.selberg_rhs_gt1(Fr(a["x"]), Fr(a["alpha"]),
                                    env.descriptors[a["F"]], _ctx(a))


def run_selberg_rhs_lt1(a, env):
    from zeta_explicit import explicit
    return explicit.selberg_rhs_lt1(Fr(a["x"]), _alpha(a["alpha"]),
                                    env.descriptors[a["F"]], _ctx(a))


def _out_value(r):
    return {"value": S(r)}


def _run_find(a, finder):
    return finder(Fr(a["lo"]), Fr(a["hi"]), Fr(a["tol"]), _ctx(a))


def run_find_zeros_gt1(a, env):
    from zeta_explicit import analysis
    return _run_find(a, analysis.find_zeros_gt1)


def run_find_zeros_lt1(a, env):
    from zeta_explicit import analysis
    return _run_find(a, analysis.find_zeros_lt1)


def _out_find(records):
    return {"records": [[r.kind, str(r.bracket_lo), str(r.bracket_hi)]
                        for r in records]}


def run_hypothesis_scan(a, env):
    from zeta_explicit import analysis
    return analysis.hypothesis_scan(a["d"], _ctx(a), denominator=a["denominator"])


def _out_scan(r):
    return {"evaluated": r.evaluated, "min_abs": S(r.min_abs),
            "argmin": str(r.argmin), "candidates": len(r.candidates)}


def run_hurwitz_zeta(a, env):
    from zeta_explicit import mpcore
    return mpcore.hurwitz_zeta(Fr(a["s"]), Fr(a["a"]), _ctx(a))


def run_hurwitz_zeta_ds(a, env):
    from zeta_explicit import mpcore
    return mpcore.hurwitz_zeta_ds(Fr(a["s"]), Fr(a["a"]), _ctx(a))


def _out_bound(r):
    return {"value": S(r[0]), "bound": S(r[1])}


def run_stieltjes_shifted(a, env):
    from zeta_explicit import liconst
    return liconst.stieltjes_shifted(a["n"], Fr(a["a"]), _ctx(a))


def run_stieltjes_table(a, env):
    from zeta_explicit import liconst
    ctx = _ctx(a)
    table = liconst.build_stieltjes_table(a["N"], ctx)
    return table, liconst.li_lambda_identity(a["N"], table, ctx)


def _out_table(r):
    table, lam = r
    return {"gammas": [S(v) for v, _ in table.gammas],
            "bounds": [S(b) for _, b in table.gammas],
            "etas": [S(e) for e in table.etas],
            "lambdas": [S(v) for v in table.lambdas],
            "lambda_N": S(lam)}


def run_dirichlet_L(a, env):
    from zeta_explicit import explicit
    chi = env.chi[a["d"]]
    return explicit.dirichlet_L(Fr(a["s"]), len(chi), chi, _ctx(a))


def _out_dirichlet(r):
    return {"L": S(r[0]), "dL": S(r[1])}


def run_chowla_selberg(a, env):
    from zeta_explicit import analysis
    return analysis.chowla_selberg_check(a["d"], _ctx(a))


def _out_chowla(r):
    return {"D": r.D, "h": r.h, "w": r.w, "L_one": S(r.L_one),
            "L_prime_one": S(r.L_prime_one), "lhs": S(r.lhs), "rhs": S(r.rhs)}


KINDS = {
    "verify": (run_verify, _out_verify),
    "sum_inv_rho": (run_sum_inv_rho, _out_pair),
    "sum_inv_rho_sq": (run_sum_inv_rho_sq, _out_pair),
    "lambda_direct": (run_lambda_direct, _out_pair),
    "rh_statistic": (run_rh_statistic, _out_rh),
    "offline_csv": (run_offline_csv, _out_rh),
    "f_rhs_gt1": (run_f_rhs_gt1, _out_value),
    "general_rhs_gt1": (run_general_rhs_gt1, _out_value),
    "selberg_rhs_gt1": (run_selberg_rhs_gt1, _out_value),
    "selberg_rhs_lt1": (run_selberg_rhs_lt1, _out_value),
    "find_zeros_gt1": (run_find_zeros_gt1, _out_find),
    "find_zeros_lt1": (run_find_zeros_lt1, _out_find),
    "hypothesis_scan": (run_hypothesis_scan, _out_scan),
    "hurwitz_zeta": (run_hurwitz_zeta, _out_bound),
    "hurwitz_zeta_ds": (run_hurwitz_zeta_ds, _out_bound),
    "stieltjes_shifted": (run_stieltjes_shifted, _out_bound),
    "stieltjes_table": (run_stieltjes_table, _out_table),
    "dirichlet_L": (run_dirichlet_L, _out_dirichlet),
    "chowla_selberg": (run_chowla_selberg, _out_chowla),
}


def _run_ops(ops, env, tracer=None, probe=False):
    """Run ops in order; returns (results, raw_ms, scales, errors), with
    a host-speed probe between ops when ``probe`` is set."""
    results, times, scales, errors = [], [], [], []
    before = hostspeed.probe() if probe else 0.0
    for op in ops:
        run = KINDS[op["kind"]][0]
        if tracer is not None:
            tracer.op = op["id"]
        t0 = time.perf_counter()
        try:
            r = run(op["args"], env)
            err = None
        except Exception as exc:  # an op failure is data, not a crash
            r, err = None, f"{type(exc).__name__}: {exc}"
        times.append((time.perf_counter() - t0) * 1e3)
        if probe:
            after = hostspeed.probe()
            scales.append(hostspeed.scale(before, after))
            before = after
        results.append(r)
        errors.append(err)
    return results, times, scales, errors


def _records(ops, results, errors, times=None, scales=None) -> list:
    """Per-op JSON records: time, error and the output as decimal strings."""
    recs = []
    for i, (op, r, e) in enumerate(zip(ops, results, errors)):
        rec = {"id": op["id"], "error": e, "out": None}
        if times is not None:
            rec["ms"], rec["raw_ms"] = times[i] * scales[i], times[i]
        if e is None:
            try:
                rec["out"] = KINDS[op["kind"]][1](r)
            except Exception as exc:
                rec["error"] = f"unreadable result: {type(exc).__name__}: {exc}"
        recs.append(rec)
    return recs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--ops", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.ops, encoding="utf-8") as fh:
        spec = json.load(fh)

    import zeta_explicit  # noqa: F401  (import is part of set-up)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    env = Env(args.workload)
    if tracer:
        tracer.op = "warmup"
    _, _, _, warm_errors = _run_ops(spec["warmup"], env)
    setup_raw = time.perf_counter() - T_START - T_PROBE
    p = hostspeed.probe()
    out = {"setup_raw_s": setup_raw, "setup_s": setup_raw * hostspeed.scale(P_START, p),
           "warmup_errors": [e for e in warm_errors if e]}
    if not args.setup_only:
        ops = spec["ops"]
        results, times, scales, errors = _run_ops(ops, env, tracer, probe=True)
        out["wall_raw_s"] = sum(times) / 1e3
        out["ops"] = _records(ops, results, errors, times, scales)
        out["wall_s"] = sum(rec["ms"] for rec in out["ops"]) / 1e3
        if not tracer:
            probes = spec.get("probes", [])
            results, _, _, errors = _run_ops(probes, env)
            out["probes"] = _records(probes, results, errors)
    if tracer:
        with open(args.out + ".spans", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

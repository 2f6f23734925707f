"""Command-line surface: identity verification, zero finding, constants,
and zero-sum reports, in human, json, or csv form.

Conventions shared by every subcommand:

  * abscissas are exact rationals written p/q or as integer literals;
    decimal literals require --inexact, which converts them to dyadic
    rationals and nudges any value landing exactly on a prime power (or
    reciprocal prime power) off the discontinuity, recording a note
  * --zeros names a zero-ordinate file (format per the zeros module);
    the env var ZETA_EXPLICIT_ZEROS supplies a default path, and with
    neither set the embedded 100-ordinate table is used
  * --T/--K pick the truncation (at most one; default: every pair)
  * json output is a single object; identical invocations are
    byte-identical (zero sums accumulate exactly in integers)
  * exit status: 0 success, 1 domain error (bad abscissa, pole hit,
    disagreeing routes), 2 usage, I/O, or parse error
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import analysis, explicit, liconst
from .mpcore import PrecisionContext
from .zeros import (SumSpec, ZeroTable, fixture_table, load_zeros,
                    sum_inv_rho, sum_inv_rho_sq, sum_xrho_over_rho)

ENV_ZEROS = "ZETA_EXPLICIT_ZEROS"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


class _InputError(Exception):
    """Unreadable or unparsable input: exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Options shared by all subcommands, resolved from flags + env."""

    bits: int
    zeros_path: Optional[str]
    label: str
    T: Optional[float]
    K: Optional[int]
    fmt: str                  # human | json | csv
    inexact: bool
    digits: int


def _parse_rational(text: str, cfg: RunConfig,
                    notes: Optional[list] = None) -> Fraction:
    """p/q, integer, or (with --inexact) decimal literal.

    Inexact decimals that land exactly on an integer prime power or its
    reciprocal are nudged by 2^-96 so the half-weighted branch never
    fires on approximate input; the nudge is recorded in notes.
    """
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = Fraction(int(num), int(den))
        elif "." in text or "e" in text.lower():
            if not cfg.inexact:
                raise _InputError(
                    f"decimal literal {text!r} requires --inexact "
                    "(exact input is written p/q)")
            value = Fraction(text)
            from .arith import shared_table
            hit = None
            if value > 1 and value.denominator == 1:
                n = value.numerator
                if shared_table(n).is_prime_power(n):
                    hit = value
            elif 0 < value < 1 and value.numerator == 1:
                n = value.denominator
                if shared_table(n).is_prime_power(n):
                    hit = value
            if hit is not None:
                value += Fraction(1, 2 ** 96)
                if notes is not None:
                    notes.append(f"inexact input {text} nudged off the "
                                 f"prime-power discontinuity by 2^-96")
        else:
            value = Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"unparsable rational {text!r}: {exc}") from None
    return value


def _load_table(cfg: RunConfig, ctx: PrecisionContext) -> ZeroTable:
    path = cfg.zeros_path or os.environ.get(ENV_ZEROS)
    if not path:
        return fixture_table(ctx)
    if not os.path.exists(path):
        raise _InputError(f"zero file not found: {path}")
    try:
        fmt = "csv" if path.endswith(".csv") else "plain"
        return load_zeros(path, fmt, label=cfg.label, ctx=ctx)
    except ValueError as exc:
        raise _InputError(f"cannot parse zero file {path}: {exc}") from None


def _make_spec(cfg: RunConfig, table: ZeroTable) -> SumSpec:
    if cfg.T is not None and cfg.K is not None:
        raise _InputError("give at most one of --T and --K")
    if cfg.T is not None:
        return SumSpec(T=cfg.T)
    return SumSpec(K=cfg.K if cfg.K is not None else len(table.gammas))


def _parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "/" in piece:
            num, den = piece.split("/", 1)
            out.append(Fraction(int(num), int(den)))
        else:
            out.append(Fraction(int(piece)))
    return tuple(out)


def _resolve_descriptor(name: str, ctx: PrecisionContext):
    if name == "zeta":
        return explicit.descriptor_zeta()
    if not os.path.exists(name):
        raise _InputError(f"descriptor file not found: {name}")
    with open(name, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return explicit.load_descriptor(text, ctx)
    except ValueError as exc:
        raise _InputError(f"cannot parse descriptor {name}: {exc}") from None


# ----------------------------------------------------------------------
# Subcommand handlers: each returns the payload dict
# ----------------------------------------------------------------------

def _cmd_eval_f(args, cfg: RunConfig, ctx: PrecisionContext) -> dict:
    notes: list = []
    x = _parse_rational(args.x, cfg, notes)
    if x <= 0 or x == 1:
        raise ValueError(f"x must be positive and != 1, got {x}")
    if x > 1:
        value = explicit.f_rhs_gt1(x, ctx)
        side = "gt1"
    else:
        value = explicit.f_rhs_lt1(x, ctx)
        side = "lt1"
    payload = {"command": "eval-f", "x": str(x), "side": side,
               "value": value.str_digits(cfg.digits)}
    if notes:
        payload["notes"] = notes
    return payload


def _cmd_verify(args, cfg: RunConfig, ctx: PrecisionContext) -> dict:
    notes: list = []
    x = _parse_rational(args.x, cfg, notes)
    table = _load_table(cfg, ctx)
    spec = _make_spec(cfg, table)
    pf = None
    alpha = None
    F = None
    if args.identity in ("general-gt1", "general-lt1"):
        if not args.pf_roots:
            raise _InputError(f"{args.identity} requires --pf-roots")
        roots = _parse_fraction_list(args.pf_roots)
        numer = _parse_fraction_list(args.pf_num) if args.pf_num else (Fraction(1),)
        pf = explicit.partial_fractions(numer, roots)
    if args.identity in ("selberg-gt1", "selberg-lt1"):
        if args.alpha is None:
            raise _InputError(f"{args.identity} requires --alpha")
        alpha = _parse_rational(args.alpha, cfg, notes)
        F = _resolve_descriptor(args.descriptor, ctx)
    report = explicit.verify_identity(args.identity, x, table, spec, ctx,
                                      pf=pf, alpha=alpha, F=F)
    payload = {"command": "verify", **report.to_dict()}
    if notes:
        payload["notes"] = notes
    return payload


def _cmd_find_zeros(args, cfg: RunConfig, ctx: PrecisionContext) -> dict:
    notes: list = []
    lo = _parse_rational(args.lo, cfg, notes)
    hi = _parse_rational(args.hi, cfg, notes)
    tol = Fraction(args.tol) if "/" not in args.tol else _parse_rational(
        args.tol, cfg, notes)
    side = args.side
    if side == "auto":
        if lo > 1:
            side = "gt1"
        elif hi < 1:
            side = "lt1"
        else:
            raise ValueError(f"window [{lo}, {hi}] must lie on one side of 1")
    kwargs = {}
    if args.spacing:
        kwargs["spacing"] = _parse_rational(args.spacing, cfg, notes)
    finder = analysis.find_zeros_gt1 if side == "gt1" else analysis.find_zeros_lt1
    records = finder(lo, hi, tol, ctx, **kwargs)
    payload = {
        "command": "find-zeros",
        "side": side,
        "window": [str(lo), str(hi)],
        "tol": str(tol),
        "genuine": sum(1 for r in records if r.kind == analysis.GENUINE),
        "jumps": sum(1 for r in records if r.kind == analysis.JUMP),
        "records": [r.to_dict() for r in records],
    }
    if notes:
        payload["notes"] = notes
    return payload


def _cmd_li(args, cfg: RunConfig, ctx: PrecisionContext) -> dict:
    n = args.n
    table = _load_table(cfg, ctx)
    spec = _make_spec(cfg, table)
    consts = liconst.build_stieltjes_table(max(n, 1), ctx)
    ident = consts.lam(n)
    direct, tail = liconst.lambda_direct(n, table, spec, ctx)
    with ctx.workprec():
        corrected = direct.val + tail.val
        gap = abs(corrected - ident.val)
    return {
        "command": "li",
        "n": n,
        "pairs": len(spec.select(table)),
        "lambda_identity": ident.str_digits(cfg.digits),
        "lambda_direct": direct.str_digits(cfg.digits),
        "tail": tail.str_digits(10),
        "lambda_direct_corrected": ctx.real(corrected).str_digits(cfg.digits),
        "gap": ctx.real(gap).str_digits(6),
    }


def _cmd_stieltjes(args, cfg: RunConfig, ctx: PrecisionContext) -> dict:
    if args.table:
        consts = liconst.build_stieltjes_table(args.n, ctx, args.eps)
        return {"command": "stieltjes", **consts.to_dict()}
    value, bound = liconst.stieltjes(args.n, args.eps, ctx)
    return {"command": "stieltjes", "n": args.n,
            "gamma_n": value.str_digits(cfg.digits),
            "bound": bound.str_digits(5)}


def _cmd_rh_check(args, cfg: RunConfig, ctx: PrecisionContext) -> dict:
    table = _load_table(cfg, ctx)
    spec = _make_spec(cfg, table)
    report = liconst.rh_statistic(table, spec, ctx, tolerance=args.tolerance)
    return {"command": "rh-check", "zeros": table.source, **report.to_dict()}


def _cmd_chowla_selberg(args, cfg: RunConfig, ctx: PrecisionContext) -> dict:
    report = analysis.chowla_selberg_check(args.d, ctx)
    numbers = analysis.class_number_check(args.d, ctx)
    payload = {"command": "chowla-selberg", **report.to_dict(),
               "class_number": numbers.to_dict()}
    if args.scan:
        scan = analysis.hypothesis_scan(args.d, ctx,
                                        denominator=args.grid_denominator,
                                        threshold=args.threshold)
        payload["hypothesis_scan"] = scan.to_dict()
    return payload


def _cmd_sum(args, cfg: RunConfig, ctx: PrecisionContext) -> dict:
    table = _load_table(cfg, ctx)
    spec = _make_spec(cfg, table)
    payload = {"command": "sum", "term": args.term,
               "pairs": len(spec.select(table)), "zeros": table.source}
    if args.term in ("inv-rho", "inv-rho-sq"):
        named = sum_inv_rho if args.term == "inv-rho" else sum_inv_rho_sq
        value, tail = named(table, spec, ctx)
        payload["value"] = value.str_digits(cfg.digits)
        payload["tail"] = tail.str_digits(10)
        with ctx.workprec():
            payload["corrected"] = ctx.real(value.val + tail.val).str_digits(cfg.digits)
    else:  # xrho-over-rho
        notes: list = []
        if args.x is None:
            raise _InputError("--term xrho-over-rho requires --x")
        x = _parse_rational(args.x, cfg, notes)
        value = sum_xrho_over_rho(x, table, spec, ctx)
        payload["x"] = str(x)
        payload["value"] = value.str_digits(cfg.digits)
        if notes:
            payload["notes"] = notes
    return payload


_HANDLERS = {
    "eval-f": _cmd_eval_f,
    "verify": _cmd_verify,
    "find-zeros": _cmd_find_zeros,
    "li": _cmd_li,
    "stieltjes": _cmd_stieltjes,
    "rh-check": _cmd_rh_check,
    "chowla-selberg": _cmd_chowla_selberg,
    "sum": _cmd_sum,
}


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _flatten(value, prefix: str = "") -> list[tuple[str, str]]:
    if isinstance(value, dict):
        out = []
        for k, v in value.items():
            out.extend(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
        return out
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return [(prefix, ";".join(str(v) for v in value))]
        out = []
        for i, v in enumerate(value):
            out.extend(_flatten(v, f"{prefix}[{i}]"))
        return out
    return [(prefix, str(value))]


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"
    if fmt == "csv":
        records = payload.get("records")
        if isinstance(records, list) and records and isinstance(records[0], dict):
            shared = [(k, v) for k, v in payload.items() if k != "records"]
            rows = []
            header = None
            for rec in records:
                pairs = _flatten(dict(shared)) + _flatten(rec)
                if header is None:
                    header = [k for k, _ in pairs]
                rows.append([v for _, v in pairs])
            lines = [",".join(header)]
            lines += [",".join(row) for row in rows]
            return "\n".join(lines) + "\n"
        pairs = _flatten(payload)
        return (",".join(k for k, _ in pairs) + "\n"
                + ",".join(v for _, v in pairs) + "\n")
    # human
    pairs = _flatten(payload)
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in pairs)


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bits", type=int, default=192,
                        help="working precision in bits (default 192)")
    common.add_argument("--zeros", default=None, metavar="PATH",
                        help=f"zero-ordinate file (default ${ENV_ZEROS} "
                             "or the embedded fixture)")
    common.add_argument("--label", default="zeta",
                        help="label of the zero table (default zeta)")
    common.add_argument("--T", type=float, default=None,
                        help="height cutoff: pairs with gamma <= T")
    common.add_argument("--K", type=int, default=None,
                        help="pair count cutoff")
    common.add_argument("--json", dest="fmt", action="store_const",
                        const="json", help="emit one json object")
    common.add_argument("--csv", dest="fmt", action="store_const",
                        const="csv", help="emit csv")
    common.add_argument("--inexact", action="store_true",
                        help="accept decimal abscissas (dyadic conversion; "
                             "prime-power branches disabled by nudge)")
    common.add_argument("--digits", type=int, default=25,
                        help="decimal digits printed for values")

    parser = argparse.ArgumentParser(
        prog="zeta-explicit",
        description="explicit-formula identities, zero sums, and "
                    "special-constant checks at controlled precision")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-f", parents=[common],
                       help="evaluate the closed form of Sum x^rho/rho")
    p.add_argument("--x", required=True, help="abscissa (rational p/q)")

    p = sub.add_parser("verify", parents=[common],
                       help="zero sum against closed form for one identity")
    p.add_argument("--identity", required=True,
                   choices=list(explicit.IDENTITY_IDS))
    p.add_argument("--x", required=True, help="abscissa (rational p/q)")
    p.add_argument("--pf-num", default=None,
                   help="numerator coefficients c0,c1,... of A(t)")
    p.add_argument("--pf-roots", default=None,
                   help="simple roots of B(t), comma-separated rationals")
    p.add_argument("--alpha", default=None, help="shift for selberg-* forms")
    p.add_argument("--descriptor", default="zeta",
                   help="'zeta' or a descriptor file path")

    p = sub.add_parser("find-zeros", parents=[common],
                       help="bracket zeros of f between discontinuities")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.add_argument("--tol", default="1/1000000000000",
                   help="bracket width target (default 1e-12 as a rational)")
    p.add_argument("--side", choices=["auto", "gt1", "lt1"], default="auto")
    p.add_argument("--spacing", default=None,
                   help="sampling grid step (rational)")

    p = sub.add_parser("li", parents=[common],
                       help="lambda_n: identity route vs direct zero sum")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("stieltjes", parents=[common],
                       help="gamma_n with certified bound, or the full table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=None,
                   help="fail if the certified bound exceeds this")
    p.add_argument("--table", action="store_true",
                   help="emit the full table through order n")

    p = sub.add_parser("rh-check", parents=[common],
                       help="Sum 1/|rho|^2 + tail against 2 + gamma - log 4pi")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the within-tolerance allowance")

    p = sub.add_parser("chowla-selberg", parents=[common],
                       help="Gamma-product identity and class-number data")
    p.add_argument("--d", type=int, required=True,
                   help="squarefree d >= 1 (field Q(sqrt(-d)))")
    p.add_argument("--scan", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="rational-grid scan of f(pi sqrt(d) x) (default on)")
    p.add_argument("--grid-denominator", type=int, default=10_000)
    p.add_argument("--threshold", type=float, default=1e-6)

    p = sub.add_parser("sum", parents=[common],
                       help="raw zero sums with tailored tails")
    p.add_argument("--term", required=True,
                   choices=["inv-rho", "inv-rho-sq", "xrho-over-rho"])
    p.add_argument("--x", default=None, help="abscissa for xrho-over-rho")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return EXIT_IO if exc.code not in (0, None) else EXIT_OK

    cfg = RunConfig(bits=args.bits, zeros_path=args.zeros, label=args.label,
                    T=args.T, K=args.K, fmt=args.fmt or "human",
                    inexact=args.inexact, digits=args.digits)
    try:
        ctx = PrecisionContext(bits=cfg.bits)
        payload = _HANDLERS[args.command](args, cfg, ctx)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    sys.stdout.write(_render(payload, cfg.fmt))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: identity verification, zero finding, constants,
and zero-sum reports, in human, json, or csv form.

Each subcommand accepts only the options its handler reads (see
build_parser).  Conventions:

  * abscissas are exact rationals written p/q or as integer literals;
    decimal literals require --inexact, which reads them exactly and
    nudges an abscissa (--x, --lo, --hi) landing exactly on a prime power
    (or reciprocal prime power) off the discontinuity, recording a note;
    --alpha and --tol take decimals as they are; the --pf-num/--pf-roots
    lists are always exact; a value may start with '-' (--x -3/2 reads
    as --x=-3/2)
  * --zeros names a zero-ordinate file (format per the zeros module);
    the env var ZETA_EXPLICIT_ZEROS supplies a default path, and with
    neither set the embedded 100-ordinate table is used
  * a zero table must carry its function's label, which a file names in
    a "# label:" line (none: zeta), else the subcommand exits 1: zeta for
    li, rh-check, sum and every verify identity but selberg-*, whose
    --descriptor is zeta, or chi-d for L(s, chi_{-d}) with d squarefree
    (chi-1 is chi_{-4}, label dirichlet-4), which needs a file;
    --descriptor and --alpha are refused outside selberg-*, and
    --pf-num/--pf-roots outside general-*
  * --T/--K pick the truncation (at most one; default: every pair)
  * json output is a single object; identical invocations are
    byte-identical (zero sums accumulate exactly in integers)
  * exit status: 0 success, 1 domain error (bad abscissa, pole hit,
    disagreeing routes), 2 usage, I/O, or parse error
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .mpcore import HReal, PrecisionContext, _exact

ENV_ZEROS = "ZETA_EXPLICIT_ZEROS"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


class _InputError(Exception):
    """Unreadable or unparsable input: exit status 2."""


def _decimal(text: str) -> bool:
    return "/" not in text and ("." in text or "e" in text.lower())


def _parse_rational(text: str, inexact: bool) -> Fraction:
    """p/q, integer, or (with inexact) decimal literal, kept exactly."""
    text = text.strip()
    decimal = _decimal(text)
    if decimal and not inexact:
        raise _InputError(
            f"decimal literal {text!r} is not exact: write p/q "
            "(abscissas take decimals under --inexact)")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text) if decimal else Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"unparsable rational {text!r}: {exc}") from None


def _abscissa(args, name: str) -> Fraction:
    """The abscissa option --name.  A decimal that lands exactly on an
    integer prime power or its reciprocal is nudged by 2^-96 so the
    half-weighted branch never fires on approximate input; the nudge is
    recorded in args.notes, which main attaches to the payload."""
    text = getattr(args, name).strip()
    value = _parse_rational(text, args.inexact)
    # at value = n or 1/n the lookup, past the sieve budget, raises the
    # domain error an exact abscissa meets in the prime sum
    n = value.numerator * value.denominator
    if _decimal(text) and n > 1 and 1 in (value.numerator, value.denominator):
        from . import arith
        if arith.shared_table(n).prime_of(n):
            value += Fraction(1, 2 ** 96)
            args.notes.append(f"inexact input {text} nudged off the "
                              f"prime-power discontinuity by 2^-96")
    return value


def _selection(args, ctx: PrecisionContext, label: str) -> tuple:
    """The zero table of the function named label, refused when its file
    names another, and the SumSpec of the truncation --T/--K picks."""
    from . import zeros
    path = args.zeros or os.environ.get(ENV_ZEROS)
    if not path:
        if label != "zeta":
            raise _InputError(f"{label} zeros need a zero file, --zeros or "
                              f"${ENV_ZEROS}: the embedded table holds zeta zeros")
        table = zeros.fixture_table()
    elif not os.path.exists(path):
        raise _InputError(f"zero file not found: {path}")
    else:
        try:
            fmt = "csv" if path.endswith(".csv") else "plain"
            table = zeros.load_zeros(path, fmt, ctx=ctx)
        except ValueError as exc:
            raise _InputError(f"cannot parse zero file {path}: {exc}") from None
        if table.label != label:
            raise ValueError(f"table label {table.label!r} does not match "
                             f"descriptor {label!r}")
    if args.T is not None and args.K is not None:
        raise _InputError("give at most one of --T and --K")
    if args.T is not None:
        return table, zeros.SumSpec(T=args.T)
    return table, zeros.SumSpec(K=args.K if args.K is not None else len(table))


def _refuse_unread(args, mode: str, options: Sequence[str]) -> None:
    """Refuse each of options that the command line gave, as a usage error:
    mode does not read it ("inv-rho takes no --x")."""
    if given := [o for o in options if o in args.given]:
        raise _InputError(f"{mode} takes no {', '.join(given)}")


def _parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    """Comma-separated exact rationals (p/q or integers); empty pieces
    are skipped."""
    return tuple(_parse_rational(piece, False) for piece in text.split(",")
                 if piece.strip())


def _resolve_descriptor(name: str, ctx: PrecisionContext):
    """'zeta', or 'chi-d' for L(s, chi_{-d}), d >= 1 (chi-1 is chi_{-4});
    a d that is not squarefree is a domain error, as for chowla-selberg."""
    from . import arith, explicit
    if name == "zeta":
        return explicit.descriptor_zeta()
    match = re.fullmatch(r"chi-([1-9][0-9]*)", name)
    if match is None:
        raise _InputError(f"unknown descriptor {name!r}: give zeta or chi-d "
                          "with d a squarefree positive integer")
    d = int(match.group(1))
    return explicit.descriptor_dirichlet(arith.discriminant_of(d), arith.kronecker_chi(d), ctx)


# ----------------------------------------------------------------------
# Subcommand handlers: each returns the payload dict, the one place a
# result's values become text (keys, their order, digits per value).
# Each imports the modules it calls, so that a fresh process compiles
# only those (see README, start-up cost)
# ----------------------------------------------------------------------

def _cmd_eval_f(args, ctx: PrecisionContext) -> dict:
    from . import explicit
    x = _abscissa(args, "x")
    if x <= 0 or x == 1:
        raise ValueError(f"x must be positive and != 1, got {x}")
    if x > 1:
        value = explicit.f_rhs_gt1(x, ctx)
        side = "gt1"
    else:
        value = explicit.f_rhs_lt1(x, ctx)
        side = "lt1"
    return {"command": "eval-f", "x": str(x), "side": side,
            "value": value.str_digits(args.digits)}


def _cmd_verify(args, ctx: PrecisionContext) -> dict:
    from . import explicit
    if args.identity not in explicit.IDENTITY_IDS:
        raise _InputError(f"unknown identity {args.identity!r}: choose from "
                          f"{', '.join(explicit.IDENTITY_IDS)}")
    family = args.identity.split("-")[0]   # selberg, general or another
    _refuse_unread(args, args.identity, [f"--{name}" for name, owner in (
        ("descriptor", "selberg"), ("alpha", "selberg"),
        ("pf-num", "general"), ("pf-roots", "general")) if owner != family])
    x = _abscissa(args, "x")
    pf = alpha = F = None
    if family == "general":
        if not args.pf_roots:
            raise _InputError(f"{args.identity} requires --pf-roots")
        roots = _parse_fraction_list(args.pf_roots)
        numer = _parse_fraction_list(args.pf_num) if args.pf_num else (Fraction(1),)
        pf = explicit.partial_fractions(numer, roots)
    if family == "selberg":
        if args.alpha is None:
            raise _InputError(f"{args.identity} requires --alpha")
        alpha = _parse_rational(args.alpha, args.inexact)
        F = _resolve_descriptor(args.descriptor or "zeta", ctx)
    table, spec = _selection(args, ctx, F.label if F else "zeta")
    report = explicit.verify_identity(args.identity, x, table, spec, ctx,
                                      pf=pf, alpha=alpha, F=F)
    payload = {
        "command": "verify",
        "identity": report.identity,
        "x": str(report.x),
        "terms_used": report.terms_used,
        "lhs": report.lhs.str_digits(30),
        "rhs": report.rhs.str_digits(30),
        "residual": report.residual.str_digits(15),
        "precision_bits": report.bits,
    }
    if report.tail is not None:
        payload["tail_estimate"] = report.tail.str_digits(15)
    if report.trend is not None:
        payload["trend"] = {k: (v.str_digits(15) if isinstance(v, HReal) else v)
                            for k, v in report.trend.items()}
    return payload


def _cmd_find_zeros(args, ctx: PrecisionContext) -> dict:
    from . import analysis
    lo, hi = _abscissa(args, "lo"), _abscissa(args, "hi")
    tol = _parse_rational(args.tol, args.inexact)
    if lo > 1:
        side = "gt1"
    elif hi < 1:
        side = "lt1"
    else:
        raise ValueError(f"window [{lo}, {hi}] must lie on one side of 1")
    finder = analysis.find_zeros_gt1 if side == "gt1" else analysis.find_zeros_lt1
    records = finder(lo, hi, tol, ctx)
    return {
        "command": "find-zeros",
        "side": side,
        "window": [str(lo), str(hi)],
        "tol": str(tol),
        "genuine": sum(1 for r in records if r.kind == analysis.GENUINE),
        "jumps": sum(1 for r in records if r.kind == analysis.JUMP),
        "records": [{
            "kind": r.kind,
            "bracket": [str(r.bracket_lo), str(r.bracket_hi)],
            "root": r.root.str_digits(25),
            "residual": r.residual.str_digits(8),
        } for r in records],
    }


def _cmd_li(args, ctx: PrecisionContext) -> dict:
    from . import liconst
    n = args.n
    table, spec = _selection(args, ctx, "zeta")
    if n < 1:   # before the Stieltjes table, whose orders start at 1
        raise ValueError(f"lambda_n needs n >= 1, got {n}")
    consts = liconst.build_stieltjes_table(n, ctx)
    ident = consts.lam(n)
    direct, tail = liconst.lambda_direct(n, table, spec, ctx)
    corrected = _exact(direct) + _exact(tail)
    return {
        "command": "li",
        "n": n,
        "pairs": len(spec.select(table)),
        "lambda_identity": ident.str_digits(args.digits),
        "lambda_direct": direct.str_digits(args.digits),
        "tail": tail.str_digits(10),
        "lambda_direct_corrected": ctx.real(corrected).str_digits(args.digits),
        "gap": ctx.real(abs(corrected - _exact(ident))).str_digits(6),
    }


def _cmd_stieltjes(args, ctx: PrecisionContext) -> dict:
    from . import liconst
    eps = args.eps   # refused before any summation, then held against each bound
    if eps is not None and not 0 < eps < math.inf:
        raise ValueError(f"eps must be a finite number > 0, got eps = {eps!r}")
    if args.table:
        _refuse_unread(args, "--table", ["--digits"])
        consts = liconst.build_stieltjes_table(args.n, ctx)
        gammas = consts.gammas
        payload = {
            "command": "stieltjes",
            "order": consts.order,
            "gammas": [v.str_digits(30) for v, _ in consts.gammas],
            "gamma_bounds": [b.str_digits(5) for _, b in consts.gammas],
            "etas": [e.str_digits(30) for e in consts.etas],
            "lambdas": [l.str_digits(30) for l in consts.lambdas],
            "S1": [s.str_digits(30) for s in consts.S1],
            "S2": [s.str_digits(30) for s in consts.S2],
        }
    else:
        gammas = [liconst.stieltjes(args.n, ctx)]
        payload = {"command": "stieltjes", "n": args.n,
                   "gamma_n": gammas[0][0].str_digits(args.digits),
                   "bound": gammas[0][1].str_digits(5)}
    over = [b for _, b in gammas if eps is not None and _exact(b) > eps]
    if over:
        raise ArithmeticError(f"certified bound {over[0].str_digits(5)} exceeds target "
                              f"{eps}; raise the working precision")
    return payload


def _cmd_rh_check(args, ctx: PrecisionContext) -> dict:
    from . import liconst
    table, spec = _selection(args, ctx, "zeta")
    report = liconst.rh_statistic(table, spec, ctx, tolerance=args.tolerance)
    return {
        "command": "rh-check",
        "zeros": table.source,
        "pairs": report.pairs,
        "sum_inv_rho_sq": report.sum_value.str_digits(20),
        "tail": report.tail.str_digits(10),
        "corrected": report.corrected.str_digits(20),
        "target": report.target.str_digits(20),
        "discrepancy": report.discrepancy.str_digits(10),
        "within_tolerance": report.within_tolerance,
        "doubled_inv_rho": report.doubled_inv_rho.str_digits(20),
    }


def _cmd_chowla_selberg(args, ctx: PrecisionContext) -> dict:
    from . import analysis
    _refuse_unread(args, "--no-scan", [] if args.scan else ["--grid-denominator", "--threshold"])
    numbers = analysis.class_number_check(args.d)
    scan = args.scan and analysis.hypothesis_scan(
        args.d, ctx, denominator=args.grid_denominator, threshold=args.threshold)
    report = analysis.chowla_selberg_check(args.d, ctx)
    payload = {
        "command": "chowla-selberg",
        "d": report.d, "D": report.D, "h": report.h, "w": report.w,
        "L_one": report.L_one.str_digits(25),
        "L_prime_one": report.L_prime_one.str_digits(25),
        "L_prime_sign": "+" if report.L_prime_one.man > 0 else "-",
        "lhs": report.lhs.str_digits(25),
        "rhs": report.rhs.str_digits(25),
        "rel_err": report.rel_err.str_digits(6),
        "class_number": numbers._asdict(),
    }
    if scan:
        payload["hypothesis_scan"] = {
            "d": scan.d,
            "window": ["0", scan.window_hi.str_digits(15)],
            "grid_denominator": scan.denominator,
            "threshold": scan.threshold,
            "evaluated": scan.evaluated,
            "candidates": [[str(x), v.str_digits(6)] for x, v in scan.candidates],
            "min_abs_f": scan.min_abs.str_digits(10),
            "argmin": str(scan.argmin),
            "rational_zero_found": scan.found,
        }
    return payload


def _cmd_sum(args, ctx: PrecisionContext) -> dict:
    from . import zeros
    _refuse_unread(args, args.term, [] if args.term == "xrho-over-rho" else ["--x", "--inexact"])
    table, spec = _selection(args, ctx, "zeta")
    payload = {"command": "sum", "term": args.term,
               "pairs": len(spec.select(table)), "zeros": table.source}
    if args.term in ("inv-rho", "inv-rho-sq"):
        named = zeros.sum_inv_rho if args.term == "inv-rho" else zeros.sum_inv_rho_sq
        value, tail = named(table, spec, ctx)
        payload["value"] = value.str_digits(args.digits)
        payload["tail"] = tail.str_digits(10)
        payload["corrected"] = ctx.real(_exact(value) + _exact(tail)).str_digits(args.digits)
    else:  # xrho-over-rho
        if args.x is None:
            raise _InputError("--term xrho-over-rho requires --x")
        x = _abscissa(args, "x")
        if x <= 0 or x == 1:
            raise ValueError(f"x must be positive and != 1, got {x}")
        value, _ = zeros.zero_sum(table, spec, zeros.xrho_term(x, (0,), (1,)), ctx)
        payload["x"] = str(x)
        payload["value"] = value.str_digits(args.digits)
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
    if fmt == "csv":   # one row per record when there are records, else one row
        import csv
        import io
        records = payload.get("records")
        if isinstance(records, list) and records and isinstance(records[0], dict):
            shared = _flatten({k: v for k, v in payload.items() if k != "records"})
            rows = [shared + _flatten(rec) for rec in records]
        else:
            rows = [_flatten(payload)]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([k for k, _ in rows[0]])
        writer.writerows([v for _, v in row] for row in rows)
        return out.getvalue()
    # human
    pairs = _flatten(payload)
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in pairs)


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------

def _digits(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"--digits must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand takes --bits, --json and --csv; of the other
    shared options it takes exactly those its handler reads, each only
    under its full name."""
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--bits", type=int, default=192,
                      help="working precision in bits (default 192)")
    base.add_argument("--json", dest="fmt", action="store_const",
                      const="json", help="emit one json object")
    base.add_argument("--csv", dest="fmt", action="store_const",
                      const="csv", help="emit csv")
    zeros = argparse.ArgumentParser(add_help=False)
    zeros.add_argument("--zeros", default=None, metavar="PATH",
                       help=f"zero-ordinate file (default ${ENV_ZEROS} "
                            "or the embedded fixture)")
    zeros.add_argument("--T", type=float, default=None,
                       help="height cutoff: pairs with gamma <= T")
    zeros.add_argument("--K", type=int, default=None,
                       help="pair count cutoff")
    inexact = argparse.ArgumentParser(add_help=False)
    inexact.add_argument("--inexact", action="store_true",
                         help="accept decimal values (abscissas on a "
                              "prime-power branch are nudged off it)")
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--digits", type=_digits, default=25,
                        help="decimal digits printed for values")

    parser = argparse.ArgumentParser(
        prog="zeta-explicit", allow_abbrev=False,
        description="explicit-formula identities, zero sums, and "
                    "special-constant checks at controlled precision")
    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, allow_abbrev=False)

    p = add("eval-f", parents=[base, inexact, digits],
            help="evaluate the closed form of Sum x^rho/rho")
    p.add_argument("--x", required=True, help="abscissa (rational p/q)")

    p = add("verify", parents=[base, zeros, inexact],
            help="zero sum against closed form for one identity")
    p.add_argument("--identity", required=True,
                   help="identity to check (an unknown name lists all eight)")
    p.add_argument("--x", required=True, help="abscissa (rational p/q)")
    p.add_argument("--pf-num", default=None,
                   help="numerator coefficients c0,c1,... of A(t)")
    p.add_argument("--pf-roots", default=None,
                   help="simple roots of B(t), comma-separated rationals")
    p.add_argument("--alpha", default=None, help="shift for selberg-* forms")
    p.add_argument("--descriptor", default=None,
                   help="selberg-* only: zeta, or chi-d for L(s, chi_{-d}), "
                        "d squarefree (default zeta)")

    p = add("find-zeros", parents=[base, inexact],
            help="bracket zeros of f between discontinuities")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.add_argument("--tol", default="1/1000000000000",
                   help="bracket width target (default 1e-12 as a rational)")

    p = add("li", parents=[base, zeros, digits],
            help="lambda_n: identity route vs direct zero sum")
    p.add_argument("--n", type=int, required=True)

    p = add("stieltjes", parents=[base, digits],
            help="gamma_n with certified bound, or the full table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=None,
                   help="fail if the certified bound exceeds this")
    p.add_argument("--table", action="store_true",
                   help="emit the full table through order n")

    p = add("rh-check", parents=[base, zeros],
            help="Sum 1/|rho|^2 + tail against 2 + gamma - log 4pi")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the within-tolerance allowance")

    p = add("chowla-selberg", parents=[base],
            help="Gamma-product identity and class-number data")
    p.add_argument("--d", type=int, required=True,
                   help="squarefree d >= 1 (field Q(sqrt(-d)))")
    p.add_argument("--scan", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="rational-grid scan of f(pi sqrt(d) x) (default on)")
    p.add_argument("--grid-denominator", type=int, default=10_000)
    p.add_argument("--threshold", type=float, default=1e-6)

    p = add("sum", parents=[base, zeros, inexact, digits],
            help="raw zero sums with tailored tails")
    p.add_argument("--term", required=True,
                   choices=["inv-rho", "inv-rho-sq", "xrho-over-rho"])
    p.add_argument("--x", default=None, help="abscissa for xrho-over-rho")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # '--x -3/2' as '--x=-3/2', since argparse would read -3/2 as an option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1][:2] == "--" and "=" not in argv[i - 1] and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return EXIT_IO if exc.code not in (0, None) else EXIT_OK

    args.notes = []   # filled by _abscissa
    args.given = {a.split("=")[0] for a in argv if a.startswith("--")}   # read by _refuse_unread
    try:
        ctx = PrecisionContext(bits=args.bits)
        payload = _HANDLERS[args.command](args, ctx)
    except (_InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.notes:
        payload["notes"] = args.notes
    sys.stdout.write(_render(payload, args.fmt or "human"))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

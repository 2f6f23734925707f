"""Command-line interface: argument parsing, rational/decimal input
conventions, output formats, exit statuses, and determinism."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from zeta_explicit import analysis, arith, explicit, liconst, zeros
from zeta_explicit.cli import (ENV_ZEROS, EXIT_DOMAIN, EXIT_IO, EXIT_OK,
                               _resolve_descriptor, build_parser, main)
from zeta_explicit.mpcore import PrecisionContext


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_f_rational(capsys):
    code, out, _ = run(capsys, "eval-f", "--x", "3/2")
    assert code == EXIT_OK
    assert "-0.04398373395828597946" in out
    assert "gt1" in out


def test_eval_f_reciprocal_side(capsys):
    code, out, _ = run(capsys, "eval-f", "--x", "1/10")
    assert code == EXIT_OK
    assert "lt1" in out


def test_eval_f_rejects_one(capsys):
    code, _, err = run(capsys, "eval-f", "--x", "1")
    assert code == EXIT_DOMAIN
    assert "x must be" in err


def test_decimal_requires_inexact_flag(capsys):
    code, _, err = run(capsys, "eval-f", "--x", "1.5")
    assert code == EXIT_IO
    assert "--inexact" in err


def test_decimal_with_inexact_flag(capsys):
    code, out, _ = run(capsys, "eval-f", "--x", "1.5", "--inexact", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["x"] == "3/2"


def test_inexact_nudges_prime_power(capsys):
    # 2.0 sits on a jump; the inexact path lands next to it and says so.
    code, out, _ = run(capsys, "eval-f", "--x", "2.0", "--inexact", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert any("nudged" in note for note in payload["notes"])


def test_inexact_nudges_abscissas_only(capsys, monkeypatch):
    # --alpha 0.5 and --tol 0.5 sit on 1/2 as written: only --x, --lo and
    # --hi are abscissas; alpha = 1/2 + 2^-96 would set f_u a 2^97-term
    # root-of-unity sum
    seen = {}

    def capture(name):
        def stop(*a, **k):
            seen[name] = (a, k)
            raise ValueError("captured")
        return stop
    monkeypatch.setattr(explicit, "verify_identity", capture("verify"))
    monkeypatch.setattr(analysis, "find_zeros_gt1", capture("find"))
    code, _, _ = run(capsys, "verify", "--identity", "selberg-gt1", "--x", "5/2",
                     "--alpha", "0.5", "--inexact", "--K", "10")
    assert code == EXIT_DOMAIN
    assert seen["verify"][1]["alpha"] == Fraction(1, 2)
    code, _, _ = run(capsys, "find-zeros", "--lo", "2.0", "--hi", "3.0",
                     "--tol", "0.5", "--inexact")
    assert code == EXIT_DOMAIN
    lo, hi, tol, _ = seen["find"][0]
    assert (lo, hi, tol) == (2 + Fraction(1, 2 ** 96), 3 + Fraction(1, 2 ** 96),
                             Fraction(1, 2))


@pytest.mark.parametrize("x", ["1e11", "100000000000"])
def test_abscissa_past_sieve_budget_is_domain_error(capsys, x):
    # the inexact decimal and the exact integer meet the same refusal
    code, out, err = run(capsys, "eval-f", "--x", x, "--inexact")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == ("error: sieve limit 100000000000 exceeds memory budget "
                   f"{arith.MAX_SIEVE}\n")


@pytest.mark.parametrize("argv", [
    ["eval-f", "--x", "3/2"],
    ["li", "--n", "1", "--K", "3"],
    ["stieltjes", "--n", "1"],
    ["sum", "--term", "inv-rho", "--K", "3"],
])
@pytest.mark.parametrize("digits", ["0", "-3"])
def test_digits_below_one_is_usage_error(capsys, argv, digits):
    code, out, err = run(capsys, *argv, f"--digits={digits}")
    assert code == EXIT_IO
    assert out == ""
    assert f"--digits must be >= 1, got {digits}" in err


@pytest.mark.parametrize("argv,key", [
    (["eval-f", "--x", "3/2"], "value"),
    (["li", "--n", "1", "--K", "3"], "lambda_direct"),
    (["stieltjes", "--n", "1"], "gamma_n"),
    (["sum", "--term", "inv-rho", "--K", "3"], "value"),
])
def test_digits_sets_the_printed_digits(capsys, argv, key):
    code, out, _ = run(capsys, *argv, "--digits", "7", "--json")
    assert code == EXIT_OK
    assert _significant_digits(json.loads(out)[key]) == 7


def test_unknown_flag_is_usage_error(capsys):
    assert main(["eval-f", "--x", "3/2", "--frobnicate"]) == EXIT_IO
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_IO
    capsys.readouterr()


def test_missing_zeros_file(capsys, tmp_path):
    code, _, err = run(capsys, "sum", "--term", "inv-rho",
                       "--zeros", "/nonexistent/zeros.txt")
    assert code == EXIT_IO
    bad = tmp_path / "bad.txt"
    bad.write_text("14.13\nabc\n")
    code, out, err = run(capsys, "sum", "--term", "inv-rho", "--zeros", str(bad))
    assert (code, out) == (EXIT_IO, "")
    assert f"cannot parse zero file {bad}" in err


def test_sum_inv_rho_fixture(capsys):
    code, out, _ = run(capsys, "sum", "--term", "inv-rho", "--K", "1",
                       "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pairs"] == 1
    assert payload["value"].startswith("0.004998988833723139")
    assert "corrected" in payload


def test_sum_xrho_requires_x(capsys):
    code, _, err = run(capsys, "sum", "--term", "xrho-over-rho", "--K", "5")
    assert code == EXIT_IO
    assert "--x" in err


@pytest.mark.parametrize("x", ["1", "0", "-3/2"])
def test_sum_xrho_refuses_x_outside_domain(capsys, x):
    code, out, err = run(capsys, "sum", "--term", "xrho-over-rho", f"--x={x}",
                         "--K", "5")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "x must be positive and != 1" in err


@pytest.mark.parametrize("option,value,argv", [
    ("--x", "-3/2", ["eval-f"]),
    ("--alpha", "-1/2", ["verify", "--identity", "selberg-gt1", "--x", "4", "--K", "5"]),
    ("--pf-roots", "-1/2,1/3", ["verify", "--identity", "general-gt1", "--x", "4",
                                "--K", "5"]),
])
def test_signed_value_as_separate_argument(capsys, option, value, argv):
    # a value written after its option acts as the --option=value form
    separate = run(capsys, *argv, option, value, "--json")
    joined = run(capsys, *argv, f"{option}={value}", "--json")
    assert separate == joined
    assert separate[0] == (EXIT_DOMAIN if option == "--x" else EXIT_OK)


def test_sum_xrho_is_the_von_mangoldt_lhs(capsys):
    # the same truncated Sum x^rho/rho by two subcommands
    sums = []
    for argv in (["sum", "--term", "xrho-over-rho"],
                 ["verify", "--identity", "von-mangoldt"]):
        code, out, _ = run(capsys, *argv, "--x", "21/2", "--K", "20", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        sums.append(mpmath.mpf(payload.get("value") or payload["lhs"]))
    assert abs(sums[0] - sums[1]) < 1e-24


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "von-mangoldt",
                       "--x", "21/2", "--K", "50", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["identity"] == "von-mangoldt"
    assert payload["terms_used"] == 50
    assert "trend" in payload and "residual" in payload


def test_verify_selberg_lt1_rhs_right_in_its_last_printed_digit(capsys):
    # at alpha = 0 below 1 the descriptor form is f: T(x, 0) near 11 is one
    # integer and x enters at bits + 32, so the form rounds once, at its end,
    # and all 27 digits that 96 bits print are right (the value is ...553256.8)
    code, out, _ = run(capsys, "verify", "--identity", "selberg-lt1", "--x", "2/299999",
                       "--alpha", "0", "--K", "100", "--bits", "96", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["rhs"] == "0.000321231071462791053665553257"


def test_verify_s_reports_its_tail_estimate(capsys, fixture100):
    code, out, _ = run(capsys, "verify", "--identity", "s", "--x", "4",
                       "--K", "50", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    report = explicit.verify_identity("s", Fraction(4), fixture100, zeros.SumSpec(K=50),
                                      PrecisionContext(bits=192))
    assert "trend" not in payload
    assert payload["tail_estimate"] == report.tail.str_digits(15)
    assert float(payload["residual"]) <= float(payload["tail_estimate"])


@pytest.mark.parametrize("argv", [
    ["rh-check"], ["li", "--n", "2"], ["sum", "--term", "inv-rho"],
    ["sum", "--term", "inv-rho-sq"], ["verify", "--identity", "s", "--x", "4"]])
def test_every_tail_refuses_a_last_height_below_2pi(capsys, tmp_path, argv):
    # an unlabelled (zeta) table whose first ordinate is 6.0 < 2 pi
    table_path = tmp_path / "low.txt"
    table_path.write_text("6.0\n14.134725141734693\n")
    code, out, err = run(capsys, *argv, "--zeros", str(table_path), "--K", "1")
    assert code == EXIT_DOMAIN
    assert out == "" and "T > 2 pi" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "von-mangoldt", "--x", "4"],
    ["verify", "--identity", "general-gt1", "--x", "4", "--pf-roots", "1/2"],
    ["verify", "--identity", "s", "--x", "4"],
    ["li", "--n", "1"], ["rh-check"], ["sum", "--term", "inv-rho-sq"]])
def test_zeta_subcommands_refuse_a_zero_file_of_another_function(capsys, argv):
    # the chi_{-4} file says "# label: dirichlet-4": zeta's formulas refuse it
    table_path = Path(zeros.__file__).parent / "data" / "dirichlet4_zeros_10.txt"
    code, out, err = run(capsys, *argv, "--zeros", str(table_path), "--K", "10")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "does not match descriptor 'zeta'" in err


def test_malformed_label_line_is_refused(capsys, tmp_path):
    # read as a comment, this chi_{-4} file would be summed as zeta zeros
    table = Path(zeros.__file__).parent / "data" / "dirichlet4_zeros_10.txt"
    bad = tmp_path / "chi4.txt"
    bad.write_text(table.read_text().replace("# label: dirichlet-4", "# Label: dirichlet-4"))
    code, out, err = run(capsys, "rh-check", "--zeros", str(bad), "--K", "10")
    assert (code, out) == (EXIT_IO, "")
    assert "line 1: malformed label line '# Label: dirichlet-4'" in err


def test_verify_unknown_identity(capsys):
    code, out, err = run(capsys, "verify", "--identity", "nonsense", "--x", "4")
    assert (code, out) == (EXIT_IO, "")
    assert err == ("error: unknown identity 'nonsense': choose from "
                   "von-mangoldt, ingham, cosine, s, general-gt1, general-lt1, "
                   "selberg-gt1, selberg-lt1\n")


def test_verify_general_requires_pf(capsys):
    code, _, err = run(capsys, "verify", "--identity", "general-gt1",
                       "--x", "4", "--K", "10")
    assert code == EXIT_IO
    assert "pf-roots" in err
    code, _, err = run(capsys, "verify", "--identity", "selberg-gt1",
                       "--x", "4", "--K", "10")
    assert code == EXIT_IO
    assert "selberg-gt1 requires --alpha" in err


@pytest.mark.parametrize("roots", ["abc", "1/2,abc", "1/0", "0.5"])
def test_pf_roots_bad_piece_is_parse_error(capsys, roots):
    # Each list piece is an exact p/q or integer; a bad one is named.
    code, _, err = run(capsys, "verify", "--identity", "general-gt1",
                       "--x", "4", "--K", "10", "--inexact", "--pf-roots", roots)
    assert code == EXIT_IO
    assert repr(roots.split(",")[-1]) in err


def test_pf_num_bad_piece_is_parse_error(capsys):
    code, _, err = run(capsys, "verify", "--identity", "general-gt1",
                       "--x", "4", "--K", "10", "--pf-roots", "1/2",
                       "--pf-num", "1,x")
    assert code == EXIT_IO
    assert "'x'" in err


def test_find_zeros_csv(capsys):
    code, out, _ = run(capsys, "find-zeros", "--lo", "1.05", "--hi", "2",
                       "--inexact", "--tol", "1/1000000", "--csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["kind", "bracket_lo"] or "kind" in lines[0]
    assert sum("genuine-zero" in ln for ln in lines) == 2
    assert sum("jump-crossing" in ln for ln in lines) == 1


def test_csv_without_records_is_one_header_and_one_row(capsys):
    code, out, _ = run(capsys, "eval-f", "--x", "3/2", "--csv")
    assert code == EXIT_OK
    header, row = out.splitlines()
    assert header == "command,x,side,value"
    assert row.startswith("eval-f,3/2,gt1,-0.04398373395828597946")


def test_find_zeros_window_split_by_one(capsys):
    code, _, err = run(capsys, "find-zeros", "--lo", "1/2", "--hi", "2",
                       "--tol", "1/1000")
    assert code == EXIT_DOMAIN
    assert "side" in err


def test_find_zeros_unparsable_tol_is_parse_error(capsys):
    code, _, err = run(capsys, "find-zeros", "--lo", "21/20", "--hi", "2",
                       "--tol", "abc")
    assert code == EXIT_IO
    assert "abc" in err


def test_find_zeros_decimal_tol_requires_inexact(capsys):
    code, _, err = run(capsys, "find-zeros", "--lo", "21/20", "--hi", "2",
                       "--tol", "0.001")
    assert code == EXIT_IO
    assert "--inexact" in err


def test_find_zeros_precision_ladder(capsys):
    # Same records at every precision; genuine residuals fall with it.
    kinds, residuals = [], []
    for bits in ("64", "128", "256", "1024"):
        code, out, _ = run(capsys, "find-zeros", "--lo", "21/20", "--hi", "2",
                           "--bits", bits, "--json")
        assert code == EXIT_OK
        records = json.loads(out)["records"]
        kinds.append([r["kind"] for r in records])
        residuals.append([float(r["residual"]) for r in records
                          if r["kind"] == "genuine-zero"])
    assert kinds == [["genuine-zero", "genuine-zero", "jump-crossing"]] * 4
    for coarse, fine in zip(residuals, residuals[1:]):
        assert all(f < c for c, f in zip(coarse, fine))


@pytest.mark.parametrize("lo,hi", [("21/20", "200"), ("1/300", "19/20")])
def test_find_zeros_root_digits_match_precision(capsys, lo, hi):
    # A root prints no more digits than its context holds, and every
    # printed digit agrees with the 256-bit root rounded to that length.
    finder = analysis.find_zeros_gt1 if Fraction(lo) > 1 else analysis.find_zeros_lt1
    ref = finder(Fraction(lo), Fraction(hi), Fraction(1, 10 ** 12),
                 PrecisionContext(bits=256))
    for bits in ("64", "128"):
        code, out, _ = run(capsys, "find-zeros", "--lo", lo, "--hi", hi,
                           "--bits", bits, "--json")
        assert code == EXIT_OK
        records = json.loads(out)["records"]
        assert len(records) == len(ref)
        for rec, r in zip(records, ref):
            digits = len(rec["root"].replace(".", "").lstrip("0"))
            assert digits <= mpmath.libmp.prec_to_dps(int(bits))
            assert rec["root"] == mpmath.nstr(r.root.val, digits), (bits, rec)


def test_li_past_order_29(capsys):
    code, out, _ = run(capsys, "li", "--n", "40", "--K", "100", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 40


def _significant_digits(text: str) -> int:
    mantissa = text.split("e")[0].lstrip("-").replace(".", "")
    return len(mantissa.lstrip("0"))


def test_stieltjes_table_digits_match_precision(capsys):
    # Every printed entry at 64 bits agrees with the 256-bit table to
    # within one unit of its last printed digit.
    from zeta_explicit.liconst import build_stieltjes_table
    ref = build_stieltjes_table(3, PrecisionContext(256))
    code, out, _ = run(capsys, "stieltjes", "--n", "3", "--table",
                       "--bits", "64", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    columns = {"gammas": [v for v, _ in ref.gammas], "etas": ref.etas,
               "lambdas": ref.lambdas, "S1": ref.S1, "S2": ref.S2}
    for key, values in columns.items():
        assert len(payload[key]) == len(values)
        for text, r in zip(payload[key], values):
            n = _significant_digits(text)
            with mpmath.workprec(320):
                gap = abs(mpmath.mpf(text) - r.val)
                assert gap <= mpmath.mpf(10) ** (1 - n) * abs(r.val), (key, text)


@pytest.mark.parametrize("argv,name", [
    (["rh-check", "--K", "3"], "tolerance"),
    (["stieltjes", "--n", "1"], "eps"),
    (["stieltjes", "--n", "1", "--table"], "eps"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_tolerance_is_domain_error(capsys, argv, name, value):
    code, out, err = run(capsys, *argv, f"--{name}={value}")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert f"{name} = {float(value)!r}" in err


def test_zero_tolerance_is_accepted_and_zero_eps_refused(capsys):
    code, out, _ = run(capsys, "rh-check", "--K", "3", "--tolerance=0", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["within_tolerance"] is False
    code, _, err = run(capsys, "stieltjes", "--n", "1", "--eps=0")
    assert code == EXIT_DOMAIN
    assert "eps = 0.0" in err


def test_stieltjes_eps_contract(capsys):
    code, out, _ = run(capsys, "stieltjes", "--n", "2", "--eps", "1e-30", "--json")
    assert code == EXIT_OK
    assert float(json.loads(out)["bound"]) < 1e-30
    code, out, err = run(capsys, "stieltjes", "--n", "2", "--eps", "1e-80")
    assert code == EXIT_DOMAIN and out == ""
    assert "exceeds target" in err


def test_bound_past_two_to_the_3500_prints_without_mpmath(capsys, monkeypatch):
    # a bound of 2^-4000 prints in integers like every other value: with
    # any import of mpmath failing, the line is the one mpmath.nstr gave
    monkeypatch.setitem(sys.modules, "mpmath", None)
    code, out, _ = run(capsys, "stieltjes", "--n", "2", "--bits", "4000", "--json")
    assert code == EXIT_OK
    assert json.loads(out) == {"bound": "1.5319e-1204", "command": "stieltjes",
                               "gamma_n": "-0.009690363192872318484530386", "n": 2}


def _refuse(*args, **kwargs):
    raise AssertionError("summation ran before the input check")


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_bad_eps_refused_before_summation(capsys, monkeypatch, eps):
    monkeypatch.setattr(liconst, "em_log_moments", _refuse)
    for argv in (["--n", "1"], ["--n", "3", "--table"]):
        code, out, err = run(capsys, "stieltjes", *argv, f"--eps={eps!r}")
        assert code == EXIT_DOMAIN and out == ""
        assert f"eps = {eps!r}" in err


@pytest.mark.parametrize("argv", [["--n", "-1"], ["--n", "0", "--table"]])
def test_eps_is_checked_before_the_order(capsys, argv):
    # input bad in two ways reports the eps first; each alone is a domain error
    code, _, err = run(capsys, "stieltjes", *argv, "--eps=nan")
    assert code == EXIT_DOMAIN and "eps = nan" in err
    code, _, err = run(capsys, "stieltjes", *argv)
    assert code == EXIT_DOMAIN and "eps" not in err


@pytest.mark.parametrize("name", ["a,b.txt", 'a"b.txt'])
def test_csv_quotes_fields_that_hold_a_comma_or_quote(capsys, tmp_path, name):
    import csv
    path = tmp_path / name
    path.write_text("".join(f"{t}\n" for t in (14.134725141734694, 21.022039638771555,
                                                25.010857580145688, 30.424876125859513,
                                                32.935061587739189)))
    code, out, _ = run(capsys, "rh-check", "--zeros", str(path), "--K", "5", "--csv")
    assert code == EXIT_OK
    header, row = csv.reader(out.splitlines())
    assert len(header) == len(row) == 10
    assert dict(zip(header, row))["zeros"] == str(path)
    assert '"' + str(path).replace('"', '""') + '"' in out   # quoted as RFC 4180 asks


def test_descriptor_names_are_the_benchmark_names():
    # perfbench/worker.py builds chi-d as below; the CLI resolves the same name
    ctx = PrecisionContext(bits=192)
    assert _resolve_descriptor("zeta", ctx) == explicit.descriptor_zeta()
    for d in (1, 2, 3, 7):
        worker = explicit.descriptor_dirichlet(
            arith.discriminant_of(d), arith.kronecker_chi(d), ctx)
        assert _resolve_descriptor(f"chi-{d}", ctx) == worker
    assert _resolve_descriptor("chi-1", ctx).label == "dirichlet-4"


@pytest.mark.parametrize("identity,x", [("selberg-gt1", "4"), ("selberg-lt1", "1/10")])
def test_verify_chi_descriptor_matches_library(capsys, identity, x):
    table_path = Path(zeros.__file__).parent / "data" / "dirichlet4_zeros_10.txt"
    code, out, _ = run(capsys, "verify", "--identity", identity, "--x", x,
                       "--alpha", "1/2", "--descriptor", "chi-1",
                       "--zeros", str(table_path), "--K", "10", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    ctx = PrecisionContext(bits=192)
    table = zeros.load_zeros(str(table_path), "plain", label="dirichlet-4", ctx=ctx)
    F = explicit.descriptor_dirichlet(4, arith.kronecker_chi(1), ctx)
    report = explicit.verify_identity(identity, Fraction(x), table,
                                      zeros.SumSpec(K=10), ctx,
                                      alpha=Fraction(1, 2), F=F)
    for key, digits in (("lhs", 30), ("rhs", 30), ("residual", 15)):
        assert payload[key] == getattr(report, key).str_digits(digits), key


def test_verify_chi_descriptor_at_alpha_one_above_one(capsys):
    # chi_-4 has no pole (m_F = 0), so alpha = 1 above 1 is a value: the
    # shipped 10-row table gives a residual, as at alpha = 0 and 1/3
    table_path = Path(zeros.__file__).parent / "data" / "dirichlet4_zeros_10.txt"
    code, out, err = run(capsys, "verify", "--identity", "selberg-gt1", "--x", "7/2",
                         "--alpha", "1", "--descriptor", "chi-1",
                         "--zeros", str(table_path), "--json")
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    assert payload["terms_used"] == 10
    assert abs(float(payload["residual"])) < 0.05


@pytest.mark.parametrize("descriptor,table", [
    ("chi-1", "data/zeros_10k.txt"), ("zeta", "src/zeta_explicit/data/dirichlet4_zeros_10.txt")])
def test_verify_refuses_a_zero_file_of_another_function(capsys, monkeypatch,
                                                         descriptor, table):
    # the file's label line (none: zeta) must name the descriptor's function,
    # from the environment as from --zeros
    path = Path(__file__).parent.parent / table
    monkeypatch.setenv(ENV_ZEROS, str(path))
    argv = ("verify", "--identity", "selberg-gt1", "--x", "4", "--alpha", "1/2",
            "--descriptor", descriptor, "--K", "10")
    for extra in ((), ("--zeros", str(path))):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "does not match descriptor" in err


@pytest.mark.parametrize("name,status", [
    ("foo", EXIT_IO), ("chi-x", EXIT_IO), ("chi-", EXIT_IO), ("chi-0", EXIT_IO),
    (str(Path(__file__)), EXIT_IO), ("chi-4", EXIT_DOMAIN),
])
def test_bad_descriptor_name(capsys, name, status):
    code, out, err = run(capsys, "verify", "--identity", "selberg-gt1", "--x", "4",
                         "--alpha", "1/2", "--descriptor", name, "--K", "5")
    assert code == status
    assert out == ""
    assert (name in err) if status == EXIT_IO else "not squarefree" in err


def test_label_without_zero_file_is_usage_error(capsys, monkeypatch):
    # the table's label comes from the descriptor; the embedded table
    # holds zeta zeros, so chi-d needs a zero file
    monkeypatch.delenv(ENV_ZEROS, raising=False)
    code, out, err = run(capsys, "verify", "--identity", "selberg-gt1", "--x", "4",
                         "--alpha", "1/2", "--descriptor", "chi-1", "--K", "5")
    assert (code, out) == (EXIT_IO, "")
    assert "dirichlet-4" in err and "--zeros" in err and ENV_ZEROS in err
    assert "embedded table holds zeta zeros" in err


NOT_SELBERG = ("von-mangoldt", "ingham", "cosine", "s", "general-gt1", "general-lt1")
NOT_GENERAL = ("von-mangoldt", "ingham", "cosine", "s", "selberg-gt1", "selberg-lt1")


@pytest.mark.parametrize("identity,option", [
    *[(i, o) for i in NOT_SELBERG for o in ("--descriptor", "--alpha")],
    *[(i, o) for i in NOT_GENERAL for o in ("--pf-num", "--pf-roots")],
])
def test_verify_refuses_options_its_identity_ignores(capsys, identity, option):
    # what the identity needs, then one option it would ignore
    needs = {"general": ["--pf-roots=0,1/2"], "selberg": ["--alpha=1/2"]}
    x = "1/10" if identity.endswith("lt1") else "4"
    value = {"--descriptor": "zeta"}.get(option, "1/2")
    code, out, err = run(capsys, "verify", "--identity", identity, "--x", x,
                         "--K", "5", *needs.get(identity.split("-")[0], []),
                         f"{option}={value}")
    assert (code, out) == (EXIT_IO, "")
    assert f"{identity} takes no {option}" in err


def test_verify_names_every_ignored_option(capsys):
    code, out, err = run(capsys, "verify", "--identity", "von-mangoldt", "--x", "4",
                         "--descriptor", "foo", "--alpha", "7", "--pf-roots", "1/2",
                         "--K", "5")
    assert (code, out) == (EXIT_IO, "")
    assert "von-mangoldt takes no --descriptor, --alpha, --pf-roots" in err


@pytest.mark.parametrize("term", ["inv-rho", "inv-rho-sq"])
@pytest.mark.parametrize("option", [["--x", "4"], ["--inexact"]])
def test_sum_refuses_options_its_term_ignores(capsys, term, option):
    code, out, err = run(capsys, "sum", "--term", term, "--K", "5", *option)
    assert (code, out) == (EXIT_IO, "")
    assert f"{term} takes no {option[0]}" in err


@pytest.mark.parametrize("option", [["--grid-denominator", "200"], ["--threshold=0.05"]])
def test_chowla_selberg_no_scan_refuses_the_scan_options(capsys, option):
    code, out, err = run(capsys, "chowla-selberg", "--d", "7", "--no-scan", *option)
    assert (code, out) == (EXIT_IO, "")
    assert f"--no-scan takes no {option[0].split('=')[0]}" in err


def test_stieltjes_table_refuses_digits(capsys):
    code, out, err = run(capsys, "stieltjes", "--n", "3", "--table", "--digits", "10")
    assert (code, out) == (EXIT_IO, "")
    assert "--table takes no --digits" in err
    # the same options where their handler reads them
    for argv in (["sum", "--term", "xrho-over-rho", "--x", "4.5", "--inexact", "--K", "5"],
                 ["stieltjes", "--n", "3", "--digits", "10"]):
        assert run(capsys, *argv)[0] == EXIT_OK


def test_stieltjes_plan_over_budget_refused_at_once(capsys):
    # M (N+1) is about 2.7e6 > 2^20: a domain error before any summation.
    start = time.perf_counter()
    code, _, err = run(capsys, "stieltjes", "--n", "100", "--bits", "128")
    assert time.perf_counter() - start < 1
    assert code == EXIT_DOMAIN
    assert "2^20" in err or "1048576" in err


@pytest.mark.parametrize("n,bits", [("400", "64"), ("1024", "64"), ("1500", "192")])
def test_stieltjes_plan_past_the_integrand_peak_refused_at_once(capsys, n, bits):
    # At R = 1 + a < e the remainder integrand log^N(t) t^-c peaks past
    # log R; planned at log R these ran 1.7-24 s to a huge bound or a
    # float overflow.
    start = time.perf_counter()
    code, out, err = run(capsys, "stieltjes", "--n", n, "--bits", bits)
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "Euler-Maclaurin plan" in err and "1048576" in err


@pytest.mark.parametrize("n", ["0", "-1", "-2"])
def test_li_refuses_orders_below_one(capsys, monkeypatch, n):
    # refused for the n asked for, before a Stieltjes table is built
    def refuse(*args, **kwargs):
        raise AssertionError("build_stieltjes_table ran for n < 1")

    monkeypatch.setattr(liconst, "build_stieltjes_table", refuse)
    code, out, err = run(capsys, "li", f"--n={n}", "--K", "3")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"error: lambda_n needs n >= 1, got {n}\n"


def test_li_gap_report(capsys):
    code, out, _ = run(capsys, "li", "--n", "1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["n"] == 1
    assert payload["lambda_identity"].startswith("0.0230957089661210")
    assert float(payload["gap"]) < 1e-4


def test_stieltjes_single(capsys):
    code, out, _ = run(capsys, "stieltjes", "--n", "1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["gamma_n"].startswith("-0.07281584548367672486")
    assert float(payload["bound"]) < 1e-40


def test_rh_check_fields(capsys):
    code, out, _ = run(capsys, "rh-check", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["within_tolerance"] is True
    assert payload["pairs"] == 100


def test_chowla_selberg_with_scan(capsys):
    code, out, _ = run(capsys, "chowla-selberg", "--d", "1", "--json",
                       "--grid-denominator", "200")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert float(payload["rel_err"]) < 1e-6
    assert payload["class_number"]["match"] is True
    assert payload["hypothesis_scan"]["rational_zero_found"] is False


def test_scan_past_the_sieve_budget_is_domain_error(capsys, monkeypatch):
    # 1/X_1 = 10^9/pi exceeds MAX_SIEVE: refused before the piece walk
    # sieves, with the grid, the window and the budget named
    def refuse(*args, **kwargs):
        raise AssertionError("the scan walked before its grid check")

    monkeypatch.setattr(analysis, "_pieces", refuse)
    code, out, err = run(capsys, "chowla-selberg", "--d", "1", "--scan",
                         "--grid-denominator", "1000000000")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "grid denominator 1000000000" in err
    assert "window (0, 0.31830989)" in err
    assert f"MAX_SIEVE = {arith.MAX_SIEVE}" in err


def test_chowla_selberg_no_scan(capsys):
    code, out, _ = run(capsys, "chowla-selberg", "--d", "2", "--no-scan",
                       "--json")
    assert code == EXIT_OK
    assert "hypothesis_scan" not in json.loads(out)


def test_chowla_selberg_at_512_bits(capsys):
    code, out, _ = run(capsys, "chowla-selberg", "--d", "1", "--no-scan",
                       "--bits", "512", "--json")
    assert code == EXIT_OK
    assert float(json.loads(out)["rel_err"]) < 1e-100


def test_json_output_is_deterministic(capsys):
    args = ["eval-f", "--x", "11/10", "--json"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # well-formed
    assert first.endswith("\n")


def test_zeros_env_var(capsys, monkeypatch, tmp_path):
    path = tmp_path / "mini.txt"
    path.write_text("14.134725141734693\n21.022039638771554\n")
    monkeypatch.setenv("ZETA_EXPLICIT_ZEROS", str(path))
    code, out, _ = run(capsys, "sum", "--term", "inv-rho", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pairs"] == 2
    assert payload["zeros"] == str(path)


def test_zeros_flag_overrides_env(capsys, monkeypatch, tmp_path):
    bogus = tmp_path / "unused.txt"
    bogus.write_text("not a number\n")
    good = tmp_path / "good.csv"
    good.write_text("beta,gamma\n0.5,14.134725141734693\n")
    monkeypatch.setenv("ZETA_EXPLICIT_ZEROS", str(bogus))
    code, out, _ = run(capsys, "sum", "--term", "inv-rho",
                       "--zeros", str(good), "--json")
    assert code == EXIT_OK
    assert json.loads(out)["pairs"] == 1


def test_rh_check_offline_csv_adds_reflections(capsys, tmp_path):
    path = tmp_path / "offline.csv"
    path.write_text("beta,gamma\n0.75,7\n")
    code, out, _ = run(capsys, "rh-check", "--zeros", str(path), "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    # rho = 3/4 + 7i and its reflection 1/4 + 7i, each pair 2/|rho|^2.
    assert float(payload["sum_inv_rho_sq"]) == pytest.approx(
        2 / 49.5625 + 2 / 49.0625, rel=1e-15)
    assert float(payload["doubled_inv_rho"]) == pytest.approx(
        2 * (1.5 / 49.5625 + 0.5 / 49.0625), rel=1e-15)


# Options each subcommand accepts: --bits/--json/--csv, its own, and
# exactly the shared options its handler reads.
BASE_OPTIONS = {"--bits", "--json", "--csv"}
ZERO_OPTIONS = {"--zeros", "--T", "--K"}
OPTION_TABLE = {
    "eval-f": {"--x", "--inexact", "--digits"},
    "verify": {"--identity", "--x", "--pf-num", "--pf-roots", "--alpha",
               "--descriptor", "--inexact"} | ZERO_OPTIONS,
    "find-zeros": {"--lo", "--hi", "--tol", "--inexact"},
    "li": {"--n", "--digits"} | ZERO_OPTIONS,
    "stieltjes": {"--n", "--eps", "--table", "--digits"},
    "rh-check": {"--tolerance"} | ZERO_OPTIONS,
    "chowla-selberg": {"--d", "--scan", "--no-scan", "--grid-denominator",
                       "--threshold"},
    "sum": {"--term", "--x", "--inexact", "--digits"} | ZERO_OPTIONS,
}


def _subparsers():
    parser = build_parser()
    return parser._subparsers._group_actions[0].choices


def test_option_surface_matches_table():
    subs = _subparsers()
    assert set(subs) == set(OPTION_TABLE)
    for name, sub in subs.items():
        accepted = {opt for action in sub._actions for opt in action.option_strings
                    if opt not in ("-h", "--help")}
        assert accepted == BASE_OPTIONS | OPTION_TABLE[name], name


@pytest.mark.parametrize("argv", [
    ["find-zeros", "--lo", "21/20", "--hi", "2", "--K", "5"],
    ["find-zeros", "--lo", "21/20", "--hi", "2", "--zeros", "/nonexistent"],
    ["find-zeros", "--lo", "21/20", "--hi", "2", "--label", "foo"],
    ["stieltjes", "--n", "1", "--zeros", "X"],
    ["chowla-selberg", "--d", "1", "--inexact"],
    ["chowla-selberg", "--d", "1", "--digits", "10"],
    ["rh-check", "--digits", "10"],
    ["verify", "--identity", "von-mangoldt", "--x", "4", "--digits", "10"],
    ["li", "--n", "1", "--label", "zeta"],
    ["rh-check", "--label", "zeta"],
    ["sum", "--term", "inv-rho", "--label", "zeta"],
    ["verify", "--identity", "selberg-gt1", "--x", "4", "--alpha", "1/2",
     "--label", "zeta"],
])
def test_option_a_subcommand_ignores_is_usage_error(capsys, argv):
    assert main(argv) == EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["eval-f", "--x", "3/2", "--dig", "5"],
    ["sum", "--t", "inv-rho", "--K", "3"],
])
def test_option_prefix_is_usage_error(capsys, argv):
    # argparse would read --dig as --digits and --t as --term.
    assert main(argv) == EXIT_IO
    capsys.readouterr()


def test_every_parser_refuses_option_prefixes():
    assert not build_parser().allow_abbrev
    assert not any(sub.allow_abbrev for sub in _subparsers().values())


@pytest.mark.parametrize("command", [["li", "--n", "1"], ["rh-check"],
                                     ["sum", "--term", "inv-rho"]])
def test_height_and_count_cutoffs_together_are_usage_error(capsys, command):
    code, out, err = run(capsys, *command, "--T", "50", "--K", "5")
    assert (code, out) == (EXIT_IO, "")
    assert "at most one of --T and --K" in err


@pytest.mark.parametrize("T", ["nan", "inf", "-inf"])
def test_non_finite_height_cutoff_is_domain_error(capsys, T):
    code, _, err = run(capsys, "rh-check", f"--T={T}")
    assert code == EXIT_DOMAIN
    assert "T = " in err


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_benchmark_cli_argv_parse():
    if not WORKLOADS.exists():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    parser = build_parser()
    commands = set()
    for seed in range(4):
        for op in workloads.timed_ops("cli-cold", seed, 60):
            parser.parse_args(op["args"]["argv"])
            commands.add(op["args"]["argv"][0])
    assert commands == set(OPTION_TABLE)


@pytest.mark.parametrize("option,value", [
    ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-1e-6"),
    ("--threshold", "0"), ("--grid-denominator", "1"),
])
def test_bad_scan_input_is_domain_error(capsys, monkeypatch, option, value):
    # refused before the Chowla-Selberg check spends any time
    def refuse(*args, **kwargs):
        raise AssertionError("chowla_selberg_check ran before the scan input check")

    monkeypatch.setattr(analysis, "chowla_selberg_check", refuse)
    code, out, err = run(capsys, "chowla-selberg", "--d", "1", "--json",
                         f"{option}={value}")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert option.lstrip("-").replace("grid-", "grid ") in err


# the package modules a fresh process loads, besides cli and mpcore: the
# package re-exports nothing and each handler imports what it calls
COLD_ROWS = {
    "import": (None, set()),
    "li": ("li --n 2 --K 5", {"liconst", "zeros"}),
    "stieltjes": ("stieltjes --n 2", {"liconst"}),
    "rh-check": ("rh-check --K 5", {"liconst", "zeros"}),
    "sum": ("sum --term inv-rho --K 5", {"zeros"}),
    "eval-f": ("eval-f --x 3/2", {"arith", "explicit"}),
    "verify": ("verify --identity von-mangoldt --x 21/2 --K 5",
               {"arith", "zeros", "explicit"}),
    "find-zeros": ("find-zeros --lo 21/20 --hi 2",
                   {"arith", "explicit", "analysis"}),
    "stieltjes-table": ("stieltjes --n 2 --table", {"liconst"}),
    "sum-xrho": ("sum --term xrho-over-rho --x 21/2 --K 5", {"zeros"}),
    # dirichlet_L and the Euler-Maclaurin head's exp (s = 1/3, v = 3), f_u,
    # x^alpha and x^beta, and the square roots of cosine and s
    "verify-selberg-gt1": ("verify --identity selberg-gt1 --x 9/2 --alpha 1/3 --K 5",
                           {"arith", "zeros", "explicit"}),
    "verify-general-lt1": ("verify --identity general-lt1 --x 2/5 --pf-roots 1/3 --K 5",
                           {"arith", "zeros", "explicit"}),
    "verify-cosine": ("verify --identity cosine --x 5/2 --K 5", {"arith", "zeros", "explicit"}),
    "verify-s": ("verify --identity s --x 7/2 --K 5", {"arith", "zeros", "explicit"}),
    "chowla-selberg": ("chowla-selberg --d 7 --no-scan",
                       {"arith", "explicit", "analysis"}),
    # the Gamma product and the grid scan's pi sqrt(d), window and count
    "chowla-selberg-scan": ("chowla-selberg --d 7", {"arith", "explicit", "analysis"}),
}


@pytest.mark.parametrize("row", COLD_ROWS)
def test_cold_import_leaves_dataclasses_and_inspect_out(row):
    # a fresh command-line process compiles only the modules its subcommand
    # calls, and, the records being slotted classes and NamedTuples, never
    # imports dataclasses or what it pulls in, and no row imports mpmath:
    # every subcommand runs in integers to its printed digits
    argv, extra = COLD_ROWS[row]
    code = ("import sys, zeta_explicit.cli as cli\n"
            "if sys.argv[1:]:\n"
            "    assert cli.main(sys.argv[1:] + ['--json']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('zeta_explicit')"
            " or m in ('dataclasses', 'inspect', 'mpmath')))")
    env = {k: v for k, v in os.environ.items() if k != ENV_ZEROS}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code] + (argv.split() if argv else []),
                          env=env, capture_output=True, text=True, check=True)
    loaded = done.stdout.strip().splitlines()[-1]
    expected = ["zeta_explicit"] + sorted(
        f"zeta_explicit.{m}" for m in {"cli", "mpcore"} | extra)
    assert loaded == repr(expected)


def test_only_cli_turns_results_into_text():
    # a payload's keys, their order and each value's digit count are decided
    # in cli alone: no other package module calls str_digits or has a to_dict
    found = []
    for path in sorted(Path(zeros.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "str_digits"):
                found.append(f"{path.name}:{node.lineno} calls str_digits")
            if isinstance(node, ast.FunctionDef) and node.name == "to_dict":
                found.append(f"{path.name}:{node.lineno} defines to_dict")
    assert not found


def test_chowla_selberg_builds_class_data_once(capsys, monkeypatch):
    # class_number_check, chowla_selberg_check and chowla_selberg_rhs share
    # one class_data(d): one chi table and one reduced-form count per call
    calls = dict.fromkeys(("kronecker_chi", "reduced_form_count"), 0)
    for name in calls:
        def counted(*args, fn=getattr(arith, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(arith, name, counted)
    arith.class_data.cache_clear()
    code, out, _ = run(capsys, "chowla-selberg", "--d", "7", "--no-scan", "--json")
    assert code == EXIT_OK and json.loads(out)["class_number"]["match"]
    assert calls == {"kronecker_chi": 1, "reduced_form_count": 1}

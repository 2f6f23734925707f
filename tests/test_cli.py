"""Command-line interface: argument parsing, rational/decimal input
conventions, output formats, exit statuses, and determinism."""

import json

import pytest

from zeta_explicit.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main


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


def test_unknown_flag_is_usage_error(capsys):
    assert main(["eval-f", "--x", "3/2", "--frobnicate"]) == EXIT_IO
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_IO
    capsys.readouterr()


def test_missing_zeros_file(capsys):
    code, _, err = run(capsys, "sum", "--term", "inv-rho",
                       "--zeros", "/nonexistent/zeros.txt")
    assert code == EXIT_IO


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


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "von-mangoldt",
                       "--x", "21/2", "--K", "50", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["identity"] == "von-mangoldt"
    assert payload["terms_used"] == 50
    assert "trend" in payload and "residual" in payload


def test_verify_unknown_identity(capsys):
    assert main(["verify", "--identity", "nonsense", "--x", "4"]) == EXIT_IO
    capsys.readouterr()


def test_verify_general_requires_pf(capsys):
    code, _, err = run(capsys, "verify", "--identity", "general-gt1",
                       "--x", "4", "--K", "10")
    assert code == EXIT_IO
    assert "pf-roots" in err


def test_find_zeros_csv(capsys):
    code, out, _ = run(capsys, "find-zeros", "--lo", "1.05", "--hi", "2",
                       "--inexact", "--tol", "1/1000000", "--csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["kind", "bracket_lo"] or "kind" in lines[0]
    assert sum("genuine-zero" in ln for ln in lines) == 2
    assert sum("jump-crossing" in ln for ln in lines) == 1


def test_find_zeros_window_split_by_one(capsys):
    code, _, err = run(capsys, "find-zeros", "--lo", "1/2", "--hi", "2",
                       "--tol", "1/1000")
    assert code == EXIT_DOMAIN
    assert "side" in err


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


def test_chowla_selberg_no_scan(capsys):
    code, out, _ = run(capsys, "chowla-selberg", "--d", "2", "--no-scan",
                       "--json")
    assert code == EXIT_OK
    assert "hypothesis_scan" not in json.loads(out)


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

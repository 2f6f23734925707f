"""Shared fixtures: one 192-bit context, the embedded 100-pair zero
fixture, the optional 10k-pair desk-scale table, and prebuilt constant
tables reused across modules, and the --json payload of one command-line
run.  The acceptance module registers one
PASS/FAIL line per criterion; the terminal-summary hook prints them."""

import json
from pathlib import Path

import pytest

from zeta_explicit.cli import ENV_ZEROS, main
from zeta_explicit.liconst import build_stieltjes_table
from zeta_explicit.mpcore import PrecisionContext
from zeta_explicit.zeros import fixture_table, load_zeros

DATA_10K = Path(__file__).resolve().parents[1] / "data" / "zeros_10k.txt"


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(bits=192)


@pytest.fixture(scope="session")
def fixture100(ctx):
    return fixture_table()


@pytest.fixture(scope="session")
def table10k(ctx):
    if not DATA_10K.exists():
        pytest.skip(f"{DATA_10K} missing; regenerate with "
                    "scripts/generate_zeros.py")
    return load_zeros(str(DATA_10K), fmt="plain", label="zeta", ctx=ctx)


@pytest.fixture(scope="session")
def consts8(ctx):
    return build_stieltjes_table(8, ctx)


@pytest.fixture(scope="session")
def consts20(ctx):
    return build_stieltjes_table(20, ctx)


@pytest.fixture
def cli_json(capsys, monkeypatch):
    """Run the command line with --json (embedded zeros unless --zeros
    names a file), require exit 0, and return the payload it prints."""
    monkeypatch.delenv(ENV_ZEROS, raising=False)

    def run(*argv):
        assert main([*argv, "--json"]) == 0
        return json.loads(capsys.readouterr().out)
    return run


CRITERION_LINES: list = []


@pytest.fixture(scope="session")
def criterion_log():
    """Append-only list of acceptance-criterion PASS/FAIL lines."""
    return CRITERION_LINES


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)

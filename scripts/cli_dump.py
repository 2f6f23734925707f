#!/usr/bin/env python3
"""Every command line below, at --bits 64, 128, 192, 512 and 1024, each in
human, json and csv form, run through cli.main in this one process, from
the repository root, with ZETA_EXPLICIT_ZEROS unset:

    python scripts/cli_dump.py --write [--record PATH]
    python scripts/cli_dump.py --check [--record PATH]

--write records each run's stdout, stderr and exit status in
tests/cli_dump.json (or PATH): full text for the json runs at 64 and 192
bits, which tests/test_cli_dump.py replays in tier-1, and a digest of
stdout and of stderr for every other run.  --check runs everything again
and prints every run whose exit status, stdout or stderr differs from the
record, then the count; the exit status is 1 when any differs.  The root
path prints as <ROOT>, and the scratch directory that holds the zero files
with a comma and a quote in their names as <TMP>, so that a record taken
in one checkout checks another.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "cli_dump.json"
BITS = (64, 128, 192, 512, 1024)
FORMATS = {"human": (), "json": ("--json",), "csv": ("--csv",)}
FULL_TEXT = {(64, "json"), (192, "json")}   # the tier-1 subset
CHI4 = "--descriptor chi-1 --zeros src/zeta_explicit/data/dirichlet4_zeros_10.txt"

LINES = (
    # eval-f, verify of each identity, find-zeros, li, stieltjes, rh-check,
    # chowla-selberg and sum, one or two lines each
    "eval-f --x 3/2",
    "eval-f --x 1/10",
    "eval-f --x 2.0 --inexact",
    "eval-f --x 0.5 --inexact",
    "eval-f --x 1",
    "eval-f --x 100000000000",
    "verify --identity von-mangoldt --x 21/2 --K 20",
    "verify --identity ingham --x 1/3 --K 20",
    "verify --identity cosine --x 5/2 --K 20",
    "verify --identity s --x 7/2 --K 20",
    "verify --identity general-gt1 --x 5/2 --pf-roots 1/3,2/3 --pf-num 1,2 --K 20",
    "verify --identity general-lt1 --x 2/5 --pf-roots 1/3 --K 20",
    "verify --identity selberg-gt1 --x 9/2 --alpha 1/7 --K 20",
    "verify --identity selberg-lt1 --x 2/9 --alpha 1/7 --K 20",
    "find-zeros --lo 21/20 --hi 2",
    "find-zeros --lo 1/3 --hi 1/2",
    "li --n 2 --K 20",
    "li --n 5 --K 20",
    "stieltjes --n 3",
    "stieltjes --n 4 --table",
    "rh-check --K 50",
    "chowla-selberg --d 7 --grid-denominator 200",
    "chowla-selberg --d 2 --no-scan",
    "sum --term inv-rho --K 30",
    "sum --term inv-rho-sq --K 30",
    "sum --term xrho-over-rho --x 5/2 --K 30",
    # the shipped tables, tolerances, refusals and usage errors
    f"verify --identity selberg-lt1 --x 1/10 --alpha 1/2 {CHI4} --K 10",
    "verify --identity von-mangoldt --x 21/2 --zeros data/zeros_10k.txt --T 500",
    "rh-check --zeros data/zeros_10k.txt --K 1000",
    "rh-check --K 100 --tolerance 1e-9",
    "chowla-selberg --d 1 --grid-denominator 200 --threshold 0.05",
    "li --n 0",
    "verify --identity nonsense --x 4",
    "eval-f --x 1/19 --digits 40",
    # each identity on its side and on the other, at the poles and
    # trivial zeros of the kernels and the descriptor form
    "eval-f --x 3/2 --digits 60",
    "eval-f --x 1/10 --digits 60",
    "verify --identity von-mangoldt --x 4 --K 10",
    "verify --identity von-mangoldt --x 1/4 --K 10",
    "verify --identity ingham --x 1/4 --K 10",
    "verify --identity ingham --x 4 --K 10",
    "verify --identity cosine --x 4 --K 10",
    "verify --identity cosine --x 1/2 --K 10",
    "verify --identity cosine --x 1 --K 10",
    "verify --identity s --x 4 --K 10",
    "verify --identity s --x 1 --K 10",
    "verify --identity s --x 1/2 --K 10",
    "verify --identity general-gt1 --x 4 --pf-roots 1/2 --K 10",
    "verify --identity general-gt1 --x 1/4 --pf-roots 1/2 --K 10",
    "verify --identity general-gt1 --x 4 --pf-roots 1 --K 10",
    "verify --identity general-gt1 --x 4 --pf-roots -2 --K 10",
    "verify --identity general-lt1 --x 1/4 --pf-roots 1/2 --K 10",
    "verify --identity general-lt1 --x 4 --pf-roots 1/2 --K 10",
    "verify --identity general-lt1 --x 1/4 --pf-roots 0 --K 10",
    "verify --identity general-lt1 --x 1/4 --pf-roots 1 --K 10",
    "verify --identity selberg-gt1 --x 4 --alpha 1/2 --K 10",
    "verify --identity selberg-gt1 --x 1/4 --alpha 1/2 --K 10",
    "verify --identity selberg-gt1 --x 4 --alpha 0 --K 10",
    "verify --identity selberg-gt1 --x 4 --alpha 1 --K 10",
    "verify --identity selberg-lt1 --x 1/4 --alpha 1/2 --K 10",
    "verify --identity selberg-lt1 --x 4 --alpha 1/2 --K 10",
    "verify --identity selberg-lt1 --x 1/4 --alpha 0 --K 10",
    "verify --identity selberg-lt1 --x 1/4 --alpha 1 --K 10",
    "find-zeros --lo 2 --hi 5",
    "find-zeros --lo 1/10 --hi 1/5",
    "li --n 2 --K 10",
    "stieltjes --n 3 --table",
    "stieltjes --n 2 --eps 1e-30",
    "stieltjes --n 3 --eps 1e-300",
    "stieltjes --n 3 --eps 1e-300 --table",
    "stieltjes --n 3 --eps nan",
    "stieltjes --n 3 --eps nan --table",
    "stieltjes --n 3 --eps 0",
    "stieltjes --n 3 --eps 0 --table",
    "stieltjes --n 3 --eps=-inf",
    "stieltjes --n -1 --eps nan",
    "stieltjes --n 0 --table --eps nan",
    "rh-check --K 20",
    "rh-check --K 20 --tolerance 0",
    "chowla-selberg --d 7 --no-scan",
    "chowla-selberg --d 5 --no-scan",
    "chowla-selberg --d 1 --no-scan",
    "chowla-selberg --d 4 --no-scan",
    "chowla-selberg --d 0 --no-scan",
    "sum --term inv-rho --K 10",
    "sum --term inv-rho-sq --K 10",
    "sum --term xrho-over-rho --x 21/2 --K 10",
    "rh-check --zeros {tmp}/a,b.txt --K 2",
    "rh-check --zeros '{tmp}/a\"b.txt' --K 2",
    # the descriptor form of chi_-4 on both sides at alpha = 0, 1 and
    # 1/3, and zeta's pole at 0 through f
    f"verify --identity selberg-gt1 --x 7/2 --alpha 0 {CHI4}",
    f"verify --identity selberg-gt1 --x 7/2 --alpha 1 {CHI4}",
    f"verify --identity selberg-gt1 --x 7/2 --alpha 1/3 {CHI4}",
    f"verify --identity selberg-lt1 --x 2/7 --alpha 0 {CHI4}",
    f"verify --identity selberg-lt1 --x 2/7 --alpha 1 {CHI4}",
    f"verify --identity selberg-lt1 --x 2/7 --alpha 1/3 {CHI4}",
    "verify --identity general-gt1 --x 7/2 --pf-roots 0 --K 20",
    "verify --identity general-gt1 --x 7/2 --pf-roots 0,1/2 --pf-num 1,3 --K 20",
    "verify --identity selberg-lt1 --x 2/7 --alpha zero --K 20",
    # zeta at alpha = 1 below 1, reflected onto beta = 0: -x (f(1/x) + log 2pi)
    "verify --identity selberg-lt1 --x 2/7 --alpha 1 --K 20",
    "verify --identity general-lt1 --x 2/7 --pf-roots 1,1/3 --K 20",
)


def runs():
    """(key, argv, full) for every line, width and format: key is the
    command line as run, full whether the record keeps its text."""
    for line in LINES:
        for bits in BITS:
            for fmt, flags in FORMATS.items():
                argv = shlex.split(line) + ["--bits", str(bits), *flags]
                yield shlex.join(argv), argv, (bits, fmt) in FULL_TEXT


def run_one(argv: list[str], tmp: str) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of cli.main(argv), with {tmp} in argv
    and the paths in the output made checkout-independent."""
    from zeta_explicit.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([a.replace("{tmp}", tmp) for a in argv])

    def clean(text: str) -> str:
        return text.replace(tmp, "<TMP>").replace(str(ROOT), "<ROOT>")
    return status, clean(out.getvalue()), clean(err.getvalue())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def entry(status: int, out: str, err: str, full: bool) -> dict:
    if full:
        return {"exit": status, "stdout": out, "stderr": err}
    return {"exit": status, "stdout_sha": digest(out), "stderr_sha": digest(err)}


def dump(selected=None) -> dict:
    """key -> entry for every run, or for the runs whose key is in
    selected, each through cli.main in this process; the working
    directory and ZETA_EXPLICIT_ZEROS are restored afterwards."""
    cwd, zeros = os.getcwd(), os.environ.pop("ZETA_EXPLICIT_ZEROS", None)
    os.chdir(ROOT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("a,b.txt", 'a"b.txt'):
                shutil.copy(ROOT / "src" / "zeta_explicit" / "data" / "zeta_zeros_100.txt",
                            os.path.join(tmp, name))
            return {key: entry(*run_one(argv, tmp), full)
                    for key, argv, full in runs() if selected is None or key in selected}
    finally:
        os.chdir(cwd)
        if zeros is not None:
            os.environ["ZETA_EXPLICIT_ZEROS"] = zeros


def differences(recorded: dict, now: dict) -> list[str]:
    """One paragraph per run whose exit status, stdout or stderr differs."""
    lines = []
    for key, new in now.items():
        old = recorded.get(key)
        if old is None:
            lines.append(f"{key}\n  not in the record")
            continue
        changed = [f"  {field}: {old.get(field)!r} -> {new.get(field)!r}"
                   for field in new if old.get(field) != new[field]]
        if changed:
            lines.append("\n".join([key, *changed]))
    lines += [f"{key}\n  in the record, not run" for key in recorded if key not in now]
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record every run")
    mode.add_argument("--check", action="store_true", help="compare every run with the record")
    ap.add_argument("--record", type=Path, default=RECORD,
                    help="the record file (default tests/cli_dump.json)")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    now = dump()
    if args.write:
        args.record.write_text(json.dumps(now, indent=0, sort_keys=True) + "\n")
        print(f"{len(now)} runs recorded in {args.record}")
        return 0
    diffs = differences(json.loads(args.record.read_text()), now)
    print("\n".join(diffs + [f"{len(diffs)} of {len(now)} runs differ from {args.record}"]))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Cold-start cost of each subcommand, one fresh interpreter per call.

Three reference rows, `python -c pass`, `import mpmath` and
`import zeta_explicit.cli`, and one row per subcommand with the fixed
arguments of tests/test_cli.py's cold-import rows (two for stieltjes and
sum, one with and one without mpmath), run as
`python -m zeta_explicit.cli ... --json`.  Every round runs each row once,
in turn, so that a slow spell of the host falls on every row alike; after
ROUNDS rounds the script prints the least and the median wall-clock
milliseconds of each row.  Times are raw, not host-scaled.  One more
untimed run of each row under `python -X importtime` tells whether its
process loaded mpmath, the last column.  The package is this checkout's
src/, and ZETA_EXPLICIT_ZEROS is unset, so the subcommands read the
embedded zero table:

    python scripts/cold_cost.py [--rounds N]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SUBCOMMANDS = {
    "li": "li --n 2 --K 5",
    "stieltjes": "stieltjes --n 2",
    "stieltjes --table": "stieltjes --n 2 --table",
    "rh-check": "rh-check --K 5",
    "sum": "sum --term inv-rho --K 5",
    "sum xrho-over-rho": "sum --term xrho-over-rho --x 21/2 --K 5",
    "eval-f": "eval-f --x 3/2",
    "verify": "verify --identity von-mangoldt --x 21/2 --K 5",
    "find-zeros": "find-zeros --lo 21/20 --hi 2",
    "chowla-selberg": "chowla-selberg --d 7 --no-scan",
}


def loads_mpmath(cmd: list, env: dict) -> bool:
    """True when the process of cmd imports mpmath: its -X importtime log,
    one line per module imported, names it."""
    done = subprocess.run([cmd[0], "-X", "importtime"] + cmd[1:], env=env, check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return any(line.rsplit("|", 1)[-1].strip() == "mpmath" for line in done.stderr.splitlines())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=10)
    rounds = ap.parse_args().rounds
    env = {k: v for k, v in os.environ.items() if k != "ZETA_EXPLICIT_ZEROS"}
    env["PYTHONPATH"] = str(SRC)
    rows = {
        "python -c pass": [sys.executable, "-c", "pass"],
        "import mpmath": [sys.executable, "-c", "import mpmath"],
        "import zeta_explicit.cli": [sys.executable, "-c", "import zeta_explicit.cli"],
    }
    for name, argv in SUBCOMMANDS.items():
        rows[name] = [sys.executable, "-m", "zeta_explicit.cli"] + argv.split() + ["--json"]
    times: dict[str, list[float]] = {name: [] for name in rows}
    for _ in range(rounds):
        for name, cmd in rows.items():
            start = time.perf_counter()
            subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True)
            times[name].append((time.perf_counter() - start) * 1e3)
    width = max(map(len, rows))
    print(f"cold processes, {rounds} rounds (raw wall-clock ms)")
    print(f"{'row':<{width}}{'min':>9}{'median':>9}{'mpmath':>8}")
    for name, ms in times.items():
        loaded = "yes" if loads_mpmath(rows[name], env) else "no"
        print(f"{name:<{width}}{min(ms):>9.1f}{statistics.median(ms):>9.1f}{loaded:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

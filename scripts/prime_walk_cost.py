#!/usr/bin/env python3
"""Cost of cold prime-power sum tables at non-integer s, by precision.

For each precision in BITS and each row of ROWS, times the cold tables
of prime_power_sum to N = 3 10^4 for the five characters the prime-scan
benchmark walks (zeta and chi_{-d}, d = 1, 2, 3, 7) at each s of the row,
one after another, as the benchmark's Selberg ops meet them; the last
three rows are one cold zeta table each to 3 10^5, the prime-scan
benchmark's largest abscissa: at s = 0 (psi), where the logs of the 12k
primes to arith.LOG_LIMIT are almost all the cost (the running product
takes the rest), and at s = 1/3 and 2/3, whose walk goes on past
arith.LOG_LIMIT with a log and an untabled power per prime.  "Cold" means
the module's checkpoint, ratio, log and root tables, its log chain and
mpcore.log_fixed's tables (which anchor the chain) are emptied before
each timed row, so a row pays for every log and root it reads once; the
rows "1/2,3/2,-1/2" and "1/3,2/3" show what the s of one denominator
share.  The sieve these rows read is built once, untimed.  Prints the
median of REPEAT runs per cell in milliseconds, round-robin over the
cells.  REPEAT is 10: a median of three cannot resolve a 10% change at
512 and 1024 bits, where a cell spreads by a third from run to run.  A
second table times a cold
mangoldt_sieve(N) at each N of SIEVE_N, the median of REPEAT, with the
tracemalloc peak of one more call in bytes per entry.  A third times a
cold zeta sum at s = 0 to each N of PSI_N at 192 and 1024 bits, psi(N),
which past arith.LOG_LIMIT is one running product's log; the
sieve it reads is built first, untimed.  Only module-level
tables are reset, so the script times any checkout that has them (a
checkout without a root or ratio table simply has nothing to reset there):

    PYTHONPATH=src python scripts/prime_walk_cost.py

The timing loop and the table are cost_harness's.
"""

from __future__ import annotations

import statistics
import tracemalloc
from fractions import Fraction

from cost_harness import median_times, print_table, scaled_seconds
from zeta_explicit import arith, mpcore
from zeta_explicit.mpcore import PrecisionContext

S = (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3))
ROWS = {str(s): (s,) for s in S} | {"1/2,3/2,-1/2": S[:3], "1/3,2/3": S[3:]}
CHIS = ((1,),) + tuple(arith.kronecker_chi(d) for d in (1, 2, 3, 7))
N = 30_000
ZETA_N = 300_000
SIEVE_N = (300_000, 2_000_000, 20_000_000)
PSI_N, PSI_BITS = (2_000_000, 20_000_000), (192, 1024)
REPEAT = 10


def _reset() -> None:
    for name in ("_prefix", "_ratios", "_logs", "_roots", "_chain"):
        getattr(arith, name, {}).clear()
    getattr(mpcore, "_LOGS", {}).clear()


def main() -> int:
    arith.shared_table(ZETA_N)
    rows = {name: (lambda ctx, row=row: [arith.prime_power_sum(N, s, ctx, chi)
                                         for s in row for chi in CHIS])
            for name, row in ROWS.items()}
    for s in (Fraction(0),) + S[3:]:
        rows[f"{s}, zeta, 3e5"] = lambda ctx, s=s: arith.prime_power_sum(ZETA_N, s, ctx)
    print_table(f"ms per row of cold tables (to {N}, five characters per s; "
                f"the last three to {ZETA_N}, zeta only), median of {REPEAT}",
                "s", 16, median_times(rows, REPEAT, warm=False, before=_reset), 1e3, ".1f")
    print(f"cold mangoldt_sieve(N): ms, median of {REPEAT} (host-scaled), "
          f"and tracemalloc peak in bytes per entry")
    print(f"{'N':>10}{'ms':>10}{'B/entry':>8}")
    for limit in SIEVE_N:
        ms = 1e3 * statistics.median(scaled_seconds(lambda: arith.mangoldt_sieve(limit))
                                     for _ in range(REPEAT))
        tracemalloc.start()
        arith.mangoldt_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{limit:>10}{ms:>10.1f}{peak / limit:>8.2f}")
    arith.shared_table(max(PSI_N))
    print(f"cold s = 0 zeta sums to N: ms, median of {REPEAT} (host-scaled)")
    print(f"{'N':>10}" + "".join(f"{b:>10}" for b in PSI_BITS))
    for limit in PSI_N:
        cells = []
        for bits in PSI_BITS:
            ctx, times = PrecisionContext(bits=bits), []
            for _ in range(REPEAT):
                _reset()
                times.append(scaled_seconds(
                    lambda: arith.prime_power_sum(limit, Fraction(0), ctx)))
            cells.append(f"{1e3 * statistics.median(times):>10.1f}")
        print(f"{limit:>10}" + "".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

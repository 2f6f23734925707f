"""Timing harness shared by the cost scripts (kernel_cost.py, em_cost.py,
fu_cost.py, prime_walk_cost.py, walk_cost.py): each times a few named
rows, each row a call taking a PrecisionContext, at every precision in
BITS, and prints one table of medians with a column per precision.
Every timed call is scaled to the reference host state by the probe of
perfbench/hostspeed.py, taken before and after it as perfbench/run.py
takes it around its ops, so that runs of two checkouts in separate
processes compare although the host changes speed between them.  Import
it from a script in this directory; it is no script itself.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from typing import Callable, Optional

from zeta_explicit.mpcore import PrecisionContext

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
import hostspeed  # noqa: E402

BITS = (128, 192, 256, 384, 512, 1024)


def median_times(rows: dict[str, Callable[[PrecisionContext], object]], repeat: int,
                 warm: bool = True, before: Optional[Callable[[], None]] = None
                 ) -> dict[tuple[str, int], float]:
    """Median host-scaled seconds per call of each (row, bits) cell over
    repeat timed rounds.  With warm, each cell is called once untimed
    first, so that process-wide set-up is not counted; before, if given,
    runs untimed ahead of every timed call.  The rounds go round-robin
    over all cells, so that a slow spell of the host falls on every cell
    alike; each call is timed by scaled_seconds."""
    cells = [(name, bits) for name in rows for bits in BITS]
    if warm:
        for name, bits in cells:
            rows[name](PrecisionContext(bits=bits))
    times: dict = {cell: [] for cell in cells}
    for _ in range(repeat):
        for name, bits in cells:
            if before is not None:
                before()
            ctx = PrecisionContext(bits=bits)
            times[name, bits].append(scaled_seconds(lambda: rows[name](ctx)))
    return {cell: statistics.median(t) for cell, t in times.items()}


def scaled_seconds(call: Callable[[], object]) -> float:
    """Seconds one call takes, scaled to the reference host state by
    hostspeed.scale of a probe just before and one just after it."""
    before = hostspeed.probe()
    start = time.perf_counter()
    call()
    raw = time.perf_counter() - start
    return raw * hostspeed.scale(before, hostspeed.probe())


def print_table(title: str, label: str, width: int,
                medians: dict[tuple[str, int], float], scale: float, fmt: str) -> None:
    """title (marked host-scaled), then a header of label and BITS, then
    one line per row: the row name left-justified to width and each median
    times scale in fmt, nine characters a column."""
    print(f"{title} (host-scaled)")
    print(f"{label:<{width}}" + "".join(f"{b:>9}" for b in BITS))
    for name in dict.fromkeys(name for name, _ in medians):
        print(f"{name:<{width}}" + "".join(
            f"{medians[name, b] * scale:>9{fmt}}" for b in BITS))

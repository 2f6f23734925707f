"""Host-speed calibration.

The machines this benchmark runs on share cores with other tenants, and
their speed switches between regimes that differ by up to 1.8x, often
several times a minute.  ``probe`` times a short fixed piece of mpmath
and integer work (what the pure-Python mpmath backend spends its time
on); a probe runs before and after every timed op, and ``scale`` turns
the two into the factor that converts the op's time to seconds on a
host in the reference state.  Raw times are recorded beside every
scaled one.
"""

import statistics
import time

# Median probe time, in seconds, of the reference host (2-core Xeon,
# pure-Python mpmath backend) in its fast state.
REF_S = 0.0008


def _once() -> float:
    import mpmath
    t = time.perf_counter()
    with mpmath.workprec(192):
        v = mpmath.mpf(2)
        for i in range(40):
            v = mpmath.log(v + i) + mpmath.sqrt(v)
    x, d = 3, {}
    for i in range(600):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 127)
        d[i % 61] = d.get(i % 61, 0) + (x & 255)
    return time.perf_counter() - t


def probe() -> float:
    """Median of three short runs of the fixed work."""
    return statistics.median((_once(), _once(), _once()))


def scale(before: float, after: float) -> float:
    """Factor from raw to reference seconds for a span between two probes."""
    return 2 * REF_S / (before + after)

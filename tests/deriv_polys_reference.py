"""Reference route for the Euler-Maclaurin derivative polynomials: the
per-order recurrence the core used before its eps-coefficient table,
kept as an independent oracle.

For f(t) = log^n(t) t^(-s), f^(j)(t) = P_j(log t) t^(-s-j) with
P_0 = L^n and P_{j+1} = P_j' - (s+j) P_j.  Exact for Fraction s.
"""

from __future__ import annotations


def _deriv_polys(s, n: int, count: int) -> list[list]:
    """P_0..P_count for f(t) = log^n(t) t^(-s): f^(j)(t) = P_j(log t) t^(-s-j),
    P_0 = L^n, P_{j+1} = P_j' - (s+j) P_j (coefficients from degree 0 up)."""
    p = [0] * n + [1]
    out = [p]
    for j in range(count):
        p = [(i + 1) * d - (s + j) * c for i, (c, d) in enumerate(zip(p, p[1:] + [0]))]
        out.append(p)
    return out

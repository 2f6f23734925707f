#!/usr/bin/env python3
"""Generate the embedded fixture of critical-line ordinates for the
conductor-4 odd real character L-function.

L(s, chi) with chi mod 4 (chi(1) = 1, chi(3) = -1) is evaluated through
Hurwitz zetas, L(s) = 4^(-s) [zeta(s, 1/4) - zeta(s, 3/4)], and wrapped
into the completed function

    Phi(t) = (4/pi)^((s+1)/2) Gamma((s+1)/2) L(s),   s = 1/2 + it,

which is real on the critical line (root number 1), so ordinates are
sign changes of Re Phi refined by bisection.  Each root is validated by
|L(1/2 + it)| < 1e-25 before writing.  Output lands in
src/zeta_explicit/data/dirichlet4_zeros_10.txt.
"""

from __future__ import annotations

import os

import mpmath

OUT = os.path.join(os.path.dirname(__file__), "..",
                   "src", "zeta_explicit", "data", "dirichlet4_zeros_10.txt")
COUNT = 10


def L_chi4(s):
    return 4 ** (-s) * (mpmath.zeta(s, mpmath.mpf(1) / 4)
                        - mpmath.zeta(s, mpmath.mpf(3) / 4))


def completed(t):
    s = mpmath.mpc(mpmath.mpf(1) / 2, t)
    val = ((4 / mpmath.pi) ** ((s + 1) / 2)
           * mpmath.gamma((s + 1) / 2) * L_chi4(s))
    assert abs(val.imag) < 1e-20 * (1 + abs(val.real)), \
        f"completed function not real at t = {t}: {val}"
    return val.real


def main() -> int:
    mpmath.mp.dps = 40
    roots = []
    t = mpmath.mpf(2)
    step = mpmath.mpf(1) / 4
    prev_t, prev_v = t, completed(t)
    while len(roots) < COUNT:
        t += step
        v = completed(t)
        if prev_v * v < 0:
            root = mpmath.findroot(completed, (prev_t, t), solver="bisect",
                                   tol=mpmath.mpf(10) ** (-34))
            check = abs(L_chi4(mpmath.mpc(mpmath.mpf(1) / 2, root)))
            assert check < mpmath.mpf(10) ** (-25), \
                f"root {root} fails |L| check: {check}"
            roots.append(root)
            print(f"  zero {len(roots):2d}: {mpmath.nstr(root, 20)}")
        prev_t, prev_v = t, v
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("# label: dirichlet-4\n")
        fh.write("# critical-line ordinates of the conductor-4 odd real"
                 " character L-function\n")
        fh.write(f"# first {COUNT} sign changes of the completed function,"
                 " bisected at 40 working digits\n")
        fh.write("# validated |L(1/2 + i t)| < 1e-25 at each entry\n")
        for r in roots:
            fh.write(mpmath.nstr(r, 16, strip_zeros=False) + "\n")
    print(f"wrote {len(roots)} ordinates to {os.path.normpath(OUT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

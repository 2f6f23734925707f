#!/usr/bin/env python3
"""Residual calibration for the trend-protocol acceptance checks.

Runs the conditionally convergent identities at their acceptance
abscissas over increasing pair counts and prints truncation residuals.
The frozen thresholds in tests/test_acceptance.py were copied from this
script's output against the 10^4-ordinate table (data/zeros_10k.txt,
regenerated by scripts/generate_zeros.py); rerun after replacing the
table to re-freeze.

The absolutely convergent S identity is included for contrast: its
residual is compared against the genuine tail bound instead of a frozen
threshold.
"""

from __future__ import annotations

import argparse
import time
from fractions import Fraction

import mpmath

from zeta_explicit.explicit import partial_fractions, verify_identity
from zeta_explicit.mpcore import PrecisionContext
from zeta_explicit.zeros import SumSpec, load_zeros

PF_SINGLE = (((Fraction(1),), (Fraction(1, 2),)))
PF_DOUBLE = (((Fraction(1),), (Fraction(0), Fraction(1, 2))))


def cases():
    pf1 = partial_fractions(*PF_SINGLE)
    pf2 = partial_fractions(*PF_DOUBLE)
    yield "von-mangoldt", Fraction(21, 2), {}
    yield "ingham", Fraction(1, 10), {}
    yield "ingham", Fraction(2, 5), {}
    yield "cosine", Fraction(4), {}
    yield "s", Fraction(5, 2), {}
    yield "s", Fraction(4), {}
    yield "general-gt1", Fraction(4), {"pf": pf1}
    yield "general-gt1", Fraction(4), {"pf": pf2}
    yield "general-lt1", Fraction(1, 4), {"pf": pf1}
    yield "general-lt1", Fraction(1, 4), {"pf": pf2}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--zeros", default="data/zeros_10k.txt")
    ap.add_argument("--bits", type=int, default=192)
    ap.add_argument("--counts", default="100,1000,10000")
    args = ap.parse_args()

    ctx = PrecisionContext(bits=args.bits)
    table = load_zeros(args.zeros, "plain", label="zeta", ctx=ctx)
    counts = [int(c) for c in args.counts.split(",")]
    counts = [c for c in counts if c <= len(table)]

    for identity, x, kw in cases():
        label = identity if not kw else f"{identity} pf={kw['pf'].residues}"
        print(f"{label}  x = {x}")
        for K in counts:
            spec = SumSpec(K=K)
            t0 = time.time()
            try:
                rep = verify_identity(identity, x, table, spec, ctx, **kw)
            except ValueError as exc:
                print(f"  K={K:>6}  domain-excluded: {exc}")
                break
            resid = abs(rep.residual.val)
            line = (f"  K={K:>6}  |residual| = {mpmath.nstr(resid, 6):>12}"
                    f"  ({time.time() - t0:.1f}s)")
            if rep.tail is not None:
                line += f"  tail bound = {mpmath.nstr(rep.tail.val, 6)}"
            print(line)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Reference route for zero sums: the mpc summation loop the package
used before its fixed-point kernel, kept as an independent oracle.

Each term is evaluated with mpmath complex arithmetic, from the table's
exact ordinates and real parts, at a working precision far above the
kernel's, and every off-line entry adds its reflection 1 - rho-bar.
"""

import mpmath
from mpmath import mpc, mpf


def _mp(q):
    return mpf(q.numerator) / q.denominator


def _kahan_step(acc, comp, value):
    """One compensated-summation step."""
    y = value - comp
    t = acc + y
    comp = (t - acc) - y
    return t, comp


def term_function(term):
    """rho -> term(rho) for a zeros.Term, at the current mpmath precision."""
    logx = None if term.x is None else mpmath.log(_mp(term.x))
    if term.kind == "xrho":
        poles = [_mp(p) for p in term.poles]
        weights = [_mp(w) for w in term.weights]

        def f(rho):
            k = sum(w / (rho - p) for p, w in zip(poles, weights))
            return k if logx is None else mpmath.exp(rho * logx) * k
    elif term.kind == "cos":
        def f(rho):
            g = rho.imag
            c = 1 if logx is None else mpmath.cos(g * logx)
            return c / (mpf(1) / 4 + g * g)
    elif term.kind == "poly":
        coeffs = [_mp(c) for c in term.coeffs]

        def f(rho):
            return sum(c / rho ** k for k, c in enumerate(coeffs))
    else:  # abs2
        def f(rho):
            return 1 / (rho.real * rho.real + rho.imag * rho.imag)
    return f


def reference_sum(table, K, term, bits):
    """(Sum of 2 Re term over the first K entries and their reflections,
    Sum of |2 Re term|) at bits + 128 binary digits."""
    half = mpf(1) / 2
    with mpmath.workprec(bits + 128):
        f = term_function(term)
        acc = comp = mag = mpf(0)
        for i in range(K):
            gamma = mpf(table.ordinates[i]) / table.scale
            beta = _mp(table.real_parts[i])
            for b in ((beta,) if beta == half else (beta, 1 - beta)):
                v = f(mpc(b, gamma))
                pair = 2 * (v.real if isinstance(v, mpc) else v)
                acc, comp = _kahan_step(acc, comp, pair)
                mag += abs(pair)
        return +acc, +mag

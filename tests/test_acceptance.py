"""End-to-end acceptance checks, one test per numbered deliverable.

Each test evaluates its contract at the stated tolerance and registers
a one-line PASS/FAIL summary that the terminal hook prints after the
run.  Desk-scale checks use data/zeros_10k.txt (10^4 zero pairs, see
scripts/generate_zeros.py); smoke variants use the embedded 100-pair
fixture.  All numerics run at 192 bits.

One check is expected to fail: criterion 12b keeps the quoted closed
form eta_1 = -gamma_1 + gamma_0^2/2 as written, and that form does not
match the Laurent-division value gamma_0^2 + 2 gamma_1 that every
other identity in the suite reproduces.  The failure is reported
rather than patched around.
"""

import math
import random
from fractions import Fraction

import mpmath
from mpmath import mpf
import numpy

from zeta_explicit.analysis import (
    chowla_selberg_check,
    class_number_check,
    find_zeros_gt1,
)
from zeta_explicit.arith import kronecker_chi, shared_table
from zeta_explicit.explicit import (
    descriptor_dirichlet,
    descriptor_zeta,
    f_rhs_gt1,
    f_u_closed,
    general_rhs_gt1,
    general_rhs_lt1,
    partial_fractions,
    selberg_rhs_gt1,
    selberg_rhs_lt1,
    verify_identity,
)
from zeta_explicit.liconst import (
    lambda_direct,
    li_lambda_identity,
    rh_statistic,
)
from zeta_explicit.zeros import SumSpec, sum_inv_rho
from explicit_oracles import f_u_closed_uncorrected, f_u_roots_of_unity, f_u_series
from liconst_helpers import coffey_decomposition
from mp_views import as_pair, mp_euler, workprec

F = Fraction

# Sum over zero pairs of 1/rho, quoted to the places the checks use.
SUM_RECIP_RHO = mpf("0.0230957")

# 1/(t - 1/2) and 1/(t (t - 1/2)) as (numerator coeffs, pole list).
PF_SINGLE = ((F(1),), (F(1, 2),))
PF_DOUBLE = ((F(1),), (F(0), F(1, 2)))


def _n(v) -> str:
    return mpmath.nstr(mpf(v), 3)


def _note(log, tag: str, ok: bool, detail: str) -> str:
    line = f"criterion {tag} {'PASS' if ok else 'FAIL'}  {detail}"
    log.append(line)
    return line


def _trend(ctx, table, identity, x, **kw):
    """|residual| at 10^3 and at 10^4 zero pairs.

    The conditionally convergent identities carry no usable tail bound,
    so the contract is a calibrated ceiling on the 10^4 residual plus
    strict improvement over the 10^3 one.
    """
    small = verify_identity(identity, x, table, SumSpec(K=1000), ctx, **kw)
    full = verify_identity(identity, x, table, SumSpec(K=10000), ctx, **kw)
    return abs(small.residual.val), abs(full.residual.val)


def test_c01_reciprocal_zero_sum_constant(ctx, table10k, fixture100,
                                          criterion_log):
    v, tail = sum_inv_rho(table10k, SumSpec(K=10000), ctx)
    w, wtail = sum_inv_rho(fixture100, SumSpec(K=100), ctx)
    with workprec(ctx, 16):
        err_desk = abs(v.val + tail.val - SUM_RECIP_RHO)
        err_smoke = abs(w.val + wtail.val - SUM_RECIP_RHO)
    ok = err_desk <= 5e-4 and err_smoke <= 5e-3
    line = _note(criterion_log, "01", ok,
                 f"Sum 1/rho + tail vs 0.0230957: 10^4 pairs |err|="
                 f"{_n(err_desk)} <= 5e-4, fixture |err|={_n(err_smoke)} <= 5e-3")
    assert ok, line


def test_c02_second_moment_constant(ctx, table10k, criterion_log):
    rep = rh_statistic(table10k, SumSpec(K=10000), ctx, tolerance=1e-3)
    disc = abs(rep.discrepancy.val)
    ok = rep.within_tolerance and disc <= 1e-3
    line = _note(criterion_log, "02", ok,
                 f"Sum 1/|rho|^2 + tail vs 2+gamma-log 4pi: |discrepancy|="
                 f"{_n(disc)} <= 1e-3 over {rep.pairs} pairs")
    assert ok, line


def test_c03_prime_power_formula_trend(ctx, table10k, criterion_log):
    r_small, r_full = _trend(ctx, table10k, "von-mangoldt", F(21, 2))
    ok = r_full <= 5e-3 and r_full < r_small
    line = _note(criterion_log, "03", ok,
                 f"x=21/2: |resid| {_n(r_small)} @10^3 -> {_n(r_full)} @10^4 "
                 f"(ceiling 5e-3)")
    assert ok, line


def test_c04_inverted_argument_formula_trend(ctx, table10k, criterion_log):
    checks = []
    parts = []
    for x, ceiling in ((F(1, 10), 3e-4), (F(2, 5), 6e-4)):
        r_small, r_full = _trend(ctx, table10k, "ingham", x)
        checks.append(r_full <= ceiling and r_full < r_small)
        parts.append(f"x={x}: {_n(r_small)} -> {_n(r_full)} (<= {ceiling})")
    ok = all(checks)
    line = _note(criterion_log, "04", ok, "; ".join(parts))
    assert ok, line


def test_c05_absolutely_convergent_identity(ctx, table10k, criterion_log):
    worst_ratio = mpf(0)
    for x in (F(5, 2), F(4)):
        for T in (1000.0, 10000.0):
            rep = verify_identity("s", x, table10k, SumSpec(T=T), ctx)
            with workprec(ctx, 16):
                worst_ratio = max(worst_ratio,
                                  abs(rep.residual.val) / rep.tail.val)
    ok = worst_ratio <= 1
    line = _note(criterion_log, "05", ok,
                 f"x in {{5/2, 4}}, T in {{10^3, 10^4}}: |resid| <= tail bound "
                 f"every run, worst ratio {_n(worst_ratio)}")
    assert ok, line


def test_c06_cosine_kernel_trend(ctx, table10k, criterion_log):
    r_small, r_full = _trend(ctx, table10k, "cosine", F(4))
    ok = r_full <= 5e-5 and r_full < r_small
    line = _note(criterion_log, "06", ok,
                 f"x=4: |resid| {_n(r_small)} @10^3 -> {_n(r_full)} @10^4 "
                 f"(ceiling 5e-5)")
    assert ok, line


def test_c07_auxiliary_series_closed_form(ctx, criterion_log):
    rng = random.Random(20260815)
    worst = mpf(0)
    for _ in range(50):
        while True:
            q = rng.randint(1, 7)
            u = F(rng.randint(-3 * q, 3 * q), q)
            if u > 0 or (u < 0 and u.denominator > 1):
                break  # keep the series free of zero denominators n + u
        r = rng.uniform(0.05, 0.9)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        with workprec(ctx, 32):
            z = mpmath.mpc(r * mpmath.cos(theta), r * mpmath.sin(theta))
            gap = abs(mpmath.mpc(f_u_roots_of_unity(u, z, ctx).val)
                      - mpmath.mpc(f_u_series(u, z, ctx).val))
        worst = max(worst, gap)
    with workprec(ctx, 32):
        z4 = ctx.real(F(1, 4)).val
        series = f_u_series(F(1, 2), z4, ctx)
        witness = abs(mpmath.mpc(f_u_closed_uncorrected(F(1, 2), z4, ctx).val)
                      - mpmath.mpc(series.val))
    ok = (worst <= 1e-12 and witness > 0.1
          and series.real.str_digits(10) == "0.1972245773")
    line = _note(criterion_log, "07", ok,
                 f"50 random (u, z): closed vs series worst {_n(worst)} "
                 f"<= 1e-12; uncorrected variant off by {_n(witness)} "
                 f"at u=1/2, z=1/4")
    assert ok, line


def test_c08_rational_kernel_identities(ctx, table10k, criterion_log):
    pf_single = partial_fractions(*PF_SINGLE)
    pf_double = partial_fractions(*PF_DOUBLE)
    checks = []
    parts = []
    for ident, x, pf, ceiling in (
            ("general-gt1", F(4), pf_single, 6e-4),
            ("general-gt1", F(4), pf_double, 8e-5),
            ("general-lt1", F(1, 4), pf_single, 2e-4)):
        r_small, r_full = _trend(ctx, table10k, ident, x, pf=pf)
        checks.append(r_full <= ceiling and r_full < r_small)
        parts.append(f"{ident} {pf.roots}: {_n(r_full)} <= {ceiling}")

    # A single pole at 0 collapses to the plain closed form up to the
    # constant log 2pi.
    pf_zero = partial_fractions((F(1),), (F(0),))
    worst_rel = mpf(0)
    for x in (F(4), F(3, 2)):
        with workprec(ctx, 16):
            g = general_rhs_gt1(x, pf_zero, ctx).val - mpmath.log(2 * mpmath.pi)
            f = f_rhs_gt1(x, ctx).val
            worst_rel = max(worst_rel, abs(g - f) / abs(f))
    checks.append(worst_rel <= 1e-20)
    parts.append(f"pole-at-0 collapse rel {_n(worst_rel)} <= 1e-20")

    # The double kernel's pole at 0 is outside the x < 1 domain.
    try:
        general_rhs_lt1(F(1, 4), pf_double, ctx)
        checks.append(False)
        parts.append("pole at 0 accepted for x < 1 (should raise)")
    except ValueError:
        checks.append(True)

    ok = all(checks)
    line = _note(criterion_log, "08", ok, "; ".join(parts))
    assert ok, line


def test_c09_descriptor_layer_consistency(ctx, criterion_log):
    zeta = descriptor_zeta()
    gt1_grid = ((F(3, 2), F(1, 3)), (F(4), F(1, 2)), (F(6), F(2, 3)),
                (F(21, 2), F(1, 4)), (F(11, 10), F(3, 7)),
                (F(5, 2), F(-1, 2)), (F(3), F(5, 4)), (F(7, 2), F(-1, 3)),
                (F(9, 2), F(1, 6)), (F(8), F(4, 5)))
    lt1_grid = ((F(1, 10), F(1, 3)), (F(2, 5), F(1, 2)), (F(1, 4), F(2, 3)),
                (F(3, 10), F(-1, 2)), (F(1, 2), F(1, 4)),
                (F(1, 3), F(-1, 3)), (F(2, 3), F(1, 6)), (F(1, 5), F(5, 4)),
                (F(3, 5), F(2, 5)), (F(1, 8), F(1, 7)))
    worst_rel = mpf(0)
    for x, a in gt1_grid:
        s = selberg_rhs_gt1(x, a, zeta, ctx).val.real
        g = general_rhs_gt1(x, partial_fractions([F(1)], [a]), ctx).val
        with workprec(ctx, 16):
            worst_rel = max(worst_rel, abs(s - g) / abs(g))
    for x, a in lt1_grid:
        s = selberg_rhs_lt1(x, a, zeta, ctx).val.real
        g = general_rhs_lt1(x, partial_fractions([F(1)], [a]), ctx).val
        with workprec(ctx, 16):
            worst_rel = max(worst_rel, abs(s - g) / abs(g))

    # chi_4 assembly against a raw character-weighted prime-power sum
    # plus the odd-index tail series, built here from first principles.
    chi = kronecker_chi(1)
    d4 = descriptor_dirichlet(4, chi, ctx)
    tab = shared_table(16)
    worst_abs = mpf(0)
    for x, a in ((F(3, 2), F(1, 3)), (F(5, 2), F(1, 4)), (F(4), F(1, 2)),
                 (F(7, 2), F(2, 3)), (F(6), F(1, 5))):
        s = selberg_rhs_gt1(x, a, d4, ctx).val.real
        with workprec(ctx, 64):
            xv, av = ctx.real(x).val, ctx.real(a).val
            acc = mpf(0)
            n = 2
            while F(n) <= x:
                w = mpf(1) if F(n) < x else mpf(1) / 2
                if p := tab.prime_of(n):    # Lambda(n) = log p for n = p^k
                    acc += (w * chi[n % 4] * mpmath.log(p)
                            * mpmath.power(xv / n, av))
                n += 1
            fu = f_u_closed(F(1, 2) * (1 + a), ctx.real(1 / (x * x)), ctx)
            hand = -acc + 1 / (xv * (1 + av)) + fu.val.real / (2 * xv)
            worst_abs = max(worst_abs, abs(s - hand))

    # chi_4 and chi_3 below 1: the raw character-weighted sum T(x, chi,
    # alpha), less lambda x^(1+mu/lambda) Sum_{n>=0} x^(n/lambda)/(n+u),
    # u = mu + lambda (1 - alpha), summed term by term, plus gamma_F at 0
    worst_lt1 = mpf(0)
    for d in (1, 3):
        chi = kronecker_chi(d)
        desc = descriptor_dirichlet(len(chi), chi, ctx)
        (lam, mu), = desc.gamma_factors
        for x in (F(1, 8), F(3, 10)):
            for a in (F(0), F(1, 3), F(-1, 2), F(3, 2)):
                s = selberg_rhs_lt1(x, a, desc, ctx).val
                with workprec(ctx, 64):
                    xv, av, lv, e = (mpf(v.numerator) / v.denominator
                                     for v in (x, a, lam, 1 + mu / lam))
                    T = mpf(0)
                    for n in range(2, math.floor(1 / x) + 1):
                        if p := tab.prime_of(n):
                            w = mpf(1) / 2 if n == 1 / x else mpf(1)
                            T += w * chi[n % len(chi)] * mpmath.log(p) * mpmath.power(n, av - 1)
                    T *= mpmath.power(xv, av)
                    u, z = mu + lam * (1 - a), mpmath.power(xv, 1 / lv)
                    series, n, zn = mpf(0), 0, mpf(1)
                    while zn > mpf(2) ** -300:
                        series += zn / (n + mpf(u.numerator) / u.denominator)
                        n, zn = n + 1, zn * z
                    hand = T - lv * mpmath.power(xv, e) * series
                    if a == 0:
                        gF = desc.gamma_F(ctx)   # an exact quotient
                        hand += mpf(gF.numerator) / gF.denominator
                    worst_lt1 = max(worst_lt1, abs(s - hand))
    ok = worst_rel <= 1e-20 and worst_abs <= 1e-15 and worst_lt1 <= 1e-15
    line = _note(criterion_log, "09", ok,
                 f"descriptor vs direct evaluators on 20-point grid: worst "
                 f"rel {_n(worst_rel)} <= 1e-20; chi_4 assembly worst "
                 f"{_n(worst_abs)} <= 1e-15; chi_4, chi_3 below 1 worst "
                 f"{_n(worst_lt1)} <= 1e-15")
    assert ok, line


def test_c10_li_coefficients_two_routes(ctx, table10k, consts8,
                                        criterion_log):
    worst = mpf(0)
    err_ident = err_direct = None
    for n in range(1, 9):
        direct, tail = lambda_direct(n, table10k, SumSpec(K=10000), ctx)
        ident = li_lambda_identity(n, consts8, ctx)
        with workprec(ctx, 16):
            corrected = direct.val + tail.val
            worst = max(worst, abs(corrected - ident.val))
            if n == 1:
                err_ident = abs(ident.val - SUM_RECIP_RHO)
                err_direct = abs(corrected - SUM_RECIP_RHO)
    ok = worst <= 5e-3 and err_ident <= 5e-4 and err_direct <= 5e-4
    line = _note(criterion_log, "10", ok,
                 f"lambda_n zero sum vs binomial identity, n <= 8: worst gap "
                 f"{_n(worst)} <= 5e-3; lambda_1 routes off 0.0230957 by "
                 f"{_n(err_ident)}, {_n(err_direct)} <= 5e-4")
    assert ok, line


def test_c11_binomial_stieltjes_decomposition(ctx, consts20, criterion_log):
    worst = mpf(0)
    bounds_all = True
    s1_nonneg = True
    for n in range(1, 21):
        S1, S2, bounds_ok = coffey_decomposition(n, consts20, ctx)
        with workprec(ctx, 16):
            rebuilt = (1 - F(n, 2) * ctx.real(as_pair(mpmath.log(4 * mpmath.pi)
                                                      + mp_euler(ctx))).val
                       + S1.val + S2.val)
            worst = max(worst, abs(rebuilt - consts20.lam(n).val))
        bounds_all = bounds_all and bounds_ok
        if n >= 2:
            s1_nonneg = s1_nonneg and S1.val >= 0
    ok = worst < mpf(2) ** (-140) and bounds_all and s1_nonneg
    line = _note(criterion_log, "11", ok,
                 f"lambda_n = 1 - (n/2)(gamma+log 4pi) + S1 + S2 for n <= 20: "
                 f"worst gap {_n(worst)}; growth bounds and S1 >= 0 hold")
    assert ok, line


def test_c12a_generalized_euler_constants(ctx, consts8, criterion_log):
    # Independent double-precision oracle: extrapolate the defining
    # partial-sum limits through {1, decay, decay'} bases.
    ms = [10 ** 3, 10 ** 4, 10 ** 5]
    rows = [[1.0, 1.0 / m, 1.0 / m ** 2] for m in ms]
    rhs = [math.fsum(1.0 / k for k in range(1, m + 1)) - math.log(m)
           for m in ms]
    gamma0_lim = float(numpy.linalg.solve(numpy.array(rows),
                                          numpy.array(rhs))[0])
    rows = [[1.0, math.log(m) / m, 1.0 / m] for m in ms]
    rhs = [math.fsum(math.log(k) / k for k in range(2, m + 1))
           - math.log(m) ** 2 / 2 for m in ms]
    gamma1_lim = float(numpy.linalg.solve(numpy.array(rows),
                                          numpy.array(rhs))[0])
    (g0, _), (g1, _) = consts8.gammas[:2]
    err0 = abs(float(g0.val) - 0.5772156649)
    err1 = abs(float(g1.val) - (-0.0728158454))
    lim0 = abs(float(g0.val) - gamma0_lim)
    lim1 = abs(float(g1.val) - gamma1_lim)
    with workprec(ctx, 16):
        eta0_gap = abs(consts8.etas[0].val + g0.val)
    ok = (err0 <= 1e-9 and err1 <= 1e-8 and lim0 <= 1e-9 and lim1 <= 1e-8
          and eta0_gap < mpf(2) ** (-150))
    line = _note(criterion_log, "12a", ok,
                 f"gamma_0 err {_n(err0)} <= 1e-9 (limit oracle {_n(lim0)}), "
                 f"gamma_1 err {_n(err1)} <= 1e-8 (limit oracle {_n(lim1)}), "
                 f"eta_0 = -gamma_0 gap {_n(eta0_gap)}")
    assert ok, line


def test_c12b_eta1_quoted_closed_form(ctx, consts8, criterion_log):
    """Expected failure, kept faithful to the quoted form.

    The Laurent-division value of eta_1 (which criterion 11's
    reassembly and the eta recurrence both confirm) is
    gamma_0^2 + 2 gamma_1 = 0.1875...; the quoted alternative
    -gamma_1 + gamma_0^2/2 = 0.2394... does not equal it, so this
    check fails and is reported as such instead of being weakened.
    """
    g0, g1 = consts8.gammas[0][0].val, consts8.gammas[1][0].val
    with workprec(ctx, 16):
        eta1 = consts8.etas[1].val
        quoted = -g1 + g0 * g0 / 2
        gap = abs(eta1 - quoted)
    ok = gap < mpf(2) ** (-140)
    line = _note(criterion_log, "12b", ok,
                 f"eta_1 = {_n(eta1)} vs quoted form -gamma_1+gamma_0^2/2 = "
                 f"{_n(quoted)}: gap {_n(gap)} (known discrepancy, see README)")
    assert ok, line


def test_c13_sign_change_scan(ctx, criterion_log):
    records = find_zeros_gt1(F(21, 20), F(2), F(1, 10 ** 12), ctx)
    kinds = [r.kind for r in records]
    ok = kinds == ["genuine-zero", "genuine-zero", "jump-crossing"]
    detail = f"kinds {kinds}"
    if ok:
        first, second, jump = records
        r1, r2 = float(first.root.val), float(second.root.val)
        ok = (1.15 < r1 < 1.2 and 1.55 < r2 < 1.6
              and abs(first.residual.val) < 1e-10
              and abs(second.residual.val) < 1e-10
              and float(jump.root.val) == 2.0)
        detail = (f"[21/20, 2]: genuine zeros {r1:.12f}, {r2:.12f} with "
                  f"|f(root)| < 1e-10, prime-power jump recorded at x=2")
    line = _note(criterion_log, "13", ok, detail)
    assert ok, line


def test_c14_gamma_product_identity(ctx, criterion_log):
    worst = mpf(0)
    rhs1 = None
    for d in (1, 2, 3, 7):
        rep = chowla_selberg_check(d, ctx)
        worst = max(worst, abs(rep.rel_err.val))
        if d == 1:
            rhs1 = rep.rhs
    with workprec(ctx, 16):
        g14 = mpmath.gamma(mpf(1) / 4)
        g34 = mpmath.gamma(mpf(3) / 4)
        rhs_gap = abs(rhs1.val - 2 * mpmath.pi * (g34 / g14) ** 2)
        product_gap = abs(g14 * g34 - mpmath.pi * mpmath.sqrt(2))
    ok = (worst <= 1e-6 and rhs_gap <= 1e-18 and product_gap <= 1e-20
          and rhs1.str_digits(20) == "0.71777001104612999782")
    line = _note(criterion_log, "14", ok,
                 f"exp(L'/L(1) - gamma) vs Gamma product, d in {{1,2,3,7}}: "
                 f"worst |lhs/rhs - 1| = {_n(worst)} <= 1e-6; d=1 closed form "
                 f"2pi(Gamma(3/4)/Gamma(1/4))^2 matches to {_n(rhs_gap)}")
    assert ok, line


def test_c15_class_numbers_from_forms(ctx, criterion_log):
    squarefree = [d for d in range(1, 51)
                  if all(d % (p * p) for p in (2, 3, 5, 7))]
    mismatches = [d for d in squarefree
                  if not class_number_check(d).match]
    ok = not mismatches
    line = _note(criterion_log, "15", ok,
                 f"reduced-form count vs Dirichlet's class number formula "
                 f"(exact integers) for all {len(squarefree)} squarefree d <= 50: "
                 f"mismatches {mismatches or 'none'}")
    assert ok, line

"""High-precision evaluation and cross-checking of explicit-formula
identities, zeta-zero sums, and special-constant identities.

Modules:
  mpcore    precision contexts, the Euler-Maclaurin core (Hurwitz zeta,
            its s-derivatives, Stieltjes constants), zeta(j), power-series
            division
  arith     von Mangoldt sieve, weighted prime-power sums, Kronecker
            characters, imaginary-quadratic class data
  zeros     zero-table ingestion, zero sums, tail estimates
  explicit  explicit-formula right-hand sides and identity checks,
            Dirichlet L values
  liconst   Stieltjes constants, eta constants, Li coefficients
  analysis  interval-walk zero finder for f, class numbers, Chowla-Selberg
  cli       command-line interface
"""

from .analysis import (
    chowla_selberg_check,
    class_number_check,
    find_zeros_gt1,
    find_zeros_lt1,
)
from .explicit import (
    descriptor_dirichlet,
    descriptor_zeta,
    f_rhs_gt1,
    f_rhs_lt1,
    partial_fractions,
    verify_identity,
)
from .liconst import (
    build_stieltjes_table,
    lambda_direct,
    li_lambda_identity,
    rh_statistic,
    stieltjes,
)
from .mpcore import (
    HReal,
    PrecisionContext,
    hurwitz_zeta,
    series_ops,
    zeta_int,
)
from .zeros import (
    SumSpec,
    ZeroTable,
    fixture_table,
    load_zeros,
)

__version__ = "0.1.0"

__all__ = [
    "HReal",
    "PrecisionContext",
    "SumSpec",
    "ZeroTable",
    "build_stieltjes_table",
    "chowla_selberg_check",
    "class_number_check",
    "descriptor_dirichlet",
    "descriptor_zeta",
    "f_rhs_gt1",
    "f_rhs_lt1",
    "find_zeros_gt1",
    "find_zeros_lt1",
    "fixture_table",
    "hurwitz_zeta",
    "lambda_direct",
    "li_lambda_identity",
    "load_zeros",
    "partial_fractions",
    "rh_statistic",
    "series_ops",
    "stieltjes",
    "verify_identity",
    "zeta_int",
    "__version__",
]

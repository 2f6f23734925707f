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

The package re-exports nothing: import the module you need, so that a
command-line call compiles only the modules its subcommand runs.
"""

__version__ = "0.1.0"

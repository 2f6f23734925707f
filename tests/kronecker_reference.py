"""The general Kronecker symbol, kept as the reference route for
arith.kronecker_chi, which builds chi_{-d} by complete multiplicativity
from its values at the primes."""


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the completely multiplicative extension
    of the Jacobi symbol with the standard conventions at 2, -1, 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0

"""The paper's closed forms: the ambient dimension bound and the depth thresholds.

m measures and n-planes need an ambient dimension N >= 2m + n - 1, or
3m + n - 1 when n + 1 is a power of two; marginals of dimension n are
compared against the Rado bound 1/(n+1) and the improved bound
1/(n+1) + 1/(3(n+1)^3).  ``depth``, ``schubert``, ``centers`` and
``transversal`` import them from here.
"""

from fractions import Fraction

from .errors import DomainError


def thresholds(n):
    """(Rado bound, improved bound) for marginals of dimension n."""
    n = int(n)
    if n < 1:
        raise DomainError("n must be >= 1")
    rado = Fraction(1, n + 1)
    return rado, rado + Fraction(1, 3 * (n + 1) ** 3)


def is_power_of_two(x):
    return x >= 1 and (x & (x - 1)) == 0


def min_dimension(m, n):
    """Smallest guaranteed ambient dimension for m measures and n-planes."""
    m, n = int(m), int(n)
    if m < 1 or n < 2:
        raise DomainError("need m >= 1 and n >= 2")
    if is_power_of_two(n + 1):
        return 3 * m + n - 1
    return 2 * m + n - 1

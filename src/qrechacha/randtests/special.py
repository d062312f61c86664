"""P-value plumbing: complementary error function, regularized upper
incomplete gamma Q(a, x) and the standard normal CDF, with domain checks.

This is the only module that touches scipy, and it imports `scipy.special`
inside the functions that need it: the import costs about 0.4 s and 18 MB
of memory, which a process that only encrypts or derives material never
pays.
"""

import math

from ..errors import DomainError


def erfc(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"erfc argument must be finite, got {x!r}")
    return math.erfc(x)


def igamc(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a), for a > 0 and x >= 0."""
    a = float(a)
    x = float(x)
    if not math.isfinite(a) or a <= 0:
        raise DomainError(f"igamc needs a > 0, got {a!r}")
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"igamc needs x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    from scipy.special import gammaincc

    return float(gammaincc(a, x))


def ndtr(x):
    """Standard normal CDF, elementwise over an array."""
    from scipy.special import ndtr

    return ndtr(x)

"""Exact rational arithmetic.

Every number in this package is an exact ``fractions.Fraction``; no
floating point is used anywhere in the core algebra.  A fraction is
kept in lowest terms with a positive denominator and prints as ``p/q``
(or ``p`` when the denominator is 1), which is the canonical text form
used throughout.
"""

from __future__ import annotations

from fractions import Fraction

#: name of the rational type in use, recorded by benchmark runs
RATIONAL_BACKEND = "fractions"

#: the rational type (for isinstance checks)
Rational = Fraction

#: build an exact rational in lowest terms from ints, a rational or a
#: ``p/q`` string
rational = Fraction

#: the optimal measure of a 3-sum-free subset of [0,1]
MAX_MEASURE = rational(77, 177)


def format_rational(value) -> str:
    """Canonical text form: ``p/q`` in lowest terms, ``p`` when q = 1."""
    return str(Fraction(value))


def to_decimal(value, places: int) -> str:
    """Round a rational to a fixed number of decimal places (half away
    from zero).  Convenience display only; never authoritative.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    v = Fraction(value)
    num, den = v.numerator, v.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    scaled, rem = divmod(num * 10**places, den)
    if 2 * rem >= den:
        scaled += 1
    digits = str(scaled).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"

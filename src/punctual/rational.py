"""Exact rational scalars and their single text form.

Every coefficient in this package is a ``fractions.Fraction``: arbitrary
precision, automatically in lowest terms, positive denominator.  No floating
point is used anywhere.  The two helpers below fix the one serialization
format, "num/den" with the denominator always written (possibly "/1"), so
that output is byte-identical across runs; _numerators puts a coefficient
map over one denominator for the integer kernels, and _nonneg_int is the one
check of a count, cap or dimension given by a caller.
"""

import re
from fractions import Fraction
from math import lcm
from operator import index

Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def format_rational(x):
    """Render a rational as "num/den".

    >>> format_rational(Fraction(-3, 6))
    '-1/2'
    >>> format_rational(5)
    '5/1'
    """
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(text):
    """Parse "num/den" or a bare integer string.  Decimals are rejected.

    >>> parse_rational("-4/6")
    Fraction(-2, 3)
    >>> parse_rational("7")
    Fraction(7, 1)
    """
    if not isinstance(text, str):
        raise ValueError("rational %r is not a num/den string" % (text,))
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError("malformed rational %r, expected num/den" % (text,))
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError("malformed rational %r, zero denominator" % (text,))
    return Fraction(num, den)


def _numerators(terms):
    """(D, {key: int}): the Fraction values of terms as integer numerators
    over D, the lcm of their denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in terms.items()}


def _nonneg_int(x, what):
    """x as an int, or ValueError("<what> must be >= 0") below zero."""
    x = index(x)
    if x < 0:
        raise ValueError("%s must be >= 0" % what)
    return x

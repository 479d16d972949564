"""Helpers for exact rational values and their serialized form.

Rationals travel through JSON as integers or "p/q" strings; floats are
rejected everywhere so no inexact value can sneak into a computation.
"""

from fractions import Fraction
from math import lcm

from .errors import InputError


def as_fraction(value):
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction; a
    float or a bool raises TypeError, a zero denominator InputError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise InputError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_to_json(value):
    """Render a Fraction as an int (when integral) or a "p/q" string."""
    f = as_fraction(value)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def to_json(obj):
    """Copy of obj with every Fraction inside dicts, lists, tuples and sets
    rendered by rational_to_json; sets become sorted lists."""
    if isinstance(obj, Fraction):
        return rational_to_json(obj)
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [to_json(v) for v in sorted(obj)]
    return obj


def _exact(values):
    """values as a list of ints and Fractions, each read as as_fraction reads it."""
    return [x if type(x) is Fraction or type(x) is int else as_fraction(x) for x in values]


def over(values, L):
    """Exact values times L as ints, for an L that every denominator divides."""
    return [x.numerator * (L // x.denominator) for x in _exact(values)]


def over_lcm(values):
    """(ints, L): exact values as int numerators over the lcm L of their
    denominators.  An int or a Fraction is taken as it is and a "p/q"
    string as the rational it names; a float or a bool raises TypeError,
    a zero denominator InputError."""
    values = _exact(values)
    L = lcm(*[x.denominator for x in values])
    return [x.numerator * (L // x.denominator) for x in values], L


def common_denominator(values):
    """Least common multiple of the denominators of exact values."""
    return lcm(*[x.denominator for x in _exact(values)])


def scaled_matrix(rows):
    """A matrix of exact values as ints over the lcm L of their
    denominators: returns (int rows as tuples, L)."""
    L = common_denominator(x for row in rows for x in row)
    return tuple(tuple(over(row, L)) for row in rows), L


def format_rational(value):
    """Human-facing "p/q" plus a short decimal approximation."""
    f = as_fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator} (~{float(f):.6g})"


def floor_log2(value):
    """Largest integer p with 2**p <= value, computed exactly.

    value must be a positive rational.
    """
    f = as_fraction(value)
    if f <= 0:
        raise ValueError("floor_log2 requires a positive value")
    p = f.numerator.bit_length() - f.denominator.bit_length()
    # 2^(a-1) <= num < 2^a and 2^(b-1) <= den < 2^b put f strictly between
    # 2^(p-1) and 2^(p+1) for p = a - b, so p is right or one too high
    if Fraction(2) ** p > f:
        p -= 1
    return p


def ceil_log2_int(n):
    """Smallest integer p with 2**p >= n, for integer n >= 1."""
    if n < 1:
        raise ValueError("ceil_log2_int requires n >= 1")
    return (n - 1).bit_length()

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from asympath.rational import floor_log2

POSITIVE = st.builds(Fraction, st.integers(1, 2 ** 80), st.integers(1, 2 ** 80))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.one_of(POSITIVE, st.integers(-70, 70).map(lambda e: Fraction(2) ** e)))
@example(Fraction(1))
@example(Fraction(1, 2))
@example(Fraction(3, 4))
@example(Fraction(1, 3))
@example(Fraction(2 ** 40, 2 ** 20 - 1))
@example(Fraction(2 ** 64 - 1, 2 ** 32))
def test_floor_log2_brackets_the_value(f):
    # exact powers of two, values below 1, the bit-length estimate's one-too-
    # high case (a power of two over one just below) and a value just below 2^p
    p = floor_log2(f)
    assert Fraction(2) ** p <= f < Fraction(2) ** (p + 1)

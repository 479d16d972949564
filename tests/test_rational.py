from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asympath.errors import InputError
from asympath.rational import floor_log2, over, over_lcm

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


# ints, Fractions and "p/q" strings, with denominators that share factors
EXACT = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=360),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(EXACT, max_size=12), st.integers(1, 12))
@example([], 1)
@example(["-3/6", Fraction(5, 4), 7], 3)
def test_over_lcm_scales_each_value_by_the_lcm(values, k):
    ints, L = over_lcm(values)
    assert L == lcm(1, *(Fraction(x).denominator for x in values))
    assert all(type(i) is int for i in ints)
    assert ints == [Fraction(x) * L for x in values]
    # over takes any multiple of L
    assert over(values, k * L) == [k * i for i in ints]


@pytest.mark.parametrize("bad", [True, False, 0.5, 2.0])
def test_over_lcm_rejects_floats_and_bools(bad):
    for call in (lambda: over_lcm([Fraction(1, 3), bad]), lambda: over([1, bad], 6)):
        with pytest.raises(TypeError):
            call()


def test_over_lcm_rejects_a_zero_denominator():
    for call in (lambda: over_lcm(["1/2", "3/0"]), lambda: over(["3/0"], 2)):
        with pytest.raises(InputError, match="zero denominator"):
            call()

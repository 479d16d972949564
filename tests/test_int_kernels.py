"""The int-scaled kernels give exactly what their Fraction versions gave.

Each test draws exact inputs with mixed denominators, zeros and many ties
(values come from a small pool) and compares the scaled kernel against
the Fraction copy in kernel_reference.py: equal values, equal matchings,
equal orders, and Fraction return values.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asympath import graphs, metric, oracle
from asympath.errors import InfeasibleError
from asympath.metric import MetricInstance

import kernel_reference as ref

F = Fraction

RATIONALS = st.builds(F, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6, 7]))
EXACT = st.one_of(RATIONALS, RATIONALS, st.integers(0, 5))
WEIGHTS = st.builds(F, st.integers(1, 9), st.sampled_from([1, 2, 3, 5]))
DERANDOMIZED = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def cost_matrices(draw, max_m=7):
    m = draw(st.integers(1, max_m))
    cell = st.one_of(EXACT, EXACT, EXACT, st.none())
    return [[draw(cell) for _ in range(m)] for _ in range(m)]


@st.composite
def arc_maps(draw, max_n=7, missing=True):
    """(n, arcs, s, t): arcs maps ordered pairs to exact costs; with
    missing, some pairs are left out, so some maps are not strongly
    connected."""
    n = draw(st.integers(2, max_n))
    arcs = {}
    for u in range(n):
        for v in range(n):
            if u != v and not (missing and draw(st.integers(0, 4)) == 0):
                arcs[(u, v)] = draw(EXACT)
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 2))
    return n, arcs, s, (t if t < s else t + 1)


@st.composite
def instances(draw, max_n=8):
    """Metric closures of complete digraphs, with s and t anywhere and
    fractional node weights on about half of them."""
    n, arcs, s, t = draw(arc_maps(max_n=max_n, missing=False))
    weights = draw(st.one_of(st.none(), st.lists(WEIGHTS, min_size=n, max_size=n)))
    return ref.metric_closure(n, arcs, s, t, weights=weights)


def assert_all_fractions(values):
    assert all(type(x) is Fraction for x in values)


@DERANDOMIZED
@given(cost_matrices())
def test_matching_equals_fraction_reference(cost):
    try:
        expected = ref.min_cost_perfect_matching(cost)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            graphs.min_cost_perfect_matching(cost)
        return
    matching, total = graphs.min_cost_perfect_matching(cost)
    assert (matching, total) == expected
    assert_all_fractions([total])


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cost_matrices(max_m=16))
def test_larger_matching_equals_fraction_reference(cost):
    try:
        expected = ref.min_cost_perfect_matching(cost)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            graphs.min_cost_perfect_matching(cost)
        return
    assert graphs.min_cost_perfect_matching(cost) == expected


def test_matching_rejects_float_costs():
    with pytest.raises(TypeError):
        graphs.min_cost_perfect_matching([[0.5, F(1)], [F(1), F(0)]])


@DERANDOMIZED
@given(arc_maps())
def test_closure_equals_fraction_reference(case):
    n, arcs, s, t = case
    try:
        expected = ref.metric_closure(n, arcs, s, t)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError, match=str(exc)):
            metric.metric_closure(n, arcs, s, t)
        return
    inst = metric.metric_closure(n, arcs, s, t)
    assert inst == expected
    assert_all_fractions([x for row in inst.d for x in row])


@DERANDOMIZED
@given(instances())
def test_exact_atspp_equals_fraction_reference(inst):
    res = oracle.exact_atspp(inst)
    assert res == ref.exact_atspp(inst)
    assert_all_fractions([res.value])


@DERANDOMIZED
@given(instances(), st.lists(WEIGHTS, min_size=8, max_size=8))
def test_exact_latency_equals_fraction_reference(inst, weights):
    res = oracle.exact_latency(inst)
    assert res == ref.exact_latency(inst)
    assert_all_fractions([res.value])
    weights = weights[:inst.n]
    assert oracle.exact_latency(inst, weights) == ref.exact_latency(inst, weights)


def test_zero_distance_ties_keep_the_first_order():
    # every distance zero: every order ties, and the first one found wins
    n = 6
    inst = MetricInstance(n=n, s=3, t=1, d=tuple(tuple(F(0) for _ in range(n)) for _ in range(n)))
    for kernel, reference in ((oracle.exact_atspp, ref.exact_atspp),
                              (oracle.exact_latency, ref.exact_latency)):
        res = kernel(inst)
        assert res == reference(inst)
        assert res.value == 0 and res.order[0] == 3 and res.order[-1] == 1

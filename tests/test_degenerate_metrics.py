"""Solver-level properties on degenerate metrics.

Instances are metric closures of small complete digraphs whose arc costs
come from a pool with zeros, ties and mixed denominators, with s and t
anywhere; k-person runs take k up to n + 1.  The LP bound, the exact
optimum and the solver must come in order, every recorded check must
pass, and a rerun must repeat the run exactly.  The latency solver must
refuse a zero distance.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asympath import metric, oracle
from asympath.atspp import solve_atspp, solve_k_person
from asympath.errors import DegenerateLatencyError
from asympath.latency import assembled_bound_factor, solve_latency
from asympath.lp import flow_alpha_violations, solve_lp_alpha
from asympath.rational import ceil_log2_int

F = Fraction

TIES = [1, 1, 2, 2, F(1, 2), F(3, 2), F(2, 3), F(5, 7)]
DERANDOMIZED = settings(derandomize=True, max_examples=80, deadline=None)


@st.composite
def closures(draw, pool, max_n=7, zero_arc=False):
    """Metric closure of a complete digraph on 2..max_n nodes with arc
    costs from pool; with zero_arc, one drawn arc costs 0."""
    n = draw(st.integers(2, max_n))
    arcs = {(u, v): draw(st.sampled_from(pool)) for u in range(n) for v in range(n) if u != v}
    if zero_arc:
        arcs[draw(st.sampled_from(sorted(arcs)))] = 0
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 2))
    return metric.metric_closure(n, arcs, s, t if t < s else t + 1)


@DERANDOMIZED
@given(closures([0, 0, *TIES]))
def test_lp_bound_optimum_and_solver_are_ordered(inst):
    n = inst.n
    lp_value, flow = solve_lp_alpha(inst, 1)
    opt = oracle.exact_atspp(inst).value
    hp, state = solve_atspp(inst)
    assert lp_value <= opt <= hp.cost <= (2 * ceil_log2_int(n) + 1) * lp_value
    assert hp.nodes[0] == inst.s and hp.nodes[-1] == inst.t
    assert sorted(hp.nodes) == list(range(n)) and hp.cost == inst.path_cost(hp.nodes)
    assert flow_alpha_violations(n, inst.s, inst.t, flow, 1) == []
    assert state.checks and all(c["pass"] for c in state.checks)
    # a rerun repeats the LP optimum, the path and the whole trace
    assert solve_lp_alpha(inst, 1) == (lp_value, flow)
    hp2, state2 = solve_atspp(inst)
    assert (hp2, state2.trace, state2.checks) == (hp, state.trace, state.checks)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(closures([0, 0, *TIES], max_n=6), st.data())
def test_k_person_up_to_k_past_n_is_bounded_and_repeatable(inst, data):
    n = inst.n
    k = data.draw(st.integers(1, n + 1))
    (paths, total), state = solve_k_person(inst, k)
    assert len(paths) == k and {v for p in paths for v in p} == set(range(n))
    assert total == sum((inst.path_cost(p) for p in paths), F(0))
    assert oracle.exact_k_person(inst, k).value <= total
    value, _ = solve_lp_alpha(inst, F(1, k))
    assert total <= k * ((k + 1) * ceil_log2_int(n) + 1) * (k * value)
    assert state.checks and all(c["pass"] for c in state.checks)
    assert solve_k_person(inst, k) == ((paths, total), state)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(closures(TIES, max_n=6))
def test_latency_on_ties_is_bounded_checked_and_repeatable(inst):
    order, state = solve_latency(inst)
    assert oracle.exact_latency(inst).value <= order.total
    assert order.total <= assembled_bound_factor(inst.n) * state.lp_objective
    assert state.checks and all(c["pass"] for c in state.checks)
    order2, state2 = solve_latency(inst)
    assert (order2, state2.to_jsonable()) == (order, state.to_jsonable())


@DERANDOMIZED
@given(closures([0, *TIES], zero_arc=True))
def test_latency_refuses_a_zero_distance(inst):
    with pytest.raises(DegenerateLatencyError, match="must be positive"):
        solve_latency(inst)

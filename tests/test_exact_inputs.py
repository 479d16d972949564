"""Floats and bools are rejected where values enter exact arithmetic; ints
and "p/q" strings are taken as the exact rationals they name.  Nodes, arcs
and weight lists that do not fit the instance, and path counts that are not
ints of at least 1, raise InputError."""

from collections import Counter
from fractions import Fraction as F

import pytest

from asympath import atspp, cli, cover, latency, lp, metric, oracle, rational
from asympath.errors import InputError
from asympath.graphs import ArcFlow, FlowNetwork, decompose_flow, max_flow_min_cut
from asympath.metric import MetricInstance, gen_random
from asympath.simplex import LpModel, SimplexSolver

INST = gen_random(4, seed=1, max_weight=10)
PATH = [INST.s] + [v for v in range(INST.n) if v not in (INST.s, INST.t)] + [INST.t]


def _model():
    m = LpModel()
    m.add_var("x", obj=1)
    return m


def _add_var(v):
    m = LpModel()
    m.add_var("x", obj=v)
    return m.obj


def _add_row(sense):
    def add(v):
        m = _model()
        getattr(m, sense)({0: 1}, v)
        return m.constraints
    return add


def _arc_add(v):
    f = ArcFlow()
    f.add(0, 1, v)
    return f


def _network(v):
    net = FlowNetwork({(0, 1): v, (1, 2): F(1, 4)})
    return net.scale, net.capacity


def _cut_rhs(v):
    m = _model()
    m.add_ge({0: 1}, 0)
    solver = SimplexSolver(m)
    solver.solve()
    solver.add_ge_cut({0: 1}, v)
    return solver.reoptimize()


ENTRY_POINTS = {
    "LpModel.add_var": _add_var,
    "LpModel._check_coeffs": lambda v: _model()._check_coeffs({0: v}),
    "LpModel.add_le": _add_row("add_le"),
    "LpModel.add_ge": _add_row("add_ge"),
    "LpModel.add_eq": _add_row("add_eq"),
    "SimplexSolver.add_ge_cut": _cut_rhs,
    "ArcFlow.add": _arc_add,
    "ArcFlow.scaled": lambda v: ArcFlow({(0, 1): 1}).scaled(v),
    "lp.build_alpha_lp": lambda v: lp.build_alpha_lp(INST, v)[0].constraints,
    "lp.solve_lp_alpha": lambda v: lp.solve_lp_alpha(INST, v),
    "lp.flow_alpha_violations": lambda v: lp.flow_alpha_violations(
        INST.n, INST.s, INST.t, ArcFlow.from_paths([PATH]), v),
    "cover.strengthen_fractional_cover": lambda v: cover.strengthen_fractional_cover(
        ArcFlow.from_paths([PATH]), v, INST, range(INST.n)),
    "graphs.max_flow_min_cut": lambda v: max_flow_min_cut({(0, 1): v, (1, 2): F(1, 4)}, 0, 2),
    "graphs.FlowNetwork": _network,
    "graphs.decompose_flow": lambda v: decompose_flow(Counter({(0, 1): v, (1, 2): v}), 0, 2),
    "metric.metric_closure": lambda v: metric.metric_closure(
        3, {(0, 1): v, (1, 2): 1, (2, 0): F(1, 4)}, 0, 2).d,
    "MetricInstance.d": lambda v: MetricInstance(n=2, s=0, t=1, d=((0, v), (v, 0))),
    "MetricInstance.weights": lambda v: MetricInstance(
        n=2, s=0, t=1, d=((0, 1), (1, 0)), weights=(v, 1)),
    "oracle.exact_atspp": lambda v: oracle.exact_atspp(
        INST, (v, oracle.exact_atspp(INST).value, dict.fromkeys(INST.arcs(), 0))),
    "rational.floor_log2": rational.floor_log2,
    "rational.rational_to_json": rational.rational_to_json,
    "rational.format_rational": rational.format_rational,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_float_raises_type_error(entry):
    # True is an int to Python, but no rational an input means to give
    for bad in (0.7, True):
        with pytest.raises(TypeError):
            ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("value", ["2/3", 1])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_exact_value_is_accepted(entry, value):
    assert ENTRY_POINTS[entry](value) == ENTRY_POINTS[entry](F(value))


@pytest.mark.parametrize("call", [
    lambda: cover.min_k_path_cycle_cover(INST, {0, 3, 7}, 1),
    lambda: metric.induced_subinstance(INST, {0, 1, 9}, 0, 1),
    lambda: oracle.exact_k_person(INST, 0),
    lambda: oracle.exact_k_person(INST, True),
    lambda: cover.min_k_path_cycle_cover(INST, range(INST.n), 1.5),
    lambda: atspp.multipath_cover(INST, True),
    lambda: atspp.solve_k_person(INST, 1.5),
    lambda: metric.metric_closure(3, {(0, 1): 5, (1, 2): 5, (2, 0): 5, (-1, 0): 1}, 0, 2),
    lambda: metric.metric_closure(3, {(0, 1): 5, (1, 2): 5, (2, 0): 5, (0, 5): 1}, 0, 2),
    lambda: metric.metric_closure(1, {}, 0, 0),
    lambda: metric.metric_closure(3, {(0, 1): 5, (1, 2): -1, (2, 0): 5}, 0, 2),
    lambda: metric.metric_closure(3, {(0, True): 5, (1, 2): 5, (2, 0): 5}, 0, 2),
    lambda: metric.metric_closure(3, {(0, 1.0): 5, (1, 2): 5, (2, 0): 5}, 0, 2),
    lambda: metric.gen_bad_gap(9),
    # a str or dict has a length and items, but each character would be
    # read as a one-digit rational
    lambda: MetricInstance(n=2, s=0, t=1, d=["05", "30"]),
    lambda: MetricInstance(n=2, s=0, t=1, d={"07": 1, "20": 2}),
    lambda: MetricInstance(INST.n, INST.s, INST.t, INST.d, weights="1" * INST.n),
    lambda: MetricInstance(INST.n, INST.s, INST.t, INST.d, weights=[1, 1]),
    # an empty weights array is a misfit, not "no weights"
    lambda: metric.metric_closure(2, {(0, 1): 1, (1, 0): 1}, 0, 1, weights=[]),
    lambda: metric.metric_closure(2, {(0, 1): 1, (1, 0): 1}, 0, 1, weights=()),
    lambda: metric.gen_random(4, seed=1, max_weight=True),
    lambda: metric.gen_random(4, seed=1, max_weight=3.0),
    lambda: metric.gen_random(4, seed=1, max_weight=2.5),
    lambda: metric.gen_random(3.0, seed=1, max_weight=5),
    lambda: metric.metric_closure(3.0, {(0, 1): 5, (1, 2): 5, (2, 0): 5}, 0, 2),
    lambda: cli.gap_report_rows(2.5, 4, 5, 1),
    lambda: cli.gap_report_rows(True, 4, 5, 1),
    lambda: cli.gap_report_rows(1, 4, 5, 1.5),
    lambda: cli.gap_report_rows(1, 4, 5, "7"),
    # True == 1.0 == 1, but a node is an int
    lambda: metric.induced_subinstance(INST, {0, True, 3}, 0, 3),
    lambda: cover.min_k_path_cycle_cover(INST, {0, True, 2, 3}, 1),
    lambda: latency.total_latency(INST, [0, True, 2, 3]),
    lambda: metric.induced_subinstance(INST, {0, 1.0, 3}, 0, 3),
    lambda: cover.min_k_path_cycle_cover(INST, {0, 1.0, 2, 3}, 1),
    lambda: latency.total_latency(INST, [0, 1.0, 2, 3]),
    lambda: atspp.run_cover_loop(INST, 1, -3),
    lambda: atspp.run_cover_loop(INST, 1, 2.0),
    lambda: atspp.run_cover_loop(INST, 1, True),
    lambda: atspp.run_cover_loop(INST, 0, 3),
    # True == 1, but it names no node set
    lambda: lp.flow_alpha_violations(True, 0, 1, ArcFlow.from_paths([[0, 1]]), 1),
], ids=["cover-node", "induced-node", "k-person-k", "k-person-bool-k", "cover-float-k",
        "multipath-bool-k", "solve-k-person-float-k", "closure-negative-node",
        "closure-node-past-n", "closure-one-node", "closure-negative-arc",
        "closure-bool-endpoint", "closure-float-endpoint", "bad-gap-small-d",
        "string-rows", "dict-distances", "string-weights", "short-weights",
        "closure-empty-list-weights", "closure-empty-tuple-weights", "random-bool-max-weight",
        "random-float-max-weight", "random-fractional-max-weight", "random-float-n",
        "closure-float-n", "gap-report-float-count", "gap-report-bool-count",
        "gap-report-float-seed", "gap-report-string-seed", "induced-bool-node",
        "cover-bool-node", "latency-bool-node", "induced-float-node", "cover-float-node",
        "latency-float-node", "cover-loop-negative-iterations", "cover-loop-float-iterations",
        "cover-loop-bool-iterations", "cover-loop-zero-k", "alpha-violations-bool-nodes"])
def test_misfit_argument_raises_input_error(call):
    with pytest.raises(InputError) as exc:
        call()
    assert type(exc.value) is InputError

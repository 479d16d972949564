import hashlib
import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from asympath import latency, metric, oracle
from asympath.errors import DegenerateLatencyError, InputError, InvariantError
from asympath.latency import append, assembled_bound_factor, total_latency
from asympath.rational import to_json

from bruteforce import brute_latency
from latency_reference import pipeline_instance

F = Fraction


def unit_metric(n):
    arcs = {(u, v): 1 for u in range(n) for v in range(n) if u != v}
    return metric.metric_closure(n, arcs, 0, n - 1)


class TestAppend:
    def test_overlapping_paths(self):
        # nodes: s=0 a=1 b=2 c=3 d=4 e=5
        inst = unit_metric(6)
        route, hop = append([0, 1, 2, 3], [0, 2, 4, 3, 5], inst)
        assert route == [0, 1, 2, 3, 4, 3, 5]
        assert hop == inst.d[3][4]

    def test_contained_path_is_noop(self):
        inst = unit_metric(4)
        route, hop = append([0, 1, 2, 3], [0, 2, 1], inst)
        assert route == [0, 1, 2, 3]
        assert hop == 0

    def test_from_bare_source(self):
        inst = metric.gen_random(4, seed=3, max_weight=9)
        route, hop = append([0], [0, 2, 3], inst)
        assert route == [0, 2, 3]
        assert hop == inst.d[0][2]


class TestTotalLatency:
    def test_unit_chain(self):
        inst = unit_metric(3)
        assert total_latency(inst, [0, 1, 2]) == 3

    def test_weighted_two_nodes(self):
        base = metric.gen_random(2, seed=2, max_weight=5)
        d = ((F(0), F(2)), (F(2), F(0)))
        inst = metric.MetricInstance(2, 0, 1, d, weights=(F(1), F(5)))
        assert total_latency(inst, [0, 1]) == 10

    def test_requires_hamiltonian_order(self):
        inst = unit_metric(4)
        with pytest.raises(InputError):
            total_latency(inst, [0, 1, 3])
        with pytest.raises(InputError):
            total_latency(inst, [0, 1, 1, 3])

    def test_oracle_never_beaten(self):
        inst = metric.gen_random(6, seed=4, max_weight=20)
        best, order = brute_latency(inst)
        assert total_latency(inst, order) == best
        other = [0, 4, 1, 2, 3, 5]
        assert total_latency(inst, other) >= best


class TestSolveLatency:
    def test_two_nodes(self):
        inst = metric.gen_random(2, seed=7, max_weight=10)
        order, state = latency.solve_latency(inst)
        assert order.order == [0, 1]
        assert order.total == inst.d[0][1]

    def test_unit_metric_three(self):
        order, state = latency.solve_latency(unit_metric(3))
        assert order.total == 3
        assert order.total == oracle.exact_latency(unit_metric(3)).value

    def test_random_instances_sandwich(self):
        for n, seed in [(5, 1), (6, 2), (6, 8)]:
            inst = metric.gen_random(n, seed=seed, max_weight=25)
            order, state = latency.solve_latency(inst)
            best = oracle.exact_latency(inst).value
            assert order.total >= best
            bound = assembled_bound_factor(n) * state.lp_objective
            assert order.total <= bound
            assert all(c["pass"] for c in state.checks)
            assert order.order[0] == inst.s and order.order[-1] == inst.t
            state.to_jsonable()  # must serialize

    def test_latency_values_are_prefix_sums(self):
        inst = metric.gen_random(6, seed=3, max_weight=15)
        order, _ = latency.solve_latency(inst)
        acc = F(0)
        for u, v in zip(order.order, order.order[1:]):
            acc += inst.d[u][v]
            assert order.latencies[v] == acc

    def test_weighted_run(self):
        base = metric.gen_random(5, seed=12, max_weight=12)
        inst = metric.MetricInstance(
            5, 0, 4, base.d, weights=(F(1), F(4), F(1, 2), F(3), F(2)))
        order, state = latency.solve_latency(inst)
        best = oracle.exact_latency(inst).value
        assert order.total >= best
        assert order.total == total_latency(inst, order.order)

    def test_unweighted_run_ignores_instance_weights(self):
        base = metric.gen_random(5, seed=12, max_weight=12)
        inst = metric.MetricInstance(
            5, 0, 4, base.d, weights=(F(1), F(4), F(1, 2), F(3), F(2)))
        # the unweighted latency of a weighted instance is the instance without weights
        order, _ = latency.solve_latency(replace(inst, weights=None))
        plain, _ = latency.solve_latency(base)
        assert order == plain
        assert order.total == sum(order.latencies.values())

    def test_zero_distance_rejected(self):
        d = (
            (F(0), F(0), F(1)),
            (F(1), F(0), F(1)),
            (F(1), F(1), F(0)),
        )
        inst = metric.MetricInstance(3, 0, 2, d)
        with pytest.raises(DegenerateLatencyError):
            latency.solve_latency(inst)

    def test_trace_contents(self):
        inst = metric.gen_random(6, seed=17, max_weight=18)
        order, state = latency.solve_latency(inst)
        assert state.sigma > 0
        assert state.g >= 1
        assert state.steps, "at least the tail step must be recorded"
        names = {c["name"] for c in state.checks}
        assert {"normalization-floor", "bucket-lower-bound", "tail-append"} <= names
        for step in state.steps[:-1]:
            assert "pivot" in step and "A" in step and "B" in step


def _pipeline(inst):
    doc = []
    for case in (replace(inst, weights=None), inst):
        order, state = latency.solve_latency(case)
        doc.append([order.order, list(order.latencies.items()), order.total,
                    state.to_jsonable(), state.lp_objective,
                    state.floored_objective, state.normalized])
    return doc


# (n, max_weight) -> digest of solve_latency, unweighted then weighted, over
# seeds 0..2 (0..1 at n = 7); no sort_keys, so the key order of every step
# and shrink record is pinned too
PIPELINE_DIGESTS = {
    (2, 7): 'fb6b4b9dcd3eb03e',
    (2, 50): '2c91e17f36aff6c8',
    (3, 7): '12ced973a7381529',
    (3, 50): '2038df0d92bf0a76',
    (4, 7): 'a05e4bffe403b0f0',
    (4, 50): '739fd7b6a17e45d7',
    (5, 7): 'e22d1bda71fd2921',
    (5, 50): '034bef2073721cb7',
    (6, 7): '76e0d27521ad1159',
    (6, 50): '8463ad7cb5a77ef6',
    (7, 7): '8a54fe629774e699',
    (7, 50): '4b9d627486110b63',
}


@pytest.mark.parametrize("max_weight", [7, 50])
@pytest.mark.parametrize("n", range(2, 8))
def test_latency_pipeline_is_pinned(n, max_weight):
    doc = [_pipeline(pipeline_instance(n, seed, max_weight))
           for seed in range(2 if n == 7 else 3)]
    digest = hashlib.sha256(json.dumps(to_json(doc)).encode()).hexdigest()[:16]
    assert digest == PIPELINE_DIGESTS[(n, max_weight)]


PIPE5 = pipeline_instance(5, 0, 7)


def _stretch(factor):
    """normalize_latencies answers with the latest node before t moved to
    factor times t's latency, and the objective unchanged."""
    def fake(result, sol, inst):
        floored, sigma = result
        ell = dict(floored.ell)
        ell[max((u for u in ell if u != inst.t), key=ell.get)] = factor * ell[inst.t]
        return replace(floored, ell=ell), sigma
    return fake


def _long_hop(when):
    """append's hop, a million too long on the calls when(route, path, inst)
    picks."""
    return lambda result, *args: (result[0], result[1] + 10 ** 6 * when(*args))


def _non_metric(d):
    return lambda: latency.solve_latency(metric.MetricInstance(len(d), 0, len(d) - 1, d))


# each check of latency.py, keyed by its name or a piece of its message,
# and the fault that makes it fire: (call, rewrite, run) makes latency's
# call to call answer rewrite(its real answer, *its arguments) while run
# runs; a run on distances that break the triangle inequality needs no call
LATENCY_FAULTS = {
    "normalization-floor": (
        "normalize_latencies", lambda result, *_: (result[0], 2 * result[1]), None),
    # past n^2 = 25 times the smallest latency
    "normalization-spread": ("normalize_latencies", _stretch(2 * 5 * 5), None),
    # a floored objective past (1 + 1/n) times the LP optimum
    "normalization-growth": (
        "normalize_latencies", lambda result, *_: (
            replace(result[0], objective=2 * result[0].objective), result[1]), None),
    # a latency past t's lands above the last scale
    "falls outside the scales": ("normalize_latencies", _stretch(2), None),
    # the scale of a latency that is not a power of 2 taken one too high
    "bucket-lower-bound": (
        "floor_log2", lambda p, value: p + (value != 2 ** p), None),
    # with no order values, no pivot has a fan: the heavier of bucket 1's
    # two nodes outweighs the pivot
    "pivot-coverage": ("normalize_latencies", lambda result, *_: (
        replace(result[0], x=dict.fromkeys(result[0].x, 0)), result[1]), None),
    "pivot-path-cover-cost": (None, None, _non_metric([
        [0, 20, 400, 3, 400, 20], [400, 0, 20, 400, 3, 400], [1, 3, 0, 20, 1, 1],
        [400, 400, 1, 0, 400, 1], [3, 400, 20, 1, 0, 20], [1, 20, 20, 3, 3, 0]])),
    "pivot-path-length": ("solve_atspp", lambda result, *_: (
        replace(result[0], cost=10 ** 6 * result[0].cost), result[1]), None),
    "strong-append": ("append", _long_hop(lambda route, path, inst: True), None),
    "family-size": ("multipath_cover", lambda paths, sub, k: paths * sub.n, None),
    "family-length": (None, None, _non_metric([
        [0, 2, 1, 1000, 1000], [2, 0, 1, 1, 1], [1000, 1, 0, 1000, 2],
        [1, 2, 1, 0, 1], [1, 1, 1, 1000, 0]])),
    # a family path ends at the pivot, where the pivot path left the route
    "family-append": ("append", _long_hop(lambda route, path, inst: route[-1] == path[-1]), None),
    "tail-length": (None, None, _non_metric([
        [0, 2, 2, 1000], [1, 0, 1, 1], [2, 1, 0, 1], [1, 2, 1, 0]])),
    "tail-append": ("append", _long_hop(lambda route, path, inst: path[-1] == inst.t), None),
    "latency route is not a Hamiltonian s-t order": (
        "shortcut", lambda walk, *_: walk[:-1], None),
    "latency bookkeeping mismatch": ("total_latency", lambda total, *_: total + 1, None),
}


@pytest.mark.parametrize("check", sorted(LATENCY_FAULTS))
def test_check_fires(check, monkeypatch):
    call, rewrite, run = LATENCY_FAULTS[check]
    if call:
        real = getattr(latency, call)
        monkeypatch.setattr(latency, call, lambda *args: rewrite(real(*args), *args))
    with pytest.raises(InvariantError, match=re.escape(check)):
        (run or (lambda: latency.solve_latency(PIPE5)))()

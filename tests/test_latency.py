import hashlib
import json
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


def test_weighted_bookkeeping_is_cross_checked(monkeypatch):
    real = latency.total_latency
    monkeypatch.setattr(latency, "total_latency",
                        lambda inst, order: real(inst, order) + 1)
    with pytest.raises(InvariantError, match="latency bookkeeping mismatch"):
        latency.solve_latency(pipeline_instance(5, 0, 7))


def test_normalization_growth_is_checked(monkeypatch):
    # a floored objective past (1 + 1/n) times the LP optimum
    real = latency.normalize_latencies

    def inflated(sol, inst):
        floored, sigma = real(sol, inst)
        return replace(floored, objective=2 * floored.objective), sigma

    monkeypatch.setattr(latency, "normalize_latencies", inflated)
    with pytest.raises(InvariantError, match="normalization-growth"):
        latency.solve_latency(pipeline_instance(5, 0, 7))

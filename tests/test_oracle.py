import random
from fractions import Fraction

import pytest

from asympath import metric, oracle
from asympath.errors import SizeLimitError

from bruteforce import brute_atspp, brute_k_person, brute_latency

F = Fraction


def unit_metric(n):
    arcs = {(u, v): 1 for u in range(n) for v in range(n) if u != v}
    return metric.metric_closure(n, arcs, 0, n - 1)


class TestExactAtspp:
    def test_two_nodes(self):
        inst = metric.gen_random(2, seed=3, max_weight=9)
        res = oracle.exact_atspp(inst)
        assert res.value == inst.d[0][1]
        assert res.order == [0, 1]

    def test_unit_metric(self):
        res = oracle.exact_atspp(unit_metric(6))
        assert res.value == 5

    def test_matches_permutation_search(self):
        for seed in range(8):
            inst = metric.gen_random(5 + seed % 4, seed=seed, max_weight=40)
            res = oracle.exact_atspp(inst)
            best, _ = brute_atspp(inst)
            assert res.value == best
            assert inst.path_cost(res.order) == best
            assert res.order[0] == inst.s and res.order[-1] == inst.t
            assert sorted(res.order) == list(range(inst.n))

    def test_cap(self):
        inst = metric.gen_random(19, seed=0, max_weight=5)
        with pytest.raises(SizeLimitError):
            oracle.exact_atspp(inst)


class TestExactLatency:
    def test_two_nodes_weighted(self):
        base = metric.gen_random(2, seed=1, max_weight=7)
        inst = metric.MetricInstance(2, 0, 1, base.d, weights=(F(1), F(5)))
        res = oracle.exact_latency(inst)
        assert res.value == 5 * inst.d[0][1]

    def test_unit_metric_three(self):
        res = oracle.exact_latency(unit_metric(3))
        assert res.value == 3

    def test_matches_permutation_search(self):
        for seed in range(8):
            inst = metric.gen_random(5 + seed % 4, seed=100 + seed, max_weight=30)
            res = oracle.exact_latency(inst)
            best, _ = brute_latency(inst)
            assert res.value == best

    def test_weighted_matches_permutation_search(self):
        rng = random.Random(5)
        for seed in range(4):
            base = metric.gen_random(6, seed=200 + seed, max_weight=25)
            weights = tuple(F(rng.randint(1, 9)) for _ in range(6))
            inst = metric.MetricInstance(6, 0, 5, base.d, weights=weights)
            res = oracle.exact_latency(inst)
            best, _ = brute_latency(inst)
            assert res.value == best

    def test_cap(self):
        inst = metric.gen_random(17, seed=0, max_weight=5)
        with pytest.raises(SizeLimitError):
            oracle.exact_latency(inst)


class TestExactKPerson:
    def test_two_nodes_counts_padding(self):
        inst = metric.gen_random(2, seed=4, max_weight=11)
        for k in (1, 3):
            res = oracle.exact_k_person(inst, k)
            assert res.value == k * inst.d[0][1]
            assert res.order == [[0, 1]] * k

    def test_matches_split_enumeration(self):
        for seed, k in [(0, 2), (1, 2), (2, 3), (3, 2)]:
            inst = metric.gen_random(6 + seed % 2, seed=300 + seed, max_weight=30)
            res = oracle.exact_k_person(inst, k)
            best, _ = brute_k_person(inst, k)
            assert res.value == best
            assert len(res.order) == k

    def test_many_paths_allows_singletons(self):
        inst = metric.gen_random(5, seed=9, max_weight=20)
        res = oracle.exact_k_person(inst, 3)  # k = n - 2
        best, _ = brute_k_person(inst, 3)
        assert res.value == best

    def test_more_paths_than_nodes(self):
        # k > n: empty paths are interchangeable, so this is as fast as k = n - 2
        inst = metric.gen_random(8, seed=5, max_weight=20)
        res = oracle.exact_k_person(inst, 12)
        best, _ = brute_k_person(inst, 12)
        assert res.value == best
        assert len(res.order) == 12
        assert sum(inst.path_cost(p) for p in res.order) == best

    def test_cap(self):
        inst = metric.gen_random(10, seed=0, max_weight=5)
        with pytest.raises(SizeLimitError):
            oracle.exact_k_person(inst, 2)

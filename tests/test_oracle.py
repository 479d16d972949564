import random
from fractions import Fraction

import pytest

from asympath import atspp, lp, metric, oracle
from asympath.errors import InputError, InvariantError, SizeLimitError

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


def _fractional_closure(n, seed):
    rng = random.Random(seed)
    arcs = {(u, v): F(rng.randint(1, 30), rng.choice([1, 2, 3, 6]))
            for u in range(n) for v in range(n) if u != v}
    return metric.metric_closure(n, arcs, 0, n - 1)


def _certified_bound(inst):
    """(lower, upper, reduced): LP(1)'s certified value and reduced costs,
    and solve_atspp's cost."""
    optimum = lp.solve_lp_alpha(inst, 1)
    return optimum[0], atspp.solve_atspp(inst)[0].cost, optimum.reduced_costs


# weights 1 and 3 tie many paths, and fractional closures have arcs over 6
GUIDED_SWEEP = [
    *(metric.gen_random(n, seed=40 * n + w, max_weight=w)
      for n in range(2, 13) for w in (1, 3, 100)),
    *(_fractional_closure(n, seed=n) for n in range(3, 11)),
    *(metric.gen_random(n, seed=n, max_weight=100) for n in (15, 16)),
]


class TestGuidedExactAtspp:
    def test_equals_the_full_dp(self, monkeypatch):
        searched, full = [], 0
        sparse = oracle._sparse_dp
        monkeypatch.setattr(oracle, "_sparse_dp",
                            lambda d, s, t, interior, arcs: searched.append(len(arcs))
                            or sparse(d, s, t, interior, arcs))
        for inst in GUIDED_SWEEP:
            res = oracle.exact_atspp(inst, _certified_bound(inst))
            assert res == oracle.exact_atspp(inst)
            full += (inst.n - 2) ** 2 + inst.n - 2 + (inst.n == 2)
        # all searches together kept fewer arcs than one full search reads
        assert sum(searched) < full

    @pytest.mark.parametrize("fault", ["missing", "negative", "crossed", "upper-too-low"])
    def test_bad_bound_raises_input_error(self, fault):
        inst = metric.gen_random(7, seed=2, max_weight=20)
        lower, upper, reduced = _certified_bound(inst)
        if fault == "missing":
            del reduced[(inst.s, 1)]
        elif fault == "negative":
            reduced = {**reduced, (1, 2): F(-1, 3)}
        elif fault == "crossed":
            lower, upper = upper + 1, upper
        else:
            # every arc admitted at once, yet every path costs more than upper
            lower = upper = 0
            reduced = dict.fromkeys(reduced, 0)
        with pytest.raises(InputError) as exc:
            oracle.exact_atspp(inst, (lower, upper, reduced))
        assert type(exc.value) is InputError

    def test_a_path_below_its_bound_trips_the_check(self):
        inst = metric.gen_random(7, seed=2, max_weight=20)
        opt = oracle.exact_atspp(inst).value
        zero = dict.fromkeys(inst.arcs(), 0)
        # a lower bound above the optimum: the first search admits every
        # arc, and the optimum falls below lower
        with pytest.raises(InvariantError, match="costs less than lower"):
            oracle.exact_atspp(inst, (opt + 1, opt + 1, zero))
        # reduced costs no certificate could give: each arc at opt, so every
        # path's reduced costs sum to (n - 1) opt, above its cost
        inflated = dict.fromkeys(inst.arcs(), opt)
        with pytest.raises(InvariantError, match="costs less than lower"):
            oracle.exact_atspp(inst, (0, 16 * (inst.n - 1) * opt, inflated))


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

import random
from fractions import Fraction
from itertools import permutations

import pytest

from asympath import cover, lp, metric
from asympath.errors import ContractError, InputError
from asympath.graphs import ArcFlow

F = Fraction


def unit_metric(n):
    arcs = {(u, v): 1 for u in range(n) for v in range(n) if u != v}
    return metric.metric_closure(n, arcs, 0, n - 1)


def brute_min_cover(inst, W):
    """Cheapest path-cycle cover by direct enumeration: choose the path's
    interior and order, then partition the rest into oriented cycles."""
    W = sorted(W)
    s, t = inst.s, inst.t
    interior = [v for v in W if v not in (s, t)]
    best = [None]

    def cycle_partitions(nodes):
        if not nodes:
            yield []
            return
        first = nodes[0]
        rest = nodes[1:]
        for size in range(1, len(nodes)):
            for others in permutations(rest, size):
                cyc = [first, *others]
                remaining = [v for v in rest if v not in others]
                for tail in cycle_partitions(remaining):
                    yield [cyc] + tail

    def cost_cycles(cycles):
        return sum(
            (inst.d[u][v] for cyc in cycles for u, v in zip(cyc, cyc[1:] + cyc[:1])),
            F(0),
        )

    for size in range(len(interior) + 1):
        for path_mid in permutations(interior, size):
            path = [s, *path_mid, t]
            rest = [v for v in interior if v not in path_mid]
            base = inst.path_cost(path)
            for cycles in cycle_partitions(rest):
                if any(len(c) < 2 for c in cycles):
                    continue
                total = base + cost_cycles(cycles)
                if best[0] is None or total < best[0]:
                    best[0] = total
    return best[0]


class TestPathCycleCover:
    def test_two_node_set(self):
        inst = metric.gen_random(5, seed=1, max_weight=20)
        pc = cover.min_k_path_cycle_cover(inst, {0, 4}, 1)
        assert pc.paths[0] == [0, 4]
        assert pc.cycles == []
        assert pc.cost == inst.d[0][4]

    def test_unit_metric_cost(self):
        inst = unit_metric(6)
        for W in ({0, 1, 5}, {0, 2, 3, 5}, set(range(6))):
            pc = cover.min_k_path_cycle_cover(inst, W, 1)
            assert pc.cost == len(W) - 1

    def test_cover_partitions_node_set(self):
        inst = metric.gen_random(7, seed=3, max_weight=30)
        pc = cover.min_k_path_cycle_cover(inst, range(7), 1)
        seen = list(pc.paths[0]) + [v for c in pc.cycles for v in c]
        assert sorted(seen) == list(range(7))
        assert pc.paths[0][0] == 0 and pc.paths[0][-1] == 6
        for cyc in pc.cycles:
            assert len(cyc) >= 2

    def test_matches_direct_enumeration(self):
        for seed in range(6):
            inst = metric.gen_random(5, seed=40 + seed, max_weight=25)
            pc = cover.min_k_path_cycle_cover(inst, range(5), 1)
            assert pc.cost == brute_min_cover(inst, range(5))

    def test_argument_errors(self):
        inst = metric.gen_random(5, seed=1, max_weight=10)
        with pytest.raises(InputError):
            cover.min_k_path_cycle_cover(inst, {0, 1}, 1)  # missing t
        with pytest.raises(InputError):
            cover.min_k_path_cycle_cover(inst, range(5), 0)

    def test_cost_below_full_requirement_lp(self):
        rng = random.Random(7)
        for seed in range(5):
            inst = metric.gen_random(7, seed=70 + seed, max_weight=40)
            value, _ = lp.solve_lp_alpha(inst, 1)
            W = {0, 6} | {v for v in range(1, 6) if rng.random() < 0.6}
            pc = cover.min_k_path_cycle_cover(inst, W, 1)
            assert pc.cost <= value


class TestKPathCycleCover:
    def test_trivial_paths_duplicate(self):
        inst = metric.gen_random(4, seed=2, max_weight=15)
        kc = cover.min_k_path_cycle_cover(inst, {0, 3}, 3)
        assert kc.paths == [[0, 3]] * 3
        assert kc.cost == 3 * inst.d[0][3]

    def test_paths_interior_disjoint(self):
        inst = metric.gen_random(8, seed=4, max_weight=30)
        kc = cover.min_k_path_cycle_cover(inst, range(8), 2)
        interior = [v for p in kc.paths for v in p[1:-1]]
        assert len(interior) == len(set(interior))
        seen = sorted(set(interior) | {0, 7} | {v for c in kc.cycles for v in c})
        assert seen == list(range(8))

    def test_cost_below_scaled_lp(self):
        for seed, k in [(0, 2), (1, 3), (2, 2)]:
            inst = metric.gen_random(7, seed=80 + seed, max_weight=35)
            value, _ = lp.solve_lp_alpha(inst, F(1, k))
            kc = cover.min_k_path_cycle_cover(inst, range(7), k)
            assert kc.cost <= k * value


class TestStrengthen:
    def test_integral_path_passes_through(self):
        inst = metric.gen_random(6, seed=5, max_weight=20)
        path = [0, 2, 1, 4, 3, 5]
        x = ArcFlow.from_paths([path])
        rounded, cert = cover.strengthen_fractional_cover(x, 1, inst, range(6))
        assert rounded == x
        assert cert["output_cost"] == cert["input_cost"]

    def test_two_thirds_requirement_bound(self):
        for seed in range(4):
            inst = metric.gen_random(6, seed=90 + seed, max_weight=30)
            value, x = lp.solve_lp_alpha(inst, F(2, 3))
            rounded, cert = cover.strengthen_fractional_cover(x, F(2, 3), inst, range(6))
            assert cert["output_cost"] <= 9 * cert["input_cost"]
            # matching optimum never beats a fractional unit cover
            pc = cover.min_k_path_cycle_cover(inst, range(6), 1)
            assert pc.cost <= cert["output_cost"]

    def test_higher_requirement_tighter_factor(self):
        inst = metric.gen_random(6, seed=15, max_weight=30)
        value, x = lp.solve_lp_alpha(inst, F(9, 10))
        rounded, cert = cover.strengthen_fractional_cover(x, F(9, 10), inst, range(6))
        assert cert["factor"] == F(3) / (2 * F(9, 10) - 1)
        assert cert["output_cost"] <= cert["factor"] * cert["input_cost"]

    def test_alpha_range_enforced(self):
        inst = metric.gen_random(4, seed=1, max_weight=10)
        x = ArcFlow.from_paths([[0, 1, 2, 3]])
        with pytest.raises(InputError):
            cover.strengthen_fractional_cover(x, F(1, 2), inst, range(4))

    def test_infeasible_input_rejected(self):
        inst = metric.gen_random(4, seed=1, max_weight=10)
        x = ArcFlow.from_paths([[0, 3]])  # skips nodes 1 and 2 entirely
        with pytest.raises(ContractError):
            cover.strengthen_fractional_cover(x, F(2, 3), inst, range(4))

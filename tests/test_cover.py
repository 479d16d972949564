import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest

from asympath import cover, lp, metric
from asympath.errors import ContractError, InputError, InvariantError
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


def _non_metric(n, far):
    """Unit distances but for the arcs in far, which cost 1000: a
    MetricInstance does not check the triangle inequality."""
    d = [[0 if u == v else (1000 if (u, v) in far else 1) for v in range(n)]
         for u in range(n)]
    return metric.MetricInstance(n, 0, n - 1, d)


def _strengthen(inst, paths, alpha=1):
    """strengthen_fractional_cover on the flow that splits one unit evenly
    over paths, at requirement alpha."""
    share = F(1, len(paths))
    x = ArcFlow()
    for p in paths:
        for u, v in zip(p, p[1:]):
            x.add(u, v, share)
    return lambda: cover.strengthen_fractional_cover(x, alpha, inst, range(inst.n))


def _strengthen_path():
    return _strengthen(metric.gen_random(5, seed=1, max_weight=20), [[0, 1, 2, 3, 4]])


def _fake_decomposition(monkeypatch, rewrite):
    """decompose_flow answers rewrite(its real decomposition)."""
    real = cover.decompose_flow
    monkeypatch.setattr(cover, "decompose_flow",
                        lambda flow, s, t: rewrite(real(flow, s, t)))


def _fake_path_flow(monkeypatch, rewrite):
    """ArcFlow.from_paths, as cover calls it, builds the unit flows along
    rewrite(paths)."""
    class Faulty(ArcFlow):
        @classmethod
        def from_paths(cls, paths):
            return ArcFlow.from_paths(rewrite(paths))

    monkeypatch.setattr(cover, "ArcFlow", Faulty)


def _cover_fault(monkeypatch):
    real = cover.min_cost_perfect_matching
    monkeypatch.setattr(cover, "min_cost_perfect_matching",
                        lambda cost: (real(cost)[0], real(cost)[1] + 1))
    inst = metric.gen_random(5, seed=1, max_weight=20)
    return lambda: cover.min_k_path_cycle_cover(inst, range(5), 1)


def _thin_paths(monkeypatch):
    _fake_decomposition(monkeypatch, lambda dec: replace(
        dec, paths=[(p, amt / 10) for p, amt in dec.paths]))
    return _strengthen_path()


def _endpoint_cycle(monkeypatch):
    _fake_decomposition(monkeypatch, lambda dec: replace(dec, cycles=[([0, 2], F(1))]))
    return _strengthen_path()


def _bare_path(monkeypatch):
    _fake_decomposition(monkeypatch, lambda dec: replace(dec, paths=[([0, 4], F(1))]))
    return _strengthen_path()


def _reversed_order(monkeypatch):
    monkeypatch.setattr(cover, "topological_order",
                        lambda arcs, nodes: sorted(nodes, reverse=True))
    return _strengthen_path()


def _short_order(monkeypatch):
    monkeypatch.setattr(cover, "topological_order", lambda arcs, nodes: [0, 4])
    return _strengthen_path()


def _doubled_path(monkeypatch):
    _fake_path_flow(monkeypatch, lambda paths: paths * 2)
    return _strengthen_path()


def _cut_path(monkeypatch, t):
    _fake_path_flow(monkeypatch, lambda paths: [p[:-1] for p in paths])
    inst = metric.gen_random(4, seed=1, max_weight=20)
    inst = metric.MetricInstance(4, 0, t, inst.d)
    return _strengthen(inst, [[0] + [v for v in (1, 2, 3) if v != t] + [t]])


# each check of cover.py, keyed by a piece of its message, and the fault
# that makes it fire: a wrong answer from the call it checks, or distances
# that break the triangle inequality
COVER_FAULTS = {
    "cover cost disagrees with matching cost": _cover_fault,
    "endpoints lost their path flow": _thin_paths,
    "a cycle passes through an endpoint": _endpoint_cycle,
    "lacks cycle flow": _bare_path,
    "surviving nodes are not ordered from s to t": _reversed_order,
    "source does not emit exactly one unit": _doubled_path,
    # sink 1 sorts before the node left without its out-arc
    "sink does not absorb exactly one unit": lambda mp: _cut_path(mp, 1),
    "rounded flow unbalanced at": lambda mp: _cut_path(mp, 3),
    "rounded flow below one unit at": _short_order,
    # the two paths meet in the cycle 1 -> 2 -> 1, so only s and t survive,
    # and the rounded flow takes the far arc 0 -> 3
    "rounded flow exceeded its cost bound": lambda mp: _strengthen(
        _non_metric(4, {(0, 3)}), [[0, 1, 2, 3], [0, 2, 1, 3]]),
}


@pytest.mark.parametrize("check", sorted(COVER_FAULTS))
def test_check_fires(check, monkeypatch):
    run = COVER_FAULTS[check](monkeypatch)
    with pytest.raises(InvariantError, match=re.escape(check)):
        run()

import random
from collections import Counter
from fractions import Fraction

import pytest

from asympath import graphs, metric
from asympath.errors import AcyclicityError, ContractError, InfeasibleError, InputError
from asympath.graphs import ArcFlow

from bruteforce import brute_max_bipartite, brute_min_cost_matching, brute_min_cut
from kernel_reference import scaled_costs


F = Fraction


class TestArcFlow:
    def test_zero_entries_vanish(self):
        f = ArcFlow()
        f.add(0, 1, F(1, 2))
        f.add(0, 1, F(-1, 2))
        assert not f
        assert f[(0, 1)] == 0

    def test_rejects_self_loops_and_negative(self):
        f = ArcFlow()
        with pytest.raises(InputError):
            f.add(2, 2, 1)
        with pytest.raises(InputError):
            f.add(0, 1, -1)

    def test_from_paths_and_degrees(self):
        f = ArcFlow.from_paths([[0, 1, 2], [0, 2]])
        assert f.out_flow(0) == 2
        assert f.in_flow(2) == 2
        assert f[(0, 1)] == 1


def matching_of(cost):
    """The kernel on an exact matrix scaled to ints: (matching, total as a Fraction)."""
    ints, L = scaled_costs(cost)
    matching, total = graphs.min_cost_perfect_matching(ints)
    return matching, F(total, L)


class TestMatching:
    def test_diagonal_optimal(self):
        matching, cost = matching_of([[F(1), F(2)], [F(2), F(1)]])
        assert cost == 2
        assert matching == [0, 1]

    def test_single_cell(self):
        matching, cost = matching_of([[F(0)]])
        assert cost == 0 and matching == [0]

    def test_forbidden_cells_respected(self):
        cost = [[None, F(3)], [F(4), None]]
        matching, total = matching_of(cost)
        assert matching == [1, 0]
        assert total == 7

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            matching_of([[None, F(1)], [None, F(1)]])

    def test_random_matches_brute_force(self):
        rng = random.Random(42)
        for trial in range(100):
            m = rng.randint(2, 7)
            cost = [
                [
                    None if rng.random() < 0.15 else F(rng.randint(0, 20), rng.randint(1, 4))
                    for _ in range(m)
                ]
                for _ in range(m)
            ]
            expected = brute_min_cost_matching(cost)
            if expected is None:
                with pytest.raises(InfeasibleError):
                    matching_of(cost)
            else:
                matching, total = matching_of(cost)
                assert total == expected
                assert sorted(matching) == list(range(m))
                assert total == sum(cost[i][matching[i]] for i in range(m))


class TestMaxFlow:
    def test_single_arc(self):
        value, cut = graphs.max_flow_min_cut({(0, 1): F(3, 4)}, 0, 1)
        assert value == F(3, 4)
        assert cut == frozenset({1})

    def test_two_parallel_routes(self):
        caps = {(0, 1): F(1, 2), (1, 3): F(1, 2), (0, 2): F(1, 2), (2, 3): F(1, 2)}
        value, cut = graphs.max_flow_min_cut(caps, 0, 3)
        assert value == 1
        assert 3 in cut and 0 not in cut

    def test_disconnected(self):
        value, cut = graphs.max_flow_min_cut({(0, 1): F(1)}, 0, 3, nodes=range(4))
        assert value == 0
        assert 3 in cut and 0 not in cut

    def test_cut_capacity_equals_flow_value(self):
        rng = random.Random(7)
        for trial in range(25):
            n = 8
            caps = {}
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.35:
                        caps[(u, v)] = F(rng.randint(1, 12), rng.randint(1, 5))
            value, cut = graphs.max_flow_min_cut(caps, 0, n - 1, nodes=range(n))
            crossing = sum(
                (amt for (u, v), amt in caps.items() if u not in cut and v in cut),
                F(0),
            )
            assert crossing == value
            assert value == brute_min_cut(caps, 0, n - 1, range(n))


class TestBipartite:
    def test_complete_k33(self):
        adj = {i: ["a", "b", "c"] for i in range(3)}
        match = graphs.max_bipartite_matching(adj)
        assert len(match) == 3

    def test_empty(self):
        assert graphs.max_bipartite_matching({0: [], 1: []}) == {}

    def test_random_matches_brute_force(self):
        rng = random.Random(5)
        for trial in range(30):
            adj = {
                u: [v for v in range(8) if rng.random() < 0.3]
                for u in range(8)
            }
            match = graphs.max_bipartite_matching(adj)
            for u, v in match.items():
                assert v in adj[u]
            assert len(set(match.values())) == len(match)
            assert len(match) == brute_max_bipartite(adj)


class TestDecompose:
    def test_single_path(self):
        f = ArcFlow({(0, 1): F(1), (1, 2): F(1)})
        d = graphs.decompose_flow(f, 0, 2)
        assert d.cycles == []
        assert d.paths == [([0, 1, 2], F(1))]

    def test_path_plus_cycle(self):
        f = ArcFlow({(0, 2): F(1), (1, 3): F(1), (3, 1): F(1)})
        d = graphs.decompose_flow(f, 0, 2)
        assert len(d.cycles) == 1 and len(d.paths) == 1
        cyc, amt = d.cycles[0]
        assert sorted(cyc) == [1, 3] and amt == 1

    @pytest.mark.parametrize("arcs", [{(1, 1): 1}, {(0, 1): 0}, {(0, 1): -1}])
    def test_self_loop_or_nonpositive_amount_rejected(self, arcs):
        with pytest.raises(InputError):
            graphs.decompose_flow(Counter(arcs), 0, 2)

    def test_imbalance_detected(self):
        f = ArcFlow({(0, 1): F(2), (1, 2): F(1)})
        with pytest.raises(ContractError):
            graphs.decompose_flow(f, 0, 2)

    def test_recomposition_exact(self):
        rng = random.Random(11)
        for trial in range(20):
            n = 7
            f = ArcFlow()
            # sum of random s-t paths and cycles with rational amounts
            for _ in range(3):
                interior = rng.sample(range(1, n - 1), rng.randint(1, n - 3))
                path = [0, *interior, n - 1]
                amt = F(rng.randint(1, 6), rng.randint(1, 4))
                for u, v in zip(path, path[1:]):
                    f.add(u, v, amt)
            for _ in range(2):
                cyc = rng.sample(range(1, n - 1), rng.randint(2, n - 3))
                amt = F(rng.randint(1, 6), rng.randint(1, 4))
                for u, v in zip(cyc, cyc[1:] + cyc[:1]):
                    f.add(u, v, amt)
            d = graphs.decompose_flow(f.copy(), 0, n - 1)
            assert d.as_flow() == f
            # union of path arcs must be acyclic
            path_arcs = {(u, v) for p, _ in d.paths for u, v in zip(p, p[1:])}
            graphs.topological_order(path_arcs, range(n))


class TestTopologicalOrder:
    def test_chain(self):
        assert graphs.topological_order([(0, 1), (1, 2)], range(3)) == [0, 1, 2]

    def test_empty_arcs_index_tiebreak(self):
        assert graphs.topological_order([], [2, 0, 1]) == [0, 1, 2]

    def test_cycle_reported(self):
        with pytest.raises(AcyclicityError) as err:
            graphs.topological_order([(0, 1), (1, 2), (2, 0)], range(3))
        assert err.value.cycle is not None
        assert sorted(err.value.cycle) == [0, 1, 2]


class TestEulerTour:
    def test_two_cycle(self):
        tour = graphs.euler_tour([(0, 1), (1, 0)], 0)
        assert tour == [(0, 1), (1, 0)]

    def test_two_cycles_sharing_node(self):
        arcs = [(0, 1), (1, 0), (1, 2), (2, 1)]
        tour = graphs.euler_tour(arcs, 1)
        assert len(tour) == 4
        assert Counter(tour) == Counter(arcs)
        # consecutive arcs chain together and the walk closes
        for (a, b), (c, _) in zip(tour, tour[1:]):
            assert b == c
        assert tour[0][0] == 1 and tour[-1][1] == 1

    def test_unbalanced_rejected(self):
        with pytest.raises(ContractError):
            graphs.euler_tour([(0, 1)], 0)

    def test_disconnected_rejected(self):
        with pytest.raises(ContractError):
            graphs.euler_tour([(0, 1), (1, 0), (2, 3), (3, 2)], 0)

    def test_multiset_multiplicities(self):
        arcs = Counter({(0, 1): 2, (1, 0): 2})
        tour = graphs.euler_tour(arcs, 0)
        assert Counter(tour) == arcs


def test_weak_components_by_smallest_node_without_nonpositive_arcs():
    arcs = Counter({(5, 3): 1, (3, 5): 2, (4, 1): 1, (1, 6): 1, (6, 4): 1,
                    (0, 2): 0, (2, 7): -1, (7, 4): 0})
    assert graphs.weak_components(arcs) == [
        ({1, 4, 6}, Counter({(4, 1): 1, (1, 6): 1, (6, 4): 1})),
        ({3, 5}, Counter({(5, 3): 1, (3, 5): 2})),
    ]
    assert graphs.weak_components(Counter()) == []


class TestShortcut:
    def test_drops_later_copies(self):
        assert graphs.shortcut([0, 1, 2, 3, 4, 3, 5]) == [0, 1, 2, 3, 4, 5]

    def test_simple_path_unchanged(self):
        assert graphs.shortcut([0, 1, 2]) == [0, 1, 2]

    def test_cost_never_increases(self):
        rng = random.Random(3)
        inst = metric.gen_random(7, seed=9, max_weight=40)
        for trial in range(30):
            walk = [0] + [rng.randrange(7) for _ in range(rng.randint(1, 12))]
            shorter = graphs.shortcut(walk)
            assert inst.path_cost(shorter) <= inst.path_cost(walk)


class TestReachability:
    def test_chain(self):
        rel = graphs.reachability([(0, 1), (1, 2)], range(3))
        assert (0, 2) in rel and (2, 0) not in rel

    def test_empty(self):
        assert graphs.reachability([], range(3)) == set()

    def test_cycle_rejected(self):
        with pytest.raises(AcyclicityError):
            graphs.reachability([(0, 1), (1, 0)], range(2))

    def test_random_dag_matches_dfs(self):
        rng = random.Random(13)
        for trial in range(20):
            n = 7
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.35
            ]
            rel = graphs.reachability(arcs, range(n))

            succ = {u: [v for (a, v) in arcs if a == u] for u in range(n)}

            def dfs(u):
                seen = set()
                stack = list(succ[u])
                while stack:
                    x = stack.pop()
                    if x not in seen:
                        seen.add(x)
                        stack.extend(succ[x])
                return seen

            for u in range(n):
                assert {v for v in range(n) if (u, v) in rel} == dfs(u)

import hashlib
import json
import random
from fractions import Fraction

import pytest

from asympath import atspp, lp, metric, oracle
from asympath.errors import InputError
from asympath.rational import ceil_log2_int, to_json

import kernel_reference as ref

F = Fraction


def unit_metric(n):
    arcs = {(u, v): 1 for u in range(n) for v in range(n) if u != v}
    return metric.metric_closure(n, arcs, 0, n - 1)


class TestSolveAtspp:
    def test_two_nodes(self):
        inst = metric.gen_random(2, seed=7, max_weight=10)
        hp, state = atspp.solve_atspp(inst)
        assert hp.nodes == [0, 1]
        assert hp.cost == inst.d[0][1]

    def test_unit_metric_is_optimal(self):
        hp, _ = atspp.solve_atspp(unit_metric(8))
        assert hp.cost == 7

    def test_bounds_on_random_instances(self):
        for seed in range(8):
            n = 6 + seed % 4
            inst = metric.gen_random(n, seed=seed, max_weight=60)
            hp, state = atspp.solve_atspp(inst)
            value, _ = lp.solve_lp_alpha(inst, 1)
            budget = 2 * ceil_log2_int(n) + 1
            assert hp.cost <= budget * value
            assert hp.cost >= oracle.exact_atspp(inst).value
            assert sorted(hp.nodes) == list(range(n))
            assert all(c["pass"] for c in state.checks)

    def test_trace_records_iterations(self):
        import json

        inst = metric.gen_random(7, seed=12, max_weight=30)
        hp, state = atspp.solve_atspp(inst)
        assert len(state.trace) == 2 * ceil_log2_int(7) + 1
        names = {c["name"] for c in state.checks}
        assert "path-count-balance" in names
        assert "consecutive-share-arc" in names
        json.dumps(state.to_jsonable())  # must serialize

    def test_bad_n(self):
        with pytest.raises(InputError, match="at least 2 nodes"):
            atspp.solve_atspp(metric.MetricInstance(1, 0, 0, ((0,),)))


class TestMultipathCover:
    def test_two_node_instance(self):
        inst = metric.gen_random(2, seed=5, max_weight=9)
        assert atspp.multipath_cover(inst, 2) == [[0, 1], [0, 1]]

    def test_unit_metric_single(self):
        paths = atspp.multipath_cover(unit_metric(4), 1)
        assert len(paths) <= 2
        assert {v for p in paths for v in p} == {0, 1, 2, 3}

    def test_budget_and_coverage(self):
        for seed, k in [(0, 2), (1, 3), (2, 2), (3, 3)]:
            n = 7 + seed % 3
            inst = metric.gen_random(n, seed=20 + seed, max_weight=40)
            paths = atspp.multipath_cover(inst, k)
            assert len(paths) <= k * ceil_log2_int(n)
            assert {v for p in paths for v in p} == set(range(n))
            for p in paths:
                assert p[0] == inst.s and p[-1] == inst.t
                assert len(set(p)) == len(p)
            value, _ = lp.solve_lp_alpha(inst, F(1, k))
            total = sum((inst.path_cost(p) for p in paths), F(0))
            assert total <= k * ceil_log2_int(n) * value


class TestKPerson:
    def test_reduces_to_hamiltonian_path(self):
        inst = metric.gen_random(7, seed=2, max_weight=30)
        (paths, total), state = atspp.solve_k_person(inst, 1)
        assert len(paths) == 1
        assert sorted(paths[0]) == list(range(7))
        value, _ = lp.solve_lp_alpha(inst, 1)
        T = 2 * ceil_log2_int(7) + 1
        assert total <= T * value

    def test_two_node_padding(self):
        inst = metric.gen_random(2, seed=1, max_weight=8)
        (paths, total), _ = atspp.solve_k_person(inst, 3)
        assert paths == [[0, 1]] * 3
        assert total == 3 * inst.d[0][1]

    def test_coverage_cost_and_diagnostics(self):
        for seed in range(4):
            n = 7 + seed % 2
            k = 2
            inst = metric.gen_random(n, seed=50 + seed, max_weight=35)
            (paths, total), state = atspp.solve_k_person(inst, k)
            assert len(paths) == k
            assert {v for p in paths for v in p} == set(range(n))
            value, _ = lp.solve_lp_alpha(inst, F(1, k))
            T = (k + 1) * ceil_log2_int(n) + 1
            assert total <= k * T * (k * value)
            diag = state.trace[-1]
            assert diag["iteration"] == "chain-diagnostics"
            assert diag["edge_overuse"] == []

    def test_oracle_comparison_recorded(self):
        inst = metric.gen_random(7, seed=31, max_weight=25)
        (paths, total), _ = atspp.solve_k_person(inst, 2)
        best = oracle.exact_k_person(inst, 2).value
        assert total >= best


def _digest(doc):
    return hashlib.sha256(json.dumps(to_json(doc)).encode()).hexdigest()[:16]


def _mixed_closure():
    """Closure of a random digraph with mixed denominators and a zero arc;
    s and t are interior indices."""
    rng = random.Random(0)
    n = 9
    arcs = {(u, v): F(rng.randint(1, 40), rng.choice([1, 2, 3, 5, 7, 12]))
            for u in range(n) for v in range(n) if u != v}
    arcs[(1, 2)] = 0
    return metric.metric_closure(n, arcs, 3, 6)


def _cover_layer(inst):
    hp, state = atspp.solve_atspp(inst)
    doc = [hp.nodes, hp.cost, state.to_jsonable()]
    for k in (1, 2, 3):
        (paths, total), kstate = atspp.solve_k_person(inst, k)
        doc.append([paths, total, kstate.to_jsonable()])
        doc.append(atspp.multipath_cover(inst, k))
    return doc


# (n, max_weight) -> digest of solve_atspp, solve_k_person (k = 1..3, with
# its chain diagnostics) and multipath_cover (k = 1..3) over seeds 0..3, as recorded
# before the cover loop was rewritten around one arc-multiset vocabulary
COVER_LAYER_DIGESTS = {
    (2, 7): '101f9b7ceb5b3442',
    (2, 50): 'd54e0c0ebc25812e',
    (2, 100): '27355de6d1ad8e6c',
    (3, 7): '2c58336d8a142377',
    (3, 50): 'c8b36ce1be54b61b',
    (3, 100): '8b0080de62243d4d',
    (4, 7): '3631f0400c3eb512',
    (4, 50): 'f7866323a8cde08e',
    (4, 100): 'c5538a1863399812',
    (5, 7): 'd7804d6b33496648',
    (5, 50): '8cb33d5624a99554',
    (5, 100): '0b5d5ad3787f6e7d',
    (6, 7): '46f2e4998968c03e',
    (6, 50): '0b0608ce50b4f435',
    (6, 100): '27c9f685ba5ffd5f',
    (7, 7): '2c3383124ef5363f',
    (7, 50): 'ac15625059a1928c',
    (7, 100): 'b415a1dd40f03153',
    (8, 7): '68d05ba6eefa59b1',
    (8, 50): '0a94365e43545fde',
    (8, 100): '52900b76a5ab7a40',
    (9, 7): 'a560e6ec0ba6de9c',
    (9, 50): 'c1c1826bd13e65b7',
    (9, 100): 'be2dfeeeaa9419ab',
    (10, 7): 'd4f46252c80c6b33',
    (10, 50): 'e55d20a36e2d6d0a',
    (10, 100): '7039150281c2f175',
    (11, 7): 'db9578759d35190c',
    (11, 50): '179adb10ba159ac9',
    (11, 100): '91ad899516ca95ec',
    (12, 7): '1d40b525573d0357',
    (12, 50): '38af29a3174b9632',
    (12, 100): 'b49407c18ad62304',
}
MIXED_CLOSURE_DIGEST = '5be2cadbc52dbd80'


@pytest.mark.parametrize("max_weight", [7, 50, 100])
@pytest.mark.parametrize("n", range(2, 13))
def test_cover_layer_is_pinned(n, max_weight):
    doc = [_cover_layer(metric.gen_random(n, seed=seed, max_weight=max_weight))
           for seed in range(4)]
    assert _digest(doc) == COVER_LAYER_DIGESTS[(n, max_weight)]


def test_cover_layer_on_mixed_denominators_is_pinned():
    assert _digest(_cover_layer(_mixed_closure())) == MIXED_CLOSURE_DIGEST


def _covered_sets(monkeypatch):
    """Patch the cover loop's assignment solver to record each W it covers."""
    seen = []
    solve = atspp.min_k_path_cycle_cover

    def counting(inst, W, k):
        seen.append(sorted(W))
        return solve(inst, W, k)

    monkeypatch.setattr(atspp, "min_k_path_cycle_cover", counting)
    return seen


def test_cover_loop_solves_one_assignment_per_active_set(monkeypatch):
    seen = _covered_sets(monkeypatch)
    for n in range(2, 13):
        for seed in range(4):
            inst = metric.gen_random(n, seed=seed, max_weight=50)
            log_n = ceil_log2_int(n)
            for run, rounds in ((atspp.solve_atspp, 2 * log_n + 1),
                                (lambda i: atspp.solve_k_person(i, 2), 3 * log_n + 1)):
                seen.clear()
                _, state = run(inst)
                Ws = [e["W"] for e in state.trace if "W" in e]
                # one call for each run of equal consecutive W, with that W
                assert seen == [W for i, W in enumerate(Ws) if i == 0 or Ws[i - 1] != W]
                assert len(Ws) == len(state.cover_costs) == state.iteration == rounds

    # the console-script instance: W never shrinks, so one cover serves 7 rounds
    seen.clear()
    _, state = atspp.solve_atspp(metric.gen_random(5, seed=1, max_weight=100))
    assert seen == [[0, 1, 2, 3, 4]]
    assert len(state.trace) == 7


def test_cover_loop_decomposes_once_settled_as_every_round_would(monkeypatch):
    """Once a round peels no cycle, the loop decomposes once for the rounds
    left; its final state, trace, checks and cover costs are those of the
    loop that decomposes every round (kernel_reference)."""
    calls = []
    decompose = atspp.decompose_flow
    monkeypatch.setattr(atspp, "decompose_flow",
                        lambda flow, s, t: calls.append(1) or decompose(flow, s, t))
    rounds = 0
    for n in range(2, 14):
        for max_weight in (1, 3, 100):
            inst = metric.gen_random(n, seed=n + max_weight, max_weight=max_weight)
            log_n = ceil_log2_int(n)
            # the round counts of solve_atspp and solve_k_person, (k + 1)
            # ceil(log2 n) + 1, which agree at k = 1
            for k in (1, 2, 3):
                iterations = (k + 1) * log_n + 1
                state = atspp.run_cover_loop(inst, k, iterations)
                want = ref.run_cover_loop(inst, k, iterations)
                assert state.to_jsonable() == want.to_jsonable()
                assert state.cover_costs == want.cover_costs
                rounds += iterations
    assert len(calls) < rounds / 2  # most rounds are settled

import copy
import hashlib
import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from asympath import lp, metric, oracle
from asympath.errors import DegenerateLatencyError, InputError, InvariantError
from asympath.graphs import ArcFlow
from asympath.rational import to_json
from asympath.simplex import INFEASIBLE, LpModel, LpSolution, SimplexSolver, simplex_solve
from latency_reference import (
    build_full_latency_lp,
    order_distance_violations,
    pin_instance,
    pipeline_instance,
    solve_latency_lp_cold,
    solve_latency_lp_reference,
)

F = Fraction


def unit_metric(n):
    arcs = {(u, v): 1 for u in range(n) for v in range(n) if u != v}
    return metric.metric_closure(n, arcs, 0, n - 1)


class TestCutRelaxation:
    def test_unit_metric_full_requirement(self):
        for n in (4, 6):
            value, flow = lp.solve_lp_alpha(unit_metric(n), 1)
            assert value == n - 1
            assert not lp.flow_alpha_violations(n, 0, n - 1, flow, 1)

    def test_alpha_out_of_range(self):
        inst = unit_metric(4)
        with pytest.raises(InputError):
            lp.solve_lp_alpha(inst, 0)
        with pytest.raises(InputError):
            lp.solve_lp_alpha(inst, F(3, 2))
        # the flow check refuses the requirements the solver refuses
        path = ArcFlow.from_paths([[0, 1, 2, 3]])
        for alpha in (0, F(3, 2)):
            with pytest.raises(InputError, match=re.escape("alpha must lie in (0, 1]")):
                lp.flow_alpha_violations(4, 0, 3, path, alpha)

    def test_bad_gap_half_requirement_stays_small(self):
        for D in (12, 50, 1000):
            value, flow = lp.solve_lp_alpha(metric.gen_bad_gap(D), F(1, 2))
            assert value == 3
            assert not lp.flow_alpha_violations(6, 0, 5, flow, F(1, 2))

    def test_bad_gap_certificate_feasible_at_value_five(self):
        inst = metric.gen_bad_gap(50)
        cert = ArcFlow(metric.bad_gap_flow())
        assert not lp.flow_alpha_violations(6, 0, 5, cert, F(1, 2))
        assert cert.cost(inst) == 5

    def test_relaxation_below_exact_optimum(self):
        for seed in range(5):
            inst = metric.gen_random(7, seed=seed, max_weight=60)
            value, flow = lp.solve_lp_alpha(inst, 1)
            assert value <= oracle.exact_atspp(inst).value
            assert not lp.flow_alpha_violations(7, 0, 6, flow, 1)

    def test_violations_list_degree_faults_then_short_cuts_in_node_order(self):
        # s = 0 sends 1 to node 1, which passes only 1/2 on to t = 3; node 2
        # receives nothing, so the cuts around 2 and around {2, 3} fall short
        flow = ArcFlow({(0, 1): 1, (1, 3): F(1, 2)})
        assert lp.flow_alpha_violations(4, 0, 3, flow, 1) == [
            "imbalance at 1: out 1/2 in 1",
            "sink in-flow 1/2 != 1",
            "cut [2] receives 0 < 1",
            "cut [2, 3] receives 1/2 < 1",
        ]
        # s = 0 sends 4/3; {2, 3} is the short cut for both 2 and 3 and is
        # listed once, at target 2
        flow = ArcFlow({(0, 1): 1, (1, 4): 1, (2, 3): F(1, 2), (0, 2): F(1, 3)})
        assert lp.flow_alpha_violations(range(5), 0, 4, flow, 1) == [
            "source out-flow 4/3 != 1",
            "imbalance at 2: out 1/2 in 1/3",
            "imbalance at 3: out 0 in 1/2",
            "cut [2, 3] receives 1/3 < 1",
        ]

    def test_monotone_in_alpha(self):
        inst = metric.gen_random(6, seed=11, max_weight=40)
        v_half, _ = lp.solve_lp_alpha(inst, F(1, 2))
        v_two_thirds, _ = lp.solve_lp_alpha(inst, F(2, 3))
        v_one, _ = lp.solve_lp_alpha(inst, 1)
        assert v_half <= v_two_thirds <= v_one


class TestCuttingPlanes:
    @staticmethod
    def solver():
        model = LpModel()
        x = model.add_var("x", obj=1)
        model.add_ge({x: 1}, 1)
        return SimplexSolver(model), x

    def test_rows_until_none_violated(self):
        solver, x = self.solver()
        cuts = iter([[("a", {x: 1}, 2), ("b", {x: 2}, 5)], [("c", {x: 1}, 3)], []])
        sol, rounds = lp._cutting_planes(solver, lambda sol: next(cuts), 1, "toy LP")
        assert (sol.objective, rounds) == (3, 3)

    def test_repeated_key_raises(self):
        solver, x = self.solver()
        with pytest.raises(InvariantError, match="violated again"):
            lp._cutting_planes(solver, lambda sol: [("same", {x: 1}, 2)], 2, "toy LP")

    def test_round_cap(self):
        solver, x = self.solver()
        keys = iter(range(1000))
        with pytest.raises(InvariantError, match="round cap"):
            lp._cutting_planes(solver, lambda sol: [(next(keys), {x: 1}, 1)], 2, "toy LP")
        # the cap is 10 n^2 separation rounds, each adding one row
        assert next(keys) == 40

    def test_infeasible_first_solve_raises(self):
        class Infeasible:
            def solve(self):
                return LpSolution(INFEASIBLE, {}, None)

        with pytest.raises(InvariantError, match="toy LP reported infeasible"):
            lp._cutting_planes(Infeasible(), lambda sol: [], 1, "toy LP")

    def test_infeasible_cut_raises(self):
        solver, x = self.solver()
        # -x >= 0 against x >= 1
        with pytest.raises(InvariantError, match="cut rows made the toy LP infeasible"):
            lp._cutting_planes(solver, lambda sol: [("x <= 0", {x: -1}, 0)], 1, "toy LP")


# -- LP(alpha) from a shared phase-1 start -------------------------------------

ALPHAS = [F(1), F(1, 2), F(2, 3), F(3, 4)]


def _mixed_closure(rng, n, s, t):
    """Metric closure of a complete digraph whose arc costs mix zeros and
    denominators 1..7, so closed distances have mixed denominators."""
    arcs = {(u, v): F(rng.choice([0, 0, *range(1, 30)]), rng.randint(1, 7))
            for u in range(n) for v in range(n) if u != v}
    return metric.metric_closure(n, arcs, s, t)


def _traced_lp_alpha(monkeypatch, inst, alpha):
    """solve_lp_alpha(inst, alpha) with (value, flow, pivots, rounds), where
    pivots counts phase 1 too.  The same rounds run from a scratch solve of
    build_alpha_lp must agree on every one of them."""
    seen = []
    cutting_planes = lp._cutting_planes

    def spy(solver, separate, n, what):
        sol, rounds = cutting_planes(solver, separate, n, what)
        scratch = SimplexSolver(lp.build_alpha_lp(inst, alpha)[0])
        assert cutting_planes(scratch, separate, n, what) == (sol, rounds)
        assert scratch.pivots == solver.pivots
        seen.append((solver.pivots, rounds))
        return sol, rounds

    with monkeypatch.context() as mp:
        mp.setattr(lp, "_cutting_planes", spy)
        value, flow = lp.solve_lp_alpha(inst, alpha)
    (pivots, rounds), = seen
    return value, flow, pivots, rounds


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 12])
def test_warm_lp_alpha_start_matches_cold_start(monkeypatch, n):
    rng = random.Random(8000 + n)
    rounds = 0
    for alpha in ALPHAS:
        s, t = rng.sample(range(n), 2)
        insts = [_mixed_closure(rng, n, s, t) for _ in range(3)]
        cold = []
        for inst in insts:
            lp._start.cache_clear()
            cold.append(_traced_lp_alpha(monkeypatch, inst, alpha))
        lp._start.cache_clear()
        warm = [_traced_lp_alpha(monkeypatch, inst, alpha) for inst in insts]
        assert warm == cold
        assert lp._start.cache_info()[:2] == (2, 1)  # (hits, misses)
        for inst, (value, flow, _, r) in zip(insts, warm):
            assert value == flow.cost(inst)
            assert not lp.flow_alpha_violations(n, s, t, flow, alpha)
            rounds = max(rounds, r)
    if n >= 7:
        assert rounds > 1  # cut rows were added after the warm start


def test_cached_start_is_never_mutated(monkeypatch):
    inst = metric.gen_random(12, seed=5, max_weight=100)
    lp._start.cache_clear()
    start, _ = lp._start(lp._alpha_model, inst.n, inst.s, inst.t, F(1))

    def snapshot():
        return ([row[:] for row in start._rows], start._dens[:], start._basis[:],
                start._obj, start.status, start.pivots)

    before = snapshot()
    first = _traced_lp_alpha(monkeypatch, inst, 1)
    assert first[3] > 1  # the run added cut rows
    # the same shape again, for another instance and for the first one
    other = metric.gen_random(12, seed=7, max_weight=100)
    assert _traced_lp_alpha(monkeypatch, other, 1) != first
    assert _traced_lp_alpha(monkeypatch, inst, 1) == first
    assert snapshot() == before
    assert lp._start.cache_info()[:2] == (3, 1)  # (hits, misses)


def _certificate_inputs(monkeypatch, inst):
    """The final solver of solve_lp_alpha(inst, 1) and the (rows, costs,
    basis, x, value) it hands to the certificate."""
    seen = {}
    cutting_planes, certify = lp._cutting_planes, lp._certify

    def planes_spy(solver, *args):
        seen["solver"] = solver
        return cutting_planes(solver, *args)

    def certify_spy(*args):
        seen["args"] = args
        return certify(*args)

    with monkeypatch.context() as mp:
        mp.setattr(lp, "_cutting_planes", planes_spy)
        mp.setattr(lp, "_certify", certify_spy)
        lp.solve_lp_alpha(inst, 1)
    return seen["solver"], seen["args"]


@pytest.mark.parametrize("seed", range(4))
def test_certificate_rejects_a_wrong_value_cost_or_basis(monkeypatch, seed):
    inst = metric.gen_random(9 + seed, seed=seed, max_weight=100)
    solver, (rows, costs, basis, x, value) = _certificate_inputs(monkeypatch, inst)
    assert len(rows) > len(solver.model.constraints)  # cut rows were added
    lp._certify(rows, costs, basis, x, value)
    L = inst.scaled[1]
    with pytest.raises(InvariantError):
        lp._certify(rows, costs, basis, x, value + F(1, L))

    # reduced costs as the final tableau holds them
    rc = [F(a, solver._obj_den) for a in solver._obj[:len(costs)]]
    nonbasic = [j for j in range(len(costs)) if j not in basis.values()]
    j = nonbasic[seed]
    lowered = costs[:j] + [costs[j] - rc[j] - F(1, L)] + costs[j + 1:]
    with pytest.raises(InvariantError, match="reduced cost"):
        lp._certify(rows, lowered, basis, x, value)

    # a basic variable with a positive value swapped for each nonbasic one
    # with a positive reduced cost: where the new basis is nonsingular, its
    # dual leaves a reduced cost negative or falls short of value
    r = next(r for r, j in basis.items() if j < len(costs) and x[j])
    nonsingular = 0
    for k in nonbasic:
        if rc[k] > 0:
            with pytest.raises(InvariantError) as exc:
                lp._certify(rows, costs, {**basis, r: k}, x, value)
            nonsingular += "singular" not in str(exc.value)
    assert nonsingular


@pytest.mark.parametrize("seed", range(4))
def test_reduced_costs_are_the_final_tableaus(monkeypatch, seed):
    """solve_lp_alpha hands out the reduced costs of the dual its
    certificate checked; read from the basis alone, they equal the ones
    the final tableau holds, and bound every Hamiltonian path's cost."""
    inst = metric.gen_random(8 + seed, seed=seed, max_weight=100)
    solver, _ = _certificate_inputs(monkeypatch, inst)
    optimum = lp.solve_lp_alpha(inst, 1)
    value, flow = optimum
    assert (value, flow) == optimum and optimum[1] is flow
    assert copy.deepcopy(optimum).reduced_costs == optimum.reduced_costs
    rc = [F(a, solver._obj_den) for a in solver._obj[:inst.n * (inst.n - 1)]]
    assert list(optimum.reduced_costs.values()) == rc
    assert list(optimum.reduced_costs) == list(inst.arcs())
    path = oracle.exact_atspp(inst).order
    arcs = list(zip(path, path[1:]))
    assert inst.path_cost(path) >= value + sum(optimum.reduced_costs[a] for a in arcs)


# min x0 + x1 subject to x0 + x1 >= 2 and x1 >= 1: the dual is read from the
# basis {row 0: x0, row 1: its slack (2 + 1)}, y = (1, 0), so b . y = 2
TWO_ROWS = [(">=", {0: F(1), 1: F(1)}, F(2)), (">=", {1: F(1)}, F(1))]

# each input fails one check alone: (rows, basis, x, value, fault)
CERTIFICATE_FAULTS = [
    (TWO_ROWS, {0: 0, 1: 3}, [-1, 3], 2, "negative"),
    (TWO_ROWS, {0: 0, 1: 3}, [2, 0], 2, "violates row 1"),
    (TWO_ROWS, {0: 0, 1: 3}, [2, 1], 2, "c . x"),
    ([(">=", {0: F(1)}, F(1)), (">=", {1: F(1)}, F(0))], {0: 0, 1: 3}, [2, 0], 2, "b . y"),
    # x0 <= 3 with x0 basic prices the row at y = 1 > 0
    ([("<=", {0: F(1)}, F(3))], {0: 0}, [3, 0], 3, "wrong sign"),
    (TWO_ROWS, {0: 0, 1: 0}, [1, 1], 2, "not square"),
    # x0 and row 0's slack basic leave row 1 tight, and row 1 has no x0
    (TWO_ROWS, {0: 0, 1: 2}, [1, 1], 2, "singular"),
]
FAULT_IDS = ["negative-x", "infeasible-x", "cost-of-x", "dual-value", "dual-sign",
             "repeated-column", "tight-row-without-column"]


def _thirds(rows, basis, x, value, fault):
    """A fault case with every row, the costs and the value divided by 3:
    the same program, with Fraction coefficients and right-hand sides, so
    the same check fails.  x stays as it is, since x / 3 would no longer
    meet the rows (a . x / 9 against b / 3)."""
    rows = [(sense, {j: a / 3 for j, a in coeffs.items()}, rhs / 3)
            for sense, coeffs, rhs in rows]
    return rows, [F(1, 3), F(1, 3)], basis, [F(v) for v in x], F(value, 3), fault


def _alpha_certificate(inst, alpha):
    """The certificate inputs of solve_lp_alpha(inst, alpha)'s optimum as the
    solver holds them: its Fraction rows, model and cut rows, and the
    instance's Fraction distances as costs."""
    seen = []
    planes = lp._cutting_planes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_cutting_planes", lambda solver, *args: (
            seen.append(solver) or planes(solver, *args)))
        value, _ = lp.solve_lp_alpha(inst, alpha)
    solver, = seen
    x = list(solver.solution().values.values())
    return solver.rows(), [inst.d[u][v] for u, v in inst.arcs()], solver.basis(), x, value, None


@pytest.mark.parametrize("case", [
    *((rows, [F(1), F(1)], basis, [F(v) for v in x], F(value), fault)
      for rows, basis, x, value, fault in CERTIFICATE_FAULTS),
    *(_thirds(*case) for case in CERTIFICATE_FAULTS),
    lambda: _alpha_certificate(metric.gen_bad_gap(12), F(1, 2)),
    lambda: _alpha_certificate(metric.gen_random(9, seed=4, max_weight=100), F(2, 3)),
], ids=[*FAULT_IDS, *(f"{name}-thirds" for name in FAULT_IDS), "bad-gap-half",
        "random-two-thirds"])
def test_certificate_checks_each_condition(case):
    rows, costs, basis, x, value, fault = case() if callable(case) else case
    if fault is None:
        # an optimum the simplex certified, over Fraction rows with
        # fractional right-hand sides
        assert any(rhs.denominator > 1 for _, _, rhs in rows)
        lp._certify(rows, costs, basis, x, value)
    else:
        with pytest.raises(InvariantError, match=re.escape(fault)):
            lp._certify(rows, costs, basis, x, value)
    # the optimum [1, 1] of TWO_ROWS, with x1 basic on row 1
    lp._certify(TWO_ROWS, [F(1), F(1)], {0: 0, 1: 1}, [F(1), F(1)], F(2))


class TestLatencyModel:
    def test_two_node_model_optimum(self):
        inst = metric.gen_random(2, seed=5, max_weight=12)
        model = build_full_latency_lp(inst)
        names = set(model.names)
        assert "l[1]" in names and "x[0,1]" in names and "f[1][0,1]" in names
        assert not any(name.startswith("x3") for name in names)
        sol = simplex_solve(model)
        assert sol.status == "optimal"
        assert sol.objective == inst.d[0][1]

    def test_three_node_triple_count(self):
        inst = metric.gen_random(3, seed=2, max_weight=9)
        model = build_full_latency_lp(inst)
        triples = [name for name in model.names if name.startswith("x3[")]
        assert len(triples) == 6

    def test_full_model_feasible_bounded(self):
        inst = metric.gen_random(5, seed=8, max_weight=15)
        sol = simplex_solve(build_full_latency_lp(inst))
        assert sol.status == "optimal"
        assert sol.objective > 0

    def test_unit_metric_three_value(self):
        sol = lp.solve_latency_lp(unit_metric(3))
        assert sol.objective <= 3
        assert sol.objective == oracle.exact_latency(unit_metric(3)).value

    def test_reduced_matches_full_reference(self):
        for n, seed in [(3, 4), (4, 6), (4, 13)]:
            inst = metric.gen_random(n, seed=seed, max_weight=12)
            ref = solve_latency_lp_reference(inst)
            fast = lp.solve_latency_lp(inst)
            assert fast.objective == ref.objective

    def test_solution_verifies_and_bounds_oracle(self):
        for n, seed in [(5, 3), (6, 7)]:
            inst = metric.gen_random(n, seed=seed, max_weight=25)
            sol = lp.solve_latency_lp(inst)
            assert sol.verify(inst) == []
            assert sol.objective <= oracle.exact_latency(inst).value
            assert order_distance_violations(sol, inst) == []

    def test_weighted_objective(self):
        base = metric.gen_random(4, seed=21, max_weight=10)
        weights = (F(1), F(4), F(2), F(3))
        inst = metric.MetricInstance(4, 0, 3, base.d, weights=weights)
        sol = lp.solve_latency_lp(inst)
        assert sol.objective == sum(
            weights[v] * sol.ell[v] for v in range(4) if v != 0
        )
        assert sol.objective <= oracle.exact_latency(inst).value


class TestNormalize:
    def test_all_equal_latencies_unchanged(self):
        inst = unit_metric(3)
        sol = lp.solve_latency_lp(inst)
        # force equal latencies by hand on a copy of the solution
        equal = lp.LatencyLpSolution(
            n=sol.n, s=sol.s, t=sol.t, x=sol.x, x3=sol.x3, flows=sol.flows,
            ell={v: F(5) for v in sol.ell}, objective=F(10),
        )
        floored, sigma = lp.normalize_latencies(equal, inst)
        assert floored.ell == equal.ell
        assert sigma == F(1, 5)

    def test_floor_rule_lifts_small_latency(self):
        inst = unit_metric(3)
        sol = lp.solve_latency_lp(inst)
        skewed = lp.LatencyLpSolution(
            n=sol.n, s=sol.s, t=sol.t, x=sol.x, x3=sol.x3, flows=sol.flows,
            ell={1: F(1, 100), 2: F(9)}, objective=F(1, 100) + 9,
        )
        floored, sigma = lp.normalize_latencies(skewed, inst)
        assert floored.ell[1] == F(9, 9)  # raised to ell(t)/n^2 = 9/9
        assert floored.objective <= (1 + F(1, 3)) * skewed.objective
        assert sigma == 1
        normalized = {v: val * sigma for v, val in floored.ell.items()}
        assert min(normalized.values()) == 1
        assert max(normalized.values()) <= 9

    def test_growth_bound_on_solved_instances(self):
        for seed in (2, 5):
            inst = metric.gen_random(5, seed=seed, max_weight=18)
            sol = lp.solve_latency_lp(inst)
            floored, sigma = lp.normalize_latencies(sol, inst)
            assert floored.objective <= (1 + F(1, 5)) * sol.objective
            normalized = [val * sigma for val in floored.ell.values()]
            assert min(normalized) == 1
            assert max(normalized) <= 25

    def test_zero_latency_rejected(self):
        inst = unit_metric(3)
        sol = lp.solve_latency_lp(inst)
        broken = lp.LatencyLpSolution(
            n=sol.n, s=sol.s, t=sol.t, x=sol.x, x3=sol.x3, flows=sol.flows,
            ell={1: F(0), 2: F(4)}, objective=F(4),
        )
        with pytest.raises(DegenerateLatencyError):
            lp.normalize_latencies(broken, inst)


def _digest(doc):
    return hashlib.sha256(json.dumps(to_json(doc)).encode()).hexdigest()[:16]


# (n, seed, weighted) -> digests of the reduced model, of the cut rows added
# in each round (the distance rows are the first round), and of the full
# solution.  The digests were recorded before the builder of the reduced
# model was rewritten; the cut-round digests were re-recorded once the LP
# started per shape, and with them the solution digests of (5, 1, *), whose
# rounds fell from 2 to 1 at the same optimum
REDUCED_LATENCY_DIGESTS = {
    (2, 0, False): ('ec6b096f6d4d5201', '0fb73e1a60a35ac7', '63e894adbbb497d5'),
    (2, 0, True): ('fe9536a05f5601c9', '0fb73e1a60a35ac7', '0d7e2b945112ecae'),
    (2, 1, False): ('76f3fa39fce60a22', 'dcb6c5101e53938d', '0222dd69f776d621'),
    (2, 1, True): ('07feb86d4fdc7cfc', 'dcb6c5101e53938d', 'bd84d4a0a76eb19f'),
    (2, 2, False): ('0944c1f5f286a03a', '48a1848a47d8452a', '649d8e395044a9b0'),
    (2, 2, True): ('55baca6c632ced24', '48a1848a47d8452a', '799d5642b3798d4c'),
    (3, 0, False): ('00c27f00edf40f99', 'a980babe6d87f3f7', '21290e21ba84d699'),
    (3, 0, True): ('1b99e43eb13c71d3', 'a980babe6d87f3f7', 'bcb990a5e4680cf1'),
    (3, 1, False): ('bb1c81a1f7882686', 'd0dbe3d37b923198', '286c5bf94e4a3307'),
    (3, 1, True): ('3a6ccbfe0cd1db81', 'd0dbe3d37b923198', '95b77f75b2ecde6b'),
    (3, 2, False): ('3174fff8c6e7eb7f', '12e6138073763c60', '322d22d2096c69c5'),
    (3, 2, True): ('ada3f4dd27719f3f', '12e6138073763c60', '4c47cd09241b5976'),
    (4, 0, False): ('e4d268f1cbefac02', '6271a881072eb419', 'cb7f5263cb2c9aa6'),
    (4, 0, True): ('396978a01dae4827', '6271a881072eb419', 'a47ee5fc22a5c610'),
    (4, 1, False): ('53d001678e834ed6', 'd28a76e041e60593', '8ee5c5e3509a5276'),
    (4, 1, True): ('5578a7996dcca0e9', 'd28a76e041e60593', '1b4bb6ed81c17b5b'),
    (4, 2, False): ('6c8d9bd4e2076d8c', 'b35ca5bec94fdfa4', 'da202e1acf10023d'),
    (4, 2, True): ('7d4793b6f5ba9914', 'b35ca5bec94fdfa4', '8a17789f16d174b1'),
    (5, 0, False): ('0d6533b35670b5e2', '6e56457bd137a044', '5ec228dd2c76af20'),
    (5, 0, True): ('138a97955e885dfa', 'ce8170c77f70ee84', '506cd923114f4d8f'),
    (5, 1, False): ('8c303fe70a235e40', '9f64fddbd0c5a053', 'e02562cbaf3a0ef0'),
    (5, 1, True): ('67c3cf289bec5bff', '9f64fddbd0c5a053', '84cf168bbd4090c2'),
    (5, 2, False): ('737f7900490f7ca6', 'c6997689c41cf20e', '662a291e0476a4d9'),
    (5, 2, True): ('897e591495823a19', 'c6997689c41cf20e', '90d7755353abd19e'),
    (6, 0, False): ('b4113689d2a61737', 'da7304559a702629', '55ae47eb2e211c91'),
    (6, 0, True): ('91dec82399d76413', 'da7304559a702629', '7af7e45b2920be92'),
    (6, 1, False): ('b1338f182b6326eb', 'af993fa00fd1cb49', '11da4765732f4003'),
    (6, 1, True): ('9fec528513aa4ebf', 'af993fa00fd1cb49', 'c562d38b9dba596f'),
    (6, 2, False): ('9d2279349d5612ac', '2580a6397494016f', '90e48aced738cd06'),
    (6, 2, True): ('05d16a01821fde29', '58ffa653dc74aed1', '732195f06ecb0800'),
}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reduced_latency_model_cuts_and_solution_are_pinned(monkeypatch, n, seed, weighted):
    inst = pin_instance(n, seed, weighted)
    model = lp.build_latency_lp(inst)
    rounds = []
    add_ge_cut, reoptimize = SimplexSolver.add_ge_cut, SimplexSolver.reoptimize

    def record_cut(solver, coeffs, rhs):
        if not rounds or rounds[-1] is None:
            rounds.append([])
        rounds[-1].append([sorted((solver.model.names[j], c) for j, c in coeffs.items()),
                           rhs])
        return add_ge_cut(solver, coeffs, rhs)

    def record_round(solver):
        rounds.append(None)
        return reoptimize(solver)

    monkeypatch.setattr(SimplexSolver, "add_ge_cut", record_cut)
    monkeypatch.setattr(SimplexSolver, "reoptimize", record_round)
    sol = lp.solve_latency_lp(inst)
    solution = {
        "x": sorted(sol.x.items()),
        "x3": sorted(sol.x3.items()),
        "flows": sorted((v, sorted(f.items())) for v, f in sol.flows.items()),
        "ell": sorted(sol.ell.items()),
        "objective": sol.objective,
        "rounds": sol.rounds,
    }
    got = (_digest([model.names, model.to_jsonable()]),
           _digest([r for r in rounds if r is not None]),
           _digest(solution))
    assert got == REDUCED_LATENCY_DIGESTS[(n, seed, weighted)]


# -- the latency LP from a shared per-shape start ------------------------------


def _tied_instances():
    """Latency instances with ties and zero distances: unit metrics, and
    closures of mixed-denominator costs with zeros, s and t anywhere, and
    weights of mixed denominators."""
    rng = random.Random(4242)
    cases = [unit_metric(n) for n in (3, 4, 5)]
    for n in (3, 4, 4, 5, 5):
        s, t = rng.sample(range(n), 2)
        weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        cases.append(replace(_mixed_closure(rng, n, s, t), weights=weights))
    assert any(0 in row[:u] + row[u + 1:] for inst in cases for u, row in enumerate(inst.d))
    return cases


def test_shape_start_reaches_the_cold_optimum():
    """solve_latency_lp adds the distance rows to the shared start of each
    shape as cut rows, then prices it; its optimum is that of a scratch
    solve of the whole model.  The instances run one after another, so
    each shape's start serves several distance matrices."""
    cases = [pin_instance(n, seed, weighted) for n in range(2, 7) for seed in range(3)
             for weighted in (False, True)]
    for n in range(2, 8):
        for max_weight in (7, 50):
            for seed in range(2 if n == 7 else 3):
                inst = pipeline_instance(n, seed, max_weight)
                cases += [replace(inst, weights=None), inst]
    cases += _tied_instances()
    lp._start.cache_clear()
    for inst in cases:
        assert lp.solve_latency_lp(inst).objective == solve_latency_lp_cold(inst).objective
    hits, misses = lp._start.cache_info()[:2]
    assert hits > misses


def test_latency_start_is_the_model_without_its_distance_rows():
    for inst in [pin_instance(5, 0, True), *_tied_instances()]:
        model = lp.build_latency_lp(inst)
        start, shape = lp._start(lp._latency_model, inst.n, inst.s, inst.t)
        distance = [(">=", shape.distance_row(v, inst.d), 0) for v in shape.lv]
        assert [row for row in model.constraints if row in distance] == distance
        assert start.model.constraints == [
            row for row in model.constraints if row not in distance]
        assert start.model.names == model.names == shape.names
        assert not any(start.model.obj)


def test_latency_start_is_never_mutated():
    """Instances A, B, A of one shape, with other distances and weights,
    A's of mixed denominators: both runs of A agree in every value and the
    cached start keeps its rows, basis and tableau."""
    rng = random.Random(2022)
    n, s, t = 5, 3, 1
    a = replace(_mixed_closure(rng, n, s, t),
                weights=[F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)])
    assert len({w.denominator for w in a.weights}) > 1
    b = replace(_mixed_closure(rng, n, s, t), weights=[rng.randint(1, 9) for _ in range(n)])
    lp._start.cache_clear()
    start, _ = lp._start(lp._latency_model, n, s, t)

    def snapshot():
        return (copy.deepcopy(start.rows()), start.basis(), [row[:] for row in start._rows],
                start._dens[:], start._basis[:], start._obj, start.status, start.pivots)

    def run(inst):
        sol = lp.solve_latency_lp(inst)
        return (sol.ell, sol.x, sol.x3, {v: sorted(f.items()) for v, f in sol.flows.items()},
                sol.rounds, sol.objective)

    before = snapshot()
    first = run(a)
    assert run(b) != first
    assert run(a) == first
    assert snapshot() == before
    assert lp._start.cache_info()[:2] == (3, 1)  # (hits, misses)


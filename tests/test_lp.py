from fractions import Fraction

import pytest

from asympath import lp, metric, oracle
from asympath.errors import DegenerateLatencyError, InputError, InvariantError
from asympath.graphs import ArcFlow
from asympath.simplex import LpModel, SimplexSolver, simplex_solve
from latency_reference import build_full_latency_lp, solve_latency_lp_reference

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

    def test_bad_gap_half_requirement_stays_small(self):
        inst = metric.gen_bad_gap(1000)
        value, flow = lp.solve_lp_alpha(inst, F(1, 2))
        assert value <= 5
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
            assert lp.order_distance_violations(sol, inst) == []

    def test_weighted_objective(self):
        base = metric.gen_random(4, seed=21, max_weight=10)
        weights = (F(1), F(4), F(2), F(3))
        inst = metric.MetricInstance(4, 0, 3, base.d, weights=weights)
        sol = lp.solve_latency_lp(inst, weighted=True)
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
            ell={v: F(5) for v in sol.ell}, objective=F(10), weighted=False,
        )
        floored, sigma = lp.normalize_latencies(equal, inst)
        assert floored.ell == equal.ell
        assert sigma == F(1, 5)

    def test_floor_rule_lifts_small_latency(self):
        inst = unit_metric(3)
        sol = lp.solve_latency_lp(inst)
        skewed = lp.LatencyLpSolution(
            n=sol.n, s=sol.s, t=sol.t, x=sol.x, x3=sol.x3, flows=sol.flows,
            ell={1: F(1, 100), 2: F(9)}, objective=F(1, 100) + 9, weighted=False,
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
            ell={1: F(0), 2: F(4)}, objective=F(4), weighted=False,
        )
        with pytest.raises(DegenerateLatencyError):
            lp.normalize_latencies(broken, inst)

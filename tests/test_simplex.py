import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asympath import simplex
from asympath.errors import InputError, SolverError
from asympath.graphs import max_flow_min_cut
from asympath.lp import (
    _certify, _flow, _start, build_alpha_lp, build_latency_lp, solve_latency_lp,
    solve_lp_alpha,
)
from asympath.metric import gen_random
from asympath.rational import common_denominator
from asympath.simplex import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, LpModel, SimplexSolver, _reduced, simplex_solve,
)
from latency_reference import solve_latency_lp_cold

F = Fraction


def enumerate_vertices(model):
    """Independent oracle: best objective over all basic feasible points.

    Builds the standard equality form from scratch and solves every basis
    candidate by exact Gaussian elimination.  Returns None if no feasible
    basic solution exists.  Only valid for bounded problems.
    """
    nstruct = model.num_vars
    rows = []
    senses = []
    for sense, coeffs, rhs in model.constraints:
        row = [F(0)] * nstruct
        for j, c in coeffs.items():
            row[j] = c
        rows.append((row, rhs))
        senses.append(sense)
    nslack = sum(1 for s in senses if s != "=")
    ncols = nstruct + nslack
    A = []
    b = []
    si = nstruct
    for (row, rhs), sense in zip(rows, senses):
        full = row + [F(0)] * nslack
        if sense == "<=":
            full[si] = F(1)
            si += 1
        elif sense == ">=":
            full[si] = F(-1)
            si += 1
        A.append(full)
        b.append(rhs)
    m = len(A)
    best = None
    cost = list(model.obj) + [F(0)] * nslack
    for cols in combinations(range(ncols), m):
        sol = _solve_square([[A[i][j] for j in cols] for i in range(m)], list(b))
        if sol is None or any(x < 0 for x in sol):
            continue
        x = [F(0)] * ncols
        for j, v in zip(cols, sol):
            x[j] = v
        obj = sum(c * v for c, v in zip(cost, x))
        if best is None or obj < best:
            best = obj
    return best


def _solve_square(mat, rhs):
    n = len(mat)
    mat = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = F(1) / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * c for a, c in zip(mat[r], mat[col])]
    return [mat[i][n] for i in range(n)]


def test_single_lower_bound():
    m = LpModel()
    x = m.add_var("x", obj=1)
    m.add_ge({x: 1}, 3)
    sol = simplex_solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == 3
    assert sol.values["x"] == 3


def test_two_var_sum_bound():
    m = LpModel()
    x = m.add_var("x", obj=1)
    y = m.add_var("y", obj=1)
    m.add_ge({x: 1, y: 1}, 1)
    sol = simplex_solve(m)
    assert sol.status == OPTIMAL and sol.objective == 1


def test_equality_and_fractional_answer():
    m = LpModel()
    x = m.add_var("x", obj=F(1, 3))
    y = m.add_var("y", obj=F(1, 7))
    m.add_eq({x: 2, y: 3}, F(5, 2))
    sol = simplex_solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == F(5, 2) * F(1, 7) / 3  # all weight on y


def test_infeasible_reported():
    m = LpModel()
    x = m.add_var("x", obj=1)
    m.add_le({x: 1}, 1)
    m.add_ge({x: 1}, 2)
    assert simplex_solve(m).status == INFEASIBLE


def test_unbounded_reported():
    m = LpModel()
    x = m.add_var("x", obj=-1)
    sol = simplex_solve(m)
    assert sol.status == UNBOUNDED


def test_degenerate_lp_terminates():
    m = LpModel()
    xs = [m.add_var(f"x{i}", obj=1) for i in range(4)]
    for i in range(4):
        m.add_ge({xs[i]: 1, xs[(i + 1) % 4]: 1}, 1)
        m.add_ge({xs[i]: 1, xs[(i + 2) % 4]: 1}, 1)
    sol = simplex_solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == 2


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(2024)
    tried = 0
    for trial in range(40):
        m = LpModel()
        nv = rng.randint(2, 5)
        xs = [m.add_var(f"x{i}", obj=F(rng.randint(1, 9), rng.randint(1, 3))) for i in range(nv)]
        nc = rng.randint(2, 8)
        for _ in range(nc):
            coeffs = _random_coeffs(rng, nv, -4, 6, 0.7)
            if not coeffs:
                continue
            _add_row(m, rng.choice(["<=", ">=", "="]), coeffs, _random_rational(rng, -3, 10))
        # positive objective coefficients keep the problem bounded below
        expected = enumerate_vertices(m)
        sol = simplex_solve(m)
        tried += 1
        if expected is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective == expected
    assert tried == 40


def _random_rational(rng, lo, hi):
    # denominator 1 half the time, otherwise 2, 3 or 4
    return F(rng.randint(lo, hi), rng.choice([1, 1, 1, 2, 3, 4]))


def _random_coeffs(rng, nv, lo, hi, density):
    coeffs = {j: _random_rational(rng, lo, hi) for j in range(nv) if rng.random() < density}
    return {j: c for j, c in coeffs.items() if c}


def _add_row(model, sense, coeffs, rhs):
    {"<=": model.add_le, ">=": model.add_ge, "=": model.add_eq}[sense](coeffs, rhs)


def test_cut_and_reoptimize_matches_fresh_solve():
    rng = random.Random(99)
    reoptimized = infeasible_cuts = 0
    for trial in range(30):
        m = LpModel()
        nv = rng.randint(2, 4)
        for i in range(nv):
            m.add_var(f"x{i}", obj=_random_rational(rng, 1, 5))
        for _ in range(3):
            coeffs = _random_coeffs(rng, nv, -2, 4, 0.8) or {0: F(1)}
            _add_row(m, rng.choice(["<=", ">=", ">=", "="]), coeffs, _random_rational(rng, -2, 8))

        solver = SimplexSolver(m)
        sol = solver.solve()
        if enumerate_vertices(m) is None:
            assert sol.status == INFEASIBLE
            continue
        assert sol.status == OPTIMAL

        fresh = LpModel()
        for i in range(nv):
            fresh.add_var(f"x{i}", obj=m.obj[i])
        fresh.constraints = list(m.constraints)
        for _ in range(3):
            coeffs = _random_coeffs(rng, nv, -1, 3, 0.8) or {rng.randrange(nv): F(1)}
            rhs = _random_rational(rng, -2, 6)
            solver.add_ge_cut(coeffs, rhs)
            fresh.add_ge(coeffs, rhs)
            sol = solver.reoptimize()
            expected = enumerate_vertices(fresh)
            ref = simplex_solve(fresh)
            if expected is None:
                assert sol.status == ref.status == INFEASIBLE
                infeasible_cuts += 1
                break
            assert sol.status == ref.status == OPTIMAL
            assert sol.objective == ref.objective == expected
            reoptimized += 1
    assert reoptimized >= 20 and infeasible_cuts >= 1


def _costs(obj):
    """Exact costs as with_objective takes them: int numerators over one
    positive int denominator."""
    den = common_denominator(obj)
    return [c.numerator * (den // c.denominator) for c in obj], den


def test_priced_start_matches_a_fresh_solve():
    """One started solver priced with several objectives takes each fresh
    solve's pivots to the same result, before and after a cut, and is
    left as it was."""
    rng = random.Random(4242)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for trial in range(40):
        m = LpModel()
        nv = rng.randint(2, 5)
        for i in range(nv):
            m.add_var(f"x{i}")
        for _ in range(rng.randint(2, 8)):
            coeffs = _random_coeffs(rng, nv, -4, 6, 0.7)
            if coeffs:
                _add_row(m, rng.choice(["<=", ">=", "="]), coeffs, _random_rational(rng, -3, 10))
        start = SimplexSolver(m).start()
        before = ([row[:] for row in start._rows], start._dens[:], start._basis[:], start.pivots)
        for _ in range(3):
            # a negative cost leaves some objectives unbounded
            obj = [_random_rational(rng, -2, 9) for _ in range(nv)]
            fresh_model = LpModel()
            for i, c in enumerate(obj):
                fresh_model.add_var(f"x{i}", obj=c)
            fresh_model.constraints = list(m.constraints)
            fresh = SimplexSolver(fresh_model)
            priced = start.with_objective(*_costs(obj))
            assert priced.solve() == fresh.solve()
            assert priced.pivots == fresh.pivots
            statuses[fresh.status] += 1
            if fresh.status == OPTIMAL:
                cut = _random_coeffs(rng, nv, 0, 4, 0.8) or {0: F(1)}, _random_rational(rng, 1, 6)
                for solver in (priced, fresh):
                    solver.add_ge_cut(*cut)
                assert priced.reoptimize() == fresh.reoptimize()
                assert priced.pivots == fresh.pivots
        assert ([row[:] for row in start._rows], start._dens[:], start._basis[:],
                start.pivots) == before
    assert statuses[OPTIMAL] >= 30 and statuses[INFEASIBLE] >= 5 and statuses[UNBOUNDED] >= 5


def test_cuts_added_before_pricing_match_a_fresh_solve():
    """with_objective's cuts join the started rows before the copy is
    priced; its optimum is that of a fresh solve of the rows and the cuts
    together, and the started solver is left as it was."""
    rng = random.Random(2718)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for trial in range(80):
        m = LpModel()
        nv = rng.randint(2, 5)
        for i in range(nv):
            m.add_var(f"x{i}")
        for _ in range(rng.randint(1, 6)):
            coeffs = _random_coeffs(rng, nv, -4, 6, 0.7)
            if coeffs:
                _add_row(m, rng.choice(["<=", ">=", "="]), coeffs, _random_rational(rng, -3, 10))
        start = SimplexSolver(m).start()
        if start.status == INFEASIBLE:
            continue
        before = ([row[:] for row in start._rows], start._dens[:], start._basis[:], start.pivots)
        cuts = [(_random_coeffs(rng, nv, -3, 4, 0.8) or {0: F(1)}, _random_rational(rng, -2, 6))
                for _ in range(rng.randint(1, 3))]
        obj = [_random_rational(rng, -4, 9) for _ in range(nv)]
        fresh_model = LpModel()
        for i, c in enumerate(obj):
            fresh_model.add_var(f"x{i}", obj=c)
        fresh_model.constraints = list(m.constraints)
        for coeffs, rhs in cuts:
            fresh_model.add_ge(coeffs, rhs)
        priced = start.with_objective(*_costs(obj), cuts)
        got, want = priced.solve(), SimplexSolver(fresh_model).solve()
        assert (got.status, got.objective) == (want.status, want.objective)
        assert len(priced.rows()) == len(m.constraints) + len(cuts)
        statuses[want.status] += 1
        assert ([row[:] for row in start._rows], start._dens[:], start._basis[:],
                start.pivots) == before
    assert statuses[OPTIMAL] >= 15 and statuses[INFEASIBLE] >= 10 and statuses[UNBOUNDED] >= 5


def test_with_objective_needs_a_started_unpriced_solver():
    m = LpModel()
    x = m.add_var("x")
    m.add_ge({x: 1}, 2)
    with pytest.raises(SolverError):
        SimplexSolver(m).with_objective([1], 1)
    start = SimplexSolver(m).start()
    priced = start.with_objective([3], 2)
    with pytest.raises(SolverError):
        priced.with_objective([1], 1)
    assert priced.solve().objective == 3
    for nums, den in (([1, 1], 1), ([1], 0), ([1], True)):
        with pytest.raises(InputError):
            start.with_objective(nums, den)
    # a bool is not an int cost, and a rational cost goes in as nums / den
    for nums in ([True], [F(1, 2)], [0.5]):
        with pytest.raises(TypeError):
            start.with_objective(nums, 1)
    # a started solver solves with its model's own objective
    assert start.solve().objective == 0


def test_solution_values_satisfy_constraints_exactly():
    rng = random.Random(31)
    for trial in range(20):
        m = LpModel()
        nv = rng.randint(2, 5)
        for i in range(nv):
            m.add_var(f"x{i}", obj=F(rng.randint(1, 6)))
        rows = []
        for _ in range(rng.randint(2, 6)):
            coeffs = {j: F(rng.randint(1, 5)) for j in range(nv) if rng.random() < 0.8}
            if not coeffs:
                continue
            rhs = F(rng.randint(1, 12))
            m.add_ge(coeffs, rhs)
            rows.append((coeffs, rhs))
        sol = simplex_solve(m)
        assert sol.status == OPTIMAL
        vals = [sol.values[f"x{i}"] for i in range(nv)]
        for coeffs, rhs in rows:
            assert sum(c * vals[j] for j, c in coeffs.items()) >= rhs
        assert all(v >= 0 for v in vals)
        assert sol.objective == sum(m.obj[j] * vals[j] for j in range(nv))


def test_pivot_path_is_pinned():
    """Pivot counts and optima recorded with the Fraction tableau: any
    change to pricing, ratio tests or tie-breaking shows up here."""
    # seed -> (solve pivots, LP objective, total pivots after one cut round, objective)
    for seed, expected in {5: (58, 100, 63, 107), 7: (59, 130, 60, 140)}.items():
        inst = gen_random(12, seed=seed, max_weight=100)
        model, xv = build_alpha_lp(inst, 1)
        solver = SimplexSolver(model)
        first = solver.solve()
        first_pivots = solver.pivots
        flow = _flow(list(first.values.values()), xv)
        cuts = set()
        for v in range(inst.n):
            if v != inst.s:
                value, cut = max_flow_min_cut(flow, inst.s, v, nodes=range(inst.n))
                if value < 1:
                    cuts.add(cut)
        assert cuts
        for cut in sorted(cuts, key=sorted):
            solver.add_ge_cut({xv[(u, w)]: 1 for u in range(inst.n) if u not in cut
                               for w in cut if w != u}, 1)
        second = solver.reoptimize()
        assert (first_pivots, first.objective, solver.pivots, second.objective) == expected

    for seed, expected in {1: (60, 146), 2: (67, 94)}.items():
        solver = SimplexSolver(build_latency_lp(gen_random(5, seed=seed, max_weight=50)))
        sol = solver.solve()
        assert (solver.pivots, sol.objective) == expected


def _infeasible_model():
    m = LpModel()
    x = m.add_var("x", obj=1)
    m.add_le({x: 1}, 1)
    m.add_ge({x: 1}, 2)
    return m


def _unbounded_model():
    m = LpModel()
    x = m.add_var("x", obj=-1)
    m.add_ge({x: 1}, 1)
    return m


@pytest.mark.parametrize("model", [_infeasible_model, _unbounded_model])
def test_reoptimize_refuses_a_failed_solve(model):
    solver = SimplexSolver(model())
    assert solver.solve().status in (INFEASIBLE, UNBOUNDED)
    with pytest.raises(SolverError):
        solver.reoptimize()
    with pytest.raises(SolverError):
        solver.add_ge_cut({0: 1}, 0)


def test_reoptimize_and_cuts_need_a_solve():
    solver = SimplexSolver(_infeasible_model())
    with pytest.raises(SolverError):
        solver.reoptimize()
    with pytest.raises(SolverError):
        solver.add_ge_cut({0: 1}, 0)


def test_cut_rows_name_structural_variables_only():
    m = LpModel()
    x = m.add_var("x", obj=1)
    m.add_ge({x: 1}, 1)
    solver = SimplexSolver(m)
    assert solver.solve().objective == 1
    for bad in ({1: 1}, {5: 1}, {-1: 1}):  # a slack column, past the tableau, negative
        with pytest.raises(InputError):
            solver.add_ge_cut(bad, 5)
    solver.add_ge_cut({x: F(1, 2)}, F(5, 2))
    sol = solver.reoptimize()
    assert sol.status == OPTIMAL and sol.objective == 5


def _beale_phase1_model(K):
    """Beale's cycling LP moved into phase 1: the artificial of the last
    row equals K + c.x, so Dantzig pricing stalls on it until the Bland
    switch."""
    m = LpModel()
    for i in range(4):
        m.add_var(f"x{i}", obj=1)
    m.add_le({0: F(1, 4), 1: -8, 2: -1, 3: 9}, 0)
    m.add_le({0: F(1, 2), 1: -12, 2: F(-1, 2), 3: 3}, 0)
    m.add_le({2: 1}, 1)
    c = (F(-3, 4), 20, F(-1, 2), 6)
    m.add_eq({j: -cj for j, cj in enumerate(c)}, K)
    return m


@pytest.mark.parametrize("K, expected", [
    (F(5, 4), (OPTIMAL, 2, 93)),
    (1, (OPTIMAL, F(8, 5), 91)),
    (2, (INFEASIBLE, None, 90)),
])
def test_phase1_stall_path_is_pinned(K, expected):
    """Counts recorded when the artificial columns were stored: the
    phase-1 stall limit still counts them."""
    solver = SimplexSolver(_beale_phase1_model(K))
    sol = solver.solve()
    assert (sol.status, sol.objective, solver.pivots) == expected


def test_redundant_equality_row_is_dropped():
    m = LpModel()
    x = m.add_var("x", obj=2)
    y = m.add_var("y", obj=3)
    z = m.add_var("z", obj=1)
    m.add_eq({x: 1, y: 1, z: 1}, 4)
    m.add_eq({x: 2, y: 2, z: 2}, 8)  # twice the row above
    m.add_ge({x: 1, z: -1}, 1)
    m.add_le({y: 1}, 3)
    solver = SimplexSolver(m)
    sol = solver.solve()
    assert (sol.status, sol.objective, solver.pivots, len(solver._rows)) == (OPTIMAL, F(13, 2), 2, 3)
    assert sol.values == {"x": F(5, 2), "y": 0, "z": F(3, 2)}
    solver.add_ge_cut({y: 1}, 1)
    sol = solver.reoptimize()
    assert (sol.status, sol.objective, solver.pivots) == (OPTIMAL, 8, 3)
    m.add_ge({y: 1}, 1)
    assert simplex_solve(m) == sol


def _duplicated_row_model():
    """Four rows, the second twice the first, so phase 1 drops one."""
    m = LpModel()
    x = m.add_var("x", obj=2)
    y = m.add_var("y", obj=3)
    z = m.add_var("z", obj=1)
    m.add_eq({x: 1, y: 1, z: 1}, 4)
    m.add_eq({x: 2, y: 2, z: 2}, 8)
    m.add_ge({x: 1, z: -1}, 1)
    m.add_le({y: 1}, 3)
    return m


def test_basis_names_rows_through_the_purge_and_cuts():
    m = _duplicated_row_model()
    solver = SimplexSolver(m)
    with pytest.raises(SolverError):
        solver.basis()  # nothing built yet
    sol = solver.solve()
    # row 1 was dropped, so it is absent, and rows 2 and 3 keep their
    # numbers: z on row 0, x on row 2, and row 3's slack (3 + 3) basic
    assert solver.basis() == {0: 2, 2: 0, 3: 6}
    assert solver.rows() == m.constraints
    _certify(solver.rows(), m.obj, solver.basis(), list(sol.values.values()), sol.objective)
    solver.add_ge_cut({1: 1}, 1)
    assert solver.basis() == {0: 2, 2: 0, 3: 6, 4: 7}  # the cut is row 4, its slack basic
    assert solver.rows() == [*m.constraints, (">=", {1: F(1)}, F(1))]
    sol = solver.reoptimize()
    assert solver.basis() == {0: 2, 2: 0, 3: 6, 4: 1}
    _certify(solver.rows(), m.obj, solver.basis(), list(sol.values.values()), sol.objective)
    # a second cut is row 5, with the slack column after the first cut's
    solver.add_ge_cut({0: 1, 1: 1}, 4)
    assert solver.basis() == {0: 2, 2: 0, 3: 6, 4: 1, 5: 8}
    sol = solver.reoptimize()
    _certify(solver.rows(), m.obj, solver.basis(), list(sol.values.values()), sol.objective)
    with pytest.raises(SolverError):
        SimplexSolver(_infeasible_model()).start().basis()


def test_priced_copy_has_its_own_rows():
    m = _duplicated_row_model()
    start = SimplexSolver(m).start()
    basis, rows = start.basis(), start.rows()
    for costs in ([2, 3, 1], [1, 1, 5], [4, 1, 1]):
        priced = start.with_objective(costs, 1)
        priced.solve()
        for cut in (({1: 1}, 1), ({0: 1, 1: 1}, 4)):
            priced.add_ge_cut(*cut)
        sol = priced.reoptimize()
        # a cut list shared with the start or an earlier copy would list
        # and number the cuts of the copies before
        assert set(priced.basis()) == {0, 2, 3, 4, 5} and len(priced.rows()) == 6
        _certify(priced.rows(), [F(c) for c in costs], priced.basis(),
                 list(sol.values.values()), sol.objective)
        assert (start.basis(), start.rows()) == (basis, rows)


def test_every_optimum_certifies():
    """Random LPs, each solved, cut twice and reoptimized: every optimal
    basis gives an exact dual certificate of its value."""
    rng = random.Random(977)
    certified = dropped = 0
    for trial in range(100):
        m = LpModel()
        nv = rng.randint(2, 6)
        for i in range(nv):
            m.add_var(f"x{i}", obj=_random_rational(rng, 0, 9))
        for _ in range(rng.randint(2, 8)):
            coeffs = _random_coeffs(rng, nv, -4, 6, 0.7)
            if coeffs:
                _add_row(m, rng.choice(["<=", ">=", "=", "="]), coeffs,
                         _random_rational(rng, -3, 10))
        if trial % 2 and m.constraints:  # a redundant copy of a row
            sense, coeffs, rhs = rng.choice(m.constraints)
            _add_row(m, sense, {j: 3 * c for j, c in coeffs.items()}, 3 * rhs)
        solver = SimplexSolver(m)
        sol = solver.solve()
        if sol.status == OPTIMAL:
            dropped += len(solver.basis()) < len(m.constraints)
        for _ in range(3):
            if sol.status != OPTIMAL:
                break
            _certify(solver.rows(), m.obj, solver.basis(), list(sol.values.values()),
                     sol.objective)
            certified += 1
            solver.add_ge_cut(_random_coeffs(rng, nv, 0, 4, 0.8) or {0: F(1)},
                              _random_rational(rng, 1, 6))
            sol = solver.reoptimize()
    assert certified >= 80 and dropped >= 5


# -- lazy row reduction ------------------------------------------------------


def _lazy_and_eager(run):
    """run() with the default lazy reduction and with every eliminated row
    brought to lowest terms (a threshold of 2**0), the eager reference.

    Asserts that both take the same (row, column) pivots, return the same
    result and end with every solver's tableau equal after reduction.
    Returns the lazy run's pivots and result, and whether any of its final
    rows was left unreduced.
    """
    runs = []
    for bits in (simplex._REDUCE_BITS, 0):
        # each run builds and starts its LP afresh, under its own threshold
        _start.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simplex, "_REDUCE_BITS", bits)
            pivots, solvers = [], []
            pivot, solve = SimplexSolver._pivot, SimplexSolver.solve

            def pivot_spy(self, r, c):
                pivots.append((r, c))
                return pivot(self, r, c)

            def solve_spy(self):
                solvers.append(self)
                return solve(self)

            mp.setattr(SimplexSolver, "_pivot", pivot_spy)
            mp.setattr(SimplexSolver, "solve", solve_spy)
            result = run()
        raw = [(list(zip(sv._rows, sv._dens)), (sv._obj, sv._obj_den)) for sv in solvers]
        runs.append((pivots, result, raw))
    (pivots, result, raw), (eager_pivots, eager_result, eager_raw) = runs
    assert pivots == eager_pivots
    assert result == eager_result

    def lowest_terms(tableaus):
        return [([_reduced(list(row), den) for row, den in rows], _reduced(list(obj), obj_den))
                for rows, (obj, obj_den) in tableaus]

    assert lowest_terms(raw) == lowest_terms(eager_raw)
    return pivots, result, raw != eager_raw


def _cut_scenario(model, cut_rounds):
    """Solve, then add each round of cuts and reoptimize; every solution."""
    solver = SimplexSolver(model)
    sols = [solver.solve()]
    for cuts in cut_rounds:
        if sols[-1].status != OPTIMAL:
            break
        for coeffs, rhs in cuts:
            solver.add_ge_cut(coeffs, rhs)
        sols.append(solver.reoptimize())
    return sols


def _rational(rng, lo, hi):
    return F(rng.randint(lo, hi), rng.randint(1, 9))


def test_lazy_reduction_takes_the_eager_path_with_cuts():
    rng = random.Random(909)
    pivots = reoptimized = unreduced = 0
    for trial in range(40):
        m = LpModel()
        nv = rng.randint(4, 8)
        for i in range(nv):
            m.add_var(f"x{i}", obj=_rational(rng, 1, 9))
        for _ in range(rng.randint(4, 9)):
            coeffs = {j: _rational(rng, -5, 9) for j in range(nv) if rng.random() < 0.7}
            coeffs = {j: c for j, c in coeffs.items() if c} or {0: F(1)}
            _add_row(m, rng.choice(["<=", ">=", ">=", "="]), coeffs, _rational(rng, -3, 12))
        cut_rounds = [
            [({j: _rational(rng, 0, 5) for j in range(nv)}, _rational(rng, 1, 9))
             for _ in range(rng.randint(1, 2))]
            for _ in range(3)
        ]
        path, sols, lazy = _lazy_and_eager(lambda: _cut_scenario(m, cut_rounds))
        pivots += len(path)
        reoptimized += sum(sol.status == OPTIMAL for sol in sols[1:])
        unreduced += lazy
    assert pivots >= 200 and reoptimized >= 25 and unreduced >= 30


@pytest.mark.parametrize("n, seed", [(5, 1), (5, 4), (6, 3)])
def test_lazy_reduction_takes_the_eager_path_on_latency_lps(n, seed):
    """From the shared start and from a scratch solve of the whole model,
    whose longer pivot path leaves rows unreduced on every instance here."""
    inst = gen_random(n, seed=seed, max_weight=50)
    path, _, lazy = _lazy_and_eager(lambda: (solve_latency_lp(inst), solve_latency_lp_cold(inst)))
    assert path and lazy


@pytest.mark.parametrize("seed", [5, 7, 11])
def test_lazy_reduction_takes_the_eager_path_on_lp_alpha(seed):
    inst = gen_random(12, seed=seed, max_weight=100)
    path, _, lazy = _lazy_and_eager(lambda: solve_lp_alpha(inst, 1))
    assert path


# Mersenne primes past the lazy-reduction threshold: a row with one of
# them as a denominator starts there
BIG_PRIMES = [2**521 - 1, 2**607 - 1, 2**1279 - 1]
BIG_DENOMINATOR = st.sampled_from([1, 2, 3, *BIG_PRIMES])


@st.composite
def big_denominator_lps(draw):
    """Bounded LPs (positive costs) whose entries have large prime
    denominators; a covering row makes x = 0 infeasible, so phase 1
    pivots."""
    m = LpModel()
    nv = draw(st.integers(2, 4))
    for i in range(nv):
        m.add_var(f"x{i}", obj=F(draw(st.integers(1, 9)), draw(st.sampled_from(BIG_PRIMES))))
    positive = st.builds(F, st.integers(1, 9), BIG_DENOMINATOR)
    m.add_ge({j: draw(positive) for j in range(nv)}, draw(positive))
    for _ in range(draw(st.integers(1, 3))):
        coeffs = {j: F(draw(st.integers(-6, 9)), draw(BIG_DENOMINATOR)) for j in range(nv)}
        coeffs = {j: c for j, c in coeffs.items() if c} or {0: F(1)}
        rhs = F(draw(st.integers(-4, 12)), draw(BIG_DENOMINATOR))
        _add_row(m, draw(st.sampled_from(["<=", ">=", "="])), coeffs, rhs)
    return m


@settings(derandomize=True, max_examples=60, deadline=None)
@given(big_denominator_lps())
def test_large_prime_denominators_are_reduced_and_match_vertex_enumeration(model):
    with pytest.MonkeyPatch.context() as mp:
        reductions, inside = [], []
        eliminate, reduced = simplex._eliminate, simplex._reduced

        def eliminate_spy(*args):
            inside.append(True)
            try:
                return eliminate(*args)
            finally:
                inside.pop()

        def reduced_spy(nums, den):
            if inside:
                reductions.append(den)
            return reduced(nums, den)

        mp.setattr(simplex, "_eliminate", eliminate_spy)
        mp.setattr(simplex, "_reduced", reduced_spy)
        solver = SimplexSolver(model)
        sol = solver.solve()
    # the reduction branch of _eliminate ran, and only past the threshold
    assert min(BIG_PRIMES) >> simplex._REDUCE_BITS
    assert solver.pivots and reductions
    assert all(den >> simplex._REDUCE_BITS for den in reductions)
    expected = enumerate_vertices(model)
    if expected is None:
        assert sol.status == INFEASIBLE
    else:
        assert sol.status == OPTIMAL and sol.objective == expected
    _, result, _ = _lazy_and_eager(lambda: simplex_solve(model))
    assert result == sol

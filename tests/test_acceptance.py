"""End-to-end acceptance suite.

Each test exercises one verification target with exact arithmetic (no
tolerances anywhere) and prints one PASS line with the witnessed
quantities.  The heavy workloads (the 50-instance path suite and the
25-instance latency suite) are computed once per module and shared.
"""

import time
from fractions import Fraction

import pytest

from asympath import atspp, cover, latency, lp, metric, oracle
from asympath.graphs import ArcFlow
from asympath.latency import assembled_bound_factor
from asympath.rational import ceil_log2_int

from bruteforce import brute_atspp, brute_latency

F = Fraction


# ---------------------------------------------------------------------
# shared workloads
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def path_suite():
    """Fifty random instances, n in [6,10]: solver, LP bound, exact optimum."""
    runs = []
    t0 = time.perf_counter()
    for idx in range(50):
        n = 6 + idx % 5
        inst = metric.gen_random(n, seed=1000 + idx, max_weight=100)
        hp, state = atspp.solve_atspp(inst)
        bound, _ = lp.solve_lp_alpha(inst, 1)
        opt = oracle.exact_atspp(inst).value
        runs.append({"n": n, "inst": inst, "path": hp, "state": state,
                     "lp": bound, "opt": opt})
    elapsed = time.perf_counter() - t0
    return runs, elapsed


LATENCY_PLAN = [5] * 10 + [6] * 6 + [7] * 4 + [8] * 3 + [9] * 2


@pytest.fixture(scope="module")
def latency_suite():
    """Twenty-five random instances, n in [5,9], positive integer distances."""
    runs = []
    for idx, n in enumerate(LATENCY_PLAN):
        inst = metric.gen_random(n, seed=2000 + idx, max_weight=50)
        order, state = latency.solve_latency(inst)
        opt = oracle.exact_latency(inst).value
        runs.append({"n": n, "inst": inst, "order": order, "state": state,
                     "opt": opt})
    return runs


# ---------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------


def test_criterion_1_bad_gap_reproduction():
    t0 = time.perf_counter()
    inst = metric.gen_bad_gap(1000)
    value, flow = lp.solve_lp_alpha(inst, F(1, 2))
    assert value <= 5
    cert = ArcFlow(metric.bad_gap_flow())
    assert lp.flow_alpha_violations(6, 0, 5, cert, F(1, 2)) == []
    assert cert.cost(inst) == 5
    opt = oracle.exact_atspp(inst).value
    assert opt >= 1000
    assert opt / value >= 200
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS: half-cut LP value {value}, below the cost 5 of "
          f"bad_gap_flow, exact optimum {opt} >= 1000, gap {float(opt / value):.0f} "
          f">= 200, {elapsed:.2f}s")


def test_criterion_2_log_factor_bound(path_suite):
    runs, elapsed = path_suite
    assert len(runs) >= 50
    worst = F(0)
    for run in runs:
        budget = 2 * ceil_log2_int(run["n"]) + 1
        assert run["path"].cost <= budget * run["lp"]
        assert run["path"].cost >= run["opt"]
        if run["lp"] > 0:
            worst = max(worst, run["path"].cost / run["lp"])
    assert elapsed < 60.0
    print(f"\n[criterion 2] PASS: {len(runs)} runs, cost <= (2 ceil(lg n)+1) * LP "
          f"and >= exact optimum; worst LP ratio {float(worst):.3f}; "
          f"{elapsed:.1f}s < 60s")


def test_criterion_3_cover_loop_invariants(path_suite):
    runs, _ = path_suite
    failed = [c for run in runs for c in run["state"].checks if not c["pass"]]
    assert failed == []
    names = {c["name"] for run in runs for c in run["state"].checks}
    required = {
        "two-unit-indegree-nodes",
        "label-bound",
        "path-count-balance",
        "consecutive-share-arc",
        "single-shared-splice-node",
    }
    assert required <= names
    total = sum(len(run["state"].checks) for run in runs)
    print(f"\n[criterion 3] PASS: {total} per-iteration checks across "
          f"{len(runs)} runs, zero violations, all five families exercised")


def test_criterion_4_cover_cost_bounds():
    import random as _random

    rng = _random.Random(77)
    checked = 0
    for trial in range(20):
        n = rng.randint(6, 9)
        inst = metric.gen_random(n, seed=500 + trial, max_weight=60)
        members = [v for v in range(1, n - 1) if rng.random() < 0.7]
        W = {0, n - 1, *members}
        value_full, _ = lp.solve_lp_alpha(inst, 1)
        pc = cover.min_k_path_cycle_cover(inst, W, 1)
        assert pc.cost <= value_full
        for k in (2, 3):
            value_k, _ = lp.solve_lp_alpha(inst, F(1, k))
            kc = cover.min_k_path_cycle_cover(inst, W, k)
            assert kc.cost <= k * value_k
        checked += 1
    assert checked == 20
    print(f"\n[criterion 4] PASS: 20 (instance, W) pairs, single cover <= LP(1) "
          f"and k-cover <= k*LP(1/k) for k in {{2,3}}, exact")


def test_criterion_5_rounding_and_chain():
    alphas = [F(2, 3), F(9, 10), F(1)]
    for trial in range(10):
        n = 6 + trial % 3
        inst = metric.gen_random(n, seed=600 + trial, max_weight=45)
        hp, _ = atspp.solve_atspp(inst)
        for alpha in alphas:
            value, x = lp.solve_lp_alpha(inst, alpha)
            rounded, cert = cover.strengthen_fractional_cover(x, alpha, inst, range(n))
            factor = F(3) / (2 * alpha - 1)
            assert cert["output_cost"] <= factor * cert["input_cost"]
            budget = (2 * ceil_log2_int(n) + 1) * factor * value
            assert hp.cost <= budget
    print("\n[criterion 5] PASS: rounding feasible with cost factor 3/(2a-1) "
          "for a in {2/3, 9/10, 1} on 10 instances; full chain bound holds")


def test_criterion_6_multipath_budget():
    checked = 0
    for trial in range(20):
        k = 2 + trial % 2
        n = 6 + trial % 4
        inst = metric.gen_random(n, seed=700 + trial, max_weight=55)
        paths = atspp.multipath_cover(inst, k)
        budget = k * ceil_log2_int(n)
        assert len(paths) <= budget
        assert {v for p in paths for v in p} == set(range(n))
        value, _ = lp.solve_lp_alpha(inst, F(1, k))
        total = sum((inst.path_cost(p) for p in paths), F(0))
        assert total <= budget * value
        checked += 1
    assert checked == 20
    print("\n[criterion 6] PASS: 20 runs, k in {2,3}, n in [6,9]: at most "
          "k ceil(lg n) covering paths of total cost <= k ceil(lg n) * LP(1/k)")


def test_criterion_7_k_person():
    k = 2
    ratios = []
    for trial, n in enumerate([6, 7, 8, 6, 7, 8]):
        inst = metric.gen_random(n, seed=800 + trial, max_weight=40)
        (paths, total), state = atspp.solve_k_person(inst, k)
        assert len(paths) == k
        assert {v for p in paths for v in p} == set(range(n))
        T = (k + 1) * ceil_log2_int(n) + 1
        value, _ = lp.solve_lp_alpha(inst, F(1, k))
        assert total <= k * T * (k * value)
        opt = oracle.exact_k_person(inst, k).value
        assert total >= opt
        ratios.append(total / opt)
    worst = max(ratios)
    print(f"\n[criterion 7] PASS: k=2 on n in [6,8]: exact coverage with k paths, "
          f"cost within k*T*(k*LP(1/k)); ratio to exact optimum recorded, "
          f"worst {float(worst):.3f}")


def test_criterion_8_latency_end_to_end(latency_suite):
    assert len(latency_suite) >= 25
    worst_ratio = F(0)
    for run in latency_suite:
        n = run["n"]
        state = run["state"]
        total = run["order"].total
        assert total >= run["opt"]
        bound = assembled_bound_factor(n) * state.lp_objective
        assert total <= bound
        ratio = total / state.lp_objective
        assert ratio <= 200
        worst_ratio = max(worst_ratio, ratio)
    print(f"\n[criterion 8] PASS: {len(latency_suite)} runs, n in [5,9]: total "
          f"latency between the exact optimum and the assembled bound; worst "
          f"LP ratio {float(worst_ratio):.3f} <= 200")


def test_criterion_9_latency_run_checks(latency_suite):
    failed = [c for run in latency_suite for c in run["state"].checks
              if not c["pass"]]
    assert failed == []
    names = {c["name"] for run in latency_suite for c in run["state"].checks}
    required = {
        "family-append",        # short hops onto the running route
        "strong-append",        # pivot-path hop bound
        "quarter-shrink",       # bucket decay per scale
        "bucket-lower-bound",   # objective dominates the bucket sum
        "normalization-floor",
        "normalization-spread",
        "normalization-growth",
        "tail-append",
    }
    assert required <= names
    total = sum(len(run["state"].checks) for run in latency_suite)
    print(f"\n[criterion 9] PASS: {total} per-run latency checks across "
          f"{len(latency_suite)} runs, zero violations")


def test_criterion_10_oracle_cross_checks():
    for trial in range(20):
        n = 5 + trial % 4
        inst = metric.gen_random(n, seed=900 + trial, max_weight=70)
        dp_path = oracle.exact_atspp(inst)
        brute_path, _ = brute_atspp(inst)
        assert dp_path.value == brute_path
        dp_lat = oracle.exact_latency(inst)
        brute_lat, _ = brute_latency(inst)
        assert dp_lat.value == brute_lat
    print("\n[criterion 10] PASS: 20 instances, subset DP equals exhaustive "
          "permutation search for both objectives, exact")

"""The full ordering/flow latency relaxation, kept as a test oracle.

solve_latency_lp works on a smaller equivalent program (lp._LatencyShape).
This module builds every variable and constraint family of the relaxation
explicitly and separates its cut family on the full flow variables, so
tests can pin the reduced program to the same optimum.  It also solves the
reduced program cold, with no shared start, and builds the instance
families the latency pins run on.
"""

import random
from dataclasses import replace
from fractions import Fraction

from asympath import metric
from asympath.graphs import ArcFlow, max_flow_min_cut
from asympath.lp import _cutting_planes, _LatencyShape
from asympath.simplex import LpModel, SimplexSolver

ZERO = Fraction(0)
ONE = Fraction(1)


def build_full_latency_lp(inst):
    """The full ordering/flow relaxation as an explicit LpModel.

    Contains the latency, pairwise-order, triple-order, and per-target
    flow variables with every constraint family except the separated cut
    family, which solve_latency_lp_reference adds lazily.
    """
    n, s, t = inst.n, inst.s, inst.t
    d = inst.d
    model = LpModel()
    lv = {}
    for v in range(n):
        if v != s:
            lv[v] = model.add_var(f"l[{v}]", obj=inst.weight(v))
    xp = {}
    for u in range(n):
        for w in range(n):
            if u != w:
                xp[(u, w)] = model.add_var(f"x[{u},{w}]")
    x3 = {}
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if len({u, v, w}) == 3:
                    x3[(u, v, w)] = model.add_var(f"x3[{u},{v},{w}]")
    fv = {}
    for v in range(n):
        if v == s:
            continue
        fv[v] = {}
        for u in range(n):
            for w in range(n):
                if u != w:
                    fv[v][(u, w)] = model.add_var(f"f[{v}][{u},{w}]")

    for v in range(n):
        if v == s:
            continue
        coeffs = {lv[v]: ONE}
        for (u, w), idx in fv[v].items():
            if d[u][w]:
                coeffs[idx] = -d[u][w]
        model.add_ge(coeffs, ZERO)
        if v != t:
            model.add_ge({lv[t]: ONE, lv[v]: -ONE}, ZERO)

    for u in range(n):
        for w in range(n):
            if u == w:
                continue
            for v in range(n):
                if v in (u, w):
                    continue
                if v != s:
                    coef = d[s][u] + d[u][w] + d[w][v]
                    model.add_ge({lv[v]: ONE, x3[(u, w, v)]: -coef}, ZERO)
                model.add_eq(
                    {
                        xp[(u, w)]: ONE,
                        x3[(v, u, w)]: -ONE,
                        x3[(u, v, w)]: -ONE,
                        x3[(u, w, v)]: -ONE,
                    },
                    ZERO,
                )
            if u < w:
                model.add_eq({xp[(u, w)]: ONE, xp[(w, u)]: ONE}, ONE)
    for u in range(n):
        if u in (s, t):
            continue
        model.add_eq({xp[(s, u)]: ONE}, ONE)
        model.add_eq({xp[(u, t)]: ONE}, ONE)

    for v in range(n):
        if v == s:
            continue
        arcs = fv[v]
        for u in range(n):
            if u in (s, v):
                continue
            coeffs = {}
            for w in range(n):
                if w != u:
                    coeffs[arcs[(w, u)]] = coeffs.get(arcs[(w, u)], ZERO) + ONE
                    coeffs[arcs[(u, w)]] = coeffs.get(arcs[(u, w)], ZERO) - ONE
            model.add_eq(coeffs, ZERO)
        model.add_eq({arcs[(s, w)]: ONE for w in range(n) if w != s}, ONE)
        model.add_eq({arcs[(w, v)]: ONE for w in range(n) if w != v}, ONE)
        for u in range(n):
            if u != s:
                model.add_eq({arcs[(u, s)]: ONE}, ZERO)
            if u != v:
                model.add_eq({arcs[(v, u)]: ONE}, ZERO)
        for u in range(n):
            if u == v:
                continue
            coeffs = {arcs[(u, w)]: ONE for w in range(n) if w != u}
            coeffs[xp[(u, v)]] = -ONE
            model.add_eq(coeffs, ZERO)
    return model


def solve_latency_lp_reference(inst):
    """Slow reference: the full model solved directly, cuts separated on
    the full flow variables.  Used by tests to pin down equivalence."""
    model = build_full_latency_lp(inst)
    n, s = inst.n, inst.s

    def separate(sol):
        rows = []
        for v in range(n):
            if v == s:
                continue
            flow = ArcFlow()
            for u in range(n):
                for w in range(n):
                    if u != w:
                        val = sol.values[f"f[{v}][{u},{w}]"]
                        if val:
                            flow.add(u, w, val)
            for ynode in range(n):
                if ynode in (s, v):
                    continue
                need = sol.values[f"x[{ynode},{v}]"]
                if need <= 0:
                    continue
                value, cut = max_flow_min_cut(flow, s, ynode, nodes=range(n))
                if value >= need:
                    continue
                coeffs = {
                    model.var(f"f[{v}][{u},{w}]"): ONE
                    for u in range(n)
                    if u not in cut
                    for w in cut
                    if w != u
                }
                coeffs[model.var(f"x[{ynode},{v}]")] = -ONE
                rows.append(((v, ynode, cut), coeffs, ZERO))
        return rows

    sol, _ = _cutting_planes(SimplexSolver(model), separate, n, "full latency model")
    return sol


def solve_latency_lp_cold(inst):
    """solve_latency_lp's separation rounds from a scratch solve of the
    whole reduced model (build_latency_lp), distance rows included, with
    no shared start: the reference a per-shape start must reach."""
    red = _LatencyShape(inst.n, inst.s, inst.t)

    def separate(sol):
        values = list(sol.values.values())
        return red.violated_order_rows(values, inst.d) + red.violated_cut_rows(values)

    sol, rounds = _cutting_planes(SimplexSolver(red.build(inst)), separate, inst.n,
                                  "cold latency relaxation")
    return red.reconstruct(list(sol.values.values()), sol.objective, rounds)


def pin_instance(n, seed, weighted):
    """gen_random distances, with int node weights 1..9 when weighted."""
    inst = metric.gen_random(n, seed=seed, max_weight=100)
    if weighted:
        rng = random.Random(seed)
        inst = replace(inst, weights=[rng.randint(1, 9) for _ in range(n)])
    return inst


def pipeline_instance(n, seed, max_weight):
    """gen_random distances with node weights of mixed denominators."""
    base = metric.gen_random(n, seed=seed, max_weight=max_weight)
    weights = tuple(Fraction(1 + (3 * v + seed) % 5, 1 + v % 3) for v in range(n))
    return metric.MetricInstance(n, base.s, base.t, base.d, weights=weights)


def order_distance_violations(sol, inst):
    """Exact check that strongly ordered pairs force latency lower bounds.

    For every triple with x_uw + x_wv = 1 + eps, eps > 0, the latency of v
    must be at least eps times d(u, w).
    """
    bad = []
    for u in range(sol.n):
        for w in range(sol.n):
            if u == w:
                continue
            for v in range(sol.n):
                if v in (u, w) or v == sol.s:
                    continue
                eps = sol.x[(u, w)] + sol.x[(w, v)] - ONE
                if eps > 0 and sol.ell[v] < eps * inst.d[u][w]:
                    bad.append((u, w, v))
    return bad

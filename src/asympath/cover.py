"""Minimum-cost k-path-cycle covers via the assignment reduction, and the
rounding step that turns a feasible point of the relaxed cut LP (alpha >
1/2) into a fractional solution of the unit-coverage path LP.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, InputError, InvariantError, require_count
from .graphs import ArcFlow, decompose_flow, min_cost_perfect_matching, topological_order
from .lp import flow_alpha_violations
from .rational import as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class KPathCycleCover:
    """k s-t paths (disjoint except at the endpoints) plus disjoint cycles."""

    paths: list
    cycles: list
    cost: Fraction

    def arcs(self):
        """The arc multiset: each path's arcs, then each closed cycle's."""
        arcs = Counter()
        for p in self.paths:
            arcs.update(zip(p, p[1:]))
        for c in self.cycles:
            arcs.update(zip(c, c[1:] + c[:1]))
        return arcs


def min_k_path_cycle_cover(inst, W, k):
    """Cheapest k-path-cycle cover of W by reduction to an assignment problem.

    s gets k out-slots and t k in-slots, every other node of W one of
    each; a perfect matching of slots is exactly a k-path-cycle cover.
    The costs are the instance's ints over L (inst.scaled), so the
    cover's cost is Fraction(total, L).
    """
    require_count(k, "k")
    W = sorted(inst.node_set(W))
    s, t = inst.s, inst.t
    if s not in W or t not in W or len(W) < 2:
        raise InputError("W must contain both s and t")
    d, L = inst.scaled

    lefts = [s] * k + [u for u in W if u not in (s, t)]
    rights = [t] * k + [u for u in W if u not in (s, t)]
    cost = [
        [None if u == w else d[u][w] for w in rights]
        for u in lefts
    ]
    matching, total = min_cost_perfect_matching(cost)

    arcs = [(lefts[i], rights[j]) for i, j in enumerate(matching)]
    # the first k arcs leave s; every other node of W but t has one successor
    succ = dict(arcs[k:])

    paths = []
    for first in sorted(w for _, w in arcs[:k]):
        path = [s, first]
        while path[-1] != t:
            path.append(succ[path[-1]])
        paths.append(path)
    used = {v for p in paths for v in p}
    cycles = []
    for u in W:
        if u not in used:
            cyc = [u]
            while succ[cyc[-1]] != u:
                cyc.append(succ[cyc[-1]])
            cycles.append(cyc)
            used.update(cyc)

    cover = KPathCycleCover(paths=paths, cycles=cycles, cost=Fraction(total, L))
    if sum(d[u][v] for u, v in cover.arcs().elements()) != total:
        raise InvariantError("cover cost disagrees with matching cost")
    return cover


def strengthen_fractional_cover(x, alpha, inst, W):
    """Round a feasible point of the relaxed cut LP into unit coverage.

    Given x feasible for cut requirement alpha > 1/2 on the node set W,
    builds a flow that routes one unit from s to t and pushes at least one
    unit through every node of W, at cost at most 3/(2*alpha - 1) times
    the cost of x.  Returns (flow, certificate) where the certificate
    records the exact quantities of each checked inequality.

    The construction: scale x up to a unit-per-node flow, split it into
    path and cycle parts, discard path flow at nodes carrying less than
    gamma = 1/3 + 1/(3*alpha) of it, route one unit along the surviving
    nodes in topological order, and boost the cycle part by 1/(1-gamma).
    """
    alpha = as_fraction(alpha)
    if not Fraction(1, 2) < alpha <= 1:
        raise InputError("alpha must lie in (1/2, 1]")
    W = sorted(set(W))
    s, t = inst.s, inst.t
    bad = flow_alpha_violations(W, s, t, x, alpha)
    if bad:
        raise ContractError(f"input flow infeasible for requirement {alpha}: {bad}")

    scaled = x.scaled(ONE / alpha)
    decomp = decompose_flow(scaled, s, t)
    gamma = Fraction(1, 3) + ONE / (3 * alpha)

    path_flow = {v: ZERO for v in W}
    for p, amt in decomp.paths:
        for v in p:
            path_flow[v] += amt
    survivors = {v for v in W if path_flow[v] >= gamma}
    if s not in survivors or t not in survivors:
        raise InvariantError("endpoints lost their path flow", state=path_flow)

    cycle_flow = {v: ZERO for v in W}
    for cyc, amt in decomp.cycles:
        if s in cyc or t in cyc:
            raise InvariantError("a cycle passes through an endpoint")
        for v in cyc:
            cycle_flow[v] += amt
    for v in W:
        if v not in survivors and cycle_flow[v] < ONE - gamma:
            raise InvariantError(f"dropped node {v} lacks cycle flow", state=cycle_flow)

    kept_paths = [([v for v in p if v in survivors], amt) for p, amt in decomp.paths]
    path_arcs = {(u, v) for p, _ in kept_paths for u, v in zip(p, p[1:])}
    order = topological_order(path_arcs, survivors)
    if order[0] != s or order[-1] != t:
        raise InvariantError("surviving nodes are not ordered from s to t")

    rounded = ArcFlow.from_paths([order])
    boost = ONE / (ONE - gamma)
    for cyc, amt in decomp.cycles:
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            rounded.add(u, v, amt * boost)

    # exact feasibility for the unit-coverage LP
    for v in W:
        if v == s:
            if rounded.out_flow(s) - rounded.in_flow(s) != ONE:
                raise InvariantError("source does not emit exactly one unit")
        elif v == t:
            if rounded.in_flow(t) - rounded.out_flow(t) != ONE:
                raise InvariantError("sink does not absorb exactly one unit")
        else:
            through = rounded.out_flow(v)
            if through != rounded.in_flow(v):
                raise InvariantError(f"rounded flow unbalanced at {v}")
            if through < ONE:
                raise InvariantError(f"rounded flow below one unit at {v}")

    in_cost = x.cost(inst)
    out_cost = rounded.cost(inst)
    factor = Fraction(3) / (2 * alpha - 1)
    if out_cost > factor * in_cost:
        raise InvariantError("rounded flow exceeded its cost bound")
    certificate = {
        "gamma": gamma,
        "input_cost": in_cost,
        "output_cost": out_cost,
        "factor": factor,
        "bound": factor * in_cost,
        "survivors": sorted(survivors),
    }
    return rounded, certificate

"""Directed-latency solver: logarithmic-factor approximation driven by
the ordering/flow relaxation.

The pipeline solves the relaxation, normalizes latencies so they live in
[1, n^2], buckets nodes by latency scale, and for each bucket grabs a
high-in-degree pivot, covers its strongly-ordered neighborhood with one
path and its half-ordered neighborhood with a small path family, and
appends everything to a growing route.  Every length and shrinkage bound
the analysis uses is checked exactly during the run and recorded.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .atspp import multipath_cover, solve_atspp
from .errors import CheckLog, DegenerateLatencyError, InputError, InvariantError
from .graphs import shortcut
from .lp import normalize_latencies, solve_latency_lp
from .metric import induced_subinstance
from .rational import ceil_log2_int, floor_log2, to_json

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class LatencyOrder:
    """A Hamiltonian s-t order with its per-node and total latencies."""

    order: list
    latencies: dict
    total: Fraction


@dataclass
class BucketState(CheckLog):
    """Trace of one solver run: bucket evolution, pivots, appends, checks."""

    sigma: Fraction = ZERO
    g: int = 0
    initial_buckets: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    shrink: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    lp_objective: Fraction = ZERO
    floored_objective: Fraction = ZERO
    normalized: dict = field(default_factory=dict)
    run_name = "latency run"

    def to_jsonable(self):
        return to_json({
            "sigma": self.sigma,
            "g": self.g,
            "initial_buckets": {str(i): v for i, v in self.initial_buckets.items()},
            "steps": self.steps,
            "shrink": self.shrink,
            "checks": self.checks,
        })


def append(route, path, inst):
    """Extend route by path, joining at path's first node not yet on route.

    Everything of path from that node onward is copied, duplicates
    included (a final shortcut removes them later).  Returns the new
    route and the length of the single connecting arc (zero when path
    brings nothing new).
    """
    if not route or not path:
        raise InputError("append needs nonempty sequences")
    on_route = set(route)
    idx = next((i for i, v in enumerate(path) if v not in on_route), None)
    if idx is None:
        return route, ZERO
    hop = inst.d[route[-1]][path[idx]]
    return route + path[idx:], hop


def total_latency(inst, order, weights=None):
    """Exact (weighted) total latency of a Hamiltonian s-t order."""
    n, s, t = inst.n, inst.s, inst.t
    if (
        len(order) != n
        or order[0] != s
        or order[-1] != t
        or set(order) != set(range(n))
    ):
        raise InputError("order must visit every node exactly once, s first, t last")
    w = inst.node_weights(weights)
    total = ZERO
    acc = ZERO
    for u, v in zip(order, order[1:]):
        acc += inst.d[u][v]
        total += w[v] * acc
    return total


def solve_latency(inst, weighted=False):
    """Hamiltonian s-t order with total latency within a logarithmic
    factor of the relaxation optimum.  Returns (LatencyOrder, BucketState).

    Requires strictly positive off-diagonal distances (zero distances
    would produce zero fractional latencies and break the bucketing).
    """
    n, s, t = inst.n, inst.s, inst.t
    for u in range(n):
        for v in range(n):
            if u != v and inst.d[u][v] <= 0:
                raise DegenerateLatencyError(
                    f"distance ({u},{v}) must be positive for the latency solver")

    def node_weight(u):
        return inst.weight(u) if weighted else ONE

    def bucket_weight(nodes):
        return sum((node_weight(v) for v in nodes), ZERO)

    state = BucketState()
    lp_sol = solve_latency_lp(inst, weighted=weighted)
    floored, sigma = normalize_latencies(lp_sol, inst)
    state.sigma = sigma
    state.lp_objective = lp_sol.objective
    state.floored_objective = floored.objective
    log_n = ceil_log2_int(n)

    elln = {v: floored.ell[v] * sigma for v in floored.ell}
    state.normalized = {
        "min": min(elln.values()),
        "max": max(elln.values()),
        "growth_bound": (ONE + Fraction(1, n)) * lp_sol.objective,
    }
    state.check("normalization-floor", min(elln.values()) == ONE,
                f"min normalized latency {min(elln.values())}")
    state.check("normalization-spread", max(elln.values()) <= n * n,
                f"max normalized latency {max(elln.values())} vs {n * n}")
    state.check("normalization-growth",
                floored.objective <= (ONE + Fraction(1, n)) * lp_sol.objective,
                f"floored {floored.objective} vs bound")

    g = floor_log2(elln[t]) + 1
    state.g = g
    state.check("scale-count", g <= 2 * log_n + 1, f"g={g} vs {2 * log_n + 1}")

    buckets = {i: set() for i in range(1, g + 1)}
    for v, val in elln.items():
        i = floor_log2(val) + 1
        if not 1 <= i <= g:
            raise InvariantError(f"latency {val} of {v} falls outside the scales",
                                 state=state)
        buckets[i].add(v)
    state.initial_buckets = {i: set(vs) for i, vs in buckets.items()}

    init_weight = {i: bucket_weight(vs) for i, vs in buckets.items()}
    lower = sum((init_weight[i] * Fraction(2) ** (i - 1) for i in buckets), ZERO)
    normalized_obj = sum((node_weight(v) * val for v, val in elln.items()), ZERO)
    state.check("bucket-lower-bound", normalized_obj >= lower,
                f"normalized objective {normalized_obj} vs {lower}")

    x = floored.x
    route = [s]
    pow2 = {i: Fraction(2) ** i for i in range(g + 1)}

    for i in range(1, g):
        start_members = sorted(buckets[i])
        start_weight = bucket_weight(buckets[i])
        for j in (1, 2):
            if not buckets[i]:
                continue
            members = sorted(buckets[i])

            def fans(v):
                return [u for u in members if u != v and x[(u, v)] >= Fraction(1, 2)]

            pivot = max(members, key=lambda v: (bucket_weight(fans(v)), -v))
            b_set = set(fans(pivot))
            cur_weight = bucket_weight(buckets[i])
            got = bucket_weight(b_set) + node_weight(pivot)
            state.check("pivot-coverage", 2 * got >= cur_weight,
                        f"scale {i} pass {j}: captured {got} of {cur_weight}")

            threshold = Fraction(2, 3) + Fraction(2 * i - 2 + j, 24 * log_n)
            a_set = {u for u in range(n) if u != pivot and x[(u, pivot)] >= threshold}

            step = {
                "i": i,
                "j": j,
                "pivot": pivot,
                "A": sorted(a_set),
                "B": sorted(b_set),
            }

            a_nodes = a_set | {s, pivot}
            sub_a, map_a = induced_subinstance(inst, a_nodes, s, pivot)
            hp, inner = solve_atspp(sub_a)
            path_a = [map_a[v] for v in hp.nodes]
            for cc in inner.cover_costs:
                state.check("pivot-path-cover-cost",
                            sigma * cc <= 9 * pow2[i],
                            f"scale {i} pass {j}: cover {sigma * cc} vs {9 * pow2[i]}")
            len_budget = (2 * ceil_log2_int(len(a_nodes)) + 1) * 9 * pow2[i]
            state.check("pivot-path-length", sigma * hp.cost <= len_budget,
                        f"scale {i} pass {j}: length {sigma * hp.cost} vs {len_budget}")
            route, hop = append(route, path_a, inst)
            step["pivot_path_hop"] = hop
            state.check("strong-append", sigma * hop <= 24 * log_n * pow2[i],
                        f"scale {i} pass {j}: hop {sigma * hop} vs {24 * log_n * pow2[i]}")

            b_nodes = b_set | {s, pivot}
            sub_b, map_b = induced_subinstance(inst, b_nodes, s, pivot)
            family = [[map_b[v] for v in p] for p in multipath_cover(sub_b, 2)]
            state.check("family-size",
                        len(family) <= 2 * ceil_log2_int(len(b_nodes)),
                        f"scale {i} pass {j}: {len(family)} paths")
            family_cost = sum((inst.path_cost(p) for p in family), ZERO)
            state.check("family-length", sigma * family_cost <= 2 * log_n * pow2[i],
                        f"scale {i} pass {j}: total {sigma * family_cost} "
                        f"vs {2 * log_n * pow2[i]}")
            hops = []
            for p in family:
                route, hop = append(route, p, inst)
                hops.append(hop)
                state.check("family-append", sigma * hop <= 6 * pow2[i],
                            f"scale {i} pass {j}: hop {sigma * hop} vs {6 * pow2[i]}")
            step["family_hops"] = hops
            step["family_cost"] = family_cost
            step["pivot_path_cost"] = hp.cost
            state.steps.append(step)

            buckets[i] -= a_set | b_set | {pivot}

        end_members = sorted(buckets[i])
        end_weight = bucket_weight(buckets[i])
        state.shrink.append({
            "i": i,
            "start": start_members,
            "end": end_members,
        })
        state.check("quarter-shrink", 4 * end_weight <= start_weight,
                    f"scale {i}: {end_weight} of {start_weight} left")
        buckets[i + 1] |= buckets[i]
        buckets[i] = set()

    leftovers = set(range(n)) - set(route)
    tail_nodes = buckets[g] | leftovers | {s, t}
    sub_g, map_g = induced_subinstance(inst, tail_nodes, s, t)
    hp, _ = solve_atspp(sub_g)
    path_g = [map_g[v] for v in hp.nodes]
    state.check("tail-length",
                sigma * hp.cost <= (2 * log_n + 1) * pow2[g],
                f"tail length {sigma * hp.cost} vs {(2 * log_n + 1) * pow2[g]}")
    route, hop = append(route, path_g, inst)
    state.check("tail-append", sigma * hop <= 6 * pow2[g],
                f"tail hop {sigma * hop} vs {6 * pow2[g]}")
    state.steps.append({
        "i": g, "j": 1, "pivot": t,
        "A": sorted(tail_nodes - {s, t}), "B": [],
        "pivot_path_hop": hop, "pivot_path_cost": hp.cost,
        "family_hops": [], "family_cost": ZERO,
    })

    final = shortcut(route)
    if (
        final[0] != s
        or final[-1] != t
        or len(final) != n
        or set(final) != set(range(n))
    ):
        raise InvariantError("latency route is not a Hamiltonian s-t order",
                             state=state)

    latencies = {}
    acc = ZERO
    for u, v in zip(final, final[1:]):
        acc += inst.d[u][v]
        latencies[v] = acc
    latencies[s] = ZERO
    total = total_latency(inst, final, None if weighted else [ONE] * n)
    if not weighted:
        total_check = sum((latencies[v] for v in range(n) if v != s), ZERO)
        if total != total_check:
            raise InvariantError("latency bookkeeping mismatch", state=state)
    return LatencyOrder(order=final, latencies=latencies, total=total), state


def assembled_bound_factor(n):
    """The per-scale constant the end-to-end bound check uses.

    One bracket per (scale, pass): pivot path, path family, and both
    append kinds; geometric sums over passes and scales contribute a
    factor 4, bucket carryover another 4, and the latency floor 1 + 1/n.
    """
    log_n = ceil_log2_int(n)
    bracket = (2 * log_n + 1) * 9 + 2 * log_n + 24 * log_n + 12 * log_n
    return (ONE + Fraction(1, n)) * 4 * (4 * bracket)

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


def total_latency(inst, order):
    """Exact node-weighted total latency of a Hamiltonian s-t order."""
    if not inst.is_st_order(order):
        raise InputError("order must visit every node exactly once, s first, t last")
    w = inst.node_weights()
    total = ZERO
    acc = ZERO
    for u, v in zip(order, order[1:]):
        acc += inst.d[u][v]
        total += w[v] * acc
    return total


def solve_latency(inst):
    """Hamiltonian s-t order with node-weighted total latency within a
    logarithmic factor of the relaxation optimum.  Returns (LatencyOrder,
    BucketState).

    Requires strictly positive off-diagonal distances (zero distances
    would produce zero fractional latencies and break the bucketing).
    """
    n, s, t = inst.n, inst.s, inst.t
    for u, v in inst.arcs():
        if inst.d[u][v] <= 0:
            raise DegenerateLatencyError(
                f"distance ({u},{v}) must be positive for the latency solver")
    w = inst.node_weights()
    log_n = ceil_log2_int(n)

    def weight(nodes):
        return sum((w[v] for v in nodes), ZERO)

    def within(nodes, end):
        """Sub-instance on nodes from s to end, and its paths mapped back."""
        sub, back = induced_subinstance(inst, nodes, s, end)
        return sub, lambda path: [back[v] for v in path]

    lp_sol = solve_latency_lp(inst)
    floored, sigma = normalize_latencies(lp_sol, inst)
    state = BucketState(sigma=sigma, lp_objective=lp_sol.objective,
                        floored_objective=floored.objective)

    def at_most(name, value, bound, where):
        state.check(name, value <= bound, f"{where} {value} vs {bound}")

    elln = {v: floored.ell[v] * sigma for v in floored.ell}
    lo, hi = min(elln.values()), max(elln.values())
    growth = (ONE + Fraction(1, n)) * lp_sol.objective
    state.normalized = {"min": lo, "max": hi, "growth_bound": growth}
    state.check("normalization-floor", lo == ONE, f"min normalized latency {lo}")
    at_most("normalization-spread", hi, n * n, "max normalized latency")
    state.check("normalization-growth", floored.objective <= growth,
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

    pow2 = {i: Fraction(2) ** i for i in range(g + 1)}
    lower = sum((weight(vs) * pow2[i - 1] for i, vs in buckets.items()), ZERO)
    normalized_obj = sum((w[v] * val for v, val in elln.items()), ZERO)
    state.check("bucket-lower-bound", normalized_obj >= lower,
                f"normalized objective {normalized_obj} vs {lower}")

    x = floored.x
    route = [s]

    for i in range(1, g):
        start_members = sorted(buckets[i])
        start_weight = weight(buckets[i])
        for j in (1, 2):
            if not buckets[i]:
                continue
            members = sorted(buckets[i])
            at = f"scale {i} pass {j}:"

            def fans(v):
                return [u for u in members if u != v and x[(u, v)] >= Fraction(1, 2)]

            pivot = max(members, key=lambda v: (weight(fans(v)), -v))
            b_set = set(fans(pivot))
            cur_weight = weight(buckets[i])
            got = weight(b_set) + w[pivot]
            state.check("pivot-coverage", 2 * got >= cur_weight,
                        f"{at} captured {got} of {cur_weight}")

            threshold = Fraction(2, 3) + Fraction(2 * i - 2 + j, 24 * log_n)
            a_set = {u for u in range(n) if u != pivot and x[(u, pivot)] >= threshold}

            step = {
                "i": i,
                "j": j,
                "pivot": pivot,
                "A": sorted(a_set),
                "B": sorted(b_set),
            }

            sub, lift = within(a_set | {s, pivot}, pivot)
            hp, inner = solve_atspp(sub)
            for cc in inner.cover_costs:
                at_most("pivot-path-cover-cost", sigma * cc, 9 * pow2[i], f"{at} cover")
            at_most("pivot-path-length", sigma * hp.cost,
                    (2 * ceil_log2_int(sub.n) + 1) * 9 * pow2[i], f"{at} length")
            route, hop = append(route, lift(hp.nodes), inst)
            step["pivot_path_hop"] = hop
            at_most("strong-append", sigma * hop, 24 * log_n * pow2[i], f"{at} hop")

            sub, lift = within(b_set | {s, pivot}, pivot)
            family = [lift(p) for p in multipath_cover(sub, 2)]
            state.check("family-size", len(family) <= 2 * ceil_log2_int(sub.n),
                        f"{at} {len(family)} paths")
            family_cost = sum((inst.path_cost(p) for p in family), ZERO)
            at_most("family-length", sigma * family_cost, 2 * log_n * pow2[i],
                    f"{at} total")
            hops = []
            for p in family:
                route, hop = append(route, p, inst)
                hops.append(hop)
                at_most("family-append", sigma * hop, 6 * pow2[i], f"{at} hop")
            step["family_hops"] = hops
            step["family_cost"] = family_cost
            step["pivot_path_cost"] = hp.cost
            state.steps.append(step)

            buckets[i] -= a_set | b_set | {pivot}

        end_weight = weight(buckets[i])
        state.shrink.append({
            "i": i,
            "start": start_members,
            "end": sorted(buckets[i]),
        })
        state.check("quarter-shrink", 4 * end_weight <= start_weight,
                    f"scale {i}: {end_weight} of {start_weight} left")
        buckets[i + 1] |= buckets[i]
        buckets[i] = set()

    tail_nodes = buckets[g] | (set(range(n)) - set(route)) | {s, t}
    sub, lift = within(tail_nodes, t)
    hp, _ = solve_atspp(sub)
    at_most("tail-length", sigma * hp.cost, (2 * log_n + 1) * pow2[g], "tail length")
    route, hop = append(route, lift(hp.nodes), inst)
    at_most("tail-append", sigma * hop, 6 * pow2[g], "tail hop")
    state.steps.append({
        "i": g, "j": 1, "pivot": t,
        "A": sorted(tail_nodes - {s, t}), "B": [],
        "pivot_path_hop": hop, "pivot_path_cost": hp.cost,
        "family_hops": [], "family_cost": ZERO,
    })

    final = shortcut(route)
    if not inst.is_st_order(final):
        raise InvariantError("latency route is not a Hamiltonian s-t order",
                             state=state)

    latencies = {}
    acc = ZERO
    for u, v in zip(final, final[1:]):
        acc += inst.d[u][v]
        latencies[v] = acc
    latencies[s] = ZERO
    total = total_latency(inst, final)
    if total != sum((w[v] * lat for v, lat in latencies.items()), ZERO):
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

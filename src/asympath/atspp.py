"""Path solvers built on iterated path-cycle covers.

The core loop repeatedly covers the active node set, contracts each
cyclic component of the accumulated flow to a representative node chosen
by an amortized label rule, and keeps the acyclic part as an explicit
list of unit s-t paths.  Afterwards the surviving nodes are stitched into
one path (or k paths) and the contracted cycles are spliced back in.

Every structural fact the analysis relies on is asserted at runtime and
recorded in the returned trace; a violation raises InvariantError.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .cover import min_k_path_cycle_cover
from .errors import CheckLog, ContractError, InvariantError, require_count
from .graphs import (
    decompose_flow,
    euler_tour,
    max_bipartite_matching,
    reachability,
    shortcut,
    topological_order,
    weak_components,
)
from .rational import ceil_log2_int, to_json

ZERO = Fraction(0)


@dataclass
class CoverLoopState(CheckLog):
    """Evolving state of the cover loop.

    W: active nodes; labels: per-node amortization counters; F: unit s-t
    paths whose arc union is acyclic; H: contracted cycle arcs with
    multiplicities; cover_costs: cost of the cover found per iteration.
    """

    W: set
    labels: list
    F: list
    H: Counter
    iteration: int = 0
    cover_costs: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    run_name = "cover loop"

    def arc_multiset(self):
        return Counter((u, v) for p in self.F for u, v in zip(p, p[1:]))

    def to_jsonable(self):
        return to_json({
            "iteration": self.iteration,
            "W": sorted(self.W),
            "labels": {v: l for v, l in enumerate(self.labels) if l},
            "paths": self.F,
            "contracted_arcs": [[u, v, c] for (u, v), c in sorted(self.H.items()) if c],
            "iterations": self.trace,
            "checks": self.checks,
        })


@dataclass
class HamPath:
    nodes: list
    cost: Fraction


def run_cover_loop(inst, k, iterations):
    """Execute the cover-contract loop and return its final state.

    Asserted each iteration: the cyclic part never touches s or t, every
    cyclic component has two distinct nodes of in-degree exactly one, no
    label exceeds ceil(log2 n), and every node stays in the active set or
    inside the contracted arcs.  At the end, the number of F paths through
    each active node must equal iterations minus its label.  A round whose
    W equals the last covered W reuses that cover, which is optimal for it;
    W only shrinks, so no earlier W comes back.

    decompose_flow peels cycles first, so a round that peels none had an
    acyclic support, and leaves W, H and the labels as they were.  Every
    later round then adds the same cover to the same support and peels no
    cycle either, and decompose_flow reads only the arc multiset, so the
    last round's paths are one decomposition of the accumulated arcs plus
    the cover once per round left.  The loop makes that one decomposition
    and records the remaining rounds' cover costs, trace entries and
    checks without decomposing again.
    """
    require_count(k, "k")
    require_count(iterations, "iterations")
    n, s, t = inst.n, inst.s, inst.t
    log_n = ceil_log2_int(n)
    state = CoverLoopState(W=set(range(n)), labels=[0] * n, F=[], H=Counter())
    covered = None  # the W that cover and cover_arcs were solved for
    settled = False  # a round peeled no cycle, so state.F is already final

    for it in range(iterations):
        state.iteration = it + 1
        if state.W != covered:
            cover = min_k_path_cycle_cover(inst, state.W, k)
            cover_arcs = cover.arcs()
            covered = set(state.W)
        state.cover_costs.append(cover.cost)
        entry = {
            "iteration": it + 1,
            "W": sorted(state.W),
            "cover_cost": cover.cost,
            "components": [],
        }
        if settled:
            _account_nodes(state, entry, n)
            continue

        arcs = state.arc_multiset()
        decomp = decompose_flow(arcs + cover_arcs, s, t)
        rounds_left = iterations - it  # this round included
        if not decomp.cycles and rounds_left > 1:
            settled = True
            decomp = decompose_flow(
                arcs + Counter({arc: c * rounds_left for arc, c in cover_arcs.items()}), s, t)

        new_paths = []
        for p, amt in decomp.paths:
            if amt.denominator != 1:
                raise InvariantError("integral flow decomposed fractionally", state=state)
            new_paths.extend([list(p)] * int(amt))
        cycle_arcs = Counter()
        for cyc, amt in decomp.cycles:
            for arc in zip(cyc, cyc[1:] + cyc[:1]):
                cycle_arcs[arc] += int(amt)
        state.F = new_paths

        for comp_nodes, comp in weak_components(cycle_arcs):
            indeg = Counter()
            for (_, v), c in comp.items():
                indeg[v] += c
            state.check("component-avoids-endpoints",
                        s not in comp_nodes and t not in comp_nodes,
                        f"iteration {it + 1}: component {sorted(comp_nodes)}")
            unit_nodes = sum(1 for u in comp_nodes if indeg[u] == 1)
            state.check("two-unit-indegree-nodes", unit_nodes >= 2,
                        f"iteration {it + 1}: component {sorted(comp_nodes)} "
                        f"has {unit_nodes}")
            rep = min(
                comp_nodes,
                key=lambda u: (state.labels[u] + indeg[u], u),
            )
            dropped = comp_nodes - {rep}
            state.F = [[x for x in p if x not in dropped] for p in state.F]
            state.W -= dropped
            state.H.update(comp)
            state.labels[rep] += indeg[rep]
            state.check("label-bound", state.labels[rep] <= log_n,
                        f"iteration {it + 1}: label of {rep} is {state.labels[rep]} "
                        f"vs {log_n}")
            entry["components"].append({
                "nodes": sorted(comp_nodes),
                "representative": rep,
                "gain": indeg[rep],
            })

        _account_nodes(state, entry, n)

    for v in sorted(state.W):
        if v in (s, t):
            continue
        through = sum(1 for p in state.F if v in p)
        state.check("path-count-balance", through == iterations - state.labels[v],
                    f"{through} paths through {v}, "
                    f"label {state.labels[v]} of {iterations}")
    return state


def _account_nodes(state, entry, n):
    """Check that each of the n nodes is active or inside the contracted
    arcs, then close the round: its labels join entry, and entry the
    trace."""
    touched = set()
    for (u, v), c in state.H.items():
        if c:
            touched.update((u, v))
    state.check("nodes-accounted", state.W | touched == set(range(n)),
                f"iteration {entry['iteration']}")
    entry["labels"] = {v: l for v, l in enumerate(state.labels) if l}
    state.trace.append(entry)


def _splice_components(paths, state):
    """Insert every contracted cycle back into the path holding its
    representative.  Each component must share exactly one node with W."""
    for comp_nodes, comp in weak_components(state.H):
        shared = comp_nodes & state.W
        state.check("single-shared-splice-node", len(shared) == 1,
                    f"component {sorted(comp_nodes)} shares {sorted(shared)}")
        rep = shared.pop()
        tour = euler_tour(comp, rep)
        walk = [rep] + [b for _, b in tour]
        cycle_order = shortcut(walk)
        host = next((i for i, p in enumerate(paths) if rep in p), None)
        if host is None:
            raise InvariantError(f"representative {rep} is on no path", state=state)
        pos = paths[host].index(rep)
        paths[host] = paths[host][:pos + 1] + cycle_order[1:] + paths[host][pos + 1:]
    return paths


def solve_atspp(inst):
    """Hamiltonian s-t path within a logarithmic factor of the cut LP.

    Runs 2 ceil(log2 n) + 1 rounds of the cover loop, orders the
    surviving nodes topologically along the accumulated acyclic paths
    (consecutive nodes always share a path arc), splices contracted cycles
    back in, and shortcuts.  Returns (HamPath, state) where state carries
    the full per-iteration trace.
    """
    n, s, t = inst.n, inst.s, inst.t
    state = run_cover_loop(inst, 1, 2 * ceil_log2_int(n) + 1)

    arcs = state.arc_multiset()
    order = topological_order(arcs.keys(), state.W)
    state.check("stitch-spans-active-set",
                set(order) == state.W and order[0] == s and order[-1] == t,
                f"order {order}")
    for u, v in zip(order, order[1:]):
        state.check("consecutive-share-arc", arcs[(u, v)] > 0,
                    f"nodes {u},{v}")

    paths = _splice_components([list(order)], state)
    final = shortcut(paths[0])
    state.check("hamiltonian-output", inst.is_st_order(final), f"path {final}")
    cost = inst.path_cost(final)
    total_cover = sum(state.cover_costs, ZERO)
    state.check("cost-below-cover-total", cost <= total_cover,
                f"cost {cost} vs covers {total_cover}")
    return HamPath(nodes=final, cost=cost), state


def multipath_cover(inst, k):
    """At most k*ceil(log2 n) s-t paths that jointly visit every node.

    Repeatedly k-covers the active set, deleting path interiors and all
    but one representative per cycle (so the interior at least halves),
    then tours the union of all covers plus k*T virtual t->s returns and
    splits it at the returns.
    """
    require_count(k, "k")
    n, s, t = inst.n, inst.s, inst.t
    if n == 2:
        return [[s, t] for _ in range(k)]

    log_n = ceil_log2_int(n)
    W = set(range(n))
    covers = []
    rounds = 0
    while W != {s, t}:
        rounds += 1
        if rounds > log_n:
            raise InvariantError("active set failed to halve within its budget")
        cover = min_k_path_cycle_cover(inst, W, k)
        covers.append(cover)
        before = len(W) - 2
        keep = {s, t}
        for cyc in cover.cycles:
            keep.add(min(cyc))
        if 2 * (len(keep) - 2) > before:
            raise InvariantError("interior of W did not halve")
        W = keep

    arcs = sum((cover.arcs() for cover in covers), Counter())
    dummies = k * rounds
    arcs[(t, s)] += dummies

    try:
        tour = euler_tour(arcs, s)
    except ContractError as exc:
        raise InvariantError(f"cover union is not Eulerian: {exc}") from exc

    walks = []
    current = [s]
    returns_seen = 0
    for a, b in tour:
        if (a, b) == (t, s) and returns_seen < dummies and current[-1] == t:
            returns_seen += 1
            walks.append(current)
            current = [s]
        else:
            current.append(b)
    if current != [s] or returns_seen != dummies:
        raise InvariantError("tour did not split cleanly at the virtual returns")

    paths = [shortcut(w) for w in walks]
    covered = {v for p in paths for v in p}
    if covered != set(range(n)):
        raise InvariantError(f"paths miss nodes {sorted(set(range(n)) - covered)}")
    if len(paths) > k * log_n:
        raise InvariantError("emitted more paths than the budget allows")
    total = sum((inst.path_cost(p) for p in paths), ZERO)
    cover_total = sum((c.cost for c in covers), ZERO)
    if total > cover_total:
        raise InvariantError("shortcut paths cost more than the covers")
    return paths


def solve_k_person(inst, k):
    """Exactly k s-t paths covering every node, cover-loop based.

    Runs the cover loop with k-covers, partitions the surviving interior
    nodes into at most k chains via a matching on the reachability
    relation of the acyclic part, realizes each chain with direct metric
    arcs, pads with plain s-t paths, and splices contracted cycles in.
    Returns ((paths, total_cost), state); the state's trace ends with a
    "chain-diagnostics" entry of the arcs the chains would overuse.
    """
    require_count(k, "k")
    n, s, t = inst.n, inst.s, inst.t
    T = (k + 1) * ceil_log2_int(n) + 1
    state = run_cover_loop(inst, k, T)

    interior = sorted(state.W - {s, t})
    arcs = state.arc_multiset()
    reach = reachability(arcs.keys(), state.W)
    adj = {u: [v for v in interior if v != u and (u, v) in reach] for u in interior}
    match = max_bipartite_matching(adj)
    unmatched = len(interior) - len(match)
    state.check("chain-count", unmatched <= k,
                f"{unmatched} chains needed for {k} paths")

    matched_targets = set(match.values())
    chains = []
    for start in interior:
        if start in matched_targets:
            continue
        chain = [start]
        while chain[-1] in match:
            chain.append(match[chain[-1]])
        chains.append(chain)
    chained = [v for c in chains for v in c]
    state.check("chains-partition-interior", sorted(chained) == interior,
                f"chains {chains}")

    paths = [[s, *chain, t] for chain in chains]
    while len(paths) < k:
        paths.append([s, t])

    paths = _splice_components(paths, state)
    covered = {v for p in paths for v in p}
    state.check("k-person-coverage",
                covered == set(range(n)) and len(paths) == k,
                f"{len(paths)} paths covering {sorted(covered)}")
    for p in paths:
        state.check("k-person-path-simple",
                    p[0] == s and p[-1] == t and len(set(p)) == len(p),
                    f"path {p}")
    total = sum((inst.path_cost(p) for p in paths), ZERO)

    state.trace.append({
        "iteration": "chain-diagnostics",
        "cover_cost": ZERO,
        "edge_overuse": _chain_edge_usage(chains, arcs, s, t, k),
    })
    return (paths, total), state


def _chain_edge_usage(chains, arcs, s, t, k):
    """Walk-based realization check: how often each acyclic arc would be
    used if chains were connected along actual F walks; arcs used more
    than k times are reported."""
    succ = {}
    for (u, v), c in arcs.items():
        if c:
            succ.setdefault(u, []).append(v)
    for u in succ:
        succ[u].sort()

    def walk(a, b):
        # BFS for one directed a->b walk over the arc support
        prev = {a: None}
        queue = [a]
        while queue:
            x = queue.pop(0)
            if x == b:
                path = [b]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return list(reversed(path))
            for y in succ.get(x, []):
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        return None

    usage = Counter()
    for chain in chains:
        hops = [(s, chain[0])] + list(zip(chain, chain[1:])) + [(chain[-1], t)]
        for a, b in hops:
            w = walk(a, b)
            if w is None:
                return [{"missing_walk": [a, b]}]
            usage.update(zip(w, w[1:]))
    return [
        {"arc": [u, v], "uses": c}
        for (u, v), c in sorted(usage.items())
        if c > k
    ]

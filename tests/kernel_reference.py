"""Exact-Fraction versions of the integer-scaled kernels, kept as test oracles.

graphs.min_cost_perfect_matching takes int costs (scaled_costs below
scales a rational matrix for it), and graphs.max_flow_min_cut,
graphs.decompose_flow, metric.metric_closure, the subset DPs behind
oracle.exact_atspp / oracle.exact_latency and lp.LatencyLpSolution.verify
scale their inputs to ints over one common denominator.  The functions
below are the earlier versions that do every step over Fraction; tests pin
the scaled kernels to the same values, matchings, cuts, decompositions,
orders and violation lists.

min_k_path_cycle_cover is the earlier cover walk, which drains per-node
sorted out-arc lists; it calls the int matching kernel (int_matching), as
the library does, and tests pin the successor-map walk to its paths,
cycles and cost.

run_cover_loop is the cover loop that decomposes the accumulated flow in
every round; tests pin the loop that stops decomposing once a round peels
no cycle to its final state, trace and checks.
"""

from collections import Counter, deque
from fractions import Fraction

from asympath.atspp import CoverLoopState
from asympath.cover import KPathCycleCover
from asympath.cover import min_k_path_cycle_cover as atspp_cover
from asympath.errors import (
    ContractError, InfeasibleError, InputError, InvariantError, SizeLimitError, require_count,
)
from asympath.graphs import Decomposition, _find_cycle, weak_components
from asympath.graphs import decompose_flow as int_decompose_flow
from asympath.graphs import min_cost_perfect_matching as int_matching
from asympath.metric import MetricInstance
from asympath.oracle import ATSPP_CAP, LATENCY_CAP, ExactResult
from asympath.rational import as_fraction, ceil_log2_int, common_denominator

ZERO = Fraction(0)
ONE = Fraction(1)


def scaled_costs(cost):
    """(int cost matrix, L): the exact cells times the lcm L of their
    denominators, None cells kept, as graphs.min_cost_perfect_matching
    takes them."""
    L = common_denominator(c for row in cost for c in row if c is not None)
    return [[None if c is None else int(as_fraction(c) * L) for c in row] for row in cost], L


def min_cost_perfect_matching(cost):
    """Minimum-cost perfect matching of a square rational matrix.

    cost[i][j] is the exact cost of pairing row i with column j, or None
    when the cell is forbidden.  Returns (matching, total) where
    matching[i] is the column assigned to row i.

    Shortest augmenting paths with potentials; O(m^3) exact arithmetic.
    """
    m = len(cost)
    if any(len(row) != m for row in cost):
        raise InputError("cost matrix must be square")
    if m == 0:
        return [], ZERO

    # 1-based with a virtual column 0, as in the classic formulation
    pot_u = [ZERO] * (m + 1)
    pot_v = [ZERO] * (m + 1)
    match_of_col = [0] * (m + 1)  # row matched to each column, 0 = free
    way = [0] * (m + 1)

    for i in range(1, m + 1):
        match_of_col[0] = i
        j0 = 0
        minv = [None] * (m + 1)  # None = unreachable
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match_of_col[j0]
            delta = None
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                c = row[j - 1]
                if c is not None:
                    cur = c - pot_u[i0] - pot_v[j]
                    if minv[j] is None or cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                if minv[j] is not None and (delta is None or minv[j] < delta):
                    delta = minv[j]
                    j1 = j
            if delta is None:
                raise InfeasibleError("no perfect matching avoids the forbidden cells")
            for j in range(m + 1):
                if used[j]:
                    pot_u[match_of_col[j]] += delta
                    pot_v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if match_of_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_of_col[j0] = match_of_col[j1]
            j0 = j1

    matching = [0] * m
    for j in range(1, m + 1):
        matching[match_of_col[j] - 1] = j - 1
    total = sum((cost[i][matching[i]] for i in range(m)), ZERO)
    return matching, total


def metric_closure(n, arcs, s, t, weights=None):
    """Shortest-path metric of a weighted digraph given as {(u,v): cost}.

    Every ordered pair must be connected; an unreachable pair raises
    InfeasibleError naming the pair.
    """
    if n < 2:
        raise InputError("metric_closure needs n >= 2")
    inf = None
    dist = [[inf] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = Fraction(0)
    for (u, v), w in arcs.items():
        if u == v:
            continue
        w = as_fraction(w)
        if w < 0:
            raise InputError(f"negative arc weight on ({u}, {v})")
        if dist[u][v] is None or w < dist[u][v]:
            dist[u][v] = w
    for k in range(n):
        dk = dist[k]
        for u in range(n):
            duk = dist[u][k]
            if duk is None:
                continue
            du = dist[u]
            for v in range(n):
                if dk[v] is None:
                    continue
                alt = duk + dk[v]
                if du[v] is None or alt < du[v]:
                    du[v] = alt
    for u in range(n):
        for v in range(n):
            if dist[u][v] is None:
                raise InfeasibleError(f"node {v} is unreachable from node {u}")
    return MetricInstance(
        n=n,
        s=s,
        t=t,
        d=tuple(tuple(row) for row in dist),
        weights=tuple(as_fraction(w) for w in weights) if weights else None,
    )


def exact_atspp(inst):
    """Cheapest Hamiltonian s-t path by subset dynamic programming."""
    if inst.n > ATSPP_CAP:
        raise SizeLimitError(f"exact_atspp capped at n <= {ATSPP_CAP}")
    s, t, d = inst.s, inst.t, inst.d
    interior = [v for v in range(inst.n) if v not in (s, t)]
    m = len(interior)
    if m == 0:
        return ExactResult(value=d[s][t], order=[s, t])

    # dp[(mask, i)] = cheapest s -> interior[i] route visiting exactly mask
    dp = {}
    parent = {}
    for i, v in enumerate(interior):
        dp[(1 << i, i)] = d[s][v]
    for mask in range(1, 1 << m):
        for i in range(m):
            if not mask >> i & 1:
                continue
            cur = dp.get((mask, i))
            if cur is None:
                continue
            vi = interior[i]
            row = d[vi]
            for j in range(m):
                if mask >> j & 1:
                    continue
                nmask = mask | 1 << j
                cand = cur + row[interior[j]]
                key = (nmask, j)
                if key not in dp or cand < dp[key]:
                    dp[key] = cand
                    parent[key] = i
    full = (1 << m) - 1
    best = None
    best_i = None
    for i in range(m):
        cand = dp[(full, i)] + d[interior[i]][t]
        if best is None or cand < best:
            best = cand
            best_i = i
    order = [t]
    mask, i = full, best_i
    while True:
        order.append(interior[i])
        prev = parent.get((mask, i))
        if prev is None:
            break
        mask ^= 1 << i
        i = prev
    order.append(s)
    order.reverse()
    return ExactResult(value=best, order=order)


def exact_latency(inst):
    """Minimum total node-weighted latency by subset dynamic programming.

    Traversing an arc charges its length times the total weight of all
    still-unvisited nodes, so the accumulated cost at the end equals the
    sum of per-node weighted latencies.
    """
    if inst.n > LATENCY_CAP:
        raise SizeLimitError(f"exact_latency capped at n <= {LATENCY_CAP}")
    s, t, d = inst.s, inst.t, inst.d
    w = inst.weight
    interior = [v for v in range(inst.n) if v not in (s, t)]
    m = len(interior)
    # weight still waiting once mask is visited and we sit at some node
    total_interior = sum((w(v) for v in interior), ZERO)

    if m == 0:
        return ExactResult(value=w(t) * d[s][t], order=[s, t])

    def pending(mask):
        acc = w(t)
        for i in range(m):
            if not mask >> i & 1:
                acc += w(interior[i])
        return acc

    dp = {}
    parent = {}
    for i, v in enumerate(interior):
        dp[(1 << i, i)] = d[s][v] * (total_interior + w(t))
    for mask in range(1, 1 << m):
        for i in range(m):
            if not mask >> i & 1:
                continue
            cur = dp.get((mask, i))
            if cur is None:
                continue
            vi = interior[i]
            for j in range(m):
                if mask >> j & 1:
                    continue
                nmask = mask | 1 << j
                cand = cur + d[vi][interior[j]] * pending(mask)
                key = (nmask, j)
                if key not in dp or cand < dp[key]:
                    dp[key] = cand
                    parent[key] = i
    full = (1 << m) - 1
    best = None
    best_i = None
    for i in range(m):
        cand = dp[(full, i)] + d[interior[i]][t] * w(t)
        if best is None or cand < best:
            best = cand
            best_i = i
    order = [t]
    mask, i = full, best_i
    while True:
        order.append(interior[i])
        prev = parent.get((mask, i))
        if prev is None:
            break
        mask ^= 1 << i
        i = prev
    order.append(s)
    order.reverse()
    return ExactResult(value=best, order=order)


def max_flow_min_cut(capacities, source, sink, nodes=None):
    """Exact max flow and a minimum cut (sink side) in a directed graph.

    capacities: ArcFlow or {(u,v): rational}.  Returns (value, cut) where
    cut is a frozenset containing sink but not source whose incoming
    capacity equals value.  nodes widens the ground set the cut is drawn
    from (defaults to the capacity support plus the two terminals).
    """
    if source == sink:
        raise InputError("source and sink must differ")
    items = capacities.items()
    residual = {}
    node_set = set([source, sink])
    for (u, v), cap in items:
        if cap < 0:
            raise InputError(f"negative capacity on ({u},{v})")
        if cap == 0 or u == v:
            continue
        residual.setdefault(u, {})[v] = residual.get(u, {}).get(v, ZERO) + cap
        residual.setdefault(v, {}).setdefault(u, ZERO)
        node_set.add(u)
        node_set.add(v)
    if nodes is not None:
        node_set.update(nodes)

    value = ZERO
    while True:
        # BFS for the shortest augmenting path, neighbors in index order
        parent = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            for v in sorted(residual.get(u, {})):
                if v not in parent and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        bottleneck = None
        v = sink
        while parent[v] is not None:
            u = parent[v]
            cap = residual[u][v]
            if bottleneck is None or cap < bottleneck:
                bottleneck = cap
            v = u
        v = sink
        while parent[v] is not None:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        value += bottleneck

    reachable = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, cap in residual.get(u, {}).items():
            if cap > 0 and v not in reachable:
                reachable.add(v)
                queue.append(v)
    cut = frozenset(v for v in node_set if v not in reachable)
    return value, cut


def decompose_flow(flow, s, t):
    """Split a flow into cycles plus s-t paths whose union is acyclic.

    Cycles are peeled first (each subtracts the minimum arc value on a
    deterministically-chosen cycle); the acyclic remainder then splits
    into s-t paths.  The weighted sum of the parts reproduces the input
    exactly.
    """
    if s == t:
        raise InputError("s and t must differ")
    work = flow.copy()
    for u in work.nodes():
        if u in (s, t):
            continue
        if work.in_flow(u) != work.out_flow(u):
            raise ContractError(f"flow imbalance at interior node {u}")
    excess = work.out_flow(s) - work.in_flow(s)
    deficit = work.in_flow(t) - work.out_flow(t)
    if excess != deficit or excess < 0:
        raise ContractError("source excess must equal sink deficit and be nonnegative")

    decomp = Decomposition()

    def succ_map():
        m = {}
        for (u, v) in work.arcs():
            m.setdefault(u, set()).add(v)
            m.setdefault(v, set())
        return m

    while True:
        cycle = _find_cycle(succ_map())
        if cycle is None:
            break
        amt = min(work[(u, v)] for u, v in zip(cycle, cycle[1:] + cycle[:1]))
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            work.add(u, v, -amt)
        decomp.cycles.append((list(cycle), amt))

    while work.out_flow(s) > 0:
        path = [s]
        u = s
        while u != t:
            nxt = min(v for (a, v) in work.arcs() if a == u)
            path.append(nxt)
            u = nxt
        amt = min(work[(u, v)] for u, v in zip(path, path[1:]))
        for u, v in zip(path, path[1:]):
            work.add(u, v, -amt)
        decomp.paths.append((path, amt))

    if work:
        raise InvariantError("flow not fully decomposed", state=work)
    return decomp


def latency_lp_verify(self, inst):
    """LatencyLpSolution.verify over Fraction: exact check of every
    constraint family of the solution self; returns violations."""
    bad = []
    n, s, t = self.n, self.s, self.t
    d = inst.d

    for (u, v), val in self.x.items():
        if val < 0:
            bad.append(f"x[{u},{v}] negative")
    for key, val in self.x3.items():
        if val < 0:
            bad.append(f"x3{key} negative")

    for v in range(n):
        if v == s:
            continue
        fv = self.flows[v]
        lat = self.ell[v]
        if lat < 0:
            bad.append(f"ell[{v}] negative")
        if lat < fv.cost(inst):
            bad.append(f"ell[{v}] below its flow cost")
        if self.ell[t] < lat:
            bad.append(f"ell[{t}] < ell[{v}]")
        # unit flow out of the source and into the target
        if fv.out_flow(s) != ONE or fv.in_flow(v) != ONE:
            bad.append(f"flow {v} lacks unit source/target value")
        if fv.in_flow(s) != ZERO or fv.out_flow(v) != ZERO:
            bad.append(f"flow {v} enters the source or leaves its target")
        for u in range(n):
            if u in (s, v):
                continue
            if fv.in_flow(u) != fv.out_flow(u):
                bad.append(f"flow {v} unbalanced at {u}")
        for u in range(n):
            if u == v:
                continue
            total = sum((fv[(u, w)] for w in range(n) if w != u), ZERO)
            if total != self.x[(u, v)]:
                bad.append(f"flow {v} through {u} != x[{u},{v}]")

    for u in range(n):
        for w in range(n):
            if u == w:
                continue
            if self.x[(u, w)] + self.x[(w, u)] != ONE:
                bad.append(f"x[{u},{w}] + x[{w},{u}] != 1")
            for v in range(n):
                if v in (u, w):
                    continue
                total = self.x3[(v, u, w)] + self.x3[(u, v, w)] + self.x3[(u, w, v)]
                if total != self.x[(u, w)]:
                    bad.append(f"triple split of x[{u},{w}] via {v} broken")
                if v != s:
                    coef = d[s][u] + d[u][w] + d[w][v]
                    if self.ell[v] < coef * self.x3[(u, w, v)]:
                        bad.append(f"ell[{v}] below prefix bound via ({u},{w})")
    for u in range(n):
        if u in (s, t):
            continue
        if self.x[(s, u)] != ONE or self.x[(u, t)] != ONE:
            bad.append(f"endpoint order values wrong for {u}")

    for v in range(n):
        if v == s:
            continue
        fv = self.flows[v]
        for y in range(n):
            if y in (s, v, t):
                continue
            need = self.x[(y, v)]
            if need == 0:
                continue
            value, _ = max_flow_min_cut(fv, s, y, nodes=range(n))
            if value < need:
                bad.append(f"flow {v} sends {value} < x[{y},{v}] through {y}")
    return bad


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
    matching, total = int_matching(cost)

    arcs = [(lefts[i], rights[j]) for i, j in enumerate(matching)]
    out_arcs = {}
    for u, w in arcs:
        out_arcs.setdefault(u, []).append(w)
    for u in out_arcs:
        out_arcs[u].sort()

    paths = []
    for _ in range(k):
        path = [s]
        while path[-1] != t:
            path.append(out_arcs[path[-1]].pop(0))
        paths.append(path)
    used = {v for p in paths for v in p}
    cycles = []
    for u in W:
        if u in used or u not in out_arcs or not out_arcs[u]:
            continue
        cyc = [u]
        node = out_arcs[u].pop(0)
        while node != u:
            cyc.append(node)
            node = out_arcs[node].pop(0)
        cycles.append(cyc)
        used.update(cyc)

    if used != set(W):
        raise InvariantError("matching arcs failed to cover W", state=arcs)
    cover = KPathCycleCover(paths=paths, cycles=cycles, cost=Fraction(total, L))
    if sum(d[u][v] for u, v in cover.arcs().elements()) != total:
        raise InvariantError("cover cost disagrees with matching cost")
    return cover


def run_cover_loop(inst, k, iterations):
    """atspp.run_cover_loop as it was before it stopped decomposing once
    a round peels no cycle: every round decomposes the accumulated paths
    plus the cover.  Returns the final CoverLoopState.

    Asserted each iteration: the cyclic part never touches s or t, every
    cyclic component has two distinct nodes of in-degree exactly one, no
    label exceeds ceil(log2 n), and every node stays in the active set or
    inside the contracted arcs.  At the end, the number of F paths through
    each active node must equal iterations minus its label.  A round whose
    W equals the last covered W reuses that cover, which is optimal for it;
    W only shrinks, so no earlier W comes back.
    """
    require_count(k, "k")
    require_count(iterations, "iterations")
    n, s, t = inst.n, inst.s, inst.t
    log_n = ceil_log2_int(n)
    state = CoverLoopState(W=set(range(n)), labels=[0] * n, F=[], H=Counter())
    covered = None  # the W that cover and cover_arcs were solved for

    for it in range(iterations):
        state.iteration = it + 1
        if state.W != covered:
            cover = atspp_cover(inst, state.W, k)
            cover_arcs = cover.arcs()
            covered = set(state.W)
        state.cover_costs.append(cover.cost)

        decomp = int_decompose_flow(state.arc_multiset() + cover_arcs, s, t)

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

        entry = {
            "iteration": it + 1,
            "W": sorted(state.W),
            "cover_cost": cover.cost,
            "components": [],
        }

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

        touched = set()
        for (u, v), c in state.H.items():
            if c:
                touched.update((u, v))
        state.check("nodes-accounted", state.W | touched == set(range(n)),
                    f"iteration {it + 1}")
        entry["labels"] = {v: l for v, l in enumerate(state.labels) if l}
        state.trace.append(entry)

    for v in sorted(state.W):
        if v in (s, t):
            continue
        through = sum(1 for p in state.F if v in p)
        state.check("path-count-balance", through == iterations - state.labels[v],
                    f"{through} paths through {v}, "
                    f"label {state.labels[v]} of {iterations}")
    return state

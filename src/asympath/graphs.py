"""Exact combinatorial primitives used throughout the solvers.

All values are exact: the assignment solver takes and returns ints,
flows and capacities are Fractions at the interface, and the max-flow
and the flow decomposition run on their inputs scaled to ints over one
common denominator (rational.over_lcm); a FlowNetwork keeps that
scaling for every max flow over one set of capacities.  There are no
epsilon comparisons in this module.  Functions are pure and
deterministic: ties break toward lower node indices everywhere.
"""

from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .errors import AcyclicityError, ContractError, InfeasibleError, InputError, InvariantError
from .rational import as_fraction, over_lcm, to_json

ZERO = Fraction(0)


class ArcFlow:
    """Sparse nonnegative arc values over an integer node ground set.

    Zero-valued entries are never stored and self-loops are rejected, so
    iteration order and equality are well defined.
    """

    __slots__ = ("_m",)

    def __init__(self, mapping=None):
        self._m = {}
        if mapping:
            items = mapping.items() if hasattr(mapping, "items") else mapping
            for (u, v), amt in items:
                self.add(u, v, amt)

    @classmethod
    def from_paths(cls, paths):
        """Sum of unit flows along node sequences."""
        f = cls()
        for p in paths:
            for u, v in zip(p, p[1:]):
                f.add(u, v, 1)
        return f

    def add(self, u, v, amt):
        if u == v:
            raise InputError(f"self-loop ({u},{u}) not allowed in a flow")
        amt = as_fraction(amt)
        new = self._m.get((u, v), ZERO) + amt
        if new < 0:
            raise InputError(f"flow on ({u},{v}) driven negative")
        if new == 0:
            self._m.pop((u, v), None)
        else:
            self._m[(u, v)] = new

    def __getitem__(self, arc):
        return self._m.get(arc, ZERO)

    def __contains__(self, arc):
        return arc in self._m

    def __len__(self):
        return len(self._m)

    def __bool__(self):
        return bool(self._m)

    def __eq__(self, other):
        if isinstance(other, ArcFlow):
            return self._m == other._m
        return NotImplemented

    def items(self):
        return self._m.items()

    def arcs(self):
        return self._m.keys()

    def copy(self):
        f = ArcFlow()
        f._m = dict(self._m)
        return f

    def scaled(self, factor):
        factor = as_fraction(factor)
        if factor < 0:
            raise InputError("negative scale factor")
        f = ArcFlow()
        if factor:
            f._m = {arc: amt * factor for arc, amt in self._m.items()}
        return f

    def out_flow(self, u):
        return sum((amt for (a, _), amt in self._m.items() if a == u), ZERO)

    def in_flow(self, v):
        return sum((amt for (_, b), amt in self._m.items() if b == v), ZERO)

    def nodes(self):
        seen = set()
        for u, v in self._m:
            seen.add(u)
            seen.add(v)
        return seen

    def cost(self, inst):
        return sum((amt * inst.d[u][v] for (u, v), amt in self._m.items()), ZERO)

    def to_jsonable(self):
        return to_json([[u, v, amt] for (u, v), amt in sorted(self._m.items())])

    def __repr__(self):
        inner = ", ".join(f"({u},{v}):{amt}" for (u, v), amt in sorted(self._m.items()))
        return f"ArcFlow({{{inner}}})"


@dataclass
class Decomposition:
    """Path-cycle decomposition of a flow.

    cycles: list of (node cycle, amount); the cycle [a, b, c] stands for
    arcs a->b, b->c, c->a.  paths: list of (s-t node sequence, amount).
    The union of all path arcs is acyclic.
    """

    cycles: list = field(default_factory=list)
    paths: list = field(default_factory=list)

    def as_flow(self):
        f = ArcFlow()
        for cyc, amt in self.cycles:
            for u, v in zip(cyc, cyc[1:] + cyc[:1]):
                f.add(u, v, amt)
        for p, amt in self.paths:
            for u, v in zip(p, p[1:]):
                f.add(u, v, amt)
        return f


def min_cost_perfect_matching(cost):
    """Minimum-cost perfect matching of a square int matrix.

    cost[i][j] is the int cost of pairing row i with column j, or None
    when the cell is forbidden; any other cell, a float or a bool
    included, raises TypeError.  Returns (matching, total) where
    matching[i] is the column assigned to row i and total is an int.

    Shortest augmenting paths with potentials, O(m^3).  Within one row's
    search, dist[j] is the classic formulation's minv[j] plus every delta
    applied so far, so a delta moves no column; each used column's
    potentials move once, when the search ends, by the deltas since it
    was reached.  The comparisons and the first-lowest tie rule are those
    of the form that updates every column after each step.
    """
    m = len(cost)
    if any(len(row) != m for row in cost):
        raise InputError("cost matrix must be square")
    bad = set(map(type, chain.from_iterable(cost))) - {int, type(None)}
    if bad:
        raise TypeError(f"cost cells must be ints or None, not {sorted(t.__name__ for t in bad)}")
    if m == 0:
        return [], 0

    # rows and columns 1-based, with a virtual column 0, as in the classic formulation
    cost = [None] + [[None, *row] for row in cost]
    pot_u = [0] * (m + 1)
    pot_v = [0] * (m + 1)
    match_of_col = [0] * (m + 1)  # row matched to each column, 0 = free
    way = [0] * (m + 1)

    for i in range(1, m + 1):
        match_of_col[0] = i
        dist = [None] * (m + 1)  # None = unreachable
        dist[0] = 0
        free = list(range(1, m + 1))
        used = [0]
        j0 = 0
        # the search reaches at most the i - 1 matched columns and one free one
        for _ in range(i):
            i0 = match_of_col[j0]
            row = cost[i0]
            # the deltas applied so far sum to dist[j0]
            base = dist[j0] - pot_u[i0]
            best = None
            for j in free:
                dj = dist[j]
                c = row[j]
                if c is not None:
                    cur = c + base - pot_v[j]
                    if dj is None or cur < dj:
                        dist[j] = dj = cur
                        way[j] = j0
                if dj is not None and (best is None or dj < best):
                    best = dj
                    j1 = j
            if best is None:
                raise InfeasibleError("no perfect matching avoids the forbidden cells")
            j0 = j1
            if match_of_col[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        else:
            raise InvariantError("augmenting path search did not reach a free column")
        end = dist[j0]
        for j in used:
            before = dist[j]
            pot_u[match_of_col[j]] += end - before
            pot_v[j] -= end - before
        while j0:
            j1 = way[j0]
            match_of_col[j0] = match_of_col[j1]
            j0 = j1

    matching = [0] * m
    for j in range(1, m + 1):
        matching[match_of_col[j] - 1] = j - 1
    return matching, sum(cost[match_of_col[j]][j] for j in range(1, m + 1))


class FlowNetwork:
    """Capacities as ints over the lcm L of their denominators, ready for
    max_flow_min_cut to take from any source to any sink.

    capacities: ArcFlow or {(u,v): rational}.  A negative capacity raises
    InputError and a float or a bool TypeError.  Zero capacities and
    self-loops carry no flow and are left out, so nodes holds only the
    ends of positive arcs.  capacity[u][v] is the int capacity of u->v
    (0 for the reverse of an arc), and neighbours[u] lists capacity[u]'s
    keys in index order.  max_flow_min_cut works on a copy, so one
    network serves every sink.
    """

    __slots__ = ("scale", "capacity", "neighbours", "nodes")

    def __init__(self, capacities):
        caps, L = over_lcm(cap for _, cap in capacities.items())
        capacity = {}
        for ((u, v), _), cap in zip(capacities.items(), caps):
            if cap < 0:
                raise InputError(f"negative capacity on ({u},{v})")
            if cap == 0 or u == v:
                continue
            out = capacity.setdefault(u, {})
            out[v] = out.get(v, 0) + cap
            capacity.setdefault(v, {}).setdefault(u, 0)
        self.scale = L
        self.capacity = capacity
        self.neighbours = {u: sorted(r) for u, r in capacity.items()}
        self.nodes = frozenset(capacity)


def max_flow_min_cut(capacities, source, sink, nodes=None):
    """Exact max flow and a minimum cut (sink side) in a directed graph.

    capacities: a FlowNetwork, or an ArcFlow or {(u,v): rational} that is
    made into one.  Returns (value, cut) where cut is a frozenset
    containing sink but not source whose incoming capacity equals value.
    nodes widens the ground set the cut is drawn from (defaults to the
    capacity support plus the two terminals).  Shortest augmenting paths
    run on the network's ints over L, which keeps every path and the
    cut; the value is Fraction(flow, L).  The network is left as it was.
    """
    if source == sink:
        raise InputError("source and sink must differ")
    if not isinstance(capacities, FlowNetwork):
        capacities = FlowNetwork(capacities)
    nbrs = capacities.neighbours
    residual = {u: dict(r) for u, r in capacities.capacity.items()}
    node_set = capacities.nodes | {source, sink}
    if nodes is not None:
        node_set = node_set.union(nodes)

    value = 0
    while True:
        # BFS for the shortest augmenting path, neighbors in index order
        parent = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            r = residual.get(u)
            if r is None:  # a source without arcs
                continue
            for v in nbrs[u]:
                if v not in parent and r[v] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            # this search missed the sink, so it visited exactly the
            # residual-reachable set: the cut is everything else
            return Fraction(value, capacities.scale), node_set.difference(parent)
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


def max_bipartite_matching(adj):
    """Maximum-cardinality matching {left: right} via augmenting paths.

    adj maps each left node to an iterable of right nodes.
    """
    adj = {u: sorted(set(vs)) for u, vs in adj.items()}
    match_right = {}

    def try_augment(u, visited):
        for v in adj[u]:
            if v in visited:
                continue
            visited.add(v)
            if v not in match_right or try_augment(match_right[v], visited):
                match_right[v] = u
                return True
        return False

    for u in sorted(adj):
        try_augment(u, set())
    return {u: v for v, u in match_right.items()}


def _find_cycle(succ):
    """One directed cycle in an adjacency {u: set of v}, or None.

    Deterministic: DFS roots and neighbors are scanned in ascending order.
    """
    color = {}
    for root in sorted(succ):
        if color.get(root):
            continue
        stack = [(root, iter(sorted(succ[root])))]
        color[root] = 1
        trail = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in succ:
                    continue
                c = color.get(nxt, 0)
                if c == 1:
                    return trail[trail.index(nxt):]
                if c == 0:
                    color[nxt] = 1
                    trail.append(nxt)
                    stack.append((nxt, iter(sorted(succ[nxt]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                trail.pop()
                stack.pop()
    return None


def decompose_flow(flow, s, t):
    """Split a flow (an ArcFlow, or a Counter of exact arc amounts) into
    cycles plus s-t paths whose union is acyclic; a self-loop or an amount
    that is not positive raises InputError.

    Cycles are peeled first (each subtracts the minimum arc value on a
    deterministically-chosen cycle); the acyclic remainder then splits
    into s-t paths, each stepping to its lowest-index successor.  Values
    are scaled to ints by the lcm L of their denominators and every amount
    is Fraction(amount, L), so the parts reproduce the input exactly.
    """
    if s == t:
        raise InputError("s and t must differ")
    amounts, L = over_lcm(amt for _, amt in flow.items())
    work, succ, balance = {}, {}, Counter()  # balance: out minus in
    for ((u, v), _), amt in zip(flow.items(), amounts):
        work[(u, v)] = amt
        if u == v or amt <= 0:
            raise InputError(f"arc ({u},{v}) must join two nodes and carry a positive amount")
        succ.setdefault(u, set()).add(v)
        succ.setdefault(v, set())
        balance[u] += amt
        balance[v] -= amt
    for u in {x for arc in work for x in arc}:
        if u not in (s, t) and balance[u]:
            raise ContractError(f"flow imbalance at interior node {u}")
    if balance[s] != -balance[t] or balance[s] < 0:
        raise ContractError("source excess must equal sink deficit and be nonnegative")

    def peel(arcs):
        """Subtract the smallest value on arcs from each of them; return it."""
        amt = min(work[arc] for arc in arcs)
        for arc in arcs:
            work[arc] -= amt
            if not work[arc]:
                del work[arc]
                succ[arc[0]].discard(arc[1])
        return amt

    decomp = Decomposition()
    while (cycle := _find_cycle(succ)) is not None:
        amt = peel(list(zip(cycle, cycle[1:] + cycle[:1])))
        decomp.cycles.append((list(cycle), Fraction(amt, L)))

    remaining = sum(work[(s, v)] for v in succ.get(s, ()))
    while remaining > 0:
        path = [s]
        while path[-1] != t:
            path.append(min(succ[path[-1]]))
        amt = peel(list(zip(path, path[1:])))
        remaining -= amt
        decomp.paths.append((path, Fraction(amt, L)))

    if work:
        raise InvariantError("flow not fully decomposed",
                             state=ArcFlow({arc: Fraction(amt, L) for arc, amt in work.items()}))
    return decomp


def topological_order(arcs, nodes):
    """Node ordering with every arc pointing forward; ties by index.

    Raises AcyclicityError (carrying one cycle) if the arcs contain one.
    """
    import heapq

    nodes = sorted(set(nodes))
    indeg = {u: 0 for u in nodes}
    succ = {u: [] for u in nodes}
    arc_set = set()
    for u, v in arcs:
        if u == v:
            raise InputError(f"self-loop ({u},{u})")
        if (u, v) in arc_set:
            continue
        arc_set.add((u, v))
        succ[u].append(v)
        indeg[v] += 1
    heap = [u for u in nodes if indeg[u] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in sorted(succ[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) != len(nodes):
        remaining = {u: set(v for v in succ[u] if indeg[v] > 0)
                     for u in nodes if indeg[u] > 0}
        cycle = _find_cycle(remaining)
        raise AcyclicityError("arc set contains a cycle", cycle=cycle)
    return order


def weak_components(arcs):
    """Components of the undirected support of an arc multiset.

    arcs maps (u, v) to a multiplicity; arcs whose multiplicity is not
    positive are ignored.  Returns (node set, Counter of the component's
    arcs) pairs ordered by smallest node.
    """
    neigh = {}
    for (u, v), c in arcs.items():
        if c > 0:
            neigh.setdefault(u, set()).add(v)
            neigh.setdefault(v, set()).add(u)
    comps = []
    comp_of = {}  # node -> the Counter of its component's arcs
    for root in sorted(neigh):
        if root in comp_of:
            continue
        nodes, comp = {root}, Counter()
        stack = [root]
        while stack:
            for y in neigh[stack.pop()] - nodes:
                nodes.add(y)
                stack.append(y)
        comp_of.update(dict.fromkeys(nodes, comp))
        comps.append((nodes, comp))
    for arc, c in arcs.items():
        if c > 0:
            comp_of[arc[0]][arc] = c
    return comps


def euler_tour(arcs, start):
    """Closed walk from start using each arc of the multiset exactly once.

    arcs is an iterable of (u, v) pairs (repetitions allowed) or a Counter.
    Requires in-degree == out-degree everywhere and a connected support.
    """
    if isinstance(arcs, Counter):
        multi = Counter({a: c for a, c in arcs.items() if c})
    else:
        multi = Counter(arcs)
    if not multi:
        return []
    for (u, v), c in multi.items():
        if u == v:
            raise InputError(f"self-loop ({u},{u})")
        if c < 0:
            raise InputError("negative multiplicity")

    indeg = Counter()
    outdeg = Counter()
    support = set()
    for (u, v), c in multi.items():
        outdeg[u] += c
        indeg[v] += c
        support.add(u)
        support.add(v)
    for u in support:
        if indeg[u] != outdeg[u]:
            raise ContractError(f"node {u} is unbalanced: in {indeg[u]} out {outdeg[u]}")
    if start not in support:
        raise InputError(f"start node {start} carries no arcs")

    if len(weak_components(multi)) > 1:
        raise ContractError("arc multiset support is disconnected")

    adj = {u: deque() for u in support}
    for (u, v) in sorted(multi):
        adj[u].extend([v] * multi[(u, v)])

    # Hierholzer, iterative
    stack = [start]
    walk = []
    while stack:
        u = stack[-1]
        if adj[u]:
            stack.append(adj[u].popleft())
        else:
            walk.append(stack.pop())
    walk.reverse()
    tour = list(zip(walk, walk[1:]))
    if Counter(tour) != multi:
        raise InvariantError("Euler tour failed to use each arc exactly once")
    return tour


def shortcut(walk):
    """Drop every repeated node after its first occurrence.

    Under the triangle inequality the resulting simple sequence never
    costs more than the walk.
    """
    seen = set()
    out = []
    for v in walk:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def reachability(arcs, nodes):
    """Transitive closure of an acyclic arc set as a set of (u, v) pairs."""
    nodes = sorted(set(nodes))
    order = topological_order(arcs, nodes)  # raises on cycles
    succ = {u: set() for u in nodes}
    for u, v in arcs:
        succ[u].add(v)
    reach = {u: set() for u in nodes}
    for u in reversed(order):
        acc = set()
        for v in succ[u]:
            acc.add(v)
            acc |= reach[v]
        reach[u] = acc
    return {(u, v) for u in nodes for v in reach[u]}

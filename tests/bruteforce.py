"""Exhaustive reference computations used to pin expected test values.

Everything here is deliberately naive (permutations, subset enumeration,
path enumeration) and independent of the library's algorithms.
"""

from fractions import Fraction
from itertools import permutations

ZERO = Fraction(0)


def brute_all_pairs_shortest(n, arcs):
    """All-pairs shortest path distances by enumerating simple paths."""
    adj = {u: [] for u in range(n)}
    for (u, v), w in arcs.items():
        if u != v:
            adj[u].append((v, Fraction(w)))
    best = {}

    def explore(u, target, node, seen, acc):
        if node == target:
            key = (u, target)
            if key not in best or acc < best[key]:
                best[key] = acc
            return
        for nxt, w in adj[node]:
            if nxt not in seen:
                explore(u, target, nxt, seen | {nxt}, acc + w)

    for u in range(n):
        for v in range(n):
            if u != v:
                explore(u, v, u, {u}, ZERO)
    return best


def brute_min_cost_matching(cost):
    """Minimum-cost perfect matching over all permutations (None forbidden)."""
    m = len(cost)
    best = None
    for perm in permutations(range(m)):
        total = ZERO
        ok = True
        for i, j in enumerate(perm):
            c = cost[i][j]
            if c is None:
                ok = False
                break
            total += c
        if ok and (best is None or total < best):
            best = total
    return best


def brute_min_cut(capacities, source, sink, nodes):
    """Minimum s-avoiding cut value over all subsets containing the sink."""
    others = [v for v in nodes if v not in (source, sink)]
    best = None
    for mask in range(1 << len(others)):
        cut = {sink} | {others[i] for i in range(len(others)) if mask >> i & 1}
        val = sum(
            (amt for (u, v), amt in capacities.items() if u not in cut and v in cut),
            ZERO,
        )
        if best is None or val < best:
            best = val
    return best


def brute_max_bipartite(adj):
    """Maximum matching size by recursion over left nodes."""
    lefts = sorted(adj)

    def go(i, used):
        if i == len(lefts):
            return 0
        best = go(i + 1, used)
        for v in adj[lefts[i]]:
            if v not in used:
                best = max(best, 1 + go(i + 1, used | {v}))
        return best

    return go(0, frozenset())


def brute_atspp(inst):
    """Cheapest Hamiltonian s-t path by permuting interior nodes."""
    interior = [v for v in range(inst.n) if v not in (inst.s, inst.t)]
    best = None
    best_order = None
    for perm in permutations(interior):
        order = [inst.s, *perm, inst.t]
        c = inst.path_cost(order)
        if best is None or c < best:
            best = c
            best_order = order
    return best, best_order


def brute_latency(inst):
    """Minimum total node-weighted latency by permuting interior nodes."""
    interior = [v for v in range(inst.n) if v not in (inst.s, inst.t)]
    best = None
    best_order = None
    for perm in permutations(interior):
        order = [inst.s, *perm, inst.t]
        total = ZERO
        acc = ZERO
        for u, v in zip(order, order[1:]):
            acc += inst.d[u][v]
            total += inst.weight(v) * acc
        if best is None or total < best:
            best = total
            best_order = order
    return best, best_order


def brute_k_person(inst, k):
    """Minimum total cost of exactly k s-t paths covering all nodes.

    Unused path slots cost d(s,t) each, matching the solver's padding
    convention.  Enumerates interior permutations and split points.
    """
    interior = [v for v in range(inst.n) if v not in (inst.s, inst.t)]
    m = len(interior)
    dst = inst.d[inst.s][inst.t]
    if m == 0:
        return k * dst, [[inst.s, inst.t]] * k

    best = None
    best_paths = None
    for perm in permutations(interior):
        for q in range(1, min(k, m) + 1):
            for splits in _compositions(m, q):
                paths = []
                pos = 0
                total = ZERO
                for size in splits:
                    seg = perm[pos:pos + size]
                    pos += size
                    path = [inst.s, *seg, inst.t]
                    paths.append(path)
                    total += inst.path_cost(path)
                total += (k - q) * dst
                if best is None or total < best:
                    best = total
                    best_paths = paths + [[inst.s, inst.t]] * (k - q)
    return best, best_paths


def _compositions(total, parts):
    """All ways to write total as an ordered sum of `parts` positive ints."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)

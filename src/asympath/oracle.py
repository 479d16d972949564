"""Exact exponential-time baselines for verifying bounds at desk scale."""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantError, SizeLimitError, require_count
from .rational import over_lcm

ATSPP_CAP = 18
LATENCY_CAP = 16
K_PERSON_CAP = 9


@dataclass
class ExactResult:
    """Optimal value plus one witness achieving it.

    order is a node sequence for the path problems and a list of node
    sequences for the k-person problem.
    """

    value: Fraction
    order: list


def _subset_dp(d, s, t, interior, mult):
    """Cheapest Hamiltonian s-t path over int distances d, where an arc
    taken after visiting the interior subset mask costs d * mult[mask].

    Returns (value, order).  dp[mask][i] is the cheapest s -> interior[i]
    route visiting exactly mask.  No parent table is kept: the order is
    rebuilt backwards from the first cheapest end, each step taking the
    lowest i in the previous mask whose route extends to the stored value,
    so ties keep the route that an ascending strict-< scan keeps.
    """
    m = len(interior)
    full = (1 << m) - 1
    if m == 0:
        return d[s][t] * mult[0], [s, t]
    rows = [[d[u][v] for v in interior] for u in interior]
    dp = [[None] * m for _ in range(full + 1)]
    for i, v in enumerate(interior):
        dp[1 << i][i] = d[s][v] * mult[0]
    # the set bits of x, ascending, are lo[x & low] + hi[x >> h]
    h = m // 2
    low = (1 << h) - 1
    lo, hi = [[]], [[]]
    for j in range(m):
        part = lo if j < h else hi
        part += [bits + [j] for bits in part]
    for mask in range(1, full):
        p = mult[mask]
        cur_row = dp[mask]
        first, *rest = lo[mask & low] + hi[mask >> h]
        free = full ^ mask
        targets = [(j, dp[mask | 1 << j]) for j in lo[free & low] + hi[free >> h]]
        cur = cur_row[first]
        row = rows[first]
        for j, tgt in targets:
            tgt[j] = cur + row[j] * p
        for i in rest:
            cur = cur_row[i]
            row = rows[i]
            for j, tgt in targets:
                cand = cur + row[j] * p
                if cand < tgt[j]:
                    tgt[j] = cand
    ends = [dp[full][i] + d[v][t] * mult[full] for i, v in enumerate(interior)]
    best = min(ends)
    order, mask, j = [t], full, ends.index(best)
    while True:
        order.append(interior[j])
        prev = mask ^ 1 << j
        if not prev:
            break
        goal, p, prev_row = dp[mask][j], mult[prev], dp[prev]
        for i in lo[prev & low] + hi[prev >> h]:
            if prev_row[i] + rows[i][j] * p == goal:
                break
        mask, j = prev, i
    order.append(s)
    order.reverse()
    return best, order


def _sparse_dp(d, s, t, interior, arcs):
    """_subset_dp with mult 1 over the arcs {(u, v): int cost} alone:
    (value, order), or None when no Hamiltonian s-t path keeps to them.

    Layer k maps each interior subset mask of k + 1 nodes that some route
    from s visits exactly to {i: cheapest such route ending at
    interior[i]}; each route extends along its end's successor list.  The
    order is rebuilt by _subset_dp's rule: the first cheapest end, then
    each step the lowest i in the previous mask whose route extends to
    the stored value.
    """
    m = len(interior)
    if m == 0:
        return (arcs[(s, t)], [s, t]) if (s, t) in arcs else None
    index = {v: i for i, v in enumerate(interior)}
    succ = [[] for _ in range(m)]
    layer, ends, inner = {}, {}, {}
    for (u, v), c in arcs.items():
        if u == s:
            layer[1 << index[v]] = {index[v]: c}
        elif v == t:
            ends[index[u]] = c
        else:
            i, j = index[u], index[v]
            succ[i].append((j, 1 << j, c))
            inner[(i, j)] = c
    layers = [layer]
    for _ in range(m - 1):
        nxt = {}
        for mask, routes in layer.items():
            for i, value in routes.items():
                for j, bit, c in succ[i]:
                    if mask & bit:
                        continue
                    cand = value + c
                    tgt = nxt.get(mask | bit)
                    if tgt is None:
                        nxt[mask | bit] = {j: cand}
                    elif j not in tgt or cand < tgt[j]:
                        tgt[j] = cand
        layer = nxt
        layers.append(layer)
    routes = layer.get((1 << m) - 1, {})
    best = None
    for i in sorted(routes.keys() & ends.keys()):
        cand = routes[i] + ends[i]
        if best is None or cand < best:
            best, j = cand, i
    if best is None:
        return None
    order, mask = [t], (1 << m) - 1
    for k in range(m - 1, 0, -1):
        order.append(interior[j])
        goal = layers[k][mask][j]
        mask ^= 1 << j
        prev = layers[k - 1][mask]
        j = next(i for i in sorted(prev)
                 if (i, j) in inner and prev[i] + inner[(i, j)] == goal)
    order += [interior[j], s]
    order.reverse()
    return best, order


# the guided search's first tau is (upper - lower) / _TAU_SHARE
_TAU_SHARE = 16


def _guided_dp(d, L, s, t, interior, bound):
    """The cheapest Hamiltonian s-t path under a certified bound, searched
    over the arcs whose reduced cost is at most tau alone.

    bound is (lower, upper, reduced): every Hamiltonian s-t path P costs
    at least lower plus the reduced costs of its arcs, and upper is no
    less than the optimum.  If the best path V over the arcs with reduced
    cost <= tau costs at most lower + tau, a path through any other arc
    costs more, so V is optimal, and every optimal path keeps to those
    arcs, so V's order is the one _subset_dp rebuilds.  tau starts at
    (upper - lower) / _TAU_SHARE and doubles; at upper - lower every path
    of cost at most upper keeps to the arcs, so the search ends there.
    """
    lower, upper, reduced = bound
    if interior:
        needed = [(s, v) for v in interior] + [(v, t) for v in interior]
        needed += [(u, v) for u in interior for v in interior if u != v]
    else:
        needed = [(s, t)]
    try:
        costs = [reduced[arc] for arc in needed]
    except KeyError as exc:
        raise InputError(f"bound: no reduced cost for arc {exc.args[0]}") from None
    (lo, up, *costs), M = over_lcm([lower, upper, *costs])
    if lo > up:
        raise InputError(f"bound: lower {lower} exceeds upper {upper}")
    if min(costs) < 0:
        raise InputError("bound: a reduced cost is negative")
    # lower, the reduced costs and tau over q M, path costs over L: the
    # first tau, up - lo over q M, is (upper - lower) / q
    q, gap = _TAU_SHARE, up - lo
    lo *= q
    rc = {arc: q * r for arc, r in zip(needed, costs)}
    tau, kept, found = gap, None, None
    while True:
        allowed = {arc: d[arc[0]][arc[1]] for arc, r in rc.items() if r <= tau}
        if len(allowed) != kept:  # else the last search's answer stands
            kept, found = len(allowed), _sparse_dp(d, s, t, interior, allowed)
        if found is not None and q * found[0] * M <= (lo + tau) * L:
            value, order = found
            path_rc = sum(rc[arc] for arc in zip(order, order[1:]))
            if q * value * M < (lo + path_rc) * L:
                raise InvariantError(f"bound: path {order} costs less than lower "
                                     "plus its reduced costs")
            return found
        if tau >= q * gap:
            raise InputError("bound: no Hamiltonian path over the arcs its reduced "
                             "costs admit costs at most upper")
        tau *= 2


def exact_atspp(inst, bound=None):
    """Cheapest Hamiltonian s-t path by subset dynamic programming.

    bound, when given, is a certified (lower, upper, reduced) that the
    search reads to skip arcs (see _guided_dp): lower a lower bound with
    reduced[(u, v)] >= 0 for every arc a Hamiltonian s-t path may use,
    such that every such path P costs at least lower plus the reduced
    costs of P's arcs (AlphaOptimum's value and reduced_costs are one), and
    upper at least the optimum (a path's cost).  The value and order are
    the ones the search without a bound gives.  A missing or negative
    reduced cost, lower > upper, or an upper below every path the reduced
    costs admit raises InputError; a float or a bool raises TypeError.
    """
    if inst.n > ATSPP_CAP:
        raise SizeLimitError(f"exact_atspp capped at n <= {ATSPP_CAP}")
    s, t = inst.s, inst.t
    interior = [v for v in range(inst.n) if v not in (s, t)]
    d, L = inst.scaled
    if bound is None:
        value, order = _subset_dp(d, s, t, interior, [1] * (1 << len(interior)))
    else:
        value, order = _guided_dp(d, L, s, t, interior, bound)
    return ExactResult(value=Fraction(value, L), order=order)


def exact_latency(inst):
    """Minimum total node-weighted latency by subset dynamic programming.

    Traversing an arc charges its length times the total weight of all
    still-unvisited nodes, so the accumulated cost at the end equals the
    sum of per-node weighted latencies.
    """
    if inst.n > LATENCY_CAP:
        raise SizeLimitError(f"exact_latency capped at n <= {LATENCY_CAP}")
    s, t = inst.s, inst.t
    interior = [v for v in range(inst.n) if v not in (s, t)]
    w, W = over_lcm(inst.node_weights())
    # pending[mask]: weight still waiting once the interior subset mask is visited
    pending = [w[t] + sum(w[v] for v in interior)]
    for mask in range(1, 1 << len(interior)):
        low = mask & -mask
        pending.append(pending[mask ^ low] - w[interior[low.bit_length() - 1]])
    d, L = inst.scaled
    value, order = _subset_dp(d, s, t, interior, pending)
    return ExactResult(value=Fraction(value, L * W), order=order)


def exact_k_person(inst, k):
    """Minimum total cost of exactly k s-t paths covering every node.

    Exhaustive: each interior node is inserted at every position of every
    nonempty path, or starts one more path while fewer than k are used;
    empty paths are interchangeable, so the search is bounded by n alone.
    Unused path slots count d(s,t) apiece, matching the solver's padding
    convention.  Costs are ints over the lcm of the distances, each
    insertion adding its detour to the running total.
    """
    if inst.n > K_PERSON_CAP:
        raise SizeLimitError(f"exact_k_person capped at n <= {K_PERSON_CAP}")
    require_count(k, "k")
    s, t = inst.s, inst.t
    interior = [v for v in range(inst.n) if v not in (s, t)]
    d, L = inst.scaled
    dst = d[s][t]

    best = [None, None]

    def place(idx, groups, cost):
        # cost: the int cost of the nonempty paths [s, *g, t] so far
        if idx == len(interior):
            total = cost + (k - len(groups)) * dst
            if best[0] is None or total < best[0]:
                best[0] = total
                best[1] = [[s, *g, t] for g in groups]
                best[1] += [[s, t] for _ in range(k - len(groups))]
            return
        v = interior[idx]
        for g in groups:
            for pos in range(len(g) + 1):
                u = g[pos - 1] if pos else s
                w = g[pos] if pos < len(g) else t
                g.insert(pos, v)
                place(idx + 1, groups, cost + d[u][v] + d[v][w] - d[u][w])
                g.pop(pos)
        if len(groups) < k:
            groups.append([v])
            place(idx + 1, groups, cost + d[s][v] + d[v][t])
            groups.pop()

    place(0, [], 0)
    return ExactResult(value=Fraction(best[0], L), order=best[1])

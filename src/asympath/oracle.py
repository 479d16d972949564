"""Exact exponential-time baselines for verifying bounds at desk scale."""

from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeLimitError, require_count
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


def exact_atspp(inst):
    """Cheapest Hamiltonian s-t path by subset dynamic programming."""
    if inst.n > ATSPP_CAP:
        raise SizeLimitError(f"exact_atspp capped at n <= {ATSPP_CAP}")
    s, t = inst.s, inst.t
    interior = [v for v in range(inst.n) if v not in (s, t)]
    d, L = inst.scaled
    value, order = _subset_dp(d, s, t, interior, [1] * (1 << len(interior)))
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

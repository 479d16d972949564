"""Asymmetric metric instances: representation, validation, and generators.

An instance is a complete directed graph on nodes 0..n-1 with exact
rational distances satisfying the directed triangle inequality, plus a
designated source s and sink t.  Generators only ever emit integers, so
downstream bound checks stay exact.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from operator import itemgetter

from .errors import InfeasibleError, InputError, require_count
from .rational import as_fraction, over_lcm, scaled_matrix, to_json

_ARRAY = (list, tuple)  # what JSON arrays load as; a str or dict is not one


@dataclass(frozen=True)
class MetricInstance:
    """Complete asymmetric metric with source s and sink t.

    d is an n x n matrix of nonnegative rationals with zero diagonal.
    weights, when present, are positive per-node rationals that weight
    every latency objective; without them each node weighs 1.  Both are
    stored as Fractions; a float raises TypeError; n, s and t must be ints
    (not bools), and d, its rows and weights lists or tuples of n values,
    or InputError is raised.  The metric itself is checked by validate().
    """

    n: int
    s: int
    t: int
    d: tuple
    weights: tuple = None

    def __post_init__(self):
        if not all(isinstance(x, int) and not isinstance(x, bool)
                   for x in (self.n, self.s, self.t)):
            raise InputError(f"n, s and t must be ints, got {self.n!r}, {self.s!r}, {self.t!r}")
        if self.n < 2:
            raise InputError(f"instance needs at least 2 nodes, got {self.n}")
        if (not isinstance(self.d, _ARRAY) or len(self.d) != self.n
                or any(not isinstance(row, _ARRAY) or len(row) != self.n for row in self.d)):
            raise InputError("distance matrix is not an n x n array of arrays")
        object.__setattr__(self, "d", tuple(tuple(map(as_fraction, row)) for row in self.d))
        if not (0 <= self.s < self.n and 0 <= self.t < self.n):
            raise InputError("s or t out of range")
        if self.s == self.t:
            raise InputError("s and t must be distinct")
        if self.weights is not None:
            if not isinstance(self.weights, _ARRAY) or len(self.weights) != self.n:
                raise InputError("weights are not an array of n values")
            object.__setattr__(self, "weights", tuple(map(as_fraction, self.weights)))
            if any(w <= 0 for w in self.weights):
                raise InputError("node weights must be positive")

    @cached_property
    def scaled(self):
        """(int rows, L): d as ints over the lcm L of its denominators,
        computed on first use and kept.  Not a field, so ==, hash and
        dataclasses.replace ignore it; the rows are tuples, shared by
        every caller."""
        return scaled_matrix(self.d)

    def path_cost(self, nodes):
        """Total distance along a node sequence."""
        return sum((self.d[u][v] for u, v in zip(nodes, nodes[1:])), Fraction(0))

    def weight(self, v):
        return self.weights[v] if self.weights is not None else Fraction(1)

    def node_weights(self):
        """Per-node weights as Fractions, all 1 when the instance has none."""
        return [self.weight(v) for v in range(self.n)]

    def is_st_order(self, nodes):
        """True iff nodes visits every node, an int, exactly once, s first, t last."""
        return (len(nodes) == self.n and nodes[0] == self.s and nodes[-1] == self.t
                and set(nodes) == set(range(self.n)) and set(map(type, nodes)) == {int})

    def node_set(self, nodes):
        """nodes as a set; InputError unless each is an int (not a bool) in 0..n-1."""
        nodes = set(nodes)
        outside = {v for v in nodes if type(v) is not int or not 0 <= v < self.n}
        if outside:
            raise InputError(f"nodes outside 0..{self.n - 1}: {outside}")
        return nodes

    def arcs(self):
        for u in range(self.n):
            for v in range(self.n):
                if u != v:
                    yield u, v


def validate(inst):
    """Each nonzero diagonal entry, negative distance and broken triangle
    inequality of d, as a violation string; empty means d is a metric."""
    violations = []
    d = inst.d
    for u in range(inst.n):
        if d[u][u] != 0:
            violations.append(f"d[{u}][{u}] != 0")
        for v in range(inst.n):
            if d[u][v] < 0:
                violations.append(f"d[{u}][{v}] < 0")
    for u in range(inst.n):
        for v in range(inst.n):
            if u == v:
                continue
            duv = d[u][v]
            row_w = d[v]
            for w in range(inst.n):
                if w == u or w == v:
                    continue
                if d[u][w] > duv + row_w[w]:
                    violations.append(f"d[{u}][{w}] > d[{u}][{v}] + d[{v}][{w}]")
    return violations


def metric_closure(n, arcs, s, t, weights=None):
    """Shortest-path metric of a weighted digraph given as {(u,v): cost}.

    Every ordered pair must be connected; an unreachable pair raises
    InfeasibleError naming the pair, and an arc endpoint that is not an
    int (a bool is not) in 0..n-1 InputError.  Floyd-Warshall runs on the
    arc costs as ints over the lcm L of their denominators (over_lcm),
    and the instance's scaled value is the distances as those ints over
    L in lowest terms (_lowest_terms), so it equals scaled_matrix(d).
    """
    if require_count(n, "n") < 2:
        raise InputError("metric_closure needs n >= 2")
    arc_weights = []
    for (u, v), w in arcs.items():
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
            raise InputError(f"arc ({u!r}, {v!r}) has an endpoint that is no int in 0..{n - 1}")
        if u != v:
            arc_weights.append(((u, v), w))
    costs, L = over_lcm(w for _, w in arc_weights)
    dist = [[0 if u == v else None for v in range(n)] for u in range(n)]  # None: no path yet
    for ((u, v), _), w in zip(arc_weights, costs):
        if w < 0:
            raise InputError(f"negative arc weight on ({u}, {v})")
        dist[u][v] = w
    for k in range(n):
        dk = dist[k]
        for u in range(n):
            duk = dist[u][k]
            if duk is None:
                continue
            du = dist[u]
            for v in range(n):
                dkv = dk[v]
                if dkv is None:
                    continue
                alt = duk + dkv
                duv = du[v]
                if duv is None or alt < duv:
                    du[v] = alt
    for u in range(n):
        for v in range(n):
            if dist[u][v] is None:
                raise InfeasibleError(f"node {v} is unreachable from node {u}")
    rows, L = _lowest_terms(dist, L)
    inst = MetricInstance(
        n=n,
        s=s,
        t=t,
        d=tuple(tuple(Fraction(x, L) for x in row) for row in rows),
        weights=weights,
    )
    inst.__dict__["scaled"] = rows, L  # where the cached property keeps it
    return inst


def _lowest_terms(rows, L):
    """(rows, L) for a matrix of ints over L, each divided by the gcd g of L
    and every entry: the lcm of the entries' own denominators is L / g, so
    this is scaled_matrix of the rationals they stand for."""
    g = gcd(L, *chain.from_iterable(rows))
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
    return tuple(map(tuple, rows)), L // g


def gen_random(n, seed, max_weight):
    """Random complete digraph with integer arc weights in [1, max_weight],
    closed under shortest paths.  s=0, t=n-1.  Deterministic per seed."""
    if require_count(n, "n") < 2:
        raise InputError("gen_random needs n >= 2")
    require_count(max_weight, "max_weight")
    rng = random.Random(seed)
    arcs = {}
    for u in range(n):
        for v in range(n):
            if u != v:
                arcs[(u, v)] = rng.randint(1, max_weight)
    return metric_closure(n, arcs, s=0, t=n - 1)


# Digraph behind the bad-gap family: unit arcs form two parallel branches
# 0->1->2->5 and 0->3->4->5 with 2-cycles {1,2} and {3,4}; one return arc
# 5->0 of cost D makes the graph strongly connected.
_BAD_GAP_UNIT_ARCS = (
    (0, 1), (1, 2), (2, 1), (2, 5),
    (0, 3), (3, 4), (4, 3), (4, 5),
)


def gen_bad_gap(D):
    """Six-node family whose half-cut LP value stays at 3, whatever D,
    while every Hamiltonian s-t path costs at least D.  The LP(1/2)
    optimum sends half a unit along each branch 0-1-2-5 and 0-3-4-5."""
    if not isinstance(D, int) or D < 10:
        raise InputError("gen_bad_gap needs an integer D >= 10")
    arcs = {arc: Fraction(1) for arc in _BAD_GAP_UNIT_ARCS}
    arcs[(5, 0)] = Fraction(D)
    return metric_closure(6, arcs, s=0, t=5)


def bad_gap_flow():
    """A fractional arc assignment of cost 5 that is feasible for
    gen_bad_gap's relaxation with cut requirement 1/2: an upper bound on
    its LP value, whose exact optimum is 3.

    Half a unit on the six branch arcs, one unit on each 2-cycle's forward
    arc.
    """
    half = Fraction(1, 2)
    one = Fraction(1)
    return {
        (0, 1): half, (2, 1): half, (2, 5): half,
        (0, 3): half, (4, 3): half, (4, 5): half,
        (1, 2): one, (3, 4): one,
    }


def induced_subinstance(inst, W, s2, t2):
    """Restrict distances to the node set W with new endpoints s2, t2.

    Returns (sub_instance, mapping) where mapping[i] is the original index
    of sub-instance node i.  Distances are already metric, so no
    recomputation happens, and the sub-instance's scaled value is sliced
    from inst.scaled and brought to lowest terms (_lowest_terms).
    """
    W = inst.node_set(W)
    if s2 not in W or t2 not in W:
        raise InputError("s2 and t2 must belong to W")
    if s2 == t2:
        raise InputError("s2 and t2 must be distinct")
    mapping = sorted(W)
    index = {orig: i for i, orig in enumerate(mapping)}
    d = tuple(tuple(inst.d[u][v] for v in mapping) for u in mapping)
    weights = None
    if inst.weights is not None:
        weights = tuple(inst.weights[u] for u in mapping)
    sub = MetricInstance(n=len(mapping), s=index[s2], t=index[t2], d=d, weights=weights)
    rows, L = inst.scaled
    pick = itemgetter(*mapping)  # W holds s2 != t2, so pick returns a tuple
    sub.__dict__["scaled"] = _lowest_terms([pick(rows[u]) for u in mapping], L)
    return sub, mapping


def instance_to_json(inst):
    """Serialize to the package's JSON schema (rationals as int or "p/q")."""
    doc = {"n": inst.n, "s": inst.s, "t": inst.t, "d": inst.d}
    if inst.weights is not None:
        doc["weights"] = inst.weights
    return json.dumps(to_json(doc), indent=1)


def instance_from_json(text):
    """Parse an instance; raises InputError unless it is a valid metric."""
    doc = json.loads(text)
    try:
        inst = MetricInstance(n=doc["n"], s=doc["s"], t=doc["t"], d=doc["d"],
                              weights=doc.get("weights"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed instance JSON: {exc}") from exc
    bad = validate(inst)
    if bad:
        raise InputError(f"distances are not a metric ({len(bad)} violations): "
                         + "; ".join(bad[:3]))
    return inst


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(inst, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))
        fh.write("\n")

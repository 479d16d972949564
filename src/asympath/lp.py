"""LP relaxations: the cut-requirement relaxation LP(alpha) for s-t path
problems and the ordering/flow relaxation for directed latency, both solved
to exact rational optimality with cutting planes.

Both LPs start from a phase-1 tableau shared by every instance of one
shape, priced with the instance's costs.  Violated cut constraints are
found by exact max-flow separation; rows are appended to a solved tableau
and reoptimized with dual simplex, so each round costs only a handful of
pivots.  Every LP(alpha) optimum is then checked by an exact dual
certificate read from the final basis, on ints.
"""

from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, permutations
from math import gcd
import operator

from .errors import DegenerateLatencyError, InputError, InvariantError
from .graphs import ArcFlow, FlowNetwork, max_flow_min_cut
from .rational import as_fraction, over_lcm, to_json
from .simplex import OPTIMAL, LpModel, SimplexSolver

ZERO = Fraction(0)
ONE = Fraction(1)


def _cutting_planes(solver, separate, n, what):
    """Solve, then add the rows separate(sol) reports and reoptimize until
    it reports none.

    separate returns one round's violated rows as (key, coeffs, rhs), each
    read as coeffs . x >= rhs.  An added row holds at every later optimum,
    so a key reported twice is a logic error.  Returns (sol, rounds) where
    rounds counts the separation passes, the last one included.
    """
    sol = solver.solve()
    if sol.status != OPTIMAL:
        raise InvariantError(f"{what} reported {sol.status}")
    added = set()
    # a generous cap on rounds, exceeded only on a logic error
    for rounds in range(1, 10 * n * n + 1):
        rows = separate(sol)
        if not rows:
            return sol, rounds
        for key, coeffs, rhs in rows:
            if key in added:
                raise InvariantError(f"{what}: the added row {key} is violated again")
            added.add(key)
            solver.add_ge_cut(coeffs, rhs)
        sol = solver.reoptimize()
        if sol.status != OPTIMAL:
            raise InvariantError(f"cut rows made the {what} {sol.status}")
    raise InvariantError(f"{what} separation did not converge within the round cap")


# shapes whose phase-1 start is kept, over both LPs; an LP(alpha) entry
# holds a tableau of about 2n rows by n^2 columns, a latency entry one of
# 32 rows by 53 columns at n = 5 and 274 by 625 at n = 9
_STARTS = 16


@lru_cache(maxsize=_STARTS)
def _start(build, *key):
    """(started solver, shape) for (model, shape) = build(*key), where
    build's model has a zero objective and rows that depend on nothing but
    key, and shape holds what else every instance of key reads (its
    columns, and for LP(alpha) its rows' int form).  Phase 1 reads only
    the rows, so every instance of that key shares it; a solver prices a
    copy (with_objective) and never mutates it."""
    model, shape = build(*key)
    return SimplexSolver(model).start(), shape


# ---------------------------------------------------------------------------
# LP(alpha): min sum d_e x_e with every s-avoiding cut receiving >= alpha
# ---------------------------------------------------------------------------


def build_alpha_lp(inst, alpha):
    """Degree constraints plus singleton cuts of the cut relaxation.

    The remaining (exponentially many) cut constraints are separated
    lazily by solve_lp_alpha.  Returns (model, var_index) with var_index
    mapping each arc to its column.
    """
    model, shape = _alpha_model(inst.n, inst.s, inst.t, _requirement(alpha))
    model.obj = [inst.d[u][v] for u, v in shape.columns]
    return model, shape.columns


@dataclass(frozen=True)
class _AlphaShape:
    """What every LP(alpha) instance of one shape shares besides its
    start: columns maps each arc to its column, in inst.arcs() order,
    and rows holds the model's rows in the int form _certify reads
    (_int_row), converted once."""

    columns: dict
    rows: list


def _requirement(alpha):
    """alpha as a Fraction; InputError unless it lies in (0, 1]."""
    alpha = as_fraction(alpha)
    if not ZERO < alpha <= ONE:
        raise InputError("alpha must lie in (0, 1]")
    return alpha


def _alpha_model(n, s, t, alpha):
    """(model, _AlphaShape): build_alpha_lp's rows, which depend on nothing
    but (n, s, t, alpha), with a zero objective; alpha is a _requirement."""
    model = LpModel()
    xv = {}
    for u in range(n):
        for v in range(n):
            if u != v:
                xv[(u, v)] = model.add_var(f"x[{u},{v}]")

    for u in range(n):
        if u in (s, t):
            continue
        coeffs = {xv[(u, w)]: ONE for w in range(n) if w != u}
        for w in range(n):
            if w != u:
                coeffs[xv[(w, u)]] = -ONE
        model.add_eq(coeffs, ZERO)
    model.add_eq({xv[(s, w)]: ONE for w in range(n) if w != s}, ONE)
    model.add_eq({xv[(w, t)]: ONE for w in range(n) if w != t}, ONE)
    model.add_eq({xv[(w, s)]: ONE for w in range(n) if w != s}, ZERO)
    model.add_eq({xv[(t, w)]: ONE for w in range(n) if w != t}, ZERO)
    for v in range(n):
        if v == s:
            continue
        model.add_ge({xv[(w, v)]: ONE for w in range(n) if w != v}, alpha)
    return model, _AlphaShape(xv, [_int_row(row) for row in model.constraints])


class AlphaOptimum(tuple):
    """What solve_lp_alpha returns: the pair (value, flow), plus the
    reduced costs c_a - y . A_a of the dual y its certificate checked.

    Every Hamiltonian s-t path P meets every row of LP(alpha) (alpha <= 1)
    with its unit flow, so by weak duality its cost is at least
    value + the sum of reduced_costs over P's arcs.  The reduced costs
    stay the certificate's int list over one denominator until
    reduced_costs is first read."""

    def __new__(cls, value, flow, columns, reduced, den):
        self = super().__new__(cls, (value, flow))
        self._certificate = columns, reduced, den
        return self

    def __getnewargs__(self):  # so that copy and pickle rebuild it
        return (*self, *self._certificate)

    @cached_property
    def reduced_costs(self):
        """{arc: reduced cost} over every arc, each a nonnegative Fraction."""
        columns, reduced, den = self._certificate
        return {arc: Fraction(reduced[j], den) for arc, j in columns.items()}


def solve_lp_alpha(inst, alpha):
    """Exact optimum of the cut relaxation with requirement alpha in (0, 1].

    Starts from degree constraints plus singleton cuts and separates the
    remaining cut constraints with max-flow until none are violated.
    Returns (value, flow) where flow is an optimal fractional solution, as
    an AlphaOptimum that also hands out its certificate's reduced costs.
    """
    alpha = _requirement(alpha)
    n, s = inst.n, inst.s
    start, shape = _start(_alpha_model, n, s, inst.t, alpha)
    xv = shape.columns
    d, L = inst.scaled
    costs = [d[u][v] for u, v in xv]  # the distances as ints over L
    solver = start.with_objective(costs, L)

    def separate(sol):
        cuts = _alpha_short_cuts(_flow(list(sol.values.values()), xv), s, alpha, range(n))
        return [
            (cut, {xv[(u, w)]: ONE for u in range(n) if u not in cut for w in cut if w != u},
             alpha)
            for cut in sorted(cuts, key=sorted)
        ]

    sol, _ = _cutting_planes(solver, separate, n, "cut relaxation")
    x = list(sol.values.values())
    # the shape's rows in their int form, then the cut rows; under the
    # costs scaled by L, the optimum is L times the value, and the
    # reduced costs are L times the distances' own
    rows = shape.rows + solver.rows()[len(shape.rows):]
    reduced, R = _certify(rows, costs, solver.basis(), x, sol.objective * L)
    return AlphaOptimum(sol.objective, _flow(x, xv), xv, reduced, R * L)


# for each sense, the test of (lhs, rhs) that is true when the row fails
_VIOLATED = {">=": operator.lt, "<=": operator.gt, "=": operator.ne}


def _int_row(row):
    """(sense, coeffs, rhs) scaled by the lcm of its denominators, so that
    every coefficient and the rhs is an int; a row already in that form
    is returned as it is.  The scaled row has the same feasible set."""
    sense, coeffs, rhs = row
    if type(rhs) is int and set(map(type, coeffs.values())) <= {int}:
        return row
    ints, _ = over_lcm([*coeffs.values(), rhs])
    return sense, dict(zip(coeffs, ints)), ints[-1]


def _certify(rows, costs, basis, x, value):
    """Check that x is an optimum, of cost value, of min costs . x subject
    to rows (sense, coeffs, rhs) and x >= 0; InvariantError otherwise.

    x must satisfy every row with costs . x == value.  The dual y is read
    from basis ({row: column} as SimplexSolver.basis() gives it) alone:
    y is 0 on each row whose slack is basic and on each row basis leaves
    out, and solves B^T y = c_B on the rest.  Then each row's y must have
    the sign its sense asks (>= 0 on >=, <= 0 on <=), every reduced cost
    c_j - y . A_j must be nonnegative and b . y == value, so by weak
    duality no x is cheaper.  Reads nothing but its arguments, and shares
    no code with the tableau.  Returns (reduced, R): the reduced costs as
    int numerators over the one denominator R.

    Every check runs on ints: each row over its own lcm (_int_row, so a
    caller may hand in rows it converted once), x over the lcm X of its
    denominators, the costs over theirs, C, and y over one denominator.
    A row scaled by a positive factor has the same feasible set, so a
    dual of the scaled rows certifies the rows as given."""
    nv = len(costs)
    rows = [_int_row(row) for row in rows]
    columns = [j for j, v in enumerate(x) if v]
    values, X = over_lcm(x[j] for j in columns)
    support = list(zip(columns, values))
    if any(v < 0 for _, v in support):
        raise InvariantError("certificate: a variable is negative")
    for r, (sense, coeffs, rhs) in enumerate(rows):
        lhs = sum(coeffs[j] * v for j, v in support if j in coeffs)
        if _VIOLATED[sense](lhs, rhs * X):
            raise InvariantError(f"certificate: x violates row {r}")
    costs, C = over_lcm(costs)
    value = as_fraction(value)
    if sum(costs[j] * v for j, v in support) * value.denominator != value.numerator * C * X:
        raise InvariantError("certificate: c . x differs from the value")

    columns = set(basis.values())
    structural = columns.intersection(range(nv))
    tight = [r for r in basis if nv + r not in columns]
    if len(columns) != len(basis) or len(tight) != len(structural):
        raise InvariantError("certificate: basis is not square")
    # one equation y . A_j == c_j per basic variable j, over the tight
    # rows; with the costs times C every right-hand side is an int, and y
    # is C times the dual, so every sign and inequality below holds alike
    eqs = {j: {} for j in structural}
    for r in tight:
        for j, a in rows[r][1].items():
            if j in eqs:
                eqs[j][r] = a
    y, D = _solve_square([(eqs[j], costs[j]) for j in sorted(structural)])

    for r, yr in y.items():
        sense = rows[r][0]
        if yr < 0 and sense == ">=" or yr > 0 and sense == "<=":
            raise InvariantError(f"certificate: the dual of row {r} has the wrong sign")
    # y . A_j over D (and C), against c_j over C
    ya = [0] * nv
    for r, yr in y.items():
        if yr:
            for j, a in rows[r][1].items():
                ya[j] += a * yr
    reduced = [c * D - v for c, v in zip(costs, ya)]
    if any(r < 0 for r in reduced):
        raise InvariantError("certificate: a reduced cost is negative")
    if sum(rows[r][2] * yr for r, yr in y.items()) * value.denominator != value.numerator * D * C:
        raise InvariantError("certificate: b . y differs from the value")
    return reduced, D * C


def _solve_square(eqs):
    """(numerators, D): {unknown: numerator}, each over the one positive
    int denominator D, solving the equations (coeffs, rhs), coeffs an
    {unknown: int} dict and rhs an int, by sparse exact elimination;
    InvariantError unless the system is square and nonsingular.  Each
    step takes the shortest open equation and, in it, the unknown named
    by the fewest open equations.  An equation may be scaled, so each is
    combined with int multipliers; the coeffs dicts are consumed."""
    holders = defaultdict(set)  # unknown -> open equations naming it
    for i, (coeffs, _) in enumerate(eqs):
        for u in coeffs:
            holders[u].add(i)
    if len(holders) != len(eqs):
        raise InvariantError("certificate: basis is singular")
    eqs = list(eqs)
    open_eqs = set(range(len(eqs)))
    # (length, equation) for each open equation, and stale entries that
    # an equation's later length or its close left behind
    shortest = [(len(coeffs), i) for i, (coeffs, _) in enumerate(eqs)]
    heapify(shortest)
    steps = []
    while open_eqs:
        size, i = heappop(shortest)
        if i not in open_eqs or size != len(eqs[i][0]):
            continue
        open_eqs.remove(i)
        coeffs, rhs = eqs[i]
        if not coeffs:
            raise InvariantError("certificate: basis is singular")
        v = min(coeffs, key=lambda u: len(holders[u]))
        a = coeffs[v]
        for u in coeffs:
            holders[u].discard(i)
        for k in holders.pop(v):
            # other * a / g - coeffs * b / g is free of v
            other, other_rhs = eqs[k]
            b = other.pop(v)
            g = gcd(a, b)
            fa, fb = a // g, b // g
            if fa != 1:
                other = {u: c * fa for u, c in other.items()}
            for u, c in coeffs.items():
                if u != v:
                    c = other.get(u, 0) - fb * c
                    if c:
                        other[u] = c
                        holders[u].add(k)
                    else:
                        del other[u]
                        holders[u].discard(k)
            eqs[k] = (other, other_rhs * fa - fb * rhs)
            heappush(shortest, (len(other), k))
        steps.append((v, a, coeffs, rhs))
    # back-substitution: a * y_v = rhs - sum c * y_u, with each y_u known
    # as y[u] / D; y_v = num / (a * D) joins the others over D * a / g
    y, D = {}, 1
    for v, a, coeffs, rhs in reversed(steps):
        num = rhs * D - sum(c * y[u] for u, c in coeffs.items() if u != v)
        g = gcd(num, a)
        num, a = num // g, a // g
        if a < 0:
            num, a = -num, -a
        if a != 1:
            D *= a
            for u in y:
                y[u] *= a
        y[v] = num
    return y, D


def _flow(values, columns):
    """The ArcFlow of the nonzero values (a list in column order) of the
    columns {arc: column}."""
    return ArcFlow((arc, values[j]) for arc, j in columns.items() if values[j])


def _short_cuts(flow, s, needs, nodes):
    """(target, value, cut) for each (target, need) pair of needs, in order,
    whose max flow from s in flow falls short of a positive need; value is
    that max flow and cut a minimum cut over nodes (target side).  flow is
    scaled to one int network, at the first positive need, and every max
    flow runs on it.  Private, so perfbench's tracer charges each max flow
    to the public caller."""
    network = None
    for v, need in needs:
        if need > 0:
            if network is None:
                network = FlowNetwork(flow)
            value, cut = max_flow_min_cut(network, s, v, nodes=nodes)
            if value < need:
                yield v, value, cut


def _alpha_short_cuts(flow, s, alpha, nodes):
    """{cut: value} for each distinct cut over nodes that receives less
    than alpha from s in flow, in the order of the first target it is
    short for."""
    cuts = {}
    for _, value, cut in _short_cuts(flow, s, ((v, alpha) for v in nodes if v != s), nodes):
        cuts.setdefault(cut, value)
    return cuts


def flow_alpha_violations(nodes, s, t, flow, alpha):
    """All ways a flow fails feasibility for the cut relaxation.

    nodes is the ground set (an int n, not a bool, means 0..n-1), alpha in
    (0, 1].  Returns a list of human-readable violation strings; empty means
    the flow satisfies the degree equalities and every cut requirement.
    """
    if isinstance(nodes, bool):
        raise InputError(f"nodes must be an int or a collection of nodes, got {nodes!r}")
    nodes = sorted(range(nodes) if isinstance(nodes, int) else nodes)
    alpha = _requirement(alpha)
    violations = []
    for u in nodes:
        out = flow.out_flow(u)
        inn = flow.in_flow(u)
        if u == s:
            if out != ONE:
                violations.append(f"source out-flow {out} != 1")
            if inn != ZERO:
                violations.append(f"source in-flow {inn} != 0")
        elif u == t:
            if inn != ONE:
                violations.append(f"sink in-flow {inn} != 1")
            if out != ZERO:
                violations.append(f"sink out-flow {out} != 0")
        elif out != inn:
            violations.append(f"imbalance at {u}: out {out} in {inn}")
    if not set(flow.nodes()) <= set(nodes):
        violations.append("flow leaves the node set")
        return violations
    violations += (f"cut {sorted(cut)} receives {value} < {alpha}"
                   for cut, value in _alpha_short_cuts(flow, s, alpha, nodes).items())
    return violations


# ---------------------------------------------------------------------------
# Directed-latency LP
# ---------------------------------------------------------------------------


@dataclass
class LatencyLpSolution:
    """Exact optimal solution of the latency relaxation.

    x maps every ordered node pair to its order value, x3 every ordered
    triple, flows each target v != s to its unit s-v flow, ell each
    v != s to its fractional latency.
    """

    n: int
    s: int
    t: int
    x: dict
    x3: dict
    flows: dict
    ell: dict
    objective: Fraction
    rounds: int = 0

    def verify(self, inst):
        """Exact check of every constraint family; returns violations.

        Values are compared as ints over the lcm L of the solution's
        denominators; flow costs and prefix bounds are also scaled by the
        lcm D of the distances' denominators.
        """
        bad = []
        n, s, t = self.n, self.s, self.t
        # every value over one L, then handed back out in the same order
        ints, L = over_lcm(chain(
            self.x.values(), self.x3.values(), self.ell.values(),
            (amt for fv in self.flows.values() for _, amt in fv.items())))
        ints = iter(ints)
        x, x3, ell = ({k: next(ints) for k in m} for m in (self.x, self.x3, self.ell))
        flows = {v: [(arc, next(ints)) for arc, _ in fv.items()] for v, fv in self.flows.items()}
        d, D = inst.scaled

        for (u, v), val in x.items():
            if val < 0:
                bad.append(f"x[{u},{v}] negative")
        for key, val in x3.items():
            if val < 0:
                bad.append(f"x3{key} negative")

        for v in range(n):
            if v == s:
                continue
            # out-flow, in-flow and cost (over L * D) of the s-v flow
            out, inn, cost = [0] * n, [0] * n, 0
            for (a, b), amt in flows[v]:
                out[a] += amt
                inn[b] += amt
                cost += amt * d[a][b]
            lat = ell[v]
            if lat < 0:
                bad.append(f"ell[{v}] negative")
            if lat * D < cost:
                bad.append(f"ell[{v}] below its flow cost")
            if ell[t] < lat:
                bad.append(f"ell[{t}] < ell[{v}]")
            # unit flow out of the source and into the target
            if out[s] != L or inn[v] != L:
                bad.append(f"flow {v} lacks unit source/target value")
            if inn[s] or out[v]:
                bad.append(f"flow {v} enters the source or leaves its target")
            for u in range(n):
                if u not in (s, v) and inn[u] != out[u]:
                    bad.append(f"flow {v} unbalanced at {u}")
            for u in range(n):
                if u != v and out[u] != x[(u, v)]:
                    bad.append(f"flow {v} through {u} != x[{u},{v}]")

        for u in range(n):
            for w in range(n):
                if u == w:
                    continue
                xuw = x[(u, w)]
                if xuw + x[(w, u)] != L:
                    bad.append(f"x[{u},{w}] + x[{w},{u}] != 1")
                for v in range(n):
                    if v in (u, w):
                        continue
                    if x3[(v, u, w)] + x3[(u, v, w)] + x3[(u, w, v)] != xuw:
                        bad.append(f"triple split of x[{u},{w}] via {v} broken")
                    if v != s and ell[v] * D < (d[s][u] + d[u][w] + d[w][v]) * x3[(u, w, v)]:
                        bad.append(f"ell[{v}] below prefix bound via ({u},{w})")
        for u in range(n):
            if u in (s, t):
                continue
            if x[(s, u)] != L or x[(u, t)] != L:
                bad.append(f"endpoint order values wrong for {u}")

        for v in range(n):
            if v != s:
                needs = ((y, self.x[(y, v)]) for y in range(n) if y not in (s, v, t))
                bad += (f"flow {v} sends {value} < x[{y},{v}] through {y}"
                        for y, value, _ in _short_cuts(self.flows[v], s, needs, range(n)))
        return bad

    def to_jsonable(self):
        return to_json({
            "objective": self.objective,
            "ell": {str(v): val for v, val in sorted(self.ell.items())},
            "x": {f"{u},{w}": val for (u, w), val in sorted(self.x.items()) if val},
            "rounds": self.rounds,
        })


def build_latency_lp(inst):
    """The latency relaxation as a model: the reduced program of
    _LatencyShape with every row solve_latency_lp starts from, its
    distance rows included, before any lazy row is added."""
    return _LatencyShape(inst.n, inst.s, inst.t).build(inst)


def _net_inflow(arcs, u):
    """Coefficients of flow into u minus flow out of u over arcs {arc: column}."""
    return {idx: ONE if b == u else -ONE for (a, b), idx in arcs.items() if u in (a, b)}


class _LatencyShape:
    """Equivalent latency program over a substituted variable set, for the
    shape (n, s, t).

    Order values against the endpoints are constants (the source precedes
    and the sink follows everything), one direction of each interior pair
    is eliminated through x_uw + x_wu = 1, triple variables survive only
    for all-interior triples, and flow variables exist only on arcs not
    already forced to zero.  So every pair or triple order value is one
    term (const, var, sign): a constant 0 or 1, plus sign * var unless var
    is None.  The public solution is reconstructed over the full variable
    set and re-verified exactly, so the substitution cannot silently change
    the program.

    Only the n - 1 distance rows l_v - sum d_uw f[v]_uw >= 0 read the
    distances, and only the objective reads the weights, so the rest of
    the program depends on the shape alone.  solve() starts from that
    rest, shared by every instance of the shape (_start), adds the
    distance rows as cut rows, and only then prices the copy.

    Variable and row order are load-bearing: the simplex pivot path on
    this model is pinned, and reordering either changes it.
    """

    def __init__(self, n, s, t):
        self.n, self.s, self.t = n, s, t
        P = self.P = [v for v in range(n) if v not in (s, t)]
        names = self.names = []

        def column(name):
            names.append(name)
            return len(names) - 1

        self.lv = {v: column(f"l[{v}]") for v in range(n) if v != s}
        self.y = {(u, w): column(f"x[{u},{w}]") for u, w in combinations(P, 2)}
        self.z = {k: column("x3[{},{},{}]".format(*k)) for k in permutations(P, 3)}
        # fv[v]: the arcs the s-v flow may use, each with its column
        self.fv = {}
        for v in [*P, t]:
            heads = [*P, t] if v == t else P
            self.fv[v] = {(u, w): column(f"f[{v}][{u},{w}]")
                          for u in [s, *P] if u != v for w in heads if w != u}

        # the (const, var, sign) term of every pair and triple order value
        def pair(u, w):
            if u == s or w == t:
                return ONE, None, 0
            if w == s or u == t:
                return ZERO, None, 0
            if u < w:
                return ZERO, self.y[(u, w)], 1
            return ONE, self.y[(w, u)], -1

        def triple(a, b, c):
            if a == s:
                return pair(b, c)
            if s in (b, c) or t in (a, b):
                return ZERO, None, 0
            if c == t:
                return pair(a, b)
            return ZERO, self.z[(a, b, c)], 1

        self.pair = {k: pair(*k) for k in permutations(range(n), 2)}
        self.triple = {k: triple(*k) for k in permutations(range(n), 3)}

    @staticmethod
    def value(values, expr):
        const, var, sign = expr
        return const if var is None else const + sign * values[var]

    def distance_row(self, v, d):
        """The coefficients of l_v - sum d_uw f[v]_uw >= 0: v's latency is
        at least the length of its s-v flow under the distances d."""
        coeffs = {self.lv[v]: ONE}
        for (u, w), idx in self.fv[v].items():
            if d[u][w]:
                coeffs[idx] = -d[u][w]
        return coeffs

    def build(self, inst=None):
        """The program as an LpModel.  With inst, the objective is inst's
        weights and a distance row for each v != s reads its distances.
        Without, the objective is zero and the distance rows are left out:
        the rows solve() starts from."""
        weight = {} if inst is None else {j: inst.weight(v) for v, j in self.lv.items()}
        model = LpModel()
        for j, name in enumerate(self.names):
            model.add_var(name, obj=weight.get(j, ZERO))
        s, t = self.s, self.t

        for v, lv in self.lv.items():
            if inst is not None:
                model.add_ge(self.distance_row(v, inst.d), ZERO)
            if v != t:
                model.add_ge({self.lv[t]: ONE, lv: -ONE}, ZERO)

        for idx in self.y.values():
            model.add_le({idx: ONE}, ONE)

        for triple in combinations(self.P, 3):
            orders = list(permutations(triple))
            # the orderings that put p before q sum to x[p,q]; all six to 1
            for p, q in combinations(triple, 2):
                coeffs = {self.z[o]: ONE for o in orders if o.index(p) < o.index(q)}
                coeffs[self.y[(p, q)]] = -ONE
                model.add_eq(coeffs, ZERO)
            model.add_eq({self.z[o]: ONE for o in orders}, ONE)

        for v in self.P:
            arcs = self.fv[v]
            for u in self.P:
                if u != v:
                    model.add_eq(_net_inflow(arcs, u), ZERO)
            model.add_eq({idx: ONE for (a, b), idx in arcs.items() if a == s}, ONE)
            model.add_eq({idx: ONE for (a, b), idx in arcs.items() if b == v}, ONE)
            for u in self.P:
                if u == v:
                    continue
                # flow out of u equals x[u,v]
                const, var, sign = self.pair[(u, v)]
                coeffs = {idx: ONE for (a, b), idx in arcs.items() if a == u}
                coeffs[var] = -sign
                model.add_eq(coeffs, const)

        arcs = self.fv[t]
        for u in self.P:
            model.add_eq(_net_inflow(arcs, u), ZERO)
            model.add_eq({idx: ONE for (a, b), idx in arcs.items() if a == u}, ONE)
        model.add_eq({idx: ONE for (a, b), idx in arcs.items() if a == s}, ONE)
        model.add_eq({idx: ONE for (a, b), idx in arcs.items() if b == t}, ONE)
        return model

    # lazy constraint families ------------------------------------------

    def violated_order_rows(self, values, d):
        """The prefix-length rows l_v >= (d_su + d_uw + d_wv) x3[u,w,v] that
        values violate under the distances d, as (key, coeffs, rhs)."""
        s = self.s
        out = []
        for (u, w, v), expr in self.triple.items():
            if v == s:
                continue
            const, var, sign = expr
            order = self.value(values, expr)
            if not order:  # l_v >= 0 holds already
                continue
            coef = d[s][u] + d[u][w] + d[w][v]
            if values[self.lv[v]] >= coef * order:
                continue
            coeffs = {self.lv[v]: ONE}
            if var is not None:
                coeffs[var] = -sign * coef
            out.append(((u, w, v), coeffs, coef * const))
        return out

    def violated_cut_rows(self, values):
        """The rows "s-v flow into any set holding y, not s, >= x[y,v]" that
        values violate, as (key, coeffs, rhs)."""
        out = []
        for v in sorted(self.fv):
            arcs = self.fv[v]
            exprs = {y: self.pair[(y, v)] for y in self.P if y != v}
            needs = ((y, self.value(values, expr)) for y, expr in exprs.items())
            for y, _, cut in _short_cuts(_flow(values, arcs), self.s, needs, range(self.n)):
                const, var, sign = exprs[y]
                coeffs = {idx: ONE for (a, b), idx in arcs.items() if a not in cut and b in cut}
                if var is not None:
                    coeffs[var] = -sign
                out.append(((v, y, cut), coeffs, const))
        return out

    def solve(self, start, inst):
        """Cutting-plane optimum of inst's program, reconstructed over the
        full variable set.  start is this shape's started solver; a copy
        with inst's distance rows as cut rows is made feasible while its
        objective is still zero, then priced with inst's weights."""
        weights, L = over_lcm(map(inst.weight, self.lv))
        costs = [0] * len(self.names)
        for j, c in zip(self.lv.values(), weights):
            costs[j] = c
        d = inst.d
        distance = [(self.distance_row(v, d), ZERO) for v in self.lv]

        def separate(sol):
            # sol.values is keyed by name in column order
            values = list(sol.values.values())
            return self.violated_order_rows(values, d) + self.violated_cut_rows(values)

        sol, rounds = _cutting_planes(start.with_objective(costs, L, distance), separate,
                                      self.n, "latency relaxation")
        return self.reconstruct(list(sol.values.values()), sol.objective, rounds)

    def reconstruct(self, values, objective, rounds):
        x = {k: self.value(values, expr) for k, expr in self.pair.items()}
        x3 = {k: self.value(values, expr) for k, expr in self.triple.items()}
        flows = {v: _flow(values, arcs) for v, arcs in self.fv.items()}
        ell = {v: values[self.lv[v]] for v in self.lv}
        return LatencyLpSolution(
            n=self.n, s=self.s, t=self.t, x=x, x3=x3, flows=flows, ell=ell,
            objective=objective, rounds=rounds,
        )


def _latency_model(n, s, t):
    """(model, shape): the reduced latency program on (n, s, t) without its
    distance rows and with a zero objective, the rows _start starts."""
    shape = _LatencyShape(n, s, t)
    return shape.build(), shape


def solve_latency_lp(inst):
    """Exact optimum of the node-weighted latency relaxation, with lazy cuts.

    The returned solution is reconstructed over the full variable set and
    every constraint family is re-verified exactly before returning.
    """
    start, shape = _start(_latency_model, inst.n, inst.s, inst.t)
    full = shape.solve(start, inst)
    bad = full.verify(inst)
    if bad:
        raise InvariantError("reconstructed latency solution failed verification",
                             state=bad)
    return full


def normalize_latencies(sol, inst):
    """Raise tiny latencies to the max/n^2 floor and compute the unit scale.

    Returns (floored_solution, sigma) where sigma is the factor that, once
    distances are measured in units of 1/sigma, makes the smallest latency
    exactly 1 and the largest at most n^2.  The floored objective exceeds
    the original by at most a factor 1 + 1/n, checked by solve_latency.
    """
    n, t = sol.n, sol.t
    for v, val in sol.ell.items():
        if val == 0:
            raise DegenerateLatencyError(f"latency of node {v} is zero")
    top = sol.ell[t]
    floor = top / (n * n)
    ell2 = {v: max(val, floor) for v, val in sol.ell.items()}
    objective2 = sum((inst.weight(v) * val for v, val in ell2.items()), ZERO)
    floored = replace(sol, ell=ell2, objective=objective2)
    sigma = ONE / min(ell2.values())
    return floored, sigma


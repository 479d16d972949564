"""The int-scaled kernels give exactly what their Fraction versions gave.

Each test draws exact inputs with mixed denominators, zeros and many ties
(values come from a small pool) and compares the scaled kernel against
the Fraction copy in kernel_reference.py: equal values, matchings, cuts,
cycles, paths and orders, and Fraction return values.  The cover's
successor-map walk is held the same way to the earlier walk over sorted
out-arc lists.
"""

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from asympath import cover, graphs, metric, oracle
from asympath.lp import solve_latency_lp
from asympath.errors import ContractError, InfeasibleError, InputError
from asympath.graphs import ArcFlow
from asympath.metric import MetricInstance

import kernel_reference as ref

F = Fraction

RATIONALS = st.builds(F, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6, 7]))
EXACT = st.one_of(RATIONALS, RATIONALS, st.integers(0, 5))
WEIGHTS = st.builds(F, st.integers(1, 9), st.sampled_from([1, 2, 3, 5]))
DERANDOMIZED = settings(derandomize=True, max_examples=150, deadline=None)
# The matching tests do not shrink: shrinking a failing matrix took minutes to
# report a wrong kernel, and unshrunk a failure shows in seconds.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@st.composite
def cost_matrices(draw, max_m=7):
    m = draw(st.integers(1, max_m))
    cell = st.one_of(EXACT, EXACT, EXACT, st.none())
    return [[draw(cell) for _ in range(m)] for _ in range(m)]


@st.composite
def arc_maps(draw, max_n=7, missing=True, min_n=2):
    """(n, arcs, s, t): arcs maps ordered pairs to exact costs; with
    missing, some pairs are left out, so some maps are not strongly
    connected."""
    n = draw(st.integers(min_n, max_n))
    arcs = {}
    for u in range(n):
        for v in range(n):
            if u != v and not (missing and draw(st.integers(0, 4)) == 0):
                arcs[(u, v)] = draw(EXACT)
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 2))
    return n, arcs, s, (t if t < s else t + 1)


@st.composite
def instances(draw, max_n=8, min_n=2):
    """Metric closures of complete digraphs, with s and t anywhere and
    fractional node weights on about half of them."""
    n, arcs, s, t = draw(arc_maps(max_n=max_n, missing=False, min_n=min_n))
    weights = draw(st.one_of(st.none(), st.lists(WEIGHTS, min_size=n, max_size=n)))
    return ref.metric_closure(n, arcs, s, t, weights=weights)


@st.composite
def capacity_maps(draw, max_n=7):
    """(caps, source, sink, nodes): exact capacities on a random digraph,
    zeros, antiparallel pairs and the odd self-loop included, as a dict
    or an ArcFlow; nodes is None or widens the ground set past the
    support."""
    n = draw(st.integers(2, max_n))
    caps = {}
    for u in range(n):
        for v in range(n):
            if (u != v or draw(st.integers(0, 9)) == 0) and draw(st.booleans()):
                caps[(u, v)] = draw(EXACT)
    source, sink = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        caps = ArcFlow({arc: c for arc, c in caps.items() if arc[0] != arc[1]})
    nodes = draw(st.one_of(st.none(), st.just(range(n + draw(st.integers(0, 2))))))
    return caps, source, sink, nodes


@st.composite
def flows(draw, max_n=7):
    """(flow, s, t): a sum of s-t paths and of cycles through interior
    nodes (and now and then through s or t) with mixed-denominator
    amounts, or, about one time in six, arbitrary arc values that are
    usually unbalanced."""
    n = draw(st.integers(3, max_n))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    others = [v for v in range(n) if v not in (s, t)]
    amount = st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 6, 7]))
    flow = ArcFlow()
    if draw(st.integers(0, 5)) == 0:
        for u in range(n):
            for v in range(n):
                if u != v and draw(st.booleans()):
                    flow.add(u, v, draw(amount))
        return flow, s, t
    for _ in range(draw(st.integers(0, 3))):
        path = [s, *draw(st.permutations(others))[:draw(st.integers(0, len(others)))], t]
        amt = draw(amount)
        for u, v in zip(path, path[1:]):
            flow.add(u, v, amt)
    for _ in range(draw(st.integers(0, 3))):
        pool = others + ([s, t] if draw(st.integers(0, 3)) == 0 else [])
        cycle = draw(st.permutations(pool))[:draw(st.integers(2, max(2, len(pool))))]
        if len(cycle) < 2:
            continue
        amt = draw(amount)
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            flow.add(u, v, amt)
    return flow, s, t


def assert_all_fractions(values):
    assert all(type(x) is Fraction for x in values)


@settings(DERANDOMIZED, phases=NO_SHRINK)
@given(cost_matrices())
def test_matching_equals_fraction_reference(cost):
    ints, L = ref.scaled_costs(cost)
    try:
        expected = ref.min_cost_perfect_matching(cost)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            graphs.min_cost_perfect_matching(ints)
        return
    matching, total = graphs.min_cost_perfect_matching(ints)
    assert (matching, F(total, L)) == expected
    assert type(total) is int


@settings(derandomize=True, max_examples=25, deadline=None, phases=NO_SHRINK)
@given(cost_matrices(max_m=16))
def test_larger_matching_equals_fraction_reference(cost):
    ints, L = ref.scaled_costs(cost)
    try:
        expected = ref.min_cost_perfect_matching(cost)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            graphs.min_cost_perfect_matching(ints)
        return
    matching, total = graphs.min_cost_perfect_matching(ints)
    assert (matching, F(total, L)) == expected


@st.composite
def cover_matrices(draw):
    """The int cost matrix of a k-path-cycle cover of one instance, as
    cover.min_k_path_cycle_cover builds it: k = 1..3 copies of the s row
    and of the t column, the other nodes once each with their own cell
    forbidden, values from a small pool so that ties abound, m up to 42."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(2, 44 - k))
    d = [[draw(st.integers(0, 6)) for _ in range(n)] for _ in range(n)]
    interior = list(range(1, n - 1))
    lefts, rights = [0] * k + interior, [n - 1] * k + interior
    return [[None if u == w else d[u][w] for w in rights] for u in lefts]


@settings(derandomize=True, max_examples=60, deadline=None, phases=NO_SHRINK)
@given(cover_matrices())
def test_cover_matching_equals_eager_fraction_reference(cost):
    matching, total = graphs.min_cost_perfect_matching(cost)
    assert (matching, total) == ref.min_cost_perfect_matching(cost)


@st.composite
def cover_cases(draw):
    """(sub, W, k): an induced sub-instance whose t is not its largest
    node, a node set of it holding s and t, and k from 1 to two above the
    interior count of W, where several of the k paths are the bare arc."""
    inst = draw(instances(min_n=4))
    size = inst.n - draw(st.integers(0, inst.n - 3))
    nodes = sorted(draw(st.permutations(range(inst.n)))[:size])
    s, t = draw(st.permutations(nodes))[:2]
    if t == nodes[-1]:
        s, t = t, s
    sub, _ = metric.induced_subinstance(inst, nodes, s, t)
    others = [v for v in range(sub.n) if v not in (sub.s, sub.t)]
    picked = draw(st.permutations(others))[draw(st.integers(0, len(others) // 2)):]
    W = [sub.s, sub.t, *picked]
    return sub, W, draw(st.sampled_from(range(1, len(W) + 1)))


@DERANDOMIZED
@given(cover_cases())
def test_cover_walk_equals_out_arc_list_reference(case):
    sub, W, k = case
    assert sub.t != sub.n - 1
    got = cover.min_k_path_cycle_cover(sub, W, k)
    want = ref.min_k_path_cycle_cover(sub, W, k)
    assert (got.paths, got.cycles, got.cost) == (want.paths, want.cycles, want.cost)


@pytest.mark.parametrize("bad", [True, F(1, 2)])
def test_matching_rejects_non_int_costs(bad):
    with pytest.raises(TypeError):
        graphs.min_cost_perfect_matching([[bad, 1], [1, 0]])


def test_matching_rejects_float_costs():
    with pytest.raises(TypeError):
        graphs.min_cost_perfect_matching([[0.5, F(1)], [F(1), F(0)]])


@DERANDOMIZED
@given(arc_maps())
def test_closure_equals_fraction_reference(case):
    n, arcs, s, t = case
    try:
        expected = ref.metric_closure(n, arcs, s, t)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError, match=str(exc)):
            metric.metric_closure(n, arcs, s, t)
        return
    inst = metric.metric_closure(n, arcs, s, t)
    assert inst == expected
    assert_all_fractions([x for row in inst.d for x in row])


@DERANDOMIZED
@given(instances())
def test_exact_atspp_equals_fraction_reference(inst):
    res = oracle.exact_atspp(inst)
    assert res == ref.exact_atspp(inst)
    assert_all_fractions([res.value])


@DERANDOMIZED
@given(instances(), st.lists(WEIGHTS, min_size=8, max_size=8))
def test_exact_latency_equals_fraction_reference(inst, weights):
    res = oracle.exact_latency(inst)
    assert res == ref.exact_latency(inst)
    assert_all_fractions([res.value])
    reweighted = replace(inst, weights=weights[:inst.n])
    assert oracle.exact_latency(reweighted) == ref.exact_latency(reweighted)


def test_zero_distance_ties_keep_the_first_order():
    # every distance zero: every order ties, and the first one found wins
    n = 6
    inst = MetricInstance(n=n, s=3, t=1, d=tuple(tuple(F(0) for _ in range(n)) for _ in range(n)))
    for kernel, reference in ((oracle.exact_atspp, ref.exact_atspp),
                              (oracle.exact_latency, ref.exact_latency)):
        res = kernel(inst)
        assert res == reference(inst)
        assert res.value == 0 and res.order[0] == 3 and res.order[-1] == 1


@DERANDOMIZED
@given(capacity_maps())
def test_max_flow_equals_fraction_reference(case):
    caps, source, sink, nodes = case
    value, cut = graphs.max_flow_min_cut(caps, source, sink, nodes=nodes)
    assert (value, cut) == ref.max_flow_min_cut(caps, source, sink, nodes=nodes)
    assert_all_fractions([value])


@DERANDOMIZED
@given(capacity_maps())
def test_one_network_serves_every_sink(case):
    # one network over the capacities, zeros and self-loops included, taken
    # to every sink in turn, sinks past the support too, and then again:
    # the second pass finds the network as the first one left it
    caps, source, _, nodes = case
    network = graphs.FlowNetwork(caps)
    top = max([source, *(max(arc) for arc, _ in caps.items())])
    expected = {sink: ref.max_flow_min_cut(caps, source, sink, nodes=nodes)
                for sink in range(top + 3) if sink != source}
    for _ in range(2):
        for sink, want in expected.items():
            value, cut = graphs.max_flow_min_cut(network, source, sink, nodes=nodes)
            assert (value, cut) == want
            assert_all_fractions([value])


@pytest.mark.parametrize("bad, error", [
    (F(-1, 2), InputError), (-1, InputError), (0.5, TypeError), (True, TypeError),
])
def test_network_rejects_negative_float_and_bool_capacities(bad, error):
    caps = {(0, 1): F(1, 2), (1, 2): bad}
    with pytest.raises(error):
        graphs.FlowNetwork(caps)
    with pytest.raises(error):
        graphs.max_flow_min_cut(caps, 0, 2)


@DERANDOMIZED
@given(flows())
def test_decompose_flow_equals_fraction_reference(case):
    flow, s, t = case
    try:
        expected = ref.decompose_flow(flow, s, t)
    except ContractError as exc:
        with pytest.raises(ContractError, match=f"^{re.escape(str(exc))}$"):
            graphs.decompose_flow(flow, s, t)
        return
    decomp = graphs.decompose_flow(flow, s, t)
    assert (decomp.cycles, decomp.paths) == (expected.cycles, expected.paths)
    assert_all_fractions([amt for _, amt in decomp.cycles + decomp.paths])
    assert decomp.as_flow() == flow


def test_zero_distances_and_ties_pin_the_orders():
    # d[u][v] = (g[v] - g[u]) uphill and twice (g[u] - g[v]) downhill: nodes
    # with equal g are at distance 0, 36 orders tie for the cheapest path and
    # 12 for the least weighted latency; the pinned orders are the ones the
    # Fraction DPs chose
    g = [F(1, 2), 0, 1, 0, F(1, 2), 1, 0]
    d = tuple(tuple(max(g[v] - g[u], 0) + 2 * max(g[u] - g[v], 0) for v in range(7))
              for u in range(7))
    weights = (F(1, 2), 1, F(3, 2), 2, 1, F(1, 3), 3)
    inst = MetricInstance(n=7, s=2, t=5, d=d, weights=weights)
    assert metric.validate(inst) == []
    atspp = oracle.ExactResult(value=F(3), order=[2, 4, 6, 3, 1, 0, 5])
    assert oracle.exact_atspp(inst) == ref.exact_atspp(inst) == atspp
    latency = oracle.ExactResult(value=F(29, 2), order=[2, 4, 0, 6, 3, 1, 5])
    assert oracle.exact_latency(inst) == ref.exact_latency(inst) == latency


def _latency_lp_cases():
    """Optimal latency LP solutions: integer distances, weighted, and a
    closure of mixed-denominator and zero distances with s and t inside."""
    rng = random.Random(17)
    arcs = {(u, v): F(rng.randint(1, 9), rng.choice([1, 2, 3, 7]))
            for u in range(5) for v in range(5) if u != v}
    arcs[(3, 0)] = arcs[(0, 1)] = 0  # zero latency at 0, and a tie with t = 1
    cases = [
        metric.gen_random(4, seed=3, max_weight=20),
        metric.gen_random(5, seed=2, max_weight=50),
        metric.metric_closure(5, arcs, 3, 1, weights=[1, F(1, 2), 2, F(5, 3), 1]),
    ]
    return [(inst, solve_latency_lp(inst)) for inst in cases]


def _perturbed(sol, rng):
    """sol with one to three order, triple, latency or flow entries moved
    by +-1/q (a flow arc only where it stays nonnegative)."""
    x, x3, ell = dict(sol.x), dict(sol.x3), dict(sol.ell)
    flows = {v: fv.copy() for v, fv in sol.flows.items()}
    for _ in range(rng.randint(1, 3)):
        step = F(rng.choice([-1, 1]), rng.choice([1, 2, 3, 5, 12]))
        family = rng.choice(["x", "x3", "ell", "flow"])
        if family == "flow":
            fv = flows[rng.choice(sorted(flows))]
            u, w = rng.sample(range(sol.n), 2)
            fv.add(u, w, abs(step) if fv[(u, w)] < abs(step) else step)
        else:
            values = {"x": x, "x3": x3, "ell": ell}[family]
            key = rng.choice(sorted(values))
            values[key] += step
    return replace(sol, x=x, x3=x3, ell=ell, flows=flows)


def test_latency_verify_equals_fraction_reference():
    rng = random.Random(2026)
    nonempty = 0
    for inst, sol in _latency_lp_cases():
        assert sol.verify(inst) == ref.latency_lp_verify(sol, inst) == []
        for _ in range(60):
            bad = _perturbed(sol, rng)
            violations = bad.verify(inst)
            assert violations == ref.latency_lp_verify(bad, inst)
            nonempty += bool(violations)
    assert nonempty >= 160

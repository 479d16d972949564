from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asympath import metric
from asympath.rational import scaled_matrix
from asympath.errors import InfeasibleError, InputError

from bruteforce import brute_all_pairs_shortest, brute_atspp


def test_validate_two_nodes_ok():
    inst = metric.MetricInstance(2, 0, 1, ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    assert metric.validate(inst) == []


def test_validate_reports_triangle_violation():
    d = (
        (Fraction(0), Fraction(1), Fraction(5)),
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0)),
    )
    inst = metric.MetricInstance(3, 0, 2, d)
    violations = metric.validate(inst)
    assert violations
    assert "d[0][2] > d[0][1] + d[1][2]" in violations


def test_validate_reports_negative_and_diagonal():
    d = (
        (Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(0)),
    )
    inst = metric.MetricInstance(2, 0, 1, d)
    violations = metric.validate(inst)
    assert violations
    assert "d[0][0] != 0" in violations
    assert "d[1][0] < 0" in violations


def test_metric_instance_structural_errors():
    with pytest.raises(InputError):
        metric.MetricInstance(1, 0, 0, ((Fraction(0),),))
    with pytest.raises(InputError):
        metric.MetricInstance(2, 0, 0, ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    with pytest.raises(InputError):
        metric.MetricInstance(2, 0, 1, ((Fraction(0),), (Fraction(1), Fraction(0))))


def test_metric_closure_shortcut_wins():
    arcs = {(0, 1): 1, (1, 2): 1, (0, 2): 5, (2, 0): 1, (1, 0): 1, (2, 1): 1}
    inst = metric.metric_closure(3, arcs, s=0, t=2)
    assert inst.d[0][2] == 2
    assert metric.validate(inst) == []


def test_metric_closure_complete_unit_digraph():
    arcs = {(u, v): 1 for u in range(4) for v in range(4) if u != v}
    inst = metric.metric_closure(4, arcs, s=0, t=3)
    for u in range(4):
        for v in range(4):
            assert inst.d[u][v] == (0 if u == v else 1)


def test_metric_closure_unreachable_pair():
    arcs = {(0, 1): 1}
    with pytest.raises(InfeasibleError):
        metric.metric_closure(3, arcs, s=0, t=2)


def test_metric_closure_matches_path_enumeration():
    # fixed small digraph; expected distances from exhaustive path search
    arcs = {
        (0, 1): Fraction(2), (1, 2): Fraction(3), (2, 0): Fraction(7),
        (0, 3): Fraction(1), (3, 2): Fraction(1), (2, 3): Fraction(4),
        (3, 1): Fraction(9), (1, 3): Fraction(2),
    }
    inst = metric.metric_closure(4, arcs, s=0, t=2)
    expected = brute_all_pairs_shortest(4, arcs)
    for u in range(4):
        for v in range(4):
            if u != v:
                assert inst.d[u][v] == expected[(u, v)]


def test_gen_random_deterministic_and_valid():
    a = metric.gen_random(8, seed=1, max_weight=100)
    b = metric.gen_random(8, seed=1, max_weight=100)
    assert a == b
    assert a.s == 0 and a.t == 7
    assert metric.validate(a) == []


def test_gen_random_two_nodes():
    inst = metric.gen_random(2, seed=7, max_weight=10)
    assert 1 <= inst.d[0][1] <= 10
    assert 1 <= inst.d[1][0] <= 10


def test_gen_random_rejects_small_n():
    with pytest.raises(InputError):
        metric.gen_random(1, seed=0, max_weight=5)


def test_bad_gap_instance_valid_and_metric():
    inst = metric.gen_bad_gap(1000)
    assert inst.n == 6 and inst.s == 0 and inst.t == 5
    assert metric.validate(inst) == []
    # the eight unit arcs survive the closure at distance exactly 1
    for u, v in metric._BAD_GAP_UNIT_ARCS:
        assert inst.d[u][v] == 1


def test_bad_gap_closure_matches_path_enumeration():
    D = 20
    arcs = {arc: Fraction(1) for arc in metric._BAD_GAP_UNIT_ARCS}
    arcs[(5, 0)] = Fraction(D)
    inst = metric.gen_bad_gap(D)
    expected = brute_all_pairs_shortest(6, arcs)
    for u in range(6):
        for v in range(6):
            if u != v:
                assert inst.d[u][v] == expected[(u, v)]


def test_bad_gap_every_hamiltonian_path_is_expensive():
    inst = metric.gen_bad_gap(1000)
    opt, _ = brute_atspp(inst)
    assert opt >= 1000


def test_bad_gap_flow_conserves():
    flow = metric.bad_gap_flow()
    total = sum(flow.values())
    assert total == 5  # unit costs make value equal total flow weight


def test_induced_subinstance_identity_and_pair():
    inst = metric.gen_random(6, seed=3, max_weight=50)
    whole, mapping = metric.induced_subinstance(inst, range(6), inst.s, inst.t)
    assert whole.d == inst.d and mapping == list(range(6))

    pair, mapping = metric.induced_subinstance(inst, {inst.s, inst.t}, inst.s, inst.t)
    assert pair.n == 2
    assert pair.d[pair.s][pair.t] == inst.d[inst.s][inst.t]


def test_induced_subinstance_stays_metric():
    inst = metric.gen_random(9, seed=11, max_weight=30)
    sub, _ = metric.induced_subinstance(inst, {0, 2, 4, 6, 8}, 0, 8)
    assert metric.validate(sub) == []


def test_induced_subinstance_argument_errors():
    inst = metric.gen_random(5, seed=2, max_weight=10)
    with pytest.raises(InputError):
        metric.induced_subinstance(inst, {0, 1}, 0, 2)
    with pytest.raises(InputError):
        metric.induced_subinstance(inst, {0, 1}, 0, 0)


def test_scaled_distances_are_cached_per_instance():
    d = ((0, Fraction(1, 2), 3), (Fraction(2, 3), 0, 1), (1, Fraction(5, 6), 0))
    inst = metric.MetricInstance(n=3, s=0, t=2, d=d)
    twin = metric.MetricInstance(n=3, s=0, t=2, d=d)
    key = hash(inst)
    rows, L = inst.scaled
    assert (rows, L) == scaled_matrix(inst.d)
    assert L == 6 and rows[1] == (4, 0, 6)
    assert inst.scaled is inst.scaled
    assert inst == twin and hash(inst) == key == hash(twin)
    assert "scaled" not in repr(inst)
    # a new instance scales its own d, never a cached copy
    other = replace(inst, d=((0, 1, 3), (2, 0, 1), (1, 1, 0)))
    assert other.scaled == scaled_matrix(other.d) == (((0, 1, 3), (2, 0, 1), (1, 1, 0)), 1)
    assert replace(inst, s=1).scaled == inst.scaled and replace(inst, s=1) != inst
    sub, mapping = metric.induced_subinstance(inst, {1, 2}, 1, 2)
    assert sub.scaled == scaled_matrix(sub.d) == (((0, 6), (5, 0)), 6)


@pytest.mark.parametrize("make, scale", [
    *((lambda n=n, seed=seed, w=w: metric.gen_random(n, seed=seed, max_weight=w), 1)
      for n, seed, w in ((2, 0, 1), (5, 1, 7), (9, 2, 100), (14, 3, 100), (20, 4, 1000))),
    (lambda: metric.gen_bad_gap(12), 1),
    # distances over 6, int arcs among them
    (lambda: metric.metric_closure(3, {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 3),
                                       (0, 2): 2, (1, 0): 1, (2, 1): 3, (2, 0): 1}, 1, 0), 6),
    # the arcs' lcm is 2, yet every distance is an int: 5/2 loses to 1 + 1
    (lambda: metric.metric_closure(3, {(0, 1): 1, (1, 2): 1, (0, 2): Fraction(5, 2),
                                       (1, 0): 1, (2, 1): 1, (2, 0): 1}, 0, 2), 1),
], ids=["random-2", "random-5", "random-9", "random-14", "random-20", "bad-gap",
        "closure-over-sixths", "integral-closure-of-halves"])
def test_closure_hands_the_instance_its_scaled_distances(make, scale):
    inst = make()
    assert "scaled" in vars(inst)  # set by metric_closure, not scaled on first use
    assert inst.scaled == scaled_matrix(inst.d)
    assert inst.scaled[1] == scale


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_induced_subinstance_inherits_the_scaled_rows(data):
    n = data.draw(st.integers(2, 7))
    weight = st.builds(Fraction, st.integers(1, 40), st.sampled_from([1, 2, 3, 4, 6, 12]))
    arcs = {(u, v): data.draw(weight) for u in range(n) for v in range(n) if u != v}
    inst = metric.metric_closure(n, arcs, 0, n - 1)
    s2, t2 = data.draw(st.permutations(range(n)))[:2]
    W = data.draw(st.sets(st.integers(0, n - 1))) | {s2, t2}
    sub, _ = metric.induced_subinstance(inst, W, s2, t2)
    assert "scaled" in vars(sub)  # sliced from inst.scaled, not scaled on first use
    assert sub.scaled == scaled_matrix(sub.d)


def test_json_round_trip_with_fractions():
    d = (
        (Fraction(0), Fraction(1, 2)),
        (Fraction(3), Fraction(0)),
    )
    inst = metric.MetricInstance(2, 0, 1, d, weights=(Fraction(1), Fraction(5, 2)))
    text = metric.instance_to_json(inst)
    back = metric.instance_from_json(text)
    assert back == inst


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        metric.instance_from_json('{"n": 2, "s": 0}')

"""The benchmark's workloads: seeded instance sets, the public entry points
each one calls, and the exact correctness gate every output must pass.

Every instance is derived from the run seed alone.  A task is one
instance; running it calls the workload's public entry points and then
checks the outputs exactly (the *_run functions).  The checks that need
no stored value run on every seed.  On the committed seeds
(DEFAULT_SEED, HELD_OUT_SEED) the exact optima are also compared with
references.json; a changed route is recorded but is not a failure,
because tie-breaking may legitimately pick another optimal vertex.
"""

import hashlib
import json
import os
from fractions import Fraction

import asympath
from asympath import atspp, cli, cover, latency, metric, oracle
from asympath.rational import ceil_log2_int

DEFAULT_SEED = 2009
HELD_OUT_SEED = 726
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# Instance mixes as (n, count).  Instance i of the size class at
# position c gets seed 1000 * run seed + 100 * c + i.  Per-instance times
# spread widely from seed to seed (a coefficient of variation of about 0.2
# for the n=5 latency LP and LP(1) at n <= 14), so each set holds enough
# instances for its total and its medians to vary little between seeds,
# and a pass still fits several times into one run.  Sizes whose time
# varies more (latency at n >= 6, LP(1) at n >= 19, the solve_atspp and
# solve_k_person cover loops) are left out; README.md gives the numbers.
# The middle class holds the median instance, so instance_s.p50 does not
# straddle two sizes.
LATENCY_MIX = ((4, 10), (5, 24))
LATENCY_MAX_WEIGHT = 50
GAP_MIX = ((11, 2), (12, 3), (13, 5), (14, 5))
GAP_MAX_WEIGHT = 100
COVER_MIX = ((16, 6), (24, 12), (40, 6))
COVER_MAX_WEIGHT = 100
MULTIPATH_KS = (1, 2)
COVER_KS = (1, 2, 3)


class Task:
    """One instance of a workload with everything needed to run and check it."""

    def __init__(self, n, inst_seed, inst=None):
        self.key = f"n{n}:{inst_seed}"
        self.n = n
        self.inst_seed = inst_seed
        self.inst = inst


def _tasks(seed, mix, generate):
    tasks = []
    for offset, (n, count) in enumerate(mix):
        for i in range(count):
            inst_seed = 1000 * seed + 100 * offset + i
            tasks.append(Task(n, inst_seed, generate(n, inst_seed) if generate else None))
    return tasks


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _fraction(value):
    return Fraction(value) if value != "" else None


def _is_st_order(nodes, inst):
    return (len(nodes) == inst.n and nodes[0] == inst.s and nodes[-1] == inst.t
            and sorted(nodes) == list(range(inst.n)))


def _checks_pass(state):
    return bool(state.checks) and all(c["pass"] for c in state.checks)


# -- latency --------------------------------------------------------------


def latency_tasks(seed):
    return _tasks(seed, LATENCY_MIX,
                  lambda n, s: metric.gen_random(n, seed=s, max_weight=LATENCY_MAX_WEIGHT))


def latency_run(task):
    """solve_latency, checked against exact_latency and the run's bounds.

    Returns (problems, values, route digest)."""
    inst = task.inst
    order, state = latency.solve_latency(inst)
    lp_value = state.lp_objective
    opt = oracle.exact_latency(inst).value
    problems = []
    nodes = order.order
    if not _is_st_order(nodes, inst):
        problems.append(f"order {nodes} is not a Hamiltonian s-t order")
    else:
        arrival, total = Fraction(0), Fraction(0)
        for u, v in zip(nodes, nodes[1:]):
            arrival += inst.d[u][v]
            total += arrival
        if total != order.total:
            problems.append(f"reported latency {order.total} != recomputed {total}")
    if not lp_value <= opt <= order.total:
        problems.append(f"LP {lp_value} <= oracle {opt} <= solver {order.total} fails")
    bound = latency.assembled_bound_factor(inst.n) * lp_value
    if order.total > bound:
        problems.append(f"latency {order.total} above the assembled bound {bound}")
    if not _checks_pass(state):
        problems.append("a recorded run check failed or none was recorded")
    return problems, {"lp": lp_value, "opt": opt}, _digest(nodes)


# -- gap-report -------------------------------------------------------------


def gap_tasks(seed):
    return _tasks(seed, GAP_MIX, None)


def gap_run(task):
    """One gap-report row (solver, LP(1) and, up to the oracle cap,
    exact_atspp) through the CLI batch path, checked for exact
    consistency."""
    rows = cli.gap_report_rows(1, task.n, task.n, task.inst_seed, max_weight=GAP_MAX_WEIGHT)
    problems = []
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"], {}, None
    row = rows[0]
    if (row["n"], row["seed"], row["algorithm"]) != (task.n, task.inst_seed, "atspp"):
        problems.append(f"row identifies n={row['n']} seed={row['seed']} {row['algorithm']}")
    passed, total = (int(x) for x in row["checks_passed"].split("/"))
    if total == 0 or passed != total:
        problems.append(f"checks passed {row['checks_passed']}")
    value, lp_value, opt = (_fraction(row[k]) for k in ("value", "lp_bound", "opt"))
    if lp_value is None or value is None or not 0 < lp_value <= value:
        problems.append(f"LP {lp_value} <= solver {value} fails")
    elif _fraction(row["ratio_lp"]) != value / lp_value:
        problems.append(f"ratio_lp {row['ratio_lp']} != {value / lp_value}")
    if task.n <= oracle.ATSPP_CAP:
        if opt is None or lp_value is None or not lp_value <= opt <= value:
            problems.append(f"LP {lp_value} <= oracle {opt} <= solver {value} fails")
        elif _fraction(row["ratio_opt"]) != value / opt:
            problems.append(f"ratio_opt {row['ratio_opt']} != {value / opt}")
    elif opt is not None:
        problems.append("oracle value reported above the oracle cap")
    return problems, {"lp": lp_value, "opt": opt}, _digest(row["value"])


# -- cover-scale --------------------------------------------------------------


def cover_tasks(seed):
    return _tasks(seed, COVER_MIX,
                  lambda n, s: metric.gen_random(n, seed=s, max_weight=COVER_MAX_WEIGHT))


def cover_run(task):
    """multipath_cover for k = 1, 2 and the minimum k-path-cycle cover of
    all nodes for k = 1, 2, 3: assignment problems, no LP."""
    inst = task.inst
    s, t, n = inst.s, inst.t, inst.n
    everything = set(range(n))
    problems, values, routes = [], {}, []
    for k in MULTIPATH_KS:
        paths = atspp.multipath_cover(inst, k)
        routes.append(paths)
        if (len(paths) > k * ceil_log2_int(n)
                or any(p[0] != s or p[-1] != t or len(set(p)) != len(p) for p in paths)
                or {v for p in paths for v in p} != everything):
            problems.append(f"multipath k={k} misses nodes or exceeds its path budget")
    for k in COVER_KS:
        cov = cover.min_k_path_cycle_cover(inst, everything, k)
        routes.append([cov.paths, cov.cycles])
        interior = [v for p in cov.paths for v in p[1:-1]] + [v for c in cov.cycles for v in c]
        arcs = [(u, v) for p in cov.paths for u, v in zip(p, p[1:])]
        arcs += [(u, v) for c in cov.cycles for u, v in zip(c, c[1:] + c[:1])]
        if (len(cov.paths) != k or any(p[0] != s or p[-1] != t for p in cov.paths)
                or sorted(interior) != sorted(everything - {s, t})
                or cov.cost != sum((inst.d[u][v] for u, v in arcs), Fraction(0))):
            problems.append(f"{k}-path-cycle cover is not a cover of all nodes "
                            "or misreports its cost")
        values[f"cover{k}"] = cov.cost
    return problems, values, _digest(routes)


WORKLOADS = {
    "latency": (latency_tasks, latency_run),
    "gap-report": (gap_tasks, gap_run),
    "cover-scale": (cover_tasks, cover_run),
}


def load_references(workload, seed):
    """Reference optima for (workload, seed), or None when that seed has
    none committed."""
    with open(REFERENCES, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("asympath_version") != asympath.__version__:
        raise RuntimeError("references.json was made for another asympath version")
    return doc["workloads"].get(workload, {}).get(str(seed))


def compare(values, digest, ref):
    """Problems from comparing one task's exact optima with its reference,
    and whether its route changed."""
    problems = [f"{name} {values.get(name)} != reference {expected}"
                for name, expected in ref["values"].items()
                if values.get(name) != _fraction(expected)]
    return problems, digest != ref["route"]


def jsonable(values):
    return {k: ("" if v is None else str(v)) for k, v in values.items()}

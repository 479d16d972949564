"""Command-line front end.

Subcommands: gen, atspp, kperson, multipath, latency, lp-bound, oracle,
gap-report.  Exit codes: 0 success, 1 argument or input error, 2 internal
invariant violation (the offending trace is dumped to stderr).
"""

import argparse
import csv
import functools
import io
import json
import sys
import time
from fractions import Fraction

from . import atspp as atspp_mod
from . import latency as latency_mod
from . import lp, metric, oracle
from .errors import InputError, InvariantError, SolverError, require_count
from .rational import as_fraction, format_rational, rational_to_json, to_json


def _write(text, path):
    """Write text to the file path, or to stdout when path is None."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(doc):
    return json.dumps(to_json(doc), indent=1) + "\n"


def _route(nodes):
    return " ".join(map(str, nodes))


def run_solver(cmd, args):
    """Run an instance-reading subcommand: load --in, call
    cmd(args, inst) -> (printed lines, --out document, run state or None),
    print the lines, attach the state as "trace" under --trace, and write
    --out."""
    lines, doc, state = cmd(args, metric.load_instance(args.infile))
    print("\n".join(lines))
    if getattr(args, "trace", False):
        doc["trace"] = state.to_jsonable()
    if args.out:
        _write(_json(doc), args.out)


def cmd_atspp(args, inst):
    hp, state = atspp_mod.solve_atspp(inst)
    lines = [f"path: {_route(hp.nodes)}", f"cost: {format_rational(hp.cost)}"]
    return lines, {"path": hp.nodes, "cost": hp.cost}, state


def _paths_result(paths, total, state):
    lines = [f"path: {_route(p)}" for p in paths] + [f"total: {format_rational(total)}"]
    return lines, {"paths": paths, "total": total}, state


def cmd_kperson(args, inst):
    (paths, total), state = atspp_mod.solve_k_person(inst, args.k)
    return _paths_result(paths, total, state)


def cmd_multipath(args, inst):
    paths = atspp_mod.multipath_cover(inst, args.k)
    return _paths_result(paths, sum((inst.path_cost(p) for p in paths), Fraction(0)), None)


def cmd_latency(args, inst):
    order, state = latency_mod.solve_latency(inst)
    lines = [f"order: {_route(order.order)}",
             f"total latency: {format_rational(order.total)}"]
    doc = {"order": order.order, "total": order.total,
           "latencies": {str(v): x for v, x in sorted(order.latencies.items())}}
    return lines, doc, state


def cmd_lp_bound(args, inst):
    if (args.alpha is None) == (not args.latency):
        raise InputError("choose exactly one of --alpha RAT or --latency")
    alpha = None if args.latency else as_fraction(args.alpha)
    if args.dump_model:
        model = lp.build_latency_lp(inst) if args.latency else lp.build_alpha_lp(inst, alpha)[0]
        _write(_json(model.to_jsonable()), args.dump_model)
    if args.latency:
        sol = lp.solve_latency_lp(inst)
        value, doc = sol.objective, {"latency_lp": sol.to_jsonable()}
    else:
        value, flow = lp.solve_lp_alpha(inst, alpha)
        doc = {"alpha": args.alpha, "value": value, "flow": flow.to_jsonable()}
    return [format_rational(value)], doc, None


def cmd_oracle(args, inst):
    if args.problem == "kperson":
        res = oracle.exact_k_person(inst, 2 if args.k is None else args.k)
        doc = {"value": res.value, "paths": res.order}
    elif args.k is not None:
        raise InputError("--k applies only with --problem kperson")
    else:
        res = (oracle.exact_atspp if args.problem == "atspp" else oracle.exact_latency)(inst)
        doc = {"value": res.value, "order": res.order}
    return [format_rational(res.value)], doc, None


def cmd_gen(args):
    if (args.random is None) == (args.bad_gap is None):
        raise InputError("choose exactly one of --random N or --bad-gap D")
    if args.random is not None:
        inst = metric.gen_random(args.random, seed=0 if args.seed is None else args.seed,
                                 max_weight=100 if args.max_weight is None else args.max_weight)
    elif args.seed is not None or args.max_weight is not None:
        raise InputError("--seed and --max-weight apply only with --random")
    else:
        inst = metric.gen_bad_gap(args.bad_gap)
    _write(metric.instance_to_json(inst) + "\n", args.out)


GAP_REPORT_COLUMNS = [
    "id", "n", "seed", "algorithm", "value", "lp_bound", "opt",
    "ratio_lp", "ratio_opt", "checks_passed", "ms",
]


def _hamiltonian_path(flow, inst):
    """True iff flow is the unit flow of one Hamiltonian s-t path."""
    if len(flow) != inst.n - 1 or any(amt != 1 for _, amt in flow.items()):
        return False
    succ = dict(flow.arcs())
    path = [inst.s]
    while path[-1] in succ and len(path) <= inst.n:
        path.append(succ[path[-1]])
    return inst.is_st_order(path)


def gap_report_rows(count, nmin, nmax, seed, max_weight=100):
    """One atspp row per instance; all quantities except ms are exact and
    reproducible for a given seed.  Up to oracle.ATSPP_CAP, opt is the
    certified LP(1) optimum when its flow is one Hamiltonian s-t path or
    solve_atspp's path costs no more (every such path is LP(1)-feasible,
    so none is cheaper), and exact_atspp's value otherwise, searched
    under the bound of LP(1)'s reduced costs and solve_atspp's value."""
    for value, name in ((count, "count"), (nmin, "nmin"), (nmax, "nmax")):
        require_count(value, name)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InputError(f"seed must be an int, got {seed!r}")
    if nmin < 2 or nmax < nmin:
        raise InputError("need count >= 1 and 2 <= nmin <= nmax")
    rows = []
    for idx in range(count):
        n = nmin + idx % (nmax - nmin + 1)
        inst_seed = seed + idx
        inst = metric.gen_random(n, seed=inst_seed, max_weight=max_weight)
        t0 = time.perf_counter()
        hp, state = atspp_mod.solve_atspp(inst)
        value = hp.cost
        optimum = lp.solve_lp_alpha(inst, 1)
        lp_bound, flow = optimum
        if n > oracle.ATSPP_CAP:
            opt = None
        elif value == lp_bound or _hamiltonian_path(flow, inst):
            opt = lp_bound
        else:
            opt = oracle.exact_atspp(inst, (lp_bound, value, optimum.reduced_costs)).value
        ms = int((time.perf_counter() - t0) * 1000)
        passed = sum(1 for c in state.checks if c["pass"])
        rows.append({
            "id": idx,
            "n": n,
            "seed": inst_seed,
            "algorithm": "atspp",
            "value": rational_to_json(value),
            "lp_bound": rational_to_json(lp_bound),
            "opt": rational_to_json(opt) if opt is not None else "",
            "ratio_lp": rational_to_json(value / lp_bound) if lp_bound > 0 else "",
            "ratio_opt": rational_to_json(value / opt) if opt else "",
            "checks_passed": f"{passed}/{len(state.checks)}",
            "ms": ms,
        })
    return rows


def cmd_gap_report(args):
    rows = gap_report_rows(args.count, args.nmin, args.nmax, args.seed,
                           max_weight=args.max_weight)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=GAP_REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), args.out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="asympath", description="Exact-arithmetic path and latency solvers with LP bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(*names, **kwargs):
        """A parent parser holding one argument shared by several subcommands."""
        shared = argparse.ArgumentParser(add_help=False)
        shared.add_argument(*names, **kwargs)
        return shared

    out = group("--out", metavar="FILE")
    infile = group("--in", dest="infile", metavar="FILE", required=True)
    k = group("--k", type=int, required=True)
    trace = group("--trace", action="store_true")

    def add(name, summary, func, *groups):
        p = sub.add_parser(name, help=summary, parents=list(groups))
        p.set_defaults(func=func)
        return p

    def add_solver(name, summary, cmd, *groups):
        return add(name, summary, functools.partial(run_solver, cmd), infile, out, *groups)

    # unset options stay None, so that gen and oracle can reject one that does not apply
    p = add("gen", "generate an instance JSON file", cmd_gen, out)
    p.add_argument("--random", type=int, metavar="N")
    p.add_argument("--bad-gap", type=int, metavar="D")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-weight", type=int)

    add_solver("atspp", "approximate the cheapest Hamiltonian s-t path", cmd_atspp, trace)

    add_solver("kperson", "k s-t paths covering all nodes", cmd_kperson, k, trace)
    add_solver("multipath", "k log n paths covering all nodes", cmd_multipath, k)
    add_solver("latency", "approximate the minimum total latency order", cmd_latency, trace)

    p = add_solver("lp-bound", "exact LP lower bound", cmd_lp_bound)
    p.add_argument("--alpha", metavar="RAT")
    p.add_argument("--latency", action="store_true")
    p.add_argument("--dump-model", metavar="FILE", help="write the LP as JSON")

    p = add_solver("oracle", "exact optimum by dynamic programming", cmd_oracle)
    p.add_argument("--problem", choices=["atspp", "latency", "kperson"], required=True)
    p.add_argument("--k", type=int)

    p = add("gap-report", "batch solve+LP+oracle comparison CSV", cmd_gap_report, out)
    p.add_argument("--max-weight", type=int, default=100)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        args.func(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        state = exc.state
        if hasattr(state, "to_jsonable"):
            state = state.to_jsonable()
        if isinstance(state, (dict, list)):
            sys.stderr.write(_json(state))
        return 2
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

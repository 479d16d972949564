"""Command-line front end.

Subcommands: gen, atspp, kperson, multipath, latency, lp-bound, oracle,
gap-report.  Exit codes: 0 success, 1 argument or input error, 2 internal
invariant violation (the offending trace is dumped to stderr).
"""

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from . import atspp as atspp_mod
from . import latency as latency_mod
from . import lp, metric, oracle
from .errors import InputError, InvariantError, SizeLimitError, SolverError
from .rational import as_fraction, format_rational, rational_to_json, to_json


def _write_output(doc, path):
    text = json.dumps(to_json(doc), indent=1)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(args):
    if not args.infile:
        raise InputError("--in FILE is required for this subcommand")
    return metric.load_instance(args.infile)


def cmd_gen(args):
    if (args.random is None) == (args.bad_gap is None):
        raise InputError("choose exactly one of --random N or --bad-gap D")
    if args.random is not None:
        inst = metric.gen_random(args.random, seed=args.seed, max_weight=args.max_weight)
    else:
        inst = metric.gen_bad_gap(args.bad_gap)
    if args.out:
        metric.save_instance(inst, args.out)
    else:
        print(metric.instance_to_json(inst))
    return 0


def cmd_atspp(args):
    inst = _load(args)
    hp, state = atspp_mod.solve_atspp(inst, iterations=args.iters)
    print("path:", " ".join(map(str, hp.nodes)))
    print("cost:", format_rational(hp.cost))
    doc = {"path": hp.nodes, "cost": hp.cost}
    if args.trace:
        doc["trace"] = {"iterations": state.trace, "checks": state.checks}
    if args.out:
        _write_output(doc, args.out)
    return 0


def cmd_kperson(args):
    inst = _load(args)
    (paths, total), state = atspp_mod.solve_k_person(inst, args.k, diagnostics=args.trace)
    for p in paths:
        print("path:", " ".join(map(str, p)))
    print("total:", format_rational(total))
    doc = {"paths": paths, "total": total}
    if args.trace:
        doc["trace"] = {"iterations": state.trace, "checks": state.checks}
    if args.out:
        _write_output(doc, args.out)
    return 0


def cmd_multipath(args):
    inst = _load(args)
    paths = atspp_mod.multipath_cover(inst, args.k)
    total = sum((inst.path_cost(p) for p in paths), Fraction(0))
    for p in paths:
        print("path:", " ".join(map(str, p)))
    print("total:", format_rational(total))
    if args.out:
        _write_output({"paths": paths, "total": total}, args.out)
    return 0


def cmd_latency(args):
    inst = _load(args)
    order, state = latency_mod.solve_latency(inst, weighted=args.weighted)
    print("order:", " ".join(map(str, order.order)))
    print("total latency:", format_rational(order.total))
    doc = {
        "order": order.order,
        "total": order.total,
        "latencies": {str(v): x for v, x in sorted(order.latencies.items())},
    }
    if args.trace:
        doc["trace"] = state.to_jsonable()
    if args.out:
        _write_output(doc, args.out)
    return 0


def cmd_lp_bound(args):
    inst = _load(args)
    if (args.alpha is None) == (not args.latency):
        raise InputError("choose exactly one of --alpha RAT or --latency")
    if args.alpha is not None:
        if args.dump_model:
            model, _ = lp.build_alpha_lp(inst, as_fraction(args.alpha))
            _write_output(model.to_jsonable(), args.dump_model)
        value, flow = lp.solve_lp_alpha(inst, as_fraction(args.alpha))
        print(format_rational(value))
        doc = {"alpha": args.alpha, "value": value, "flow": flow.to_jsonable()}
    else:
        if args.dump_model:
            model = lp.build_latency_lp(inst, weighted=args.weighted)
            _write_output(model.to_jsonable(), args.dump_model)
        sol = lp.solve_latency_lp(inst, weighted=args.weighted)
        print(format_rational(sol.objective))
        doc = {"latency_lp": sol.to_jsonable()}
    if args.out:
        _write_output(doc, args.out)
    return 0


def cmd_oracle(args):
    inst = _load(args)
    if args.problem == "atspp":
        res = oracle.exact_atspp(inst)
        doc = {"value": res.value, "order": res.order}
    elif args.problem == "latency":
        res = oracle.exact_latency(inst)
        doc = {"value": res.value, "order": res.order}
    else:
        res = oracle.exact_k_person(inst, args.k)
        doc = {"value": res.value, "paths": res.order}
    print(format_rational(res.value))
    if args.out:
        _write_output(doc, args.out)
    return 0


GAP_REPORT_COLUMNS = [
    "id", "n", "seed", "algorithm", "value", "lp_bound", "opt",
    "ratio_lp", "ratio_opt", "checks_passed", "ms",
]


def gap_report_rows(count, nmin, nmax, seed, max_weight=100):
    """One atspp row per instance; all quantities except ms are exact and
    reproducible for a given seed."""
    if count < 1 or nmin < 2 or nmax < nmin:
        raise InputError("need count >= 1 and 2 <= nmin <= nmax")
    rows = []
    for idx in range(count):
        n = nmin + idx % (nmax - nmin + 1)
        inst_seed = seed + idx
        inst = metric.gen_random(n, seed=inst_seed, max_weight=max_weight)
        t0 = time.perf_counter()
        hp, state = atspp_mod.solve_atspp(inst)
        value = hp.cost
        lp_bound, _ = lp.solve_lp_alpha(inst, 1)
        opt = oracle.exact_atspp(inst).value if n <= oracle.ATSPP_CAP else None
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
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="asympath",
        description="Exact-arithmetic path and latency solvers with LP bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance JSON file")
    p.add_argument("--random", type=int, metavar="N")
    p.add_argument("--bad-gap", type=int, metavar="D")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-weight", type=int, default=100)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("atspp", help="approximate the cheapest Hamiltonian s-t path")
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_atspp)

    p = sub.add_parser("kperson", help="k s-t paths covering all nodes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_kperson)

    p = sub.add_parser("multipath", help="k log n paths covering all nodes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_multipath)

    p = sub.add_parser("latency", help="approximate the minimum total latency order")
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("lp-bound", help="exact LP lower bound")
    p.add_argument("--alpha", metavar="RAT")
    p.add_argument("--latency", action="store_true")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--dump-model", metavar="FILE", help="write the LP as JSON")
    p.set_defaults(func=cmd_lp_bound)

    p = sub.add_parser("oracle", help="exact optimum by dynamic programming")
    p.add_argument("--problem", choices=["atspp", "latency", "kperson"], required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gap-report", help="batch solve+LP+oracle comparison CSV")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-weight", type=int, default=100)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_gap_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        state = getattr(exc, "state", None)
        if hasattr(state, "to_jsonable"):
            state = state.to_jsonable()
        if isinstance(state, (dict, list)):
            json.dump(to_json(state), sys.stderr, indent=1)
            print(file=sys.stderr)
        return 2
    except (InputError, SizeLimitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

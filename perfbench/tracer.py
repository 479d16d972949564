"""Per-layer tracing of asympath from outside the library.

A Tracer replaces every public function of each layer module, at every
module that binds it, with a wrapper that opens a span on a stack.  When
a span closes, its duration is charged to its name under its parent's
name, and the parent's child time grows by the same amount; a span's self
time is its duration minus its children's.  SimplexSolver.solve,
reoptimize and add_ge_cut and LatencyLpSolution.verify are wrapped the
same way.

Counters are read only from public values: SimplexSolver.pivots,
len(model.constraints), model.num_vars, the bit lengths of
LpSolution.values, and len() of the trace, steps and checks of the states
the solvers return.  Wrappers return exactly what the wrapped call
returns and let every exception through.  Nothing here is imported by an
untraced run.
"""

import functools
import importlib
import inspect
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("simplex", "lp", "graphs", "cover", "atspp", "latency", "oracle", "metric", "cli")
METHODS = {
    "simplex": {"SimplexSolver": ("solve", "reoptimize", "add_ge_cut")},
    "lp": {"LatencyLpSolution": ("verify",)},
}

SOLVE = "simplex.SimplexSolver.solve"
REOPT = "simplex.SimplexSolver.reoptimize"
ADD_CUT = "simplex.SimplexSolver.add_ge_cut"
MAXFLOW = "graphs.max_flow_min_cut"
MATCHING = "graphs.min_cost_perfect_matching"
LP_SOLVES = ("lp.solve_lp_alpha", "lp.solve_latency_lp")

# Every per-layer metric a traced run reports, in the order it prints them.
PER_LAYER = (
    ("simplex.solve_s", "s"), ("simplex.reoptimize_s", "s"), ("simplex.add_cut_s", "s"),
    ("simplex.solves", "count"), ("simplex.pivots", "count"),
    ("simplex.reopt_pivots", "count"), ("simplex.cuts", "count"),
    ("simplex.rows_max", "count"), ("simplex.cols_max", "count"),
    ("simplex.us_per_pivot", "us"), ("simplex.value_bits_max", "bits"),
    ("lp.self_s", "s"), ("lp.rounds", "count"), ("lp.separation_s", "s"),
    ("lp.maxflow_calls", "count"), ("lp.cuts_per_maxflow", "ratio"), ("lp.verify_s", "s"),
    ("graphs.matching_s", "s"), ("graphs.matching_calls", "count"),
    ("graphs.matching_m_mean", "count"), ("graphs.maxflow_s", "s"),
    ("graphs.decompose_s", "s"), ("graphs.other_s", "s"),
    ("cover.self_s", "s"), ("cover.calls", "count"),
    ("atspp.self_s", "s"), ("atspp.cover_iterations", "count"), ("atspp.checks", "count"),
    ("latency.self_s", "s"), ("latency.steps", "count"), ("latency.checks", "count"),
    ("oracle.atspp_s", "s"), ("oracle.latency_s", "s"),
    ("metric.gen_s", "s"), ("metric.induced_s", "s"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"), ("trace.wall_s", "s"), ("trace_overhead", "ratio"),
)
# Counts must repeat exactly from pass to pass and run to run.
COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bits")
               and name != "graphs.matching_m_mean")


def _bits(value):
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Span stack plus counters for one stretch of traced work."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stack = []  # frames: [name, start, child_seconds, args, kwargs]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.counts = Counter()
        self.maxima = Counter()
        self.cuts = weakref.WeakKeyDictionary()  # solver -> cut rows added so far

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        self.stack.append([name, time.perf_counter(), 0.0, args, kwargs])
        try:
            return fn(*args, **kwargs)
        finally:
            start, child = self.stack.pop()[1:3]
            dur = time.perf_counter() - start
            parent = self.stack[-1] if self.stack else None
            rec = self.spans[(name, parent[0] if parent else None)]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child
            if parent:
                parent[2] += dur

    def wrap(self, name, fn):
        if name.startswith("simplex.SimplexSolver."):
            @functools.wraps(fn)
            def wrapper(solver, *args, **kwargs):
                before = solver.pivots
                result = self.call(name, fn, (solver, *args), kwargs)
                self._observe_solver(name, solver, result, solver.pivots - before)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = self.stack[-1] if self.stack else None
                result = self.call(name, fn, args, kwargs)
                self._observe(name, args, result, parent)
                return result
        return wrapper

    def _observe_solver(self, name, solver, result, pivots):
        if name == ADD_CUT:
            self.cuts[solver] = self.cuts.get(solver, 0) + 1
            return
        if name == SOLVE:
            self.counts["simplex.solves"] += 1
            self.counts["simplex.pivots"] += pivots
        else:
            self.counts["simplex.reopt_pivots"] += pivots
        rows = len(solver.model.constraints) + self.cuts.get(solver, 0)
        self.maxima["simplex.rows_max"] = max(self.maxima["simplex.rows_max"], rows)
        self.maxima["simplex.cols_max"] = max(self.maxima["simplex.cols_max"],
                                              solver.model.num_vars)
        if result.values:
            bits = max(_bits(v) for v in result.values.values())
            self.maxima["simplex.value_bits_max"] = max(
                self.maxima["simplex.value_bits_max"], bits, _bits(result.objective))

    def _observe(self, name, args, result, parent):
        if name == MATCHING:
            self.counts["graphs.matching_m_total"] += len(args[0])
        elif name == MAXFLOW and parent is not None and parent[0] == "lp.solve_lp_alpha":
            # a separation attempt is useful when the cut falls short of alpha
            alpha = parent[3][1] if len(parent[3]) > 1 else parent[4]["alpha"]
            self.counts["lp.alpha_maxflow_calls"] += 1
            if result[0] < alpha:
                self.counts["lp.alpha_useful_cuts"] += 1
        elif name == "atspp.run_cover_loop":
            self.counts["atspp.cover_iterations"] += len(result.trace)
        elif name in ("atspp.solve_atspp", "atspp.solve_k_person"):
            self.counts["atspp.checks"] += len(result[1].checks)
        elif name == "latency.solve_latency":
            self.counts["latency.steps"] += len(result[1].steps)
            self.counts["latency.checks"] += len(result[1].checks)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public function and traced method; returns an undo
        callable that restores every binding."""
        package = importlib.import_module("asympath")
        modules = [package] + [importlib.import_module(f"asympath.{m}") for m in LAYERS]
        undo = []
        for layer in LAYERS:
            mod = importlib.import_module(f"asympath.{layer}")
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    for bound_name, value in list(vars(owner).items()):
                        if value is fn:
                            undo.append((owner, bound_name, value))
                            setattr(owner, bound_name, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    undo.append((cls, method, fn))
                    setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", fn))

        def uninstall():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
        return uninstall

    # -- summary ----------------------------------------------------------

    def _sum(self, field, names=None, prefix=None, parents=None):
        total = 0
        for (name, parent), rec in self.spans.items():
            if names is not None and name not in names:
                continue
            if prefix is not None and not name.startswith(prefix):
                continue
            if parents is not None and parent not in parents:
                continue
            total += rec[field]
        return total

    def layer_metrics(self):
        """Per-layer metrics of everything traced so far, except the
        bench-level ones (trace.wall_s, trace_overhead), which the
        caller adds."""
        calls = functools.partial(self._sum, 0)
        total = functools.partial(self._sum, 1)
        self_s = functools.partial(self._sum, 2)
        lp_names = set(LP_SOLVES)
        solve_s = total(names={SOLVE})
        reopt_s = total(names={REOPT})
        pivots = self.counts["simplex.pivots"] + self.counts["simplex.reopt_pivots"]
        matching_calls = calls(names={MATCHING})
        alpha_calls = self.counts["lp.alpha_maxflow_calls"]
        graphs_named = {MATCHING, MAXFLOW, "graphs.decompose_flow"}
        return {
            "simplex.solve_s": solve_s,
            "simplex.reoptimize_s": reopt_s,
            "simplex.add_cut_s": total(names={ADD_CUT}),
            "simplex.solves": self.counts["simplex.solves"],
            "simplex.pivots": self.counts["simplex.pivots"],
            "simplex.reopt_pivots": self.counts["simplex.reopt_pivots"],
            "simplex.cuts": calls(names={ADD_CUT}),
            "simplex.rows_max": self.maxima["simplex.rows_max"],
            "simplex.cols_max": self.maxima["simplex.cols_max"],
            "simplex.us_per_pivot": 1e6 * (solve_s + reopt_s) / pivots if pivots else 0.0,
            "simplex.value_bits_max": self.maxima["simplex.value_bits_max"],
            "lp.self_s": self_s(prefix="lp."),
            "lp.rounds": calls(names={SOLVE, REOPT}, parents=lp_names),
            "lp.separation_s": total(names={MAXFLOW}, parents=lp_names),
            "lp.maxflow_calls": calls(names={MAXFLOW}, parents=lp_names),
            "lp.cuts_per_maxflow": (self.counts["lp.alpha_useful_cuts"] / alpha_calls
                                    if alpha_calls else 0.0),
            "lp.verify_s": total(names={"lp.LatencyLpSolution.verify"}),
            "graphs.matching_s": self_s(names={MATCHING}),
            "graphs.matching_calls": matching_calls,
            "graphs.matching_m_mean": (self.counts["graphs.matching_m_total"] / matching_calls
                                       if matching_calls else 0.0),
            "graphs.maxflow_s": self_s(names={MAXFLOW}),
            "graphs.decompose_s": self_s(names={"graphs.decompose_flow"}),
            "graphs.other_s": self_s(prefix="graphs.") - self_s(names=graphs_named),
            "cover.self_s": self_s(prefix="cover."),
            "cover.calls": calls(prefix="cover."),
            "atspp.self_s": self_s(prefix="atspp."),
            "atspp.cover_iterations": self.counts["atspp.cover_iterations"],
            "atspp.checks": self.counts["atspp.checks"],
            "latency.self_s": self_s(prefix="latency."),
            "latency.steps": self.counts["latency.steps"],
            "latency.checks": self.counts["latency.checks"],
            "oracle.atspp_s": total(names={"oracle.exact_atspp"}),
            "oracle.latency_s": total(names={"oracle.exact_latency"}),
            "metric.gen_s": total(names={"metric.gen_random"}),
            "metric.induced_s": total(names={"metric.induced_subinstance"}),
            "cli.self_s": self_s(prefix="cli."),
            "bench.self_s": self_s(names={"bench"}),
        }

    def self_seconds(self):
        """Self time of every span, which together account for the traced
        wall time."""
        return self._sum(2)

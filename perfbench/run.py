"""asympath benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  One
process, one thread.  The run sets up its workload, then solves and
exactly checks the workload's whole instance set (one pass) again and
again while another pass fits into S seconds.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the run in detail (environment, seed,
pass times, failures).

--trace 0 prints the end-to-end metrics and loads no tracing code.
--trace 1 alternates untraced passes with passes in which every public
function of the library is wrapped (tracer.py), and prints the per-layer
metrics.  See README.md for every metric and workload.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up is timed in fresh processes: at least 3, and up to 9 while they
# take under 1.5 s together, so that a cheap set-up gets more samples.
SETUP_PROBES = (3, 9, 1.5)
READY = "setup-ready"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print a ready line and exit; used to time setup")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def import_library():
    """Import asympath and the workloads from this checkout only."""
    if not os.path.isfile(os.path.join(SRC, "asympath", "__init__.py")):
        raise SystemExit(f"error: no asympath package under {SRC}")
    sys.path.insert(0, SRC)
    import asympath
    if not os.path.abspath(asympath.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported asympath from {asympath.__file__}, not {SRC}")
    import workloads
    return workloads


def setup(workload, seed):
    """Everything before the first solve: import, instances, references."""
    wl = import_library()
    if workload not in wl.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; "
                         f"choose from {', '.join(wl.WORKLOADS)}")
    seed = wl.DEFAULT_SEED if seed is None else seed
    make_tasks, run_task = wl.WORKLOADS[workload]
    return wl, seed, make_tasks, run_task, make_tasks(seed), wl.load_references(workload, seed)


def time_setup(workload, seed):
    """Seconds from starting a fresh process to its being ready to solve."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != READY or code != 0:
        raise SystemExit(f"error: setup probe failed with exit code {code}")
    return elapsed


def run_pass(wl, tasks, run_task, refs):
    """Solve and check every task once; returns the pass record."""
    times, failures, route_changes = [], [], 0
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            problems, values, digest = run_task(task)
            if refs is not None:
                ref = refs.get(task.key)
                if ref is None:
                    problems.append("no reference value committed for this task")
                else:
                    mismatch, changed = wl.compare(values, digest, ref)
                    problems += mismatch
                    route_changes += changed
        except Exception as exc:  # a raising entry point is a failed instance
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problems = [f"{type(exc).__name__}: {exc} "
                        f"({os.path.basename(where.filename)}:{where.lineno})"]
        times.append(time.perf_counter() - t0)
        if problems:
            failures.append({"task": task.key, "problems": problems[:3]})
    return {"wall": time.perf_counter() - start, "times": times,
            "failures": failures, "route_changes": route_changes}


def run_passes(seconds, one_pass):
    """Repeat one_pass while another pass of average length still fits in
    the given seconds (always at least one pass)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def environment(seed):
    import asympath
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "asympath_version": asympath.__version__,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def end_to_end(tasks, passes, setup_times):
    """Every pass repeats the same deterministic work, and other load on the
    machine only ever adds time, so each instance's time is its fastest
    over the passes.  wall_s sums these over the set; the other timings
    are medians over instances and over set-up processes."""
    per_task = [min(p["times"][i] for p in passes) for i in range(len(tasks))]
    largest = max(task.n for task in tasks)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_task), "s"),
        "instance_s.p50": (statistics.median(per_task), "s"),
        "largest_n_s": (statistics.median(
            t for t, task in zip(per_task, tasks) if task.n == largest), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"instance_samples": len(per_task), "largest_n": largest,
        "largest_n_samples": sum(task.n == largest for task in tasks)}


def per_layer(wl, seed, make_tasks, run_task, refs, seconds):
    """Alternate untraced and traced passes, so that both see the same
    machine, and summarise the traced ones per layer."""
    import tracer as tracing
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        tasks = tracer.call("bench", make_tasks, (seed,), {})
    finally:
        uninstall()
    setup_gen_s = tracer.layer_metrics()["metric.gen_s"]
    layers, accounted = [], []

    def pair():
        plain = run_pass(wl, tasks, run_task, refs)
        tracer.reset()
        uninstall = tracer.install()
        try:
            traced = tracer.call("bench", run_pass, (wl, tasks, run_task, refs), {})
        finally:
            uninstall()
        m = tracer.layer_metrics()
        m["metric.gen_s"] += setup_gen_s
        layers.append(m)
        accounted.append(tracer.self_seconds() / traced["wall"])
        return plain, traced

    pairs = run_passes(seconds, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    # per-layer values come from the fastest traced pass, so they add up
    best = min(range(len(traced)), key=lambda i: traced[i]["wall"])
    metrics = layers[best]
    plain_wall = min(p["wall"] for p in plain)
    metrics["trace.wall_s"] = traced[best]["wall"]
    metrics["trace_overhead"] = statistics.median(t["wall"] / p["wall"] for p, t in pairs) - 1
    units = dict(tracing.PER_LAYER)
    detail = {
        "untraced_passes": len(plain), "traced_passes": len(traced),
        "untraced_wall_s": plain_wall,
        "self_time_share_of_traced_wall": accounted,
        "counts_repeat": all(all(m[k] == layers[0][k] for k in tracing.COUNTS)
                             for m in layers),
        "counts": {k: layers[0][k] for k in tracing.COUNTS},
    }
    return {k: (metrics[k], units[k]) for k, _ in tracing.PER_LAYER}, plain + traced, detail


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        print(READY, flush=True)
        return 0
    wl, seed, make_tasks, run_task, tasks, refs = setup(args.workload, args.seed)
    env = environment(seed)
    if args.trace:
        metrics, passes, detail = per_layer(wl, seed, make_tasks, run_task, refs, args.seconds)
    else:
        setup_times = []
        least, most, budget = SETUP_PROBES
        while len(setup_times) < least or (len(setup_times) < most
                                           and sum(setup_times) < budget):
            setup_times.append(time_setup(args.workload, seed))
        passes = run_passes(args.seconds, lambda: run_pass(wl, tasks, run_task, refs))
        metrics, detail = end_to_end(tasks, passes, setup_times)
        detail["setup_samples_s"] = setup_times
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(tasks) * len(passes)
    record = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "references": "checked" if refs is not None else "none committed for this seed",
        "instances": len(tasks), "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "route_changes": max(p["route_changes"] for p in passes),
        "failures": failures[:10], **detail,
    }
    print(json.dumps({"detail": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record a baseline: every workload on both committed seeds, untraced and
traced, one run each, written to perfbench/baseline.json.

    python3 perfbench/baseline.py [--seconds S]

Each entry keeps the run's detail line (environment, pass times, counts)
and its result line.  Runs go one after another, never in parallel.
"""

import argparse
import json
import os
import subprocess
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    wl = run.import_library()
    doc = {}
    for name in wl.WORKLOADS:
        for seed in (wl.DEFAULT_SEED, wl.HELD_OUT_SEED):
            for trace in (0, 1):
                cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
                out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                     cwd=run.ROOT).stdout.splitlines()
                entry = {"detail": json.loads(out[-2])["detail"], "result": json.loads(out[-1])}
                doc.setdefault(name, {}).setdefault(str(seed), {})[f"trace{trace}"] = entry
                print(name, seed, trace, json.dumps(entry["result"])[:200], file=sys.stderr)
    with open(os.path.join(run.HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

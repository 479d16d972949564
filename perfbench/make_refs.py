"""Write references.json: the exact optima of every task of every workload
on the two committed seeds (workloads.DEFAULT_SEED, HELD_OUT_SEED).

    python3 perfbench/make_refs.py

The stored values are unique optima, so any correct solver must reproduce
them: the latency-LP optimum and exact_latency on latency, the LP(1)
optimum and exact_atspp on gap-report, and the cost of the first cover
(a minimum-cost assignment over all nodes) of solve_atspp and
solve_k_person on cover-scale.  Each task's route digest is stored too; a
later run reports a changed route but does not fail on it.  A task whose
outputs fail the checks stops the script: a reference is only written
from a run that passes.
"""

import json
import sys

import run


def main():
    wl = run.import_library()
    import asympath
    doc = {"asympath_version": asympath.__version__, "workloads": {}}
    for name, (make_tasks, run_task) in wl.WORKLOADS.items():
        for seed in (wl.DEFAULT_SEED, wl.HELD_OUT_SEED):
            entries = {}
            for task in make_tasks(seed):
                problems, values, digest = run_task(task)
                if problems:
                    raise SystemExit(f"{name} seed {seed} {task.key}: {problems}")
                entries[task.key] = {"values": wl.jsonable(values), "route": digest}
            doc["workloads"].setdefault(name, {})[str(seed)] = entries
            print(f"{name} seed {seed}: {len(entries)} tasks", file=sys.stderr)
    with open(wl.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

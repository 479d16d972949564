"""cli.main, fuzzed: every subcommand with generated options, on small
gen_random documents that carry at most one injected fault.

A document with no fault and valid options exits 0 and writes nothing to
stderr.  Any fault exits 1 with exactly one "error:" line on stderr.  No
exception escapes main, and none of these runs exits 2."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from asympath import metric
from asympath.cli import main

COUNTS = st.integers(-1, 3)
ALPHAS = ["1/2", "0", "2", "abc", "1/0"]
INSTANCE_COMMANDS = ("atspp", "kperson", "multipath", "latency", "lp-bound", "oracle")

# input branches the fuzzed runs must reach
REACHED = {
    "error: s or t out of range",
    "error: node weights must be positive",
    "error: choose exactly one of --alpha RAT or --latency",
    "error: need count >= 1 and 2 <= nmin <= nmax",
}


# -- faults: each changes a valid document in place --------------------------

def _missing_key(doc, data):
    del doc[data.draw(st.sampled_from(["n", "s", "t", "d"]))]


def _non_int_index(doc, data):
    key = data.draw(st.sampled_from(["n", "s", "t"]))
    doc[key] = data.draw(st.sampled_from([float(doc[key]), True, False]))


def _equal_ends(doc, data):
    doc["t"] = doc["s"]


def _end_out_of_range(doc, data):
    doc[data.draw(st.sampled_from(["s", "t"]))] = data.draw(st.sampled_from([-1, doc["n"]]))


def _string_row(doc, data):
    # one-digit entries, so each character would read as the entry it was
    u = data.draw(st.integers(0, doc["n"] - 1))
    doc["d"][u] = "".join(map(str, doc["d"][u]))


def _dict_distances(doc, data):
    doc["d"] = {"".join(map(str, row)): u for u, row in enumerate(doc["d"])}


def _bad_entry(doc, data):
    # a float, a bool, a "p/0", or a value that breaks the metric
    n, d = doc["n"], doc["d"]
    u, v = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    bad = [float(d[u][v]), True, f"{d[u][v]}/0", -1]
    w = next((w for w in range(n) if w not in (u, v)), None)
    if u == v:
        bad.append(1)  # nonzero diagonal
    elif w is not None:
        bad.append(d[u][w] + d[w][v] + 1)  # d[u][v] > d[u][w] + d[w][v]
    d[u][v] = data.draw(st.sampled_from(bad))


def _weights_of_wrong_length(doc, data):
    doc["weights"] = [1] * (doc["n"] + data.draw(st.sampled_from([-1, 1])))


def _string_weights(doc, data):
    doc["weights"] = "1" * doc["n"]


def _non_positive_weight(doc, data):
    weights = doc["weights"] = [1] * doc["n"]
    weights[data.draw(st.integers(0, doc["n"] - 1))] = data.draw(st.sampled_from([0, -1, "-1/2"]))


FAULTS = [_missing_key, _non_int_index, _equal_ends, _end_out_of_range, _string_row,
          _dict_distances, _bad_entry, _weights_of_wrong_length, _string_weights,
          _non_positive_weight]


@st.composite
def documents(draw):
    """(document, fault or None): a gen_random instance with n <= 5 and
    one-digit distances, maybe weights and an extra key, then at most one
    fault."""
    inst = metric.gen_random(draw(st.integers(2, 5)), seed=draw(st.integers(0, 99)),
                             max_weight=draw(st.integers(1, 9)))
    doc = json.loads(metric.instance_to_json(inst))
    if draw(st.booleans()):
        doc["weights"] = draw(st.lists(st.sampled_from([1, 2, 7, "3/2"]),
                                       min_size=inst.n, max_size=inst.n))
    if draw(st.booleans()):
        doc["note"] = "extra keys are ignored"
    fault = draw(st.none() | st.sampled_from(FAULTS))
    if fault is not None:
        fault(doc, draw(st.data()))
    return doc, fault


# -- argv: (arguments, valid) per subcommand ---------------------------------

@st.composite
def commands(draw, inst, out):
    """(argv, valid) for a subcommand drawn uniformly."""
    cmd = draw(st.sampled_from([*INSTANCE_COMMANDS, "gen", "gap-report"]))
    if cmd == "gen":
        return draw(gen_argv(out))
    if cmd == "gap-report":
        return draw(gap_report_argv(out))
    return draw(solver_argv(cmd, inst, out))


@st.composite
def solver_argv(draw, cmd, inst, out):
    argv, ok = [cmd, "--in", inst], True
    flags = []
    if cmd in ("atspp", "latency"):
        flags = ["--trace"]
    elif cmd in ("kperson", "multipath"):
        k = draw(COUNTS)
        argv += ["--k", str(k)]
        ok = k >= 1
        flags = ["--trace"] if cmd == "kperson" else []
    elif cmd == "lp-bound":
        mode = draw(st.sampled_from(["--alpha", "--latency", "both", "neither"]))
        alpha = draw(st.sampled_from(ALPHAS)) if mode in ("--alpha", "both") else None
        latency = mode in ("--latency", "both")
        if alpha is not None:
            argv += ["--alpha", alpha]
        argv += ["--latency"] * latency
        if draw(st.booleans()):
            argv += ["--dump-model", out + ".model"]
        ok = (alpha is None) == latency and alpha in (None, "1/2")
    else:
        problem = draw(st.sampled_from(["atspp", "latency", "kperson"]))
        k = draw(st.none() | COUNTS)
        argv += ["--problem", problem] + ([] if k is None else ["--k", str(k)])
        ok = k is None or (problem == "kperson" and k >= 1)
    argv += [f for f in flags if draw(st.booleans())]
    if draw(st.booleans()):
        argv += ["--out", out]
    return argv, ok


@st.composite
def gen_argv(draw, out):
    argv = ["gen"]
    n = draw(st.none() | st.integers(-1, 6))
    gap = draw(st.none() | st.sampled_from([9, 10, 12]))
    seed = draw(st.none() | st.integers(0, 9))
    weight = draw(st.none() | st.integers(0, 9))
    for flag, value in (("--random", n), ("--bad-gap", gap), ("--seed", seed),
                        ("--max-weight", weight)):
        if value is not None:
            argv += [flag, str(value)]
    if draw(st.booleans()):
        argv += ["--out", out]
    if n is not None:
        ok = gap is None and n >= 2 and weight != 0
    else:
        ok = gap is not None and gap >= 10 and seed is None and weight is None
    return argv, ok


@st.composite
def gap_report_argv(draw, out):
    count, nmin, nmax = draw(st.integers(-1, 2)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    argv = ["gap-report", "--count", str(count), "--nmin", str(nmin), "--nmax", str(nmax),
            "--seed", str(draw(st.integers(0, 9)))]
    weight = draw(st.none() | st.integers(0, 9))
    if weight is not None:
        argv += ["--max-weight", str(weight)]
    if draw(st.booleans()):
        argv += ["--out", out]
    ok = count >= 1 and 2 <= nmin <= nmax and weight != 0
    return argv, ok


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_fuzzed_cli_exits_by_input_fault(tmp_path):
    inst, out = str(tmp_path / "inst.json"), str(tmp_path / "out.json")
    seen = set()

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(documents(), commands(inst, out))
    def run(case, command):
        (doc, fault), (argv, ok) = case, command
        with open(inst, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, err = _run(argv)
        expected = 0 if ok and (fault is None or argv[0] not in INSTANCE_COMMANDS) else 1
        assert code == expected, (argv, doc, err)
        if code == 0:
            assert err == ""
        elif code == 1:
            lines = [line for line in err.splitlines() if "error:" in line]
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            seen.add(lines[0])

    run()
    assert REACHED <= seen, REACHED - seen

import csv
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from asympath import atspp as atspp_mod
from asympath import latency as latency_mod
from asympath import lp, metric, oracle
from asympath.errors import InvariantError
from asympath.cli import GAP_REPORT_COLUMNS, _hamiltonian_path, gap_report_rows, main
from asympath.rational import rational_to_json


def test_gen_and_solve_round_trip(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    assert main(["gen", "--random", "5", "--seed", "3", "--out", str(inst_file)]) == 0
    inst = metric.load_instance(inst_file)
    assert inst.n == 5

    out_file = tmp_path / "result.json"
    code = main(["atspp", "--in", str(inst_file), "--out", str(out_file), "--trace"])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["path"][0] == 0 and doc["path"][-1] == 4
    assert "trace" in doc
    printed = capsys.readouterr().out
    assert "cost:" in printed


def test_bad_gap_lp_bound(tmp_path, capsys):
    inst_file = tmp_path / "gap.json"
    assert main(["gen", "--bad-gap", "1000", "--out", str(inst_file)]) == 0
    assert main(["lp-bound", "--alpha", "1/2", "--in", str(inst_file)]) == 0
    value = capsys.readouterr().out.strip().splitlines()[-1]
    num = value.split()[0]
    assert "/" in num or int(num) <= 5


def test_latency_and_oracle(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--random", "5", "--seed", "4", "--max-weight", "12",
          "--out", str(inst_file)])
    assert main(["latency", "--in", str(inst_file)]) == 0
    assert main(["oracle", "--problem", "latency", "--in", str(inst_file)]) == 0
    out = capsys.readouterr().out
    assert "total latency:" in out


def test_kperson_and_multipath(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--random", "6", "--seed", "5", "--out", str(inst_file)])
    assert main(["kperson", "--k", "2", "--in", str(inst_file)]) == 0
    assert main(["multipath", "--k", "2", "--in", str(inst_file)]) == 0
    out = capsys.readouterr().out
    assert out.count("path:") >= 3


def test_argument_errors_exit_one(tmp_path, capsys):
    assert main(["gen"]) == 1
    assert main(["gen", "--random", "1"]) == 1
    assert main(["atspp"]) == 1
    assert main(["atspp", "--in", str(tmp_path / "missing.json")]) == 1
    assert main(["lp-bound", "--in", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("extra", [["--seed", "9"], ["--max-weight", "3"],
                                   ["--seed", "9", "--max-weight", "3"], ["--seed", "0"]])
def test_gen_bad_gap_rejects_random_options(capsys, extra):
    assert main(["gen", "--bad-gap", "12", *extra]) == 1
    assert "apply only with --random" in capsys.readouterr().err


def test_gen_random_defaults_are_seed_0_and_max_weight_100(capsys):
    assert main(["gen", "--random", "5"]) == 0
    defaulted = capsys.readouterr().out
    assert main(["gen", "--random", "5", "--seed", "0", "--max-weight", "100"]) == 0
    assert capsys.readouterr().out == defaulted
    assert metric.instance_from_json(defaulted) == metric.gen_random(5, seed=0, max_weight=100)


@pytest.mark.parametrize("problem", ["atspp", "latency"])
def test_oracle_k_needs_kperson(tmp_path, capsys, problem):
    inst_file = tmp_path / "inst.json"
    assert main(["gen", "--random", "5", "--seed", "4", "--out", str(inst_file)]) == 0
    assert main(["oracle", "--problem", problem, "--k", "5", "--in", str(inst_file)]) == 1
    assert "--k applies only with --problem kperson" in capsys.readouterr().err


def test_oracle_kperson_defaults_to_two_paths(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    assert main(["gen", "--random", "6", "--seed", "5", "--out", str(inst_file)]) == 0
    out_file = tmp_path / "out.json"
    assert main(["oracle", "--problem", "kperson", "--in", str(inst_file),
                 "--out", str(out_file)]) == 0
    res = oracle.exact_k_person(metric.load_instance(inst_file), 2)
    doc = json.loads(out_file.read_text())
    assert len(doc["paths"]) == 2 and doc["paths"] == res.order
    assert capsys.readouterr().out.strip() == str(res.value)


def test_gap_report_deterministic_modulo_timing(tmp_path):
    first = gap_report_rows(count=4, nmin=5, nmax=6, seed=11, max_weight=30)
    second = gap_report_rows(count=4, nmin=5, nmax=6, seed=11, max_weight=30)
    for a, b in zip(first, second):
        for col in GAP_REPORT_COLUMNS:
            if col != "ms":
                assert a[col] == b[col]


def test_gap_report_csv_schema(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["gap-report", "--count", "3", "--nmin", "5", "--nmax", "6",
                 "--seed", "2", "--max-weight", "25", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert list(rows[0]) == GAP_REPORT_COLUMNS
    for row in rows:
        passed, total = row["checks_passed"].split("/")
        assert passed == total
        assert int(row["ms"]) >= 0


# gap-report --count 12 --nmin 4 --nmax 14 --seed 2009 without its ms column,
# as printed before the max-flow, decomposition and subset-DP kernels moved
# to ints; every value and order must stay byte-identical
GAP_REPORT_2009 = """\
id,n,seed,algorithm,value,lp_bound,opt,ratio_lp,ratio_opt,checks_passed
0,4,2009,atspp,108,108,108,1,1,13/13
1,5,2010,atspp,191,168,168,191/168,191/168,20/20
2,6,2011,atspp,150,116,116,75/58,75/58,23/23
3,7,2012,atspp,220,207,207,220/207,220/207,23/23
4,8,2013,atspp,166,166,166,1,1,23/23
5,9,2014,atspp,127,127,127,1,1,29/29
6,10,2015,atspp,109,109,109,1,1,21/21
7,11,2016,atspp,201,132,132,67/44,67/44,25/25
8,12,2017,atspp,132,132,132,1,1,33/33
9,13,2018,atspp,147,147,147,1,1,37/37
10,14,2019,atspp,286,223,224,286/223,143/112,36/36
11,4,2020,atspp,209,165,165,19/15,19/15,15/15
"""


def test_gap_report_csv_is_pinned(capsys):
    assert main(["gap-report", "--count", "12", "--nmin", "4", "--nmax", "14",
                 "--seed", "2009"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[0].endswith(",ms\n")
    assert "".join(line.rsplit(",", 1)[0] + "\n" for line in lines) == GAP_REPORT_2009


def test_gap_report_readme_example_is_pinned(capsys):
    # 16 of the 20 rows repeat a size, so most LP(1) solves start from a
    # shared phase-1 tableau; pinned by the sha256 of the CSV without ms
    assert main(["gap-report", "--count", "20", "--nmin", "6", "--nmax", "9",
                 "--seed", "3"]) == 0
    text = "".join(line.rsplit(",", 1)[0] + "\n" for line in capsys.readouterr().out.splitlines())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "4cb76a1ebac5b036"


@pytest.mark.parametrize("argv, digest", [
    # exact_atspp runs under LP(1)'s reduced costs on three rows of the
    # first (two with a fractional lp_bound) and on one of the second
    (["--count", "15", "--nmin", "11", "--nmax", "14", "--seed", "2009"], "9e56f7b47b5dd8fd"),
    (["--count", "18", "--nmin", "4", "--nmax", "12", "--seed", "726"], "622952517d1a1659"),
], ids=["seed-2009-n11-14", "seed-726-n4-12"])
def test_gap_report_guided_rows_are_pinned(capsys, argv, digest):
    # the CSVs as printed while exact_atspp ran the full subset DP on
    # every row, pinned by the sha256 of the CSV without ms
    assert main(["gap-report", *argv]) == 0
    text = "".join(line.rsplit(",", 1)[0] + "\n" for line in capsys.readouterr().out.splitlines())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


WEIGHTS = (1, 3, 100)  # weights 1 and 3 tie many paths


def test_gap_report_opt_is_the_exact_optimum(monkeypatch):
    """opt is certified from LP(1) when its flow is a Hamiltonian path and
    comes from exact_atspp otherwise; either way it is the optimum."""
    exact, certify = oracle.exact_atspp, lp._certify
    oracle_calls, certified = [], []
    monkeypatch.setattr(oracle, "exact_atspp",
                        lambda inst, *bound: oracle_calls.append(inst) or exact(inst, *bound))
    monkeypatch.setattr(lp, "_certify",
                        lambda *args: certified.append(certify(*args)) or certified[-1])
    for max_weight in WEIGHTS:
        rows = gap_report_rows(count=9, nmin=4, nmax=12, seed=40, max_weight=max_weight)
        for row in rows:
            inst = metric.gen_random(row["n"], seed=row["seed"], max_weight=max_weight)
            assert row["opt"] == rational_to_json(exact(inst).value)
    rows = 9 * len(WEIGHTS)
    assert len(certified) == rows  # every LP(1) solve is certified
    assert 0 < len(oracle_calls) < rows


def test_gap_report_leaves_opt_empty_above_the_oracle_cap(monkeypatch):
    monkeypatch.setattr(oracle, "ATSPP_CAP", 5)
    rows = gap_report_rows(count=4, nmin=5, nmax=8, seed=2009)
    assert [row["opt"] for row in rows] == [103, "", "", ""]
    # above the cap too, LP(1) certifies a Hamiltonian path, so opt could be filled
    for row in rows[1:]:
        inst = metric.gen_random(row["n"], seed=row["seed"], max_weight=100)
        assert _hamiltonian_path(lp.solve_lp_alpha(inst, 1)[1], inst)


def test_gap_report_ratios_within_budget():
    from asympath.rational import as_fraction, ceil_log2_int

    rows = gap_report_rows(count=6, nmin=6, nmax=9, seed=3, max_weight=40)
    for row in rows:
        budget = 2 * ceil_log2_int(row["n"]) + 1
        assert as_fraction(row["ratio_lp"]) <= budget
        assert as_fraction(row["ratio_opt"]) >= 1


def test_lp_bound_dump_model(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--random", "4", "--seed", "8", "--out", str(inst_file)])
    dump = tmp_path / "model.json"
    code = main(["lp-bound", "--alpha", "1", "--in", str(inst_file),
                 "--dump-model", str(dump)])
    assert code == 0
    doc = json.loads(dump.read_text())
    assert "minimize" in doc and "constraints" in doc
    assert any(name.startswith("x[") for name in doc["minimize"])

    # --latency dumps the reduced program the solver starts from
    main(["gen", "--random", "5", "--seed", "8", "--out", str(inst_file)])
    assert main(["lp-bound", "--latency", "--in", str(inst_file),
                 "--dump-model", str(dump)]) == 0
    doc = json.loads(dump.read_text())
    names = set(doc["minimize"]).union(*(row["coeffs"] for row in doc["constraints"]))
    assert (len(doc["constraints"]), len(names)) == (40, 47)
    capsys.readouterr()


@pytest.mark.parametrize("d", [
    [[0, -1, 2], [1, 0, 1], [2, 1, 0]],
    [[1, 1, 2], [1, 0, 1], [2, 1, 0]],
    [[0, 1, 100, 1], [1, 0, 1, 100], [100, 1, 0, 1], [1, 100, 1, 0]],
])
def test_non_metric_input_exits_one(tmp_path, capsys, d):
    inst_file = tmp_path / "bad.json"
    inst_file.write_text(json.dumps({"n": len(d), "s": 0, "t": len(d) - 1, "d": d}))
    assert main(["atspp", "--in", str(inst_file)]) == 1
    captured = capsys.readouterr()
    assert "not a metric" in captured.err
    assert "path:" not in captured.out


@pytest.mark.parametrize("header", [
    {"n": 3, "s": 0, "t": True},
    {"n": 3.0, "s": 0, "t": 2},
    {"n": 3, "s": 0.0, "t": 2},
])
def test_bool_or_float_n_s_t_exits_one(tmp_path, capsys, header):
    inst_file = tmp_path / "bad.json"
    inst_file.write_text(json.dumps({**header, "d": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
    assert main(["atspp", "--in", str(inst_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "path:" not in captured.out


def _without_weights(inst_file, path):
    doc = json.loads(inst_file.read_text())
    del doc["weights"]
    path.write_text(json.dumps(doc))
    return path


def test_unweighted_latency_on_weighted_file(tmp_path, capsys):
    # a file's weights weight its latency; the unweighted latency is the
    # file without "weights"
    inst = metric.gen_random(5, seed=4, max_weight=12)
    inst_file = tmp_path / "weighted.json"
    weights = (1, 2, 3, 4, 5)
    metric.save_instance(metric.MetricInstance(5, 0, 4, inst.d, weights=weights), inst_file)
    plain_file = _without_weights(inst_file, tmp_path / "plain.json")
    for path, weight in ((inst_file, weights), (plain_file, (1,) * 5)):
        out_file = tmp_path / "out.json"
        assert main(["latency", "--in", str(path), "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        lat = {int(v): Fraction(x) for v, x in doc["latencies"].items()}
        assert Fraction(doc["total"]) == sum(weight[v] * x for v, x in lat.items())
    assert "total latency:" in capsys.readouterr().out


# the weights [1, 5, 1, 1] on a path metric: every latency command reads them
WEIGHTED_PATH = {"n": 4, "s": 0, "t": 3, "weights": [1, 5, 1, 1],
                 "d": [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]}


def test_every_latency_command_reads_the_weights(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps(WEIGHTED_PATH))
    values = []
    for argv in (["lp-bound", "--latency"], ["oracle", "--problem", "latency"], ["latency"]):
        assert main([*argv, "--in", str(inst_file)]) == 0
        values.append(Fraction(capsys.readouterr().out.splitlines()[-1].split()[-1]))
    lp_bound, opt, total = values
    assert lp_bound <= opt <= total
    assert opt == total == 10


@pytest.mark.parametrize("command, removed", [
    (["latency"], ["--weighted"]),
    (["lp-bound", "--latency"], ["--weighted"]),
    (["atspp"], ["--iters", "1"]),
])
def test_removed_flags_exit_one(tmp_path, capsys, command, removed):
    # the weights come from the file and the cover loop's length from n
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps(WEIGHTED_PATH))
    assert main([*command, *removed, "--in", str(inst_file)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(removed)}\n")
    assert captured.out == ""


def test_zero_distance_latency_input_exits_one(tmp_path, capsys):
    # a valid metric whose zero distance d(0, 1) the latency solver refuses
    inst_file = tmp_path / "zero.json"
    inst_file.write_text(json.dumps({"n": 3, "s": 0, "t": 2,
                                     "d": [[0, 0, 1], [0, 0, 1], [1, 1, 0]]}))
    assert main(["latency", "--in", str(inst_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: distance (0,1) must be positive")
    assert "total latency:" not in captured.out


def _gen_trace_instance(tmp_path):
    # the instance whose latency trace used to crash the JSON writer
    inst_file = tmp_path / "inst.json"
    assert main(["gen", "--random", "7", "--seed", "3", "--max-weight", "20",
                 "--out", str(inst_file)]) == 0
    return inst_file


@pytest.mark.parametrize("command", [["atspp"], ["kperson", "--k", "2"], ["latency"]])
def test_trace_out_writes_json(tmp_path, capsys, command):
    inst_file = _gen_trace_instance(tmp_path)
    out_file = tmp_path / "out.json"
    assert main([*command, "--in", str(inst_file), "--trace", "--out", str(out_file)]) == 0
    capsys.readouterr()
    trace = json.loads(out_file.read_text())["trace"]
    assert trace["checks"] and all(c["pass"] for c in trace["checks"])
    if command == ["latency"]:
        assert any("family_hops" in step for step in trace["steps"])


def test_latency_invariant_error_dumps_state_as_json(tmp_path, capsys, monkeypatch):
    inst_file = _gen_trace_instance(tmp_path)
    solve_latency = latency_mod.solve_latency

    def failing(inst):
        _, state = solve_latency(inst)
        state.check("forced failure", False, Fraction(1, 3))

    monkeypatch.setattr(latency_mod, "solve_latency", failing)
    assert main(["latency", "--in", str(inst_file)]) == 2
    head, _, body = capsys.readouterr().err.partition("\n")
    assert head.startswith("invariant violation: latency run check failed: forced failure")
    state = json.loads(body)
    assert state["checks"][-1] == {"name": "forced failure", "pass": False, "witness": "1/3"}
    assert any("family_hops" in step for step in state["steps"])


def test_latency_lp_violation_list_is_dumped_as_json(tmp_path, capsys, monkeypatch):
    inst_file = tmp_path / "inst.json"
    assert main(["gen", "--random", "4", "--seed", "1", "--max-weight", "9",
                 "--out", str(inst_file)]) == 0
    violations = ["x[1,2] negative", "flow 3 unbalanced at 1"]
    monkeypatch.setattr(lp.LatencyLpSolution, "verify", lambda sol, inst: list(violations))
    assert main(["lp-bound", "--latency", "--in", str(inst_file)]) == 2
    head, _, body = capsys.readouterr().err.partition("\n")
    assert head == ("invariant violation: reconstructed latency solution "
                    "failed verification")
    assert json.loads(body) == violations


@pytest.mark.parametrize("state, dumped", [
    ([(0, 2), (2, 3)], [[0, 2], [2, 3]]),  # the cover's matching arcs
    ({0: Fraction(1, 3), 2: Fraction(0)}, {"0": "1/3", "2": 0}),  # per-node path flow
])
def test_plain_invariant_state_is_dumped_as_json(tmp_path, capsys, monkeypatch, state, dumped):
    inst_file = _gen_trace_instance(tmp_path)

    def failing(inst, k):
        raise InvariantError("forced failure", state=state)

    monkeypatch.setattr(atspp_mod, "multipath_cover", failing)
    assert main(["multipath", "--k", "2", "--in", str(inst_file)]) == 2
    head, _, body = capsys.readouterr().err.partition("\n")
    assert head == "invariant violation: forced failure"
    assert json.loads(body) == dumped


def _run_module(*argv):
    """python -m asympath argv, from this checkout's src, as a finished process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "asympath", *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )


def test_python_dash_m_runs_the_cli():
    proc = _run_module("gen", "--random", "4", "--seed", "1", "--max-weight", "5")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 4


@pytest.mark.parametrize("doc, argv, bad", [
    ({"n": 2, "s": 0, "t": 1, "d": [[0, "1/0"], [1, 0]]}, ["atspp"], "1/0"),
    ({"n": 2, "s": 0, "t": 1, "d": [[0, 1], [1, 0]], "weights": [1, "2/0"]},
     ["latency"], "2/0"),
    ({"n": 2, "s": 0, "t": 1, "d": [[0, 1], [1, 0]]}, ["lp-bound", "--alpha", "1/0"], "1/0"),
], ids=["distance", "weight", "alpha"])
def test_zero_denominator_exits_one_without_traceback(tmp_path, doc, argv, bad):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps(doc))
    proc = _run_module(*argv, "--in", str(inst_file))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"error: zero denominator in '{bad}'"]


# every subcommand on gen_random(5, seed=4, max_weight=12) with node weights
# (1, 3, 3/2, 2, 1), and the latency commands also on that file without
# "weights": stdout and each --out / --dump-model file, digested byte for
# byte; the gap-report CSV without its ms column, and the --trace documents
# through the cover loop's "iterations" and "checks" and the latency run's
# "steps" and "checks"
CLI_COMMANDS = {
    "gen": ["gen", "--random", "5", "--seed", "4", "--max-weight", "12"],
    "gen-bad-gap": ["gen", "--bad-gap", "12", "--out", "{out}"],
    "atspp": ["atspp", "--in", "{inst}", "--out", "{out}"],
    "atspp-trace": ["atspp", "--in", "{inst}", "--trace", "--out", "{out}"],
    "kperson": ["kperson", "--k", "2", "--in", "{inst}", "--out", "{out}"],
    "kperson-trace": ["kperson", "--k", "2", "--in", "{inst}", "--trace", "--out", "{out}"],
    "multipath": ["multipath", "--k", "2", "--in", "{inst}", "--out", "{out}"],
    "latency": ["latency", "--in", "{inst}", "--out", "{out}"],
    "latency-trace": ["latency", "--in", "{inst}", "--trace", "--out", "{out}"],
    "latency-unweighted": ["latency", "--in", "{plain}", "--out", "{out}"],
    "latency-trace-unweighted": ["latency", "--in", "{plain}", "--trace", "--out", "{out}"],
    "lp-bound-alpha": ["lp-bound", "--alpha", "1/2", "--in", "{inst}", "--out", "{out}",
                       "--dump-model", "{model}"],
    "lp-bound-latency": ["lp-bound", "--latency", "--in", "{inst}", "--out", "{out}",
                         "--dump-model", "{model}"],
    "lp-bound-latency-unweighted": ["lp-bound", "--latency", "--in", "{plain}",
                                    "--out", "{out}", "--dump-model", "{model}"],
    "oracle-atspp": ["oracle", "--problem", "atspp", "--in", "{inst}", "--out", "{out}"],
    "oracle-latency": ["oracle", "--problem", "latency", "--in", "{inst}", "--out", "{out}"],
    "oracle-kperson": ["oracle", "--problem", "kperson", "--k", "3", "--in", "{inst}",
                       "--out", "{out}"],
    "gap-report": ["gap-report", "--count", "3", "--nmin", "4", "--nmax", "5",
                   "--seed", "7", "--max-weight", "20"],
    "gap-report-out": ["gap-report", "--count", "2", "--nmin", "5", "--nmax", "6",
                       "--seed", "1", "--out", "{out}"],
}

CLI_DIGESTS = {
    "gen": "7675f3b52b9ca3b3",
    "gen-bad-gap": "83d6b2d3de2582cc",
    "atspp": "688c2c3b968d2796",
    "atspp-trace": "7f317a66be10903a",
    "kperson": "4e955462b53cae64",
    "kperson-trace": "9b07754e7a199158",
    "multipath": "4e955462b53cae64",
    "latency": "8ef1b5c4d04de6a8",
    "latency-trace": "2dad3369b8e4130e",
    "latency-unweighted": "2d7098e7f94a64bc",
    "latency-trace-unweighted": "486ffbf0333a28c7",
    "lp-bound-alpha": "93e3f5181ea9af16",
    "lp-bound-latency": "e3c8557485be747d",
    "lp-bound-latency-unweighted": "124634cbcd532507",
    "oracle-atspp": "14e63cfe5ebad82b",
    "oracle-latency": "ea0081d5b66edc28",
    "oracle-kperson": "9742f3d2e4c594c1",
    "gap-report": "87016f3a719195f7",
    "gap-report-out": "86383e5738a2de86",
}


def _without_ms(csv_text):
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in csv_text.splitlines())


def _pinned_view(name, text):
    if name.startswith("gap-report"):
        return _without_ms(text)
    doc = json.loads(text)
    if "trace" not in doc:
        return text
    doc["trace"] = {key: doc["trace"].get(key) for key in ("iterations", "steps", "checks")}
    return doc


def test_cli_outputs_are_pinned(tmp_path, capsys):
    base = metric.gen_random(5, seed=4, max_weight=12)
    inst_file = tmp_path / "inst.json"
    metric.save_instance(metric.MetricInstance(5, 0, 4, base.d,
                                               weights=(1, 3, Fraction(3, 2), 2, 1)),
                         inst_file)
    plain_file = _without_weights(inst_file, tmp_path / "plain.json")
    digests = {}
    for name, command in CLI_COMMANDS.items():
        paths = {key: tmp_path / f"{name}.{key}" for key in ("out", "model")}
        argv = [arg.format(inst=inst_file, plain=plain_file, **paths) for arg in command]
        assert main(argv) == 0, name
        stdout = capsys.readouterr().out
        doc = [_without_ms(stdout) if name.startswith("gap-report") else stdout]
        doc += [_pinned_view(name, paths[key].read_text())
                for key in ("out", "model") if paths[key].exists()]
        digests[name] = hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]
    assert digests == CLI_DIGESTS

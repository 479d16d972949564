import csv
import json

import pytest

from asympath import metric
from asympath.cli import GAP_REPORT_COLUMNS, gap_report_rows, main


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


def test_unweighted_latency_on_weighted_file(tmp_path, capsys):
    inst = metric.gen_random(5, seed=4, max_weight=12)
    inst_file = tmp_path / "weighted.json"
    metric.save_instance(metric.MetricInstance(5, 0, 4, inst.d, weights=(1, 2, 3, 4, 5)),
                         inst_file)
    assert main(["latency", "--in", str(inst_file)]) == 0
    assert main(["latency", "--weighted", "--in", str(inst_file)]) == 0
    assert "total latency:" in capsys.readouterr().out

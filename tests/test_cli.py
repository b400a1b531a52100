"""Tests for the command-line front end."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from cardcvar import cli, ingest, numeric
from test_acceptance import make_instance

ORLIB_1 = "1\n0.01 0.05\n1 1 1.0\n"

ORLIB_3 = (
    "3\n"
    "0.02 0.08\n"
    "0.01 0.05\n"
    "0.03 0.10\n"
    "1 1 1.0\n2 2 1.0\n3 3 1.0\n"
    "1 2 0.2\n1 3 -0.1\n2 3 0.3\n"
)


def write_scenario_file(path, scenarios):
    with open(path, "w") as out:
        ingest.write_scenarios(scenarios, out)
    return str(path)


def write_two_asset_fixture(path):
    """Single scenario r = (0.1, 0.2)."""
    return write_scenario_file(path, np.array([[0.1, 0.2]]))


def write_random_fixture(path, rng, s, n):
    return write_scenario_file(path, rng.normal(0.01, 0.05, size=(s, n)))


def test_gen_header_and_determinism(tmp_path):
    orlib = tmp_path / "moments.txt"
    orlib.write_text(ORLIB_1)
    out_a = tmp_path / "a.scen"
    out_b = tmp_path / "b.scen"
    args = ["gen", "--orlib", str(orlib), "--scenarios", "2", "--seed", "9"]
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_text().startswith("2 1\n")
    assert out_a.read_bytes() == out_b.read_bytes()
    out_c = tmp_path / "c.scen"
    assert cli.main(["gen", "--orlib", str(orlib), "--scenarios", "2",
                     "--seed", "10", "--out", str(out_c)]) == 0
    assert out_a.read_bytes() != out_c.read_bytes()


def test_gen_scale_shifts_means(tmp_path):
    orlib = tmp_path / "moments.txt"
    orlib.write_text(ORLIB_1)
    out = tmp_path / "scaled.scen"
    assert cli.main(["gen", "--orlib", str(orlib), "--scenarios", "4000",
                     "--seed", "1", "--scale", "100", "--out",
                     str(out)]) == 0
    scen, _ = ingest.parse_scenarios(out.read_text())
    # mean 0.01 and stddev 0.05 both scale by 100
    assert abs(scen.mean() - 1.0) < 4 * 5.0 / np.sqrt(4000)


def test_solve_two_asset_fixture(tmp_path, capsys):
    scen = write_two_asset_fixture(tmp_path / "two.scen")
    report = tmp_path / "report.json"
    code = cli.main(["solve", "--scenarios", scen, "--k", "1", "--method",
                     "bcp", "--gamma", "1", "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["status"] == "Optimal"
    assert doc["obj"] == pytest.approx(0.3, abs=1e-6)
    assert doc["selection"] == [0, 1]
    assert doc["weights"] == pytest.approx([0.0, 1.0], abs=1e-6)
    assert doc["config"]["gamma"] == 1.0
    assert doc["config"]["beta"] == 0.9
    line = capsys.readouterr().out.strip().splitlines()[-1]
    fields = line.split()
    assert fields[0] == "bcp"
    assert float(fields[1]) == pytest.approx(0.3, abs=1e-6)
    assert len(fields) == 6


def test_solve_oracle_matches_bcp(tmp_path):
    scen = write_two_asset_fixture(tmp_path / "two.scen")
    rep_b = tmp_path / "bcp.json"
    rep_o = tmp_path / "oracle.json"
    assert cli.main(["solve", "--scenarios", scen, "--k", "1", "--method",
                     "bcp", "--gamma", "1", "--report", str(rep_b)]) == 0
    assert cli.main(["solve", "--scenarios", scen, "--k", "1", "--method",
                     "oracle", "--gamma", "1", "--report", str(rep_o)]) == 0
    obj_b = json.loads(rep_b.read_text())["obj"]
    obj_o = json.loads(rep_o.read_text())["obj"]
    assert obj_b == pytest.approx(obj_o, abs=1e-7)


def test_all_methods_agree(tmp_path):
    rng = np.random.default_rng(31)
    scen = write_random_fixture(tmp_path / "r.scen", rng, 25, 5)
    objs = {}
    for method in cli.METHODS:
        report = tmp_path / f"{method}.json"
        assert cli.main(["solve", "--scenarios", scen, "--k", "2",
                         "--method", method, "--report", str(report)]) == 0
        objs[method] = json.loads(report.read_text())["obj"]
    ref = objs["oracle"]
    for method, obj in objs.items():
        assert obj == pytest.approx(ref, abs=3e-5), method


def test_solve_time_limit_exit_code(tmp_path):
    scen = write_two_asset_fixture(tmp_path / "two.scen")
    report = tmp_path / "report.json"
    code = cli.main(["solve", "--scenarios", scen, "--k", "1", "--method",
                     "bcp", "--time-limit", "0", "--report", str(report)])
    assert code == 2
    doc = json.loads(report.read_text())
    assert doc["status"] == "TimeLimit"
    assert doc["gap_pct"] > 0


def test_solve_infeasible_exit_code(tmp_path):
    scen = write_two_asset_fixture(tmp_path / "two.scen")
    report = tmp_path / "report.json"
    code = cli.main(["solve", "--scenarios", scen, "--k", "1", "--method",
                     "bcp", "--mu-bar", "0.5", "--report", str(report)])
    assert code == 3
    assert json.loads(report.read_text())["status"] == "Infeasible"


def test_report_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    scen = write_random_fixture(tmp_path / "r.scen", rng, 20, 4)
    report = tmp_path / "report.json"
    assert cli.main(["solve", "--scenarios", scen, "--k", "2", "--method",
                     "bcp", "--report", str(report)]) == 0
    config, rep = cli.load_report(report)
    rewritten = tmp_path / "again.json"
    cli.write_report(rewritten, config, rep)
    assert report.read_bytes() == rewritten.read_bytes()
    assert config.method == "bcp"
    assert config.k == 2
    assert rep.n_cuts >= 1
    assert rep.selection.count() <= 2


def test_usage_errors_exit_one(tmp_path, capsys):
    assert cli.main([]) == 1
    assert cli.main(["solve"]) == 1
    assert cli.main(["solve", "--scenarios", "x", "--k", "1", "--method",
                     "nope", "--report", "r"]) == 1
    assert cli.main(["solve", "--scenarios", "x", "--k", "1", "--method",
                     "bcp", "--gamma", "bogus", "--report", "r"]) == 1
    assert cli.main(["solve", "--scenarios", str(tmp_path / "missing.scen"),
                     "--k", "1", "--method", "bcp", "--report", "r"]) == 1
    capsys.readouterr()


def test_nan_parameter_exit_one(tmp_path, capsys):
    # NaN would switch the gap test off: one error line, no report
    scen = write_two_asset_fixture(tmp_path / "two.scen")
    report = tmp_path / "r.json"
    code = cli.main(["solve", "--scenarios", scen, "--k", "1", "--method",
                     "bcp", "--eps", "nan", "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not report.exists()


def test_malformed_scenario_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.scen"
    bad.write_text("2 2\n0.1 0.2\n")
    assert cli.main(["solve", "--scenarios", str(bad), "--k", "1",
                     "--method", "bcp", "--report",
                     str(tmp_path / "r.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_bench_grid_and_determinism(tmp_path):
    orlib = tmp_path / "moments.txt"
    orlib.write_text(ORLIB_3)
    cfg = {"instances": [{"name": "p1", "orlib": str(orlib), "seed": 3}],
           "methods": ["bcp", "cp"], "S": [12, 20], "k": [2],
           "gamma": ["auto"]}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["bench", "--config", str(cfg_path), "--out",
                     str(out_a)]) == 0
    assert cli.main(["bench", "--config", str(cfg_path), "--out",
                     str(out_b)]) == 0
    lines = out_a.read_text().strip().splitlines()
    assert lines[0] == "instance,method,S,k,gamma,obj,gap_pct,time_sec,nodes,cuts,status"
    assert len(lines) == 5
    for line in lines[1:]:
        assert line.split(",")[-1] == "Optimal"
    obj_col = [ln.split(",")[5] for ln in lines[1:]]
    obj_col_b = [ln.split(",")[5]
                 for ln in out_b.read_text().strip().splitlines()[1:]]
    assert obj_col == obj_col_b


def test_bench_records_failures_and_continues(tmp_path, capsys):
    orlib = tmp_path / "moments.txt"
    orlib.write_text(ORLIB_3)
    cfg = {"instances": [{"name": "p1", "orlib": str(orlib), "seed": 3}],
           "methods": ["bcp"], "S": [10], "k": [9, 2], "gamma": ["auto"]}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert cli.main(["bench", "--config", str(cfg_path), "--out",
                     str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[-1] == "Error"
    assert lines[2].split(",")[-1] == "Optimal"
    assert "failed" in capsys.readouterr().err



def test_bench_non_numeric_gamma_is_an_error_row(tmp_path, capsys):
    """A gamma that is no number fails its own cell, which records the
    configured value; the sweep goes on to the next cell."""
    orlib = tmp_path / "moments.txt"
    orlib.write_text(ORLIB_3)
    cfg = {"instances": [{"name": "p1", "orlib": str(orlib), "seed": 3}],
           "methods": ["bcp"], "S": [10], "k": [2], "gamma": ["x", "auto"]}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert cli.main(["bench", "--config", str(cfg_path), "--out",
                     str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[4] == "x"
    assert lines[1].split(",")[-1] == "Error"
    assert lines[2].split(",")[-1] == "Optimal"
    assert "failed" in capsys.readouterr().err

def test_run_config_round_trips_through_dict():
    config = cli.RunConfig(method="cp", k=3, gamma=2.5, mu_bar=0.1,
                           paths={"scenarios": "s", "report": "r"})
    again = cli.RunConfig(**asdict(config))
    assert asdict(again) == asdict(config)


def test_solver_failure_exit_four(tmp_path, capsys):
    # bigm's k = 1 root relaxation has no interior on this instance, so its
    # IPM fails: the CLI reports one error line, not a traceback
    inst = make_instance(103, 7, 40, 1)
    scen = write_scenario_file(tmp_path / "fail.scen", inst.scenarios)
    report = tmp_path / "r.json"
    code = cli.main(["solve", "--scenarios", str(scen), "--k", "1",
                     "--method", "bigm", "--report", str(report)])
    assert code == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not report.exists()


def test_unfinished_feasibility_check_exit_four(tmp_path, capsys,
                                                monkeypatch):
    # the CLI builds one side row, the return floor, under which
    # feasibility is decided by unit vertices and phase 1 never runs; the
    # stopped active-set method surfaces in the portfolio extraction at
    # bigm's incumbent, a solver failure, not an infeasible instance (a
    # stopped phase 1 is tested in test_driver)
    monkeypatch.setattr(numeric, "_active_set",
                        lambda prog, x, work: numeric._stopped(
                            numeric.ITER_LIMIT, prog, x, work, 1))
    scen = write_random_fixture(tmp_path / "r.scen",
                                np.random.default_rng(5), 30, 4)
    report = tmp_path / "r.json"
    code = cli.main(["solve", "--scenarios", scen, "--k", "2",
                     "--method", "bigm", "--report", str(report)])
    assert code == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "lower-level QP ended with status IterLimit" in err[0]
    assert not report.exists()

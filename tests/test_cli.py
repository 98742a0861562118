"""End-to-end tests for the command-line frontend's exit-code contract."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fragvrp.cli as cli
from fragvrp.instance import (Instance, SolverConfig, Task,
                              TemporalDependency, load_instance,
                              save_instance)
from fragvrp.oracle import brute_force_optimal

from support import random_instance

SOLOMON_SAMPLE = """\
T9

VEHICLE
NUMBER CAPACITY
5 40

CUSTOMER
CUST NO. XCOORD. YCOORD. DEMAND READY DUE SERVICE

0 10 10 0 0 60 0
1 13 14 4 0 50 2
2 6 7 3 5 45 2
3 15 10 5 0 50 2
4 10 16 2 10 55 2
"""


def make_instance(n=2, K=2, deps=(), horizon=40):
    tasks = [Task(0, 0, horizon, 0, 0)]
    tasks += [Task(v, 0, horizon - 8, 1, 2) for v in range(1, n + 1)]
    t = [[3 * abs(i - j) for j in range(n + 1)] for i in range(n + 1)]
    return Instance(tasks, t, t, K, 8, horizon, list(deps))


@pytest.fixture
def inst_path(tmp_path):
    p = tmp_path / "inst.json"
    save_instance(make_instance(), p)
    return str(p)


@pytest.fixture
def infeasible_path(tmp_path):
    # synchronized pair, one vehicle: same route forces distinct starts
    sync = TemporalDependency(1, 2, 0, 0, 0, 0)
    p = tmp_path / "bad.json"
    save_instance(make_instance(K=1, deps=[sync]), p)
    return str(p)


class TestSolve:
    def test_optimal_exit_zero(self, inst_path, capsys):
        assert cli.main(["solve", inst_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "optimal"
        cost, _ = brute_force_optimal(load_instance(inst_path))
        assert doc["ub"] == cost
        served = sorted(v for r in doc["routes"] for v in r)
        assert served == [1, 2]
        # the converged LP is integral here, so no MILP ran
        assert doc["stats"]["first_incumbent"] == "lp"
        assert "initial_ub" not in doc["stats"]["wall_times"]
        # no dependency, so no set needs a V_min
        assert doc["stats"]["vmin_searches"] == 0

    @pytest.mark.parametrize("flag, value", [("--time-limit", "nan"),
                                             ("--time-limit", "-5"),
                                             ("--f-max", "-3")])
    def test_invalid_budget_exit_three(self, inst_path, flag, value, capsys):
        # a NaN time limit used to mean no limit, a negative one to stop
        # at once with time-limit, and a negative f_max was accepted
        assert cli.main(["solve", inst_path, flag, value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be nonnegative" in captured.err

    @pytest.mark.parametrize("flag, value, rc", [("--time-limit", "inf", 0),
                                                 ("--time-limit", "0", 1),
                                                 ("--f-max", "0", 0)])
    def test_boundary_budgets_accepted(self, inst_path, flag, value, rc,
                                       capsys):
        assert cli.main(["solve", inst_path, flag, value]) == rc
        json.loads(capsys.readouterr().out)

    def test_out_file(self, inst_path, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert cli.main(["solve", inst_path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["status"] == "optimal"

    def test_limit_exit_one_with_bounds(self, inst_path, capsys):
        rc = cli.main(["solve", inst_path, "--time-limit", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "stopped: time-limit" in captured.err
        doc = json.loads(captured.out)
        assert doc["status"] == "time-limit"
        assert "first_incumbent" not in doc["stats"]

    def test_fragment_limit_exit_one_with_bounds(self, tmp_path, capsys):
        # the first incumbent, 53, leaves a gap, and no pool fits f_max 0
        p = tmp_path / "gap.json"
        save_instance(random_instance(np.random.default_rng(148),
                                      n_tasks=7), p)
        rc = cli.main(["solve", str(p), "--f-max", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "stopped: fragment-limit, bounds [49.0, 53.0]" in captured.err
        doc = json.loads(captured.out)
        assert doc["status"] == "fragment-limit"
        assert math.isfinite(doc["lb"]) and doc["lb"] <= doc["ub"] == 53

    def test_infeasible_exit_two(self, infeasible_path, capsys):
        assert cli.main(["solve", infeasible_path]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "infeasible"

    def test_missing_file_exit_three(self, tmp_path, capsys):
        rc = cli.main(["solve", str(tmp_path / "nope.json")])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_triangle_violation_exit_three(self, tmp_path, capsys):
        # 1 -> 2 costs 9 directly but 2 through the depot
        t = [[0, 1, 1], [1, 0, 9], [1, 9, 0]]
        tasks = [Task(0, 0, 40, 0, 0), Task(1, 0, 30, 1, 2),
                 Task(2, 0, 30, 1, 2)]
        p = tmp_path / "skewed.json"
        save_instance(Instance(tasks, t, t, 2, 8, 40, []), p)
        rc = cli.main(["solve", str(p)])
        assert rc == 3
        assert "triangle inequality" in capsys.readouterr().err

    def test_unknown_flag_exit_three(self, inst_path, capsys):
        rc = cli.main(["solve", inst_path, "--bogus"])
        assert rc == 3
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gap-init", "--gap-step",
                                      "--t-guess", "--k-max", "--ng-size"])
    def test_tuning_flag_exit_three(self, inst_path, capsys, flag):
        # the method's tuning values are constants, not solve options
        rc = cli.main(["solve", inst_path, flag, "1"])
        assert rc == 3
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err

    def test_internal_error_exit_four(self, inst_path, capsys, monkeypatch):
        def boom(inst, cfg):
            raise RuntimeError("wedged")
        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["solve", inst_path]) == 4
        assert "internal error: RuntimeError" in capsys.readouterr().err


class TestOracleAndArc:
    def test_oracle_matches_solver(self, inst_path, capsys):
        assert cli.main(["oracle", inst_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        cost, _ = brute_force_optimal(load_instance(inst_path))
        assert doc["cost"] == cost
        assert set(doc["start_times"]) == {"1", "2"}

    def test_oracle_infeasible(self, infeasible_path, capsys):
        assert cli.main(["oracle", infeasible_path]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_oracle_rejects_large_instances(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        save_instance(make_instance(n=10, K=4, horizon=120), p)
        assert cli.main(["oracle", str(p)]) == 3

    def test_arc_agrees(self, inst_path, capsys):
        assert cli.main(["arc", inst_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        cost, _ = brute_force_optimal(load_instance(inst_path))
        assert doc["lb"] == doc["ub"] == cost

    def test_arc_infeasible(self, infeasible_path, capsys):
        assert cli.main(["arc", infeasible_path]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["lb"] is None and doc["ub"] is None


class TestGenerate:
    def test_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "t9.txt"
        src.write_text(SOLOMON_SAMPLE)
        out = tmp_path / "gen.json"
        rc = cli.main(["generate", "--solomon", str(src), "--kind", "syn",
                       "--sigma", "0.5", "--seed", "6", "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().err
        inst = load_instance(out)
        assert inst.n == 4
        assert inst.meta["kind"] == "synchronization"
        assert len(inst.deps) == inst.meta["dependencies_added"] >= 1

    def test_take_truncates(self, tmp_path, capsys):
        src = tmp_path / "t9.txt"
        src.write_text(SOLOMON_SAMPLE)
        out = tmp_path / "gen.json"
        rc = cli.main(["generate", "--solomon", str(src), "--take", "2",
                       "--kind", "overlap", "--sigma", "0", "--seed", "1",
                       "--out", str(out)])
        assert rc == 0
        assert load_instance(out).n == 2

    def test_malformed_source(self, tmp_path, capsys):
        src = tmp_path / "junk.txt"
        src.write_text("VEHICLE\n1 2 3 4\n")
        rc = cli.main(["generate", "--solomon", str(src), "--kind", "syn",
                       "--sigma", "0.5", "--seed", "6",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 3


class TestVerify:
    def solve_to_file(self, inst_path, tmp_path):
        sol = tmp_path / "sol.json"
        assert cli.main(["solve", inst_path, "--out", str(sol)]) == 0
        return sol

    def test_roundtrip_passes(self, inst_path, tmp_path, capsys):
        sol = self.solve_to_file(inst_path, tmp_path)
        assert cli.main(["verify", inst_path, str(sol)]) == 0
        assert "verification passed" in capsys.readouterr().out

    def test_tampered_cost_fails(self, inst_path, tmp_path, capsys):
        sol = self.solve_to_file(inst_path, tmp_path)
        doc = json.loads(sol.read_text())
        doc["ub"] += 1
        sol.write_text(json.dumps(doc))
        assert cli.main(["verify", inst_path, str(sol)]) == 2
        assert "claimed cost" in capsys.readouterr().err

    def test_tampered_schedule_fails(self, inst_path, tmp_path, capsys):
        sol = self.solve_to_file(inst_path, tmp_path)
        doc = json.loads(sol.read_text())
        key = sorted(doc["start_times"])[0]
        doc["start_times"][key] = 9999
        sol.write_text(json.dumps(doc))
        assert cli.main(["verify", inst_path, str(sol)]) == 2

    def test_empty_routes_fail(self, inst_path, tmp_path, capsys):
        sol = tmp_path / "empty.json"
        sol.write_text(json.dumps({"routes": [], "start_times": {},
                                   "order_vars": {}, "ub": 0}))
        assert cli.main(["verify", inst_path, str(sol)]) == 2

    def test_malformed_solution(self, inst_path, tmp_path, capsys):
        sol = tmp_path / "junk.json"
        sol.write_text("{\"routes\": 7}")
        assert cli.main(["verify", inst_path, str(sol)]) == 3

    def max_diff_case(self, tmp_path, starts, bit):
        """Tasks 1 [0, 10] and 2 [20, 40] on separate routes under a
        max-diff of 15; returns the (instance, solution) paths."""
        tasks = [Task(0, 0, 100, 0, 0), Task(1, 0, 10, 0, 1),
                 Task(2, 20, 40, 0, 1)]
        t = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        dep = TemporalDependency(1, 2, 0, 15, 0, 15)
        inst = tmp_path / "maxdiff.json"
        save_instance(Instance(tasks, t, t, 2, 10, 100, [dep]), inst)
        sol = tmp_path / "maxdiff-sol.json"
        sol.write_text(json.dumps({
            "routes": [[1], [2]], "order_vars": {"1,2": bit}, "ub": 4,
            "start_times": {"1": starts[0], "2": starts[1]}}))
        return str(inst), str(sol)

    def test_order_bit_outside_zero_one_fails(self, tmp_path, capsys):
        # b_2 - b_1 = 25 breaks the max-diff; a bit of 2 must not scale
        # the order rows until they admit it
        for bit in (1, 2, -1):
            paths = self.max_diff_case(tmp_path, (1, 26), bit)
            assert cli.main(["verify", *paths]) == 2
        paths = self.max_diff_case(tmp_path, (10, 20), 1)
        assert cli.main(["verify", *paths]) == 0

    def test_fractional_values_are_malformed(self, tmp_path, capsys):
        # 20.5 would be read as the feasible 20
        paths = self.max_diff_case(tmp_path, (10, 20.5), 1)
        assert cli.main(["verify", *paths]) == 3
        assert "not an integer" in capsys.readouterr().err
        paths = self.max_diff_case(tmp_path, (10, 20), 1.5)
        assert cli.main(["verify", *paths]) == 3
        paths = self.max_diff_case(tmp_path, (10.0, 20), 1)
        assert cli.main(["verify", *paths]) == 0


class TestBench:
    def test_manifest_to_csv(self, inst_path, tmp_path, capsys):
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps([inst_path]))
        assert cli.main(["bench", str(mf)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("instance,status,lb,ub")
        assert ",optimal," in out

    def test_out_file(self, inst_path, tmp_path, capsys):
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps([inst_path]))
        table = tmp_path / "res.csv"
        assert cli.main(["bench", str(mf), "--out", str(table)]) == 0
        assert table.read_text().startswith("instance,status")

    def test_missing_manifest(self, tmp_path, capsys):
        assert cli.main(["bench", str(tmp_path / "none.json")]) == 3


def test_config_holds_the_solve_flags():
    # one SolverConfig field per `fragvrp solve` option, with the same
    # default, and every field read by the solver
    args = vars(cli._build_parser().parse_args(["solve", "inst.json"]))
    flags = set(args) - {"command", "instance", "out", "func"}
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == flags == {"time_limit", "f_max"}
    assert all(args[name] == getattr(SolverConfig(), name) for name in flags)
    src = "".join(p.read_text()
                  for p in Path(cli.__file__).resolve().parent.glob("*.py"))
    for name in fields:
        assert re.search(r"\bcfg\.%s\b" % name, src), name


def test_console_script_help():
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "fragvrp.cli", "--help"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0
    for word in ("solve", "oracle", "generate", "verify", "bench"):
        assert word in res.stdout


def test_solve_stdout_is_json(tmp_path):
    # HiGHS writes diagnostic lines from C onto file descriptor 1 while
    # solving this instance's MILPs; stdout must still be one JSON
    # document.  Without PYTHONUNBUFFERED C stdio buffers those lines, so
    # they leak unless they are flushed before the descriptor comes back
    src = Path(cli.__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(src.parent),
                                         os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    inst = tmp_path / "inst.json"
    assert cli.main(["generate", "--solomon", str(src / "data" / "S101.txt"),
                     "--take", "22", "--kind", "non-overlap", "--sigma",
                     "0.3", "--seed", "7", "--out", str(inst)]) == 0
    res = subprocess.run([sys.executable, "-m", "fragvrp.cli", "solve",
                          str(inst)], capture_output=True, text=True,
                         env=dict(env, PYTHONPATH=path))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["status"] == "optimal" and doc["lb"] == doc["ub"] == 323
    # the LP is fractional: the first incumbent, 324, is the MILP's
    assert doc["stats"]["first_incumbent"] == "milp"

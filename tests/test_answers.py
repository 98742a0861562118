"""The answer-fingerprint harness (answers.py) on its tier-1 slice."""

import answers
from fragvrp import driver


def test_slice_is_deterministic_and_shows_a_changed_round(monkeypatch):
    first = answers.fingerprints(answers.SLICE)
    assert list(first) == list(answers.SLICE)
    assert answers.diff(first, answers.fingerprints(answers.SLICE)) == []
    assert all(answers.oracle_fault(fp) is None for fp in first.values())
    assert any(fp["stats"]["rounds"] for fp in first.values())
    assert all(fp["lp"]["solve_lp"]["calls"] > 0 for fp in first.values()
               if fp["status"] != "infeasible")
    # without a first-incumbent MILP the round runs on the gap schedule
    monkeypatch.setattr(driver, "T_GUESS", 0.0)
    lines = answers.diff(first, answers.fingerprints(answers.SLICE))
    assert any(".stats.rounds" in line for line in lines), lines


def test_diff_names_each_differing_field():
    a = {"x": {"status": "optimal", "lb": 1.0, "lp": {"n": 1}}}
    b = {"x": {"status": "optimal", "lb": 2.0}, "y": {}}
    assert answers.diff(a, b) == ["x.lb: 1.0 != 2.0", "x.lp: only in A",
                                  "y: only in B"]


def test_answers_diff_ignores_the_path(tmp_path, capsys):
    a = {"x": {"status": "optimal", "lb": 1.0, "ub": 2.0, "oracle": 2.0,
               "stats": {"n": 1}, "routes": [[0, 1, 0]], "lp": {"n": 1}},
         "y": {"status": "infeasible", "lb": None, "ub": None,
               "stats": {"n": 1}}}
    b = {"x": dict(a["x"], stats={"n": 2}, lp={"n": 2}),
         "y": dict(a["y"], stats={"n": 2})}
    paths = []
    for name, doc in (("a", a), ("b", b)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            answers.json.dump(doc, fh)
    assert answers.main(["diff", *paths, "--answers"]) == 0
    assert "2 in stats, 0 in routes, 1 in lp" in capsys.readouterr().out
    assert answers.main(["diff", *paths]) == 1
    b["y"]["status"] = "optimal"
    with open(paths[1], "w", encoding="utf-8") as fh:
        answers.json.dump(b, fh)
    assert answers.main(["diff", *paths, "--answers"]) == 1
    assert "y.status" in capsys.readouterr().out

"""Microbenchmarks of the restricted master: assembly, LP and integer
solve.

    python -m pytest benchmarks/bench_master.py

Like ``bench_labels.py``, the file name keeps it out of a plain
``pytest`` run.  The master is the last restricted MILP of the
``gap-loop`` S101 instance of the end-to-end benchmark (S101, first 22
tasks, max-diff, sigma 0.2, dependency seed 7): the last gap round's
only master, which holds the initial columns and the fragments that
round kept once ``keep_undominated`` and the two reduce passes have
dropped the rest, as its final integer solve leaves it.
``_assemble`` gathers the master's stored (row, column, value) triplets
into arrays and stacks the column costs and bounds; ``solve_relaxation``
and ``solve_integer`` assemble, build HiGHS's column-wise model from the
triplets and run it.  ``test_solve_integer`` finds and proves the
round's optimum, the incumbent; ``test_solve_integer_below_incumbent``
is the solve a gap round makes, with the objective cutoff one below the
incumbent, which proves that nothing cheaper exists.  ``test_round_milp``
makes that solve over the round's pool before the reduce passes, as
enumerated ("full") and as ``keep_undominated`` filters it
("undominated"), so the two read side by side.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import fragvrp
from fragvrp import bench, driver
from fragvrp.enumeration import keep_undominated

DATA = Path(fragvrp.__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def last_master():
    """The last master ``_restricted_master`` built in the solve, the
    last gap round's one master after its rejected columns were dropped;
    the solve's state; and that round's pool as enumerated."""
    data = bench.load_solomon(DATA / "S101.txt")
    inst = bench.generate_dependencies(data.instance(take=22), "max-diff",
                                       0.2, 7)
    built = []
    make = driver._restricted_master

    def record(*args, **kwargs):
        m = make(*args, **kwargs)
        built.append(m)
        return m

    pools = []
    keep = driver.keep_undominated

    def filtered(pool, rows):
        pools.append(pool)
        return keep(pool, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "_restricted_master", record)
        mp.setattr(driver, "keep_undominated", filtered)
        state = driver.run(inst)
    assert state.status == "optimal" and state.stats["rounds"]
    # the master, the solve's state, the last round's pool as enumerated
    return built[-1], state, pools[-1]


def test_assemble(benchmark, last_master):
    m, _, _ = last_master
    (rows, cols, vals), obj, lb, ub, senses, rhs = benchmark(m._assemble)
    assert len(rows) == len(cols) == len(vals)
    assert rows.max() < len(rhs) and cols.max() < len(obj)
    assert len(obj) > len(m.fragments)


def test_solve_relaxation(benchmark, last_master):
    m, state, _ = last_master
    sol = benchmark(m.solve_relaxation)
    assert sol.status == "optimal"
    assert sol.objective <= state.ub_sol


def test_solve_integer(benchmark, last_master):
    m, state, _ = last_master
    sol = benchmark(m.solve_integer)
    assert sol.status == "optimal"
    assert round(sol.objective) == state.ub_sol


def test_solve_integer_below_incumbent(benchmark, last_master):
    m, state, _ = last_master
    sol = benchmark(m.solve_integer, cutoff=state.ub_sol - 1 + 1e-6)
    assert sol.status == "infeasible"


@pytest.mark.parametrize("pool", ["full", "undominated"])
def test_round_milp(benchmark, last_master, pool):
    m, state, enumerated = last_master
    frags = enumerated
    if pool == "undominated":
        frags = keep_undominated(enumerated, m.cuts)
        assert len(frags) < len(enumerated)
    rm = driver._restricted_master(m.inst, m.cuts, frags)
    assert len(rm.fragments) > len(m.fragments)
    sol = benchmark(rm.solve_integer, cutoff=state.ub_sol - 1 + 1e-6)
    assert sol.status == "infeasible"

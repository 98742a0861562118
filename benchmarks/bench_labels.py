"""Microbenchmarks of the label kernel: pricing and enumeration.

    python -m pytest benchmarks/bench_labels.py

The file name keeps it out of a plain ``pytest`` run, which only collects
``test_*.py``; naming the file on the command line collects it.  The
instances are the two ``few-deps`` ones of the end-to-end benchmark
(S101 and S102, first 25 tasks, synchronization, sigma 0.1, dependency
seed 7), after preprocessing.  Pricing runs ``labels_from`` from every
start task at two sets of duals: those of the initial master, which is
the first pricing call of every solve and the one with the fullest
dominance buckets (35 labels in the end's bucket at an insertion, on
average, on both instances), and those the lower bound ends with (4-6).
Enumeration runs at the final duals and the gap the driver enumerates
at once it holds an incumbent, ub - 1 - lb, with ub the first
incumbent's cost.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import fragvrp
from fragvrp import bench
from fragvrp.cuts import VminCalculator
from fragvrp.driver import compute_lower_bound, initial_upper_bound
from fragvrp.enumeration import enumerate_fragments
from fragvrp.master import build_initial
from fragvrp.preprocess import preprocess
from fragvrp.pricing import NG_SIZE, CostEnv, labels_from, ng_neighborhoods

DATA = Path(fragvrp.__file__).resolve().parent / "data"


@pytest.fixture(scope="module", params=["S101", "S102"])
def prepared(request):
    data = bench.load_solomon(DATA / ("%s.txt" % request.param))
    inst = bench.generate_dependencies(data.instance(take=25),
                                       "synchronization", 0.1, 7)
    return preprocess(inst).instance


@pytest.fixture(scope="module")
def priced(prepared):
    lbres = compute_lower_bound(prepared)
    assert lbres.status == "optimal"
    return prepared, lbres


@pytest.fixture(scope="module")
def first_duals(prepared):
    sol = build_initial(prepared, VminCalculator(prepared)).solve_relaxation()
    assert sol.status == "optimal"
    return sol.duals


def price_every_start(benchmark, inst, duals):
    env = CostEnv(duals, inst)
    ng = ng_neighborhoods(inst, NG_SIZE)
    starts = [0] + sorted(inst.vd)

    def price():
        return [labels_from(s, env, ng) for s in starts]

    assert sum(len(labs) for labs in benchmark(price)) > 0


def test_labels_from(benchmark, priced):
    inst, lbres = priced
    price_every_start(benchmark, inst, lbres.duals)


def test_labels_from_first_call(benchmark, prepared, first_duals):
    price_every_start(benchmark, prepared, first_duals)


def test_enumerate_fragments(benchmark, priced):
    inst, lbres = priced
    ub, _ = initial_upper_bound(lbres.columns, lbres.cuts, inst)
    gap = max(0.0, ub - 1 - lbres.lb)
    pool = benchmark(enumerate_fragments, lbres.duals, gap, inst)
    assert pool

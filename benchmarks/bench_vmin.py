"""Microbenchmarks of FSEC rows: V_min, start-time checks, separation.

    python -m pytest benchmarks/bench_vmin.py

Like ``bench_labels.py``, the file name keeps it out of a plain
``pytest`` run.  The sets are those the lower bound of the ``many-deps``
S102 instance of the end-to-end benchmark (S102, first 15 tasks,
min-diff, sigma 0.5, dependency seed 7) asks a V_min question about,
threshold or exact, in the order first asked.  ``vmin`` computes each
exactly with a fresh calculator, so no answer comes from the memo;
``schedule_routes`` checks each set once as one route in id order and
once as one route per task.  ``separate_fsec`` replays the support and
the cut keys of every FSEC separation that lower bound makes, each with
a fresh calculator.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import fragvrp
from fragvrp import bench
from fragvrp import cuts as cutlib
from fragvrp.cuts import VminCalculator
from fragvrp.driver import compute_lower_bound
from fragvrp.preprocess import preprocess
from fragvrp.scheduling import schedule_routes

DATA = Path(fragvrp.__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def s102():
    data = bench.load_solomon(DATA / "S102.txt")
    inst = bench.generate_dependencies(data.instance(take=15), "min-diff",
                                       0.5, 7)
    return preprocess(inst).instance


@pytest.fixture(scope="module")
def asked(s102):
    sets = {}
    vmin, exceeds = VminCalculator.vmin, VminCalculator.exceeds

    def record_vmin(self, S):
        sets.setdefault(tuple(sorted(S)), None)
        return vmin(self, S)

    def record_exceeds(self, S, k):
        sets.setdefault(tuple(sorted(S)), None)
        return exceeds(self, S, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VminCalculator, "vmin", record_vmin)
        mp.setattr(VminCalculator, "exceeds", record_exceeds)
        lbres = compute_lower_bound(s102)
    assert lbres.status == "optimal" and len(sets) > 100
    return s102, list(sets)


def test_vmin(benchmark, asked):
    inst, sets = asked

    def all_exact():
        calc = VminCalculator(inst)
        return [calc.vmin(S) for S in sets]

    values = benchmark(all_exact)
    assert all(1 <= v <= len(S) + 1 for v, S in zip(values, sets))


def test_schedule_routes(benchmark, asked):
    inst, sets = asked

    def check_all():
        return [(schedule_routes([list(S)], inst)[0],
                 schedule_routes([[v] for v in S], inst)[0]) for S in sets]

    verdicts = benchmark(check_all)
    assert len(verdicts) == len(sets)


@pytest.fixture(scope="module")
def separations(s102):
    calls = []
    separate = cutlib.separate_fsec

    def record(support, inst, k_max, vmin_calc, viol_tol, existing):
        calls.append((list(support), k_max, viol_tol, frozenset(existing)))
        return separate(support, inst, k_max, vmin_calc, viol_tol, existing)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cutlib, "separate_fsec", record)
        lbres = compute_lower_bound(s102)
    assert lbres.status == "optimal" and calls
    return s102, calls


def test_separate_fsec(benchmark, separations):
    inst, calls = separations

    def separate_all():
        return [cutlib.separate_fsec(sup, inst, k_max, VminCalculator(inst),
                                     tol, existing)
                for sup, k_max, tol, existing in calls]

    found = benchmark(separate_all)
    assert len(found) == len(calls) and any(found)

"""Microbenchmarks of FSEC right-hand sides: V_min and start-time checks.

    python -m pytest benchmarks/bench_vmin.py

Like ``bench_labels.py``, the file name keeps it out of a plain
``pytest`` run.  The sets are those the lower bound of the ``many-deps``
S102 instance of the end-to-end benchmark (S102, first 15 tasks,
min-diff, sigma 0.5, dependency seed 7) asks a V_min question about,
threshold or exact, in the order first asked.  ``vmin`` computes each
exactly with a fresh calculator, so no answer comes from the memo;
``schedule_routes`` checks each set once as one route in id order and
once as one route per task.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import fragvrp
from fragvrp import bench
from fragvrp.cuts import VminCalculator
from fragvrp.driver import compute_lower_bound
from fragvrp.preprocess import preprocess
from fragvrp.scheduling import schedule_routes

DATA = Path(fragvrp.__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def asked():
    data = bench.load_solomon(DATA / "S102.txt")
    inst = bench.generate_dependencies(data.instance(take=15), "min-diff",
                                       0.5, 7)
    pinst = preprocess(inst).instance
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
        lbres = compute_lower_bound(pinst)
    assert lbres.status == "optimal" and len(sets) > 100
    return pinst, list(sets)


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

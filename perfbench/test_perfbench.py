"""Tests of the benchmark's own code: the answer checks, the tracer and
the determinism guard.  They solve instances of six tasks only."""

import json
import random

import pytest

from perfbench import checks, measure
from perfbench.reference import Reference
from perfbench.tracer import Tracer
from perfbench.workloads import DATA, ROOT

from fragvrp import bench
from fragvrp.instance import TemporalDependency
from fragvrp.oracle import brute_force_optimal


@pytest.fixture(scope="module")
def tiny():
    data = bench.load_solomon(DATA / "S101.txt")
    return bench.generate_dependencies(data.instance(take=6), "min-diff",
                                       0.5, 7)


@pytest.fixture(scope="module")
def witness(tiny):
    cost, sol = brute_force_optimal(tiny)
    return cost, sol


def test_accepts_brute_force_optimum(tiny, witness):
    cost, sol = witness
    assert checks.violations(sol.routes, sol.start_times, sol.orders,
                             tiny) == []
    assert sum(checks.route_cost(r, tiny) for r in sol.routes) == cost


def test_rejects_a_broken_dependency_row(tiny, witness):
    _, sol = witness
    d = tiny.deps[0]
    b = sol.start_times
    # tighten the order the witness took so that its difference misses
    # the new minimum by one; nothing else about the solution changes
    if sol.orders[(d.u, d.v)] == 1:
        diff = b[d.v] - b[d.u]
        tighter = TemporalDependency(d.u, d.v, diff + 1, d.dmax_uv,
                                     d.dmin_vu, d.dmax_vu)
    else:
        diff = b[d.u] - b[d.v]
        tighter = TemporalDependency(d.u, d.v, d.dmin_uv, d.dmax_uv,
                                     diff + 1, d.dmax_vu)
    broken = tiny.replace(dependencies=[tighter, *tiny.deps[1:]])
    found = checks.violations(sol.routes, sol.start_times, sol.orders, broken)
    assert len(found) == 1 and found[0].startswith("dependency (%d,%d)"
                                                   % (d.u, d.v))


def test_rejects_a_missing_order_bit(tiny, witness):
    _, sol = witness
    d = tiny.deps[0]
    orders = {k: v for k, v in sol.orders.items() if k != (d.u, d.v)}
    found = checks.violations(sol.routes, sol.start_times, orders, tiny)
    assert found == ["no order bit for dependency (%d,%d)" % (d.u, d.v)]


def test_rejects_an_overloaded_route(tiny, witness):
    _, sol = witness
    load = max(sum(int(tiny.dem[v]) for v in r) for r in sol.routes)
    found = checks.violations(sol.routes, sol.start_times, sol.orders,
                              tiny.replace(capacity=load - 1))
    assert found and all(" carries " in f for f in found)


def _originals():
    return [(owner, attribute, vars(owner)[attribute])
            for owner, attribute, *_ in measure._wrap_points()]


def test_tracer_restores_every_patched_function(tiny):
    before = _originals()
    solves = []
    tracer = Tracer()
    measure._rounds([tiny], random.Random(1), tracer, True, 0.0,
                    tracer.clock(), 1, solves, Reference())
    assert tracer.spans and solves[0].snapshot["calls"]["driver.run"] == 1
    for owner, attribute, original in before:
        assert vars(owner)[attribute] is original, attribute


def test_two_solves_give_equal_counts(tiny, witness):
    cost, _ = witness
    solves = []
    tracer = Tracer()
    reference = Reference()
    measure._rounds([tiny], random.Random(1), tracer, False, 0.0,
                    tracer.clock(), 2, solves, reference)
    measure._rounds([tiny], random.Random(1), tracer, True, 0.0,
                    tracer.clock(), 1, solves, reference)
    assert len(solves) == 3
    assert solves[0].counts["pricing.extend_label.calls"] > 0
    assert all(s.counts == solves[0].counts for s in solves)
    measure._check(solves, [tiny], [float(cost)])
    assert [s.faults for s in solves] == [[], [], []]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(measure.PER_LAYER)
    from perfbench.workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

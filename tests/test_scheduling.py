import itertools
import time

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fragvrp.instance import Instance, Task, TemporalDependency
from fragvrp.scheduling import (dependency_orders, extend_schedule,
                                schedule_routes)

from support import (random_instance, reference_extend_schedule,
                     set_partitions, with_orders)


def starts_feasible(routes, starts, inst):
    """First-principles re-check of a schedule (disjunctive order reading)."""
    for r in routes:
        if not r:
            continue
        if starts[r[0]] < inst.t[0, r[0]]:
            return False
        last = r[-1]
        if starts[last] + inst.dur[last] + inst.t[last, 0] > inst.tmax:
            return False
        for v in r:
            if not (inst.alpha[v] <= starts[v] <= inst.beta[v]):
                return False
        for a, b in zip(r, r[1:]):
            if starts[b] < starts[a] + inst.dur[a] + inst.t[a, b]:
                return False
    present = {v for r in routes for v in r}
    for d in inst.deps:
        if d.u not in present or d.v not in present:
            continue
        bu, bv = starts[d.u], starts[d.v]
        ok_uv = bu <= bv and d.dmin_uv <= bv - bu <= d.dmax_uv \
            and not (d.dmin_uv == d.dmax_uv == inst.tmax)
        ok_vu = bv <= bu and d.dmin_vu <= bu - bv <= d.dmax_vu \
            and not (d.dmin_vu == d.dmax_vu == inst.tmax)
        if not (ok_uv or ok_vu):
            return False
    return True


def meets_orders(starts, inst, orders):
    """Each scheduled pair in orders starts in the order its bit names
    (1: u first), inside that order's band."""
    for (u, v), bit in orders.items():
        if u not in starts or v not in starts:
            continue
        a, b = (u, v) if bit else (v, u)
        forbidden, dmin, dmax = inst.pair[(a, b)]
        if forbidden or not (starts[a] <= starts[b]
                             and dmin <= starts[b] - starts[a] <= dmax):
            return False
    return True


def brute_schedules(routes, inst):
    """Every feasible integer start combination, by exhaustive search."""
    order = [v for r in routes for v in r]
    ranges = [range(int(inst.alpha[v]), int(inst.beta[v]) + 1) for v in order]
    for combo in itertools.product(*ranges):
        starts = dict(zip(order, combo))
        if starts_feasible(routes, starts, inst):
            yield starts


def brute_feasible(routes, inst):
    return next(brute_schedules(routes, inst), None) is not None


def tiny_instance(windows, deps, horizon=12, travel=1):
    n = len(windows)
    tasks = [Task(0, 0, horizon, 0, 0)]
    for i, (a, b) in enumerate(windows, start=1):
        tasks.append(Task(i, a, b, 1, 1))
    t = np.full((n + 1, n + 1), travel, dtype=np.int64)
    np.fill_diagonal(t, 0)
    return Instance(tasks, t, t, 3, 99, horizon, deps)


class TestScheduleRoutes:
    def test_chain_waits_for_window(self):
        inst = tiny_instance([(0, 10), (5, 10)], [])
        ok, starts, _ = schedule_routes([[1, 2]], inst)
        assert ok
        assert starts[1] == 1          # depot travel
        assert starts[2] == 5          # waits for the window to open

    def test_horizon_return(self):
        inst = tiny_instance([(0, 13)], [], horizon=13, travel=6)
        ok, starts, _ = schedule_routes([[1]], inst)
        assert ok and starts[1] == 6   # pushed up by depot travel
        inst = tiny_instance([(0, 12)], [], horizon=12, travel=6)
        ok, _, _ = schedule_routes([[1]], inst)
        assert not ok                  # 6 out + 1 service + 6 back > 12

    def test_synchronization_across_routes(self):
        dep = TemporalDependency(1, 2, 0, 0, 0, 0)
        inst = tiny_instance([(0, 10), (4, 10)], [dep])
        ok, starts, orders = schedule_routes([[1], [2]], inst)
        assert ok
        assert starts[1] == starts[2] == 4
        assert orders[(1, 2)] in (0, 1)

    def test_forced_orders(self):
        dep = TemporalDependency(1, 2, 2, 12, 3, 12)
        inst = tiny_instance([(0, 10), (0, 10)], [dep])
        ok, starts, orders = schedule_routes([[1], [2]],
                                             with_orders(inst, {(1, 2): 1}))
        assert ok and starts[2] - starts[1] >= 2 and orders[(1, 2)] == 1
        ok, starts, orders = schedule_routes([[1], [2]],
                                             with_orders(inst, {(1, 2): 0}))
        assert ok and starts[1] - starts[2] >= 3 and orders[(1, 2)] == 0

    def test_sentinel_conflict(self):
        T = 12
        dep = TemporalDependency(1, 2, T, T, T, T)
        inst = tiny_instance([(0, 10), (0, 10)], [dep])
        ok, _, _ = schedule_routes([[1], [2]], inst)
        assert not ok

    def test_dependency_outside_routes_ignored(self):
        dep = TemporalDependency(1, 2, 0, 0, 0, 0)
        inst = tiny_instance([(0, 10), (4, 10)], [dep])
        ok, starts, orders = schedule_routes([[1]], inst)
        assert ok and orders == {}

    def test_witness_always_feasible_and_verdict_exact(self):
        rng = np.random.default_rng(7)
        checked = disagreements = 0
        for _ in range(40):
            inst = random_instance(rng, n_tasks=3, n_deps=2, horizon=10,
                                   grid=4)
            tasks = list(range(1, inst.n + 1))
            for part in set_partitions(tasks, inst.K):
                routes = [list(b) for b in part]
                ok, starts, _ = schedule_routes(routes, inst)
                if ok:
                    assert starts_feasible(routes, starts, inst)
                if ok != brute_feasible(routes, inst):
                    disagreements += 1
                checked += 1
        assert checked > 100
        assert disagreements == 0

    def test_infeasible_cycle_at_large_horizon(self):
        # same-route successor must start later, synchronization wants
        # equal starts: a positive cycle no window closing ever cuts short
        H = 10 ** 7
        dep = TemporalDependency(1, 2, 0, 0, 0, 0)
        inst = tiny_instance([(0, H - 10), (0, H - 10)], [dep], horizon=H)
        t0 = time.perf_counter()
        ok, _, _ = schedule_routes([[1, 2]], inst)
        assert not ok
        assert time.perf_counter() - t0 < 1.0


@st.composite
def small_systems(draw):
    """Routes over at least two of 2-4 tasks with random windows,
    durations and travel, 0-3 dependencies (some with a forbidden order)
    and random orders to fix."""
    n = draw(st.integers(2, 4))
    horizon = draw(st.integers(6, 12))
    tasks = [Task(0, 0, horizon, 0, 0)]
    for v in range(1, n + 1):
        a = draw(st.integers(0, horizon // 2))
        tasks.append(Task(v, a, draw(st.integers(a, horizon)),
                          draw(st.integers(0, 2)), 1))
    t = np.array([[0 if a == b else draw(st.integers(0, 2))
                   for b in range(n + 1)] for a in range(n + 1)])
    pairs = draw(st.lists(st.sampled_from(
        list(itertools.combinations(range(1, n + 1), 2))),
        max_size=3, unique=True))
    deps = []
    forced = {}
    for u, v in pairs:
        band = []
        for _ in range(2):
            m = draw(st.integers(0, 3))
            band += [m, draw(st.integers(m, horizon))]
        forbid = draw(st.sampled_from(["none", "uv", "vu"]))
        if forbid == "uv":
            band[0:2] = [horizon, horizon]
        if forbid == "vu":
            band[2:4] = [horizon, horizon]
        deps.append(TemporalDependency(u, v, *band))
        bit = draw(st.sampled_from([None, 0, 1]))
        if bit is not None:
            forced[(u, v)] = bit
    inst = Instance(tasks, t, t, n, 99, horizon, deps)
    order = draw(st.permutations(range(1, n + 1)))
    order = order[:draw(st.integers(2, n))]
    breaks = sorted(draw(st.sets(st.integers(1, len(order) - 1))))
    routes = [list(order[i:j])
              for i, j in zip([0] + breaks, breaks + [len(order)])]
    return routes, inst, forced


# edges are relaxed route chaining first: the dependency raises task 3 on
# the first pass, its route successor 4 moves only on the second, and a
# third pass confirms the fixed point
@example(([[1, 2], [3, 4]],
          tiny_instance([(0, 10)] * 4,
                        [TemporalDependency(2, 3, 0, 10, 0, 10)]),
          {(2, 3): 1}))
# a synchronization is not branched: it takes bit 1 unless fixed to 0
@example(([[1, 3], [2]],
          tiny_instance([(0, 10), (3, 10), (0, 10)],
                        [TemporalDependency(1, 2, 0, 0, 0, 0),
                         TemporalDependency(2, 3, 1, 4, 0, 10)]),
          {}))
@example(([[1], [2]],
          tiny_instance([(0, 10), (3, 10)],
                        [TemporalDependency(1, 2, 0, 0, 0, 0)]),
          {(1, 2): 0}))
@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_verdict_and_earliest_starts_match_exhaustive_search(case):
    routes, inst, forced = case
    schedules = list(brute_schedules(routes, inst))
    present = {v for r in routes for v in r}
    pairs = [(d.u, d.v) for d in inst.deps
             if d.u in present and d.v in present]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        full = dict(zip(pairs, bits))
        assert schedule_routes(routes, with_orders(inst, full))[0] == \
            any(meets_orders(s, inst, full) for s in schedules)
    ok, starts, orders = schedule_routes(routes, with_orders(inst, forced))
    assert ok == any(meets_orders(s, inst, forced) for s in schedules)
    if not ok:
        return
    assert orders.keys() == set(pairs)
    assert all(orders[p] == bit for p, bit in forced.items() if p in orders)
    assert starts_feasible(routes, starts, inst)
    assert meets_orders(starts, inst, orders)
    for other in schedules:
        if meets_orders(other, inst, orders):
            assert all(starts[v] <= other[v] for v in other)


@st.composite
def growing_routes(draw):
    """An instance whose travel times meet the triangle inequality, with
    0-3 dependencies, and the placements that grow up to three routes one
    task at a time: (task, route, position)."""
    n = draw(st.integers(2, 5))
    horizon = draw(st.integers(8, 30))
    tasks = [Task(0, 0, horizon, 0, 0)]
    for v in range(1, n + 1):
        a = draw(st.integers(0, horizon // 2))
        tasks.append(Task(v, a, draw(st.integers(a, horizon)),
                          draw(st.integers(0, 3)), 1))
    t = np.array([[0 if a == b else draw(st.integers(1, 5))
                   for b in range(n + 1)] for a in range(n + 1)])
    for k in range(n + 1):
        t = np.minimum(t, t[:, [k]] + t[[k], :])
    deps = []
    for u, v in draw(st.lists(st.sampled_from(
            list(itertools.combinations(range(1, n + 1), 2))),
            max_size=3, unique=True)):
        band = []
        for _ in range(2):
            m = draw(st.integers(0, 3))
            band += [m, draw(st.integers(m, horizon))]
        kind = draw(st.sampled_from(["band", "sync", "uv", "vu"]))
        if kind == "sync":
            band = [0, 0, 0, 0]
        if kind == "uv":
            band[0:2] = [horizon, horizon]
        if kind == "vu":
            band[2:4] = [horizon, horizon]
        deps.append(TemporalDependency(u, v, *band))
    inst = Instance(tasks, t, t, 3, 99, horizon, deps)
    placements = [(v, draw(st.integers(0, 2)), draw(st.integers(0, 4)))
                  for v in draw(st.permutations(range(1, n + 1)))]
    return inst, placements


def placed_states(inst, placements):
    """Places the tasks one at a time with extend_schedule, carrying each
    state down; yields the routes and the state after every placement,
    None from the first placement that does not schedule on."""
    routes = [[], [], []]
    state = ({}, {}, [])
    free = []
    for v, r, pos in placements:
        routes[r].insert(pos, v)
        if state is not None:
            placed = {u for route in routes for u in route}
            split = dependency_orders(
                [d for d in inst.deps if v in (d.u, d.v)
                 and d.u in placed and d.v in placed], inst)
            if split is None:
                state = None
            else:
                free = free + split[1]
                state = extend_schedule(state, routes[r], routes[r].index(v),
                                        inst, split[0], free)
        yield routes, state


# carrying starts found under a branched order would be unsound: with
# tasks 1 and 2 placed, u first (b2 >= b1 + 5) is tried first and
# schedules, but task 3, synchronized with 2 and closing at 2, needs
# 2 first
SYNC_AFTER_BRANCH = (
    tiny_instance([(0, 20), (0, 20), (0, 2)],
                  [TemporalDependency(1, 2, 5, 10, 0, 10),
                   TemporalDependency(2, 3, 0, 0, 0, 0)], horizon=24),
    [(1, 0, 0), (2, 1, 0), (3, 2, 0)])


@example(SYNC_AFTER_BRANCH)
@settings(max_examples=300, deadline=None)
@given(growing_routes())
def test_extend_schedule_matches_a_fresh_schedule(case):
    """Building each placement's network from its parent's state gives
    the verdict of a from-scratch call; once a placement fails, every
    later one fails from scratch too."""
    inst = case[0]
    for routes, state in placed_states(*case):
        assert (state is not None) == schedule_routes(routes, inst)[0]


@example(SYNC_AFTER_BRANCH)
@settings(max_examples=300, deadline=None)
@given(growing_routes())
def test_extend_schedule_matches_the_rebuilt_network(case):
    """The state carried down the placements gives the verdict and the
    least starts of the network rebuilt from the routes at every
    placement (``support.reference_extend_schedule``), exactly."""
    inst = case[0]
    lo = {}
    for routes, state in placed_states(*case):
        if lo is not None:
            placed = {u for route in routes for u in route}
            split = dependency_orders(
                [d for d in inst.deps if d.u in placed and d.v in placed],
                inst)
            lo = None if split is None else reference_extend_schedule(
                lo, routes, inst, split[0], split[1])
        assert (state is None) == (lo is None)
        if state is not None:
            assert state[0] == lo

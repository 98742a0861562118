import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fragvrp.instance import Instance, Task, TemporalDependency
from fragvrp.preprocess import (close_dependencies, preprocess,
                                tighten_depot_windows, tighten_td_windows)
from fragvrp.scheduling import schedule_routes

from support import (random_instance, reference_tighten_td_windows,
                     set_partitions)


def chain_instance(deps, windows=None, horizon=40):
    windows = windows or [(0, horizon)] * 3
    tasks = [Task(0, 0, horizon, 0, 0)]
    for i, (a, b) in enumerate(windows, start=1):
        tasks.append(Task(i, a, b, 1, 1))
    n = len(windows)
    t = np.ones((n + 1, n + 1), dtype=np.int64)
    np.fill_diagonal(t, 0)
    return Instance(tasks, t, t, 3, 99, horizon, deps)


def quad_of(inst, u, v):
    if (u, v) not in inst.pair:
        return None
    return inst.pair[(u, v)][1:] + inst.pair[(v, u)][1:]


class TestDepotClip:
    def test_clip(self):
        inst = chain_instance([], windows=[(0, 40), (0, 40), (35, 40)],
                              horizon=40)
        t = inst.t.copy()
        t[0, 1] = t[1, 0] = 5
        inst = inst.replace(travel_time=t)
        res = tighten_depot_windows(inst)
        assert res.feasible
        assert res.instance.alpha[1] == 5
        assert res.instance.beta[1] == 40 - 5 - 1
        assert res.instance.beta[3] == 40 - 1 - 1

    def test_empty_window_flags(self):
        inst = chain_instance([], windows=[(0, 3)], horizon=40)
        t = inst.t.copy()
        t[0, 1] = 10
        res = tighten_depot_windows(inst.replace(travel_time=t))
        assert not res.feasible
        assert "task 1" in res.reason


class TestClosure:
    def test_precedence_chain(self):
        # u at least 2..4 before v, v at least 1..3 before w
        T = 40
        deps = [TemporalDependency(1, 2, 2, 4, T, T),
                TemporalDependency(2, 3, 1, 3, T, T)]
        res = close_dependencies(chain_instance(deps))
        assert res.feasible
        assert quad_of(res.instance, 1, 3) == (3, 7, T, T)

    def test_synchronization_chain(self):
        deps = [TemporalDependency(1, 2, 0, 0, 0, 0),
                TemporalDependency(2, 3, 0, 0, 0, 0)]
        res = close_dependencies(chain_instance(deps))
        assert res.feasible
        assert quad_of(res.instance, 1, 3) == (0, 0, 0, 0)

    def test_strengthens_existing_pair(self):
        T = 40
        deps = [TemporalDependency(1, 2, 0, 0, 0, 0),
                TemporalDependency(2, 3, 5, 10, T, T),
                TemporalDependency(1, 3, 0, 8, 0, 8)]
        res = close_dependencies(chain_instance(deps))
        assert res.feasible
        # through task 2: b_3 - b_1 in [5, 10]; merged with [0, 8] -> [5, 8]
        assert quad_of(res.instance, 1, 3) == (5, 8, T, T)

    def test_conflicting_chain_is_infeasible(self):
        T = 40
        deps = [TemporalDependency(1, 2, 10, 12, T, T),
                TemporalDependency(2, 3, 10, 12, T, T),
                TemporalDependency(1, 3, 0, 5, 0, 5)]
        res = close_dependencies(chain_instance(deps))
        assert not res.feasible

    def test_matches_brute_force_consistency(self):
        """Closed quadruples never cut off an assignment that satisfies the
        original dependency set."""
        rng = np.random.default_rng(11)
        for _ in range(30):
            T = 12
            deps = []
            for (u, v) in [(1, 2), (2, 3)]:
                hi = int(rng.integers(0, 8))
                lo = int(rng.integers(0, hi + 1))
                hi2 = int(rng.integers(0, 8))
                lo2 = int(rng.integers(0, hi2 + 1))
                deps.append(TemporalDependency(u, v, lo, hi, lo2, hi2))
            inst = chain_instance(deps, horizon=T,
                                  windows=[(0, T)] * 3)
            res = close_dependencies(inst)
            for combo in itertools.product(range(T + 1), repeat=3):
                b = {1: combo[0], 2: combo[1], 3: combo[2]}
                if not all(_sat(d, b, T) for d in inst.deps):
                    continue
                assert res.feasible
                assert all(_sat(d, b, T) for d in res.instance.deps)


def _sat(d, b, tmax):
    bu, bv = b[d.u], b[d.v]
    ok_uv = bu <= bv and d.dmin_uv <= bv - bu <= d.dmax_uv \
        and not (d.dmin_uv == d.dmax_uv == tmax)
    ok_vu = bv <= bu and d.dmin_vu <= bu - bv <= d.dmax_vu \
        and not (d.dmin_vu == d.dmax_vu == tmax)
    return ok_uv or ok_vu


class TestWindowTightening:
    def test_fixed_order(self):
        T = 40
        deps = [TemporalDependency(1, 2, 5, T, T, T)]
        inst = chain_instance(deps, windows=[(0, 10), (0, 10)], horizon=T)
        res = tighten_td_windows(inst)
        assert res.feasible
        assert (res.instance.alpha[1], res.instance.beta[1]) == (0, 5)
        assert (res.instance.alpha[2], res.instance.beta[2]) == (5, 10)

    def test_unordered_max_diff(self):
        deps = [TemporalDependency(1, 2, 0, 2, 0, 2)]
        inst = chain_instance(deps, windows=[(0, 3), (8, 9)], horizon=40)
        res = tighten_td_windows(inst)
        assert not res.feasible

    def test_synchronization_intersects_windows(self):
        deps = [TemporalDependency(1, 2, 0, 0, 0, 0)]
        inst = chain_instance(deps, windows=[(0, 10), (4, 20)], horizon=40)
        res = tighten_td_windows(inst)
        assert res.feasible
        assert (res.instance.alpha[1], res.instance.beta[1]) == (4, 10)
        assert (res.instance.alpha[2], res.instance.beta[2]) == (4, 10)


@st.composite
def window_cases(draw):
    """Two to four tasks with random windows and dependencies whose
    orders may be forbidden (precedences, now and then both orders) and
    whose bands may be a single value."""
    T = draw(st.integers(10, 40))
    n = draw(st.integers(2, 4))
    windows = []
    for _ in range(n):
        a = draw(st.integers(0, T))
        windows.append((a, draw(st.integers(a, T))))

    def band():
        kind = draw(st.sampled_from(("forbidden", "narrow", "band")))
        if kind == "forbidden":
            return T, T
        lo = draw(st.integers(0, T))
        return (lo, lo) if kind == "narrow" else \
            (lo, draw(st.integers(lo, T)))

    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                           max_size=len(pairs), unique=True))
    deps = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        deps.append(TemporalDependency(u, v, *band(), *band()))
    return chain_instance(deps, windows=windows, horizon=T)


class TestWindowTighteningReference:
    @settings(max_examples=400, deadline=None)
    @given(window_cases())
    def test_matches_case_split(self, inst):
        """The hull rule gives the case-split rule's verdict and windows.
        When one step empties both windows, the reason may name the
        other endpoint of the same dependency."""
        res = tighten_td_windows(inst)
        ok, reason, alpha, beta = reference_tighten_td_windows(inst)
        assert res.feasible == ok
        if ok:
            assert res.instance.alpha == alpha
            assert res.instance.beta == beta
        else:
            # the same dependency; the task named last is one of its two
            # endpoints, which the two rules check in different orders
            assert res.reason.rsplit(" ", 1)[0] == reason.rsplit(" ", 1)[0]


class TestPipeline:
    def test_preserves_route_set_feasibility(self):
        rng = np.random.default_rng(23)
        kept = 0
        for _ in range(25):
            inst = random_instance(rng, n_tasks=4, n_deps=2, horizon=20,
                                   grid=5)
            res = preprocess(inst)
            tasks = list(range(1, inst.n + 1))
            for part in set_partitions(tasks, inst.K):
                combos = itertools.product(
                    *[itertools.permutations(b) for b in part])
                for combo in combos:
                    routes = [list(b) for b in combo]
                    before = schedule_routes(routes, inst)[0]
                    after = res.feasible and \
                        schedule_routes(routes, res.instance)[0]
                    assert before == after
                    kept += 1
        assert kept > 500

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            inst = random_instance(rng, n_tasks=4, n_deps=3)
            res = preprocess(inst)
            if not res.feasible:
                continue
            again = preprocess(res.instance)
            assert again.feasible
            assert again.instance.alpha == res.instance.alpha
            assert again.instance.beta == res.instance.beta
            assert again.instance.deps == res.instance.deps

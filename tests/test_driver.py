import dataclasses
import json
import math
import pathlib
import time
import types

import numpy as np
import pytest

import fragvrp
from fragvrp import bench
from fragvrp import cuts as cutlib
from fragvrp import driver
from fragvrp.driver import (BoundsState, Incumbent, _restricted_master,
                            check_solution, compute_lower_bound,
                            incumbent_from_json, initial_upper_bound, run,
                            solution_to_json)
from fragvrp.enumeration import DeadlinePassed, LimitExceeded
from fragvrp.instance import (Instance, SolverConfig, Task,
                              TemporalDependency)
from fragvrp.master import (LP_TOLERANCE, MasterError, MasterModel,
                            initial_fragments)
from fragvrp.oracle import arc_model_solve, brute_force_optimal
from fragvrp.scheduling import schedule_routes

from support import (SIX_KINDS, all_feasible_solutions, line_instance,
                     random_instance, solution_cost, with_orders)


def oracle_best(inst):
    sols = all_feasible_solutions(inst, schedule_routes)
    if not sols:
        return None, []
    best = min(solution_cost(r, inst) for r, _, _ in sols)
    return best, sols


def solomon_instance(solomon, kind, sigma, n):
    """The first n tasks of a bundled Solomon file with dependencies drawn
    at dependency seed 7, as the benchmark builds them."""
    data = bench.load_solomon(pathlib.Path(fragvrp.__file__).parent
                              / "data" / ("%s.txt" % solomon))
    return bench.generate_dependencies(data.instance(take=n), kind, sigma, 7)


def as_incumbent(routes, starts, orders, cost=0.0):
    return Incumbent(tuple(tuple(r) for r in routes), dict(starts),
                     dict(orders), float(cost))


class TestCheckSolution:
    def two_route_sync(self):
        # tasks 1 and 2 on opposite sides of the depot, synchronized
        tasks = [Task(0, 0, 30, 0, 0), Task(1, 0, 20, 1, 1),
                 Task(2, 0, 20, 1, 1)]
        t = np.array([[0, 3, 4], [3, 0, 7], [4, 7, 0]], dtype=np.int64)
        return Instance(tasks, t, t.copy(), 2, 10, 30,
                        [TemporalDependency(1, 2, 0, 0, 0, 0)])

    def test_scheduled_solutions_pass(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(6):
            inst = random_instance(rng, n_tasks=4, n_deps=2)
            for routes, starts, orders in \
                    all_feasible_solutions(inst, schedule_routes)[:40]:
                assert check_solution(
                    as_incumbent(routes, starts, orders), inst)
                checked += 1
        assert checked > 40

    def test_one_unit_dependency_slip_fails(self):
        inst = self.two_route_sync()
        good = as_incumbent([(1,), (2,)], {1: 5, 2: 5}, {(1, 2): 1})
        bad = as_incumbent([(1,), (2,)], {1: 5, 2: 6}, {(1, 2): 1})
        assert check_solution(good, inst)
        assert not check_solution(bad, inst)

    def test_missing_order_bits_are_derived(self):
        inst = self.two_route_sync()
        assert check_solution(
            as_incumbent([(1,), (2,)], {1: 5, 2: 5}, {}), inst)

    def test_forbidden_order_rejected_despite_arithmetic(self):
        inst = self.two_route_sync()
        T = inst.tmax
        inst = inst.replace(
            dependencies=[TemporalDependency(1, 2, T, T, 0, 10)])
        inc = as_incumbent([(1,), (2,)], {1: 4, 2: 4}, {(1, 2): 1})
        assert not check_solution(inc, inst)
        assert check_solution(
            as_incumbent([(1,), (2,)], {1: 4, 2: 4}, {(1, 2): 0}), inst)

    def test_structural_failures(self):
        inst = self.two_route_sync()
        ok = {1: 5, 2: 5}
        cases = [
            as_incumbent([(1,)], ok, {}),                    # 2 unserved
            as_incumbent([(1,), (1,), (2,)], ok, {}),        # repeat
            as_incumbent([(1,), (2,), ()], ok, {}),          # padding ok
            as_incumbent([(1, 2)], {1: 5, 2: 12}, {}),       # sync broken
        ]
        assert not check_solution(cases[0], inst)
        assert not check_solution(cases[1], inst)
        assert check_solution(cases[2], inst)
        assert not check_solution(cases[3], inst)
        one_veh = inst.replace(vehicle_count=1)
        assert not check_solution(
            as_incumbent([(1,), (2,)], ok, {}), one_veh)

    def test_window_travel_capacity_horizon(self):
        inst = line_instance(n=2, windows=[(5, 8), (0, 30)])
        # arrive too early for task 1's release
        assert not check_solution(
            as_incumbent([(1, 2)], {1: 4, 2: 7}, {}), inst)
        # travel chain: 2 is one unit past 1 plus unit service
        assert not check_solution(
            as_incumbent([(1, 2)], {1: 5, 2: 6}, {}), inst)
        assert check_solution(
            as_incumbent([(1, 2)], {1: 5, 2: 7}, {}), inst)
        tight = line_instance(n=2, capacity=3)
        assert not check_solution(
            as_incumbent([(1, 2)], {1: 1, 2: 3}, {}), tight)
        late = line_instance(n=1, horizon=10, windows=[(9, 10)])
        assert not check_solution(as_incumbent([(1,)], {1: 9}, {}), late)

    def test_empty_instance(self):
        inst = line_instance(n=0)
        assert check_solution(as_incumbent([], {}, {}), inst)


class TestComputeLowerBound:
    def test_single_task_round_trip(self):
        inst = line_instance(n=1)
        res = compute_lower_bound(inst)
        assert res.status == "optimal"
        assert res.lb == pytest.approx(inst.c[0, 1] + inst.c[1, 0])

    def test_never_exceeds_oracle(self):
        rng = np.random.default_rng(17)
        done = 0
        for _ in range(10):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            best, _ = oracle_best(inst)
            if best is None:
                continue
            res = compute_lower_bound(inst)
            assert res.status == "optimal"
            assert res.lb <= best + 1e-6
            done += 1
        assert done >= 5

    def test_rows_never_hurt(self, monkeypatch):
        rng = np.random.default_rng(19)
        for _ in range(5):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            with monkeypatch.context() as mp:
                for family in ("fsec", "tifi", "tdifi", "rcc"):
                    mp.setattr(cutlib, "separate_" + family,
                               lambda *args, **kwargs: [])
                plain = compute_lower_bound(inst)
            if plain.status != "optimal":
                continue
            rich = compute_lower_bound(inst)
            assert rich.lb >= plain.lb - 1e-6

    def test_unpack_shape(self):
        inst = line_instance(n=2)
        res = compute_lower_bound(inst)
        assert res.lb > 0 and len(res.columns) > 0 and res.duals is not None


class TestInitialUpperBound:
    def test_covers_or_exceeds_oracle(self):
        rng = np.random.default_rng(23)
        done = 0
        for _ in range(8):
            inst = random_instance(rng, n_tasks=5, n_deps=1)
            best, _ = oracle_best(inst)
            if best is None:
                continue
            res = compute_lower_bound(inst)
            ub, inc = initial_upper_bound(res.columns, res.cuts, inst)
            assert ub >= best - 1e-9
            if inc is not None:
                assert check_solution(inc, inst)
                assert inc.cost == ub
            done += 1
        assert done >= 4

    def test_solves_no_relaxation(self, monkeypatch):
        inst = line_instance(n=3)
        res = compute_lower_bound(inst)
        calls = []
        relax = MasterModel.solve_relaxation
        monkeypatch.setattr(MasterModel, "solve_relaxation",
                            lambda m, **kw: calls.append(1) or relax(m, **kw))
        ub, inc = initial_upper_bound(res.columns, res.cuts, inst)
        assert inc is not None and ub == inc.cost
        assert calls == []

    def test_restricted_master_leaves_nothing_to_separate(self):
        # the restricted master over the lower bound's columns and cuts is
        # the lower bound's final master, so its relaxation has the same
        # value and no row the lower bound's separators would add
        rng = np.random.default_rng(29)
        tol = LP_TOLERANCE
        done = 0
        for _ in range(40):
            inst = random_instance(rng, n_tasks=6, n_deps=3)
            res = compute_lower_bound(inst)
            if res.status != "optimal":
                continue
            m = _restricted_master(inst, res.cuts, res.columns)
            sol = m.solve_relaxation()
            assert sol.objective == pytest.approx(res.lb, abs=1e-6)
            sup = m.support(sol.x)
            keys = m.cut_keys()
            calc = cutlib.VminCalculator(inst)
            assert cutlib.separate_fsec(sup, inst, cutlib.K_MAX, calc, tol,
                                        keys) == []
            assert cutlib.separate_tifi(sup, inst, tol, keys) == []
            assert cutlib.separate_tdifi(sup, sol.p, inst, tol, keys) == []
            assert cutlib.separate_rcc(sup, inst, tol, keys) == []
            done += 1
        assert done >= 20

    def test_zero_guess_budget_returns_infinity(self, monkeypatch):
        monkeypatch.setattr(driver, "T_GUESS", 0.0)
        inst = line_instance(n=2)
        res = compute_lower_bound(inst)
        ub, inc = initial_upper_bound(res.columns, res.cuts, inst)
        assert ub == float("inf") and inc is None

    def test_guess_budget_covers_the_repairs(self, monkeypatch):
        # T_GUESS caps the first-incumbent solve in total: each repair
        # re-solve gets what the earlier solves left of it
        inst = line_instance(n=3, deps=[TemporalDependency(1, 2, 0, 60,
                                                           0, 60)])
        monkeypatch.setattr(driver, "T_GUESS", 5.0)
        res = compute_lower_bound(inst)
        stuck, limits = [], []

        def undecodable(m, sol, inst):
            stuck.append(frozenset(range(3 - len(stuck), 4)))
            return None, stuck[-1]

        solve = MasterModel.solve_integer

        def solve_integer(m, time_limit=None, cutoff=None):
            limits.append(time_limit)
            return solve(m, time_limit=time_limit, cutoff=cutoff)

        monkeypatch.setattr(driver, "_decode", undecodable)
        monkeypatch.setattr(MasterModel, "solve_integer", solve_integer)
        with pytest.raises(MasterError, match="after 3 solves"):
            initial_upper_bound(res.columns, res.cuts, inst)
        assert len(limits) == 3
        assert all(t <= 5.0 for t in limits)
        assert limits == sorted(set(limits), reverse=True)


def cycle_bait_instance():
    """Three co-located synchronized tasks plus one more task linked by a
    loose max-difference pair.  The cheapest integral master solution is
    a depot-free zero-length cycle over the trio, which no seed row
    forbids; the driver must detect and repair it."""
    tasks = [Task(0, 0, 40, 0, 0)]
    for v in (1, 2, 3, 4):
        tasks.append(Task(v, 0, 40, 0, 0))
    d = np.zeros((5, 5), dtype=np.int64)
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            both_trio = i in (1, 2, 3) and j in (1, 2, 3)
            if both_trio:
                d[i, j] = 0
            elif 0 in (i, j):
                d[i, j] = 5
            else:
                d[i, j] = 6
    deps = [TemporalDependency(1, 2, 0, 0, 0, 0),
            TemporalDependency(2, 3, 0, 0, 0, 0),
            TemporalDependency(1, 4, 0, 10, 0, 10)]
    return Instance(tasks, d, d.copy(), 3, 10, 40, deps)


class TestRun:
    def test_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(29)
        cfg = SolverConfig()
        optimal = infeasible = 0
        for _ in range(10):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            best, _ = oracle_best(inst)
            st = run(inst, cfg)
            if best is None:
                assert st.status == "infeasible"
                infeasible += 1
            else:
                assert st.status == "optimal"
                assert st.ub_sol == best
                assert check_solution(st.incumbent, inst)
                assert st.lb_sol == st.ub_sol
                assert st.stats["lb_certified"] <= best + 1e-6
                # the candidates rise, and the last round either found
                # the optimum or ruled out every cost below it
                cands = [r["ub_cand"] for r in st.stats["rounds"]]
                assert cands == sorted(set(cands))
                if cands:
                    last = st.stats["rounds"][-1]
                    assert last["milp_value"] == best \
                        or last["ub_cand"] + 1 >= best
                optimal += 1
        assert optimal >= 5

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        inst = random_instance(rng, n_tasks=5, n_deps=2)
        a = run(inst, SolverConfig())
        b = run(inst, SolverConfig())
        assert (a.status, a.lb_sol, a.ub_sol) == (b.status, b.lb_sol, b.ub_sol)
        if a.incumbent:
            assert a.incumbent.routes == b.incumbent.routes

    def test_fragment_limit_keeps_bracket(self, monkeypatch):
        monkeypatch.setattr(driver, "T_GUESS", 0.0)
        rng = np.random.default_rng(37)
        cfg = SolverConfig(f_max=1)
        seen = 0
        for _ in range(8):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            best, _ = oracle_best(inst)
            if best is None:
                continue
            st = run(inst, cfg)
            assert st.status in ("fragment-limit", "optimal")
            if st.status == "fragment-limit":
                assert st.lb_sol - 1e-6 <= best
                assert st.ub_sol >= best
                seen += 1
        assert seen >= 1

    def test_time_limit(self):
        inst = line_instance(n=3)
        st = run(inst, SolverConfig(time_limit=0.0))
        assert st.status == "time-limit"

    def test_time_limit_inside_enumeration(self, monkeypatch):
        # a budget that runs out while the one enumeration of a rounds
        # instance is searching: the solve stops there and keeps the
        # bracket it has certified, the lower bound and the incumbent
        inst = solomon_instance("S101", "max-diff", 0.2, 22)
        enum = driver.enumerate_fragments
        stopped = []

        def enumerate_fragments(duals, gap, inst, f_max, deadline):
            try:
                return enum(duals, gap, inst, f_max, time.monotonic())
            except DeadlinePassed:
                stopped.append(gap)
                raise

        monkeypatch.setattr(driver, "enumerate_fragments",
                            enumerate_fragments)
        st = run(inst, SolverConfig(time_limit=60.0))
        assert len(stopped) == 1
        assert st.status == "time-limit"
        assert st.lb_sol == st.stats["lb_certified"] <= st.ub_sol == 342
        assert check_solution(st.incumbent, inst)
        assert st.stats["rounds"] == []
        assert "enumerate" in st.stats["wall_times"]

    def test_preprocess_infeasibility(self):
        bad = line_instance(
            n=2, deps=[TemporalDependency(1, 2, 10, 10, 10, 10)],
            windows=[(0, 5), (0, 5)])
        st = run(bad, SolverConfig())
        assert st.status == "infeasible"

    def test_sync_pair_one_vehicle_infeasible(self):
        # both orders force travel between equal start times
        tasks = [Task(0, 0, 20, 0, 0), Task(1, 0, 15, 1, 1),
                 Task(2, 0, 15, 1, 1)]
        t = np.array([[0, 3, 6], [3, 0, 3], [6, 3, 0]], dtype=np.int64)
        inst = Instance(tasks, t, t.copy(), 1, 10, 20,
                        [TemporalDependency(1, 2, 0, 0, 0, 0)])
        st = run(inst, SolverConfig())
        assert st.status == "infeasible"

    def test_cycle_bait_repaired(self, monkeypatch):
        inst = cycle_bait_instance()
        best, _ = oracle_best(inst)
        assert best == 16    # 0 -> trio -> 4 -> 0
        # no FSEC separated, so only the repair row can forbid the cycle
        monkeypatch.setattr(cutlib, "separate_fsec",
                            lambda *args, **kwargs: [])
        monkeypatch.setattr(driver, "GAP_INIT", 0.65)
        st = run(inst, SolverConfig())
        assert st.status == "optimal"
        assert st.ub_sol == 16
        assert check_solution(st.incumbent, inst)

    def test_repair_rounds_used_up_raise(self, monkeypatch):
        # every decode needs a new repair row: after 1 + |V_D| integer
        # solves the driver must fail loudly, not report a time limit.
        # Each stuck set holds task 3, which no separated FSEC contains.
        inst = line_instance(n=3, deps=[TemporalDependency(1, 2, 0, 60,
                                                           0, 60)])
        stuck = []

        def undecodable(m, sol, inst):
            stuck.append(frozenset(range(3 - len(stuck), 4)))
            return None, stuck[-1]

        monkeypatch.setattr(driver, "_decode", undecodable)
        with pytest.raises(MasterError, match="after 3 solves"):
            run(inst, SolverConfig())
        assert len(stuck) == 1 + len(inst.vd)

    def test_presolve_solve_error_retried(self):
        # HiGHS presolve ends the first-incumbent MILP here in "Solve
        # error"; without presolve the model is infeasible, and the
        # schedule's rounds then close the bracket
        inst = random_instance(np.random.default_rng(19), n_tasks=8,
                               n_deps=2)
        best, _ = brute_force_optimal(inst)
        st = run(inst, SolverConfig())
        assert st.status == "optimal"
        assert st.lb_sol == st.ub_sol == best == 77
        assert check_solution(st.incumbent, inst)

    def test_stats_shape(self):
        inst = line_instance(n=2)
        st = run(inst, SolverConfig())
        assert set(st.stats["cuts_by_kind"]) == \
            {"FSEC", "TIFI", "TDIFI", "RCC"}
        assert "lower_bound" in st.stats["wall_times"]
        assert st.stats["lb_certified"] <= st.ub_sol + 1e-6
        assert st.stats["rounds"] == []

    def test_vmin_searches_counts_every_search(self, monkeypatch):
        # the lower bound's calculator is the solve's only one
        searched = []
        feasible_with = cutlib.VminCalculator._feasible_with

        def counted(calc, tasks, k):
            searched.append((tuple(tasks), k))
            return feasible_with(calc, tasks, k)

        monkeypatch.setattr(cutlib.VminCalculator, "_feasible_with", counted)
        st = run(random_instance(np.random.default_rng(17), n_tasks=7,
                                 n_deps=3), SolverConfig())
        assert st.status == "optimal"
        assert st.stats["vmin_searches"] == len(searched) > 0


def counting_milps(monkeypatch):
    """Wraps MasterModel.solve_integer; the list it returns grows by one
    per integer solve."""
    calls = []
    solve = MasterModel.solve_integer

    def solve_integer(m, *args, **kwargs):
        calls.append(m)
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(MasterModel, "solve_integer", solve_integer)
    return calls


class TestIntegralLowerBound:
    """A converged LP whose fragment weights are 0 or 1, with the
    artificial column at 0, decodes to the first incumbent: it costs the
    lower bound, so the solve ends without an integer solve."""

    def test_integral_lp_closes_the_solve(self, monkeypatch):
        # of these seeds the LP ends integral on 0, 2, 7, 8, 10 and 11
        milps = counting_milps(monkeypatch)
        fired = 0
        for seed in range(12):
            inst = random_instance(np.random.default_rng(seed), n_tasks=6)
            del milps[:]
            st = run(inst, SolverConfig())
            if st.stats.get("first_incumbent") != "lp":
                continue
            best, _ = brute_force_optimal(inst)
            assert st.status == "optimal"
            assert st.lb_sol == st.ub_sol == st.incumbent.cost == best
            assert st.stats["lb_certified"] == pytest.approx(best, abs=1e-6)
            assert check_solution(st.incumbent, inst)
            assert milps == []
            assert "initial_ub" not in st.stats["wall_times"]
            assert st.stats["rounds"] == []
            fired += 1
        assert fired == 6

    def test_fractional_lp_runs_the_milp(self, monkeypatch):
        # gap-loop's S101 max-diff: the converged LP is fractional, so the
        # first incumbent comes from the restricted MILP, and the round
        # at ub - 1 runs as before
        inst = solomon_instance("S101", "max-diff", 0.2, 22)
        lower = driver.compute_lower_bound
        initial = driver.initial_upper_bound
        lbs, first = [], []

        def compute_lower_bound(*args, **kwargs):
            lbs.append(lower(*args, **kwargs))
            return lbs[-1]

        def initial_upper_bound(*args, **kwargs):
            out = initial(*args, **kwargs)
            first.append(out[0])
            return out

        monkeypatch.setattr(driver, "compute_lower_bound",
                            compute_lower_bound)
        monkeypatch.setattr(driver, "initial_upper_bound",
                            initial_upper_bound)
        st = run(inst, SolverConfig())
        [lb] = lbs
        assert lb.status == "optimal" and lb.incumbent is None
        assert first == [342]
        assert st.stats["first_incumbent"] == "milp"
        assert "initial_ub" in st.stats["wall_times"]
        assert [(r["ub_cand"], r["enumerated"])
                for r in st.stats["rounds"]] == [(341, 571)]
        assert (st.status, st.lb_sol, st.ub_sol) == ("optimal", 340, 340)

    @pytest.mark.parametrize("fail", ["decode", "verify"])
    def test_unusable_integral_lp_falls_back(self, monkeypatch, fail):
        # the LP of random_instance seed 0 ends integral; when its decode
        # fails, or its solution fails verification, the restricted MILP
        # gives the first incumbent and the answer is the same
        inst = random_instance(np.random.default_rng(0), n_tasks=6)
        plain = run(inst, SolverConfig())
        assert plain.stats["first_incumbent"] == "lp"
        milps = counting_milps(monkeypatch)
        refused = []
        if fail == "decode":
            decode = driver._decode

            def first_fails(m, sol, inst):
                if not refused:
                    refused.append(len(milps))
                    return None, set()
                return decode(m, sol, inst)

            monkeypatch.setattr(driver, "_decode", first_fails)
        else:
            check = driver.check_solution

            def first_fails(inc, inst):
                if not refused:
                    refused.append(len(milps))
                    return False
                return check(inc, inst)

            monkeypatch.setattr(driver, "check_solution", first_fails)
        st = run(inst, SolverConfig())
        # the refused solution was the LP's: no integer solve had run
        assert refused == [0]
        assert len(milps) >= 1
        assert st.stats["first_incumbent"] == "milp"
        assert (st.status, st.lb_sol, st.ub_sol) == \
            (plain.status, plain.lb_sol, plain.ub_sol)
        assert check_solution(st.incumbent, inst)

    def test_time_limit_lower_bound_takes_no_incumbent(self):
        # the seed master's LP is integral here, three depot round trips
        # costing 12 against the optimum 6: a bound stopped by the clock
        # must not pass it on as an incumbent
        inst = line_instance(n=3)
        m = driver.build_initial(inst)
        sol = m.solve_relaxation()
        inc, _ = driver._verified(m, sol, inst)
        assert inc is not None and inc.cost == 12
        res = compute_lower_bound(inst, deadline=time.monotonic())
        assert res.status == "time-limit" and res.incumbent is None
        st = run(inst, SolverConfig(time_limit=0.0))
        assert st.status == "time-limit" and st.incumbent is None
        assert "first_incumbent" not in st.stats
        assert run(inst).ub_sol == 6

    def test_unforced_schedule_retry(self, monkeypatch):
        # the integral LP's order variables round to orders that no
        # schedule of its routes meets; _decode never reads them, so its
        # one schedule_routes call schedules the routes, and the
        # solution is optimal
        inst = random_instance(np.random.default_rng(2), n_tasks=5)
        sched = driver.schedule_routes
        decode = driver._decode
        calls, rounded = [], []

        def schedule_routes(routes, inst):
            out = sched(routes, inst)
            calls.append((routes, inst, out[0]))
            return out

        def _decode(m, sol, inst):
            rounded.append({k: round(v) for k, v in sol.p.items()})
            return decode(m, sol, inst)

        monkeypatch.setattr(driver, "schedule_routes", schedule_routes)
        monkeypatch.setattr(driver, "_decode", _decode)
        st = run(inst, SolverConfig())
        best, _ = brute_force_optimal(inst)
        (routes, pinst, ok), = calls
        assert ok and len(rounded) == 1
        assert not sched(routes, with_orders(pinst, rounded[0]))[0]
        assert st.stats["first_incumbent"] == "lp"
        assert st.status == "optimal"
        assert st.lb_sol == st.ub_sol == best == 33
        assert check_solution(st.incumbent, inst)


class TestCapacityBinding:
    def test_matches_brute_force(self):
        """Demands in [Q/5, Q/2] and one vehicle per task: capacity, not
        the fleet, decides which tasks share a route, so the master's
        load linkage between dependent tasks must hold.  Without it the
        integer master returns unusable solutions on ten of these."""
        rng = np.random.default_rng(3)
        optimal = infeasible = 0
        for _ in range(50):
            n = int(rng.integers(5, 8))
            inst = random_instance(rng, n_tasks=n,
                                   n_deps=int(rng.integers(2, 4)))
            Q = inst.Q
            tasks = [inst.tasks[0]] + [
                dataclasses.replace(
                    t, demand=int(rng.integers(Q // 5, Q // 2 + 1)))
                for t in inst.tasks[1:]]
            inst = inst.replace(tasks=tasks, vehicle_count=n)
            best, _ = brute_force_optimal(inst)
            st = run(inst, SolverConfig())
            if best == float("inf"):
                assert st.status == "infeasible"
                infeasible += 1
            else:
                assert st.status == "optimal"
                assert st.ub_sol == best
                assert check_solution(st.incumbent, inst)
                optimal += 1
        assert optimal >= 30 and infeasible >= 10


class TestArcModelAgreement:
    # seeded Solomon-derived instances, each with a gap round: the
    # fragment solver and the compact arc MILP must prove one optimum,
    # and the lower bound separates FSEC rows beyond the len(deps) + 1
    # the master starts with, so the V_min search decides rows on the way
    @pytest.mark.parametrize("solomon,kind,sigma,n", [
        ("S101", "synchronization", 0.5, 12),
        ("S102", "min-diff", 0.3, 14),
        ("S103", "overlap", 0.3, 12),
        # one gap round, at ub - 1; its reduction keeps 79 of the 96
        # fragments the round enumerates before the final MILP
        ("S101", "max-diff", 0.2, 16),
        # FSEC-heavy: 19 rows against 7 up front, optimum 335
        ("S103", "min-diff", 0.5, 12),
        # 11 dependent tasks, optimum 345
        ("S102", "min-diff", 0.5, 14),
        # the two generator kinds not covered above: 10 FSEC rows against
        # 6 up front, optimum 341; 14 against 5, optimum 317
        ("S103", "non-overlap", 0.3, 16),
        ("S101", "minmax-diff", 0.2, 18),
    ])
    def test_same_optimum(self, solomon, kind, sigma, n):
        inst = solomon_instance(solomon, kind, sigma, n)
        st = run(inst, SolverConfig())
        lb, ub, _ = arc_model_solve(inst)
        assert st.status == "optimal"
        assert st.stats["rounds"]
        assert st.stats["cuts_by_kind"]["FSEC"] > len(inst.deps) + 1
        assert lb == pytest.approx(ub)
        assert st.ub_sol == ub
        assert check_solution(st.incumbent, inst)

    def test_forbidden_orders_agree(self):
        # random_instance draws precedence only when asked; each of these
        # forbids one order of a pair, so the master's order-variable
        # bound and the arc model's order bounds decide the answer
        seen = set()
        for n in (6, 7):
            for s in range(50):
                inst = random_instance(np.random.default_rng(s), n,
                                       kinds=SIX_KINDS + ("precedence",))
                which = set()
                for d in inst.deps:
                    if inst.order_forbidden(d.u, d.v):
                        which.add("u-first")
                    if inst.order_forbidden(d.v, d.u):
                        which.add("v-first")
                if not which:
                    continue
                st = run(inst, SolverConfig())
                best, _ = brute_force_optimal(inst)
                lb, ub, sol = arc_model_solve(inst)
                assert st.status in ("optimal", "infeasible")
                assert st.lb_sol == st.ub_sol == best == ub, (n, s)
                assert lb == pytest.approx(ub)
                for inc in (st.incumbent, sol):
                    assert inc is None or check_solution(inc, inst)
                seen |= {(st.status, w) for w in which}
        assert seen == {(status, w) for status in ("optimal", "infeasible")
                        for w in ("u-first", "v-first")}


def refusing_first_pool(enum):
    """enumerate_fragments, except that it raises LimitExceeded on its
    first call, as if that pool, the one at ub - 1, held more than f_max
    fragments, and on every call at a gap as wide or wider, as f_max
    would: a pool never shrinks as its gap grows.  The rounds then run
    on the GAP_INIT/GAP_STEP schedule, whose pools below that gap are
    let through."""
    first = []

    def enumerate_fragments(duals, gap, *args, **kwargs):
        if not first:
            first.append(gap)
        if gap >= first[0]:
            raise LimitExceeded(0)
        return enum(duals, gap, *args, **kwargs)

    return enumerate_fragments


# the gap schedule from lb itself, 0.02 lb more per round
SLOW_SCHEDULE = {"GAP_INIT": 0.0, "GAP_STEP": 0.02}

# (driver constants to set, refuse the pool at ub - 1, tasks, seed), each
# leaving a gap after the first incumbent, so the loop runs: one round at
# ub - 1 with the default constants; with no first incumbent, rounds on
# the GAP_INIT/GAP_STEP schedule until one finds an incumbent (T_GUESS 0
# skips the first-incumbent MILP, and every one of these LPs ends
# fractional, so it is no incumbent either); and rounds on that schedule
# when the pool at ub - 1 is refused as past f_max.  Those close only if
# a round below ub - 1 finds a cheaper solution, so their first
# incumbent is above the optimum, which no 6-task seed below 400 draws
GAP_CASES = [(consts, refuse, 6, seed)
             for consts, refuse in (
                 ({}, False),
                 (dict(SLOW_SCHEDULE, T_GUESS=0.0), False))
             for seed in (12, 59, 80, 83, 105, 111)] + \
    [(SLOW_SCHEDULE, True, n_tasks, seed)
     for n_tasks, seed in ((7, 148), (8, 133), (8, 146), (8, 241), (8, 249))]


def solve_gap_case(consts, refuse, n_tasks, seed):
    with pytest.MonkeyPatch.context() as mp:
        for name, value in consts.items():
            mp.setattr(driver, name, value)
        if refuse:
            mp.setattr(driver, "enumerate_fragments",
                       refusing_first_pool(driver.enumerate_fragments))
        return run(random_instance(np.random.default_rng(seed),
                                   n_tasks=n_tasks))


@pytest.fixture(scope="class")
def gap_runs():
    """Each of GAP_CASES solved, with the events of its solve: ("ub",
    value) per restricted integer solve, ("gap", gap) per enumeration."""
    events = []
    solve = driver._solve_restricted
    enum = driver.enumerate_fragments

    def solve_restricted(*args, **kwargs):
        out = solve(*args, **kwargs)
        events.append(("ub", out[0]))
        return out

    def enumerate_fragments(duals, gap, *args, **kwargs):
        events.append(("gap", gap))
        return enum(duals, gap, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "_solve_restricted", solve_restricted)
        mp.setattr(driver, "enumerate_fragments", enumerate_fragments)
        out = []
        for case in GAP_CASES:
            del events[:]
            out.append((solve_gap_case(*case), list(events)))
    return out


class TestIntegralCandidateBound:
    def test_gaps_end_on_integers_below_the_incumbent(self, gap_runs):
        # every round enumerates up to an integer cost lb + gap, and never
        # up to the incumbent's own cost: ub - 1 already certifies it
        gaps = 0
        for st, events in gap_runs:
            lb = st.stats["lb_certified"]
            ub = float("inf")
            for kind, value in events:
                if kind == "ub":
                    ub = min(ub, value)
                    continue
                top = lb + value
                assert top == pytest.approx(round(top), abs=1e-6)
                assert top <= ub - 1 + 1e-6
                gaps += 1
            assert len(st.stats["rounds"]) == st.stats["iterations"]
            for r in st.stats["rounds"]:
                assert r["ub_cand"] == int(r["ub_cand"])
        assert gaps >= 10

    def test_cutoff_leaves_every_bound_and_round(self, gap_runs,
                                                 monkeypatch):
        # each round's MILP searches only below the incumbent; a round
        # that re-found the incumbent now proves that nothing cheaper
        # exists, which credits the same bound
        solve = driver._solve_restricted
        monkeypatch.setattr(
            driver, "_solve_restricted",
            lambda *args, cutoff=None, **kwargs: solve(*args, **kwargs))
        plain = [solve_gap_case(*case) for case in GAP_CASES]

        def answer(st):
            return (st.status, st.lb_sol, st.ub_sol,
                    [(r["ub_cand"], r["enumerated"], r["kept"])
                     for r in st.stats["rounds"]])

        proofs = 0
        for (c, _), p in zip(gap_runs, plain, strict=True):
            assert answer(c) == answer(p)
            for rc, rp in zip(c.stats["rounds"], p.stats["rounds"]):
                if rc["milp_value"] is None and rp["milp_value"] is not None:
                    assert rp["milp_value"] >= c.ub_sol
                    proofs += 1
                else:
                    assert rc["milp_value"] == rp["milp_value"]
        assert proofs >= 5

    def test_round_finds_one_below_the_incumbent(self, monkeypatch):
        # the first round's pool holds a solution costing exactly one
        # less than the first incumbent; the cutoff must keep it
        inst = solomon_instance("S101", "non-overlap", 0.3, 22)
        first = []
        initial = driver.initial_upper_bound

        def initial_upper_bound(*args, **kwargs):
            out = initial(*args, **kwargs)
            first.append(out[0])
            return out

        monkeypatch.setattr(driver, "initial_upper_bound",
                            initial_upper_bound)
        st = run(inst, SolverConfig())
        assert first == [324]
        assert st.stats["rounds"][0]["milp_value"] == 323
        assert st.status == "optimal" and st.lb_sol == st.ub_sol == 323

    def test_round_saved_on_pinned_instance(self):
        # a fractional candidate bound needs two rounds here: the first
        # round rules out every cost up to an integer it did not credit
        inst = random_instance(np.random.default_rng(16), n_tasks=5)
        best, _ = oracle_best(inst)
        st = run(inst, SolverConfig())
        assert st.status == "optimal"
        assert st.ub_sol == st.lb_sol == best == 45
        assert st.stats["iterations"] < 2
        [r] = st.stats["rounds"]
        # the round's MILP searches below the incumbent 45 and proves
        # that nothing there exists
        assert r["ub_cand"] == 44 and r["milp_value"] is None


class TestRoundSchedule:
    """Once an incumbent exists, one round at ub - 1 closes the bracket
    over one enumeration; when that pool passes f_max, the rounds fall
    back to the GAP_INIT/GAP_STEP schedule, capped at ub - 1."""

    def test_one_enumeration_with_a_first_incumbent(self, gap_runs):
        seen = 0
        for (_, refuse, _, _), (st, events) in zip(GAP_CASES, gap_runs,
                                                   strict=True):
            kind, first_ub = events[0]
            assert kind == "ub"
            gaps = [value for kind, value in events if kind == "gap"]
            assert gaps
            if math.isfinite(first_ub) and not refuse:
                assert len(gaps) == 1
                assert [r["ub_cand"] for r in st.stats["rounds"]] == \
                    [first_ub - 1]
                seen += 1
            else:
                # the schedule widens the gap round by round
                assert gaps == sorted(set(gaps))
        assert seen == 6

    def test_schedule_on_gap_loop(self):
        # gap-loop's S101 synchronization: the first incumbent is 345
        inst = solomon_instance("S101", "synchronization", 0.2, 20)
        st = run(inst, SolverConfig())
        assert st.status == "optimal" and st.ub_sol == 344
        assert [(r["ub_cand"], r["enumerated"])
                for r in st.stats["rounds"]] == [(344, 413)]
        # one fragment fewer allowed: the schedule's round at 338 (291
        # fragments) proves nothing costs 338 or less, and its next
        # round, capped at 344, needs the same 413 fragments
        capped = run(inst, SolverConfig(f_max=412))
        assert capped.status == "fragment-limit"
        assert [(r["ub_cand"], r["enumerated"])
                for r in capped.stats["rounds"]] == [(338, 291)]
        assert (capped.lb_sol, capped.ub_sol) == (339, 345)

    def test_last_round_without_incumbent_at_the_artificial_cost(self):
        # an infeasible instance whose schedule grows by about 2.2 per
        # round from lb 43.5: its 63rd candidate is 232, far below the
        # artificial cost 389, so only the last round, at 389, proves
        # that no solution exists; the arc model agrees
        inst = random_instance(np.random.default_rng(186), 8,
                               kinds=SIX_KINDS + ("precedence",))
        st = run(inst, SolverConfig())
        assert (st.status, st.lb_sol, st.ub_sol, st.incumbent) == \
            ("infeasible", math.inf, math.inf, None)
        cands = [r["ub_cand"] for r in st.stats["rounds"]]
        assert len(cands) == st.stats["iterations"] == driver.ROUNDS
        assert cands[-2:] == [232, 389]
        assert arc_model_solve(inst)[:2] == (math.inf, math.inf)

    def test_refused_pool_listed_once(self, monkeypatch):
        # with f_max 412 the pool at ub - 1 = 344 is refused; the
        # schedule's round at 338 proves nothing costs 338 or less, and
        # its next candidate, capped at 344, would list that same pool
        inst = solomon_instance("S101", "synchronization", 0.2, 20)
        enum = driver.enumerate_fragments
        gaps = []

        def enumerate_fragments(duals, gap, *args, **kwargs):
            gaps.append(gap)
            return enum(duals, gap, *args, **kwargs)

        monkeypatch.setattr(driver, "enumerate_fragments",
                            enumerate_fragments)
        st = run(inst, SolverConfig(f_max=412))
        lb = st.stats["lb_certified"]
        assert [round(lb + g) for g in gaps] == [344, 338]
        assert gaps[0] == pytest.approx(23.0, abs=1e-3)
        assert st.status == "fragment-limit"
        assert (st.lb_sol, st.ub_sol) == (339, 345)

    def test_late_fallback(self, monkeypatch):
        # no first incumbent: the schedule's round at 49 finds one at 54,
        # above its candidate; the pool at 53 then passes f_max, so the
        # schedule goes on from 49, and its round at 51 finds the optimum
        inst = random_instance(np.random.default_rng(148), n_tasks=7)
        enum = driver.enumerate_fragments
        calls = []

        def enumerate_fragments(duals, gap, *args, **kwargs):
            try:
                pool = enum(duals, gap, *args, **kwargs)
            except LimitExceeded:
                calls.append((gap, "refused"))
                raise
            calls.append((gap, "listed"))
            return pool

        monkeypatch.setattr(driver, "enumerate_fragments",
                            enumerate_fragments)
        for name, value in dict(SLOW_SCHEDULE, T_GUESS=0.0).items():
            monkeypatch.setattr(driver, name, value)
        st = run(inst, SolverConfig(f_max=45))
        lb = st.stats["lb_certified"]
        assert [(round(lb + gap), how) for gap, how in calls] == \
            [(49, "listed"), (53, "refused"), (50, "listed"), (51, "listed")]
        assert [(r["ub_cand"], r["milp_value"])
                for r in st.stats["rounds"]] == \
            [(49, 54), (50, None), (51, 52)]
        best, _ = brute_force_optimal(inst)
        assert st.status == "optimal"
        assert st.lb_sol == st.ub_sol == best == 52
        assert check_solution(st.incumbent, inst)

    def test_fallback_reaches_the_optimum(self, monkeypatch):
        # the first incumbent, 53, is one above the optimum; the pool at
        # 52 holds 42 fragments, and the schedule's pools fewer
        inst = random_instance(np.random.default_rng(148), n_tasks=7)
        first = []
        initial = driver.initial_upper_bound

        def initial_upper_bound(*args, **kwargs):
            out = initial(*args, **kwargs)
            first.append(out[0])
            return out

        monkeypatch.setattr(driver, "initial_upper_bound",
                            initial_upper_bound)
        st = run(inst, SolverConfig())
        assert first == [53] and st.status == "optimal" and st.ub_sol == 52
        assert [(r["ub_cand"], r["enumerated"])
                for r in st.stats["rounds"]] == [(52, 42)]
        for name, value in SLOW_SCHEDULE.items():
            monkeypatch.setattr(driver, name, value)
        low = run(inst, SolverConfig(f_max=41))
        assert (low.status, low.lb_sol, low.ub_sol) == \
            (st.status, st.lb_sol, st.ub_sol)
        cands = [r["ub_cand"] for r in low.stats["rounds"]]
        assert len(cands) >= 2 and cands == sorted(set(cands))
        assert cands[-1] <= 52 - 1
        assert max(r["enumerated"] for r in low.stats["rounds"]) <= 41


class TestRoundExits:
    """The round loop's exits that no solve of the suite reaches,
    forced by stand-ins on one instance: its first incumbent, 37 from
    the MILP, is optimal, and one round at 36 proves it."""

    @staticmethod
    def instance():
        return random_instance(np.random.default_rng(17), n_tasks=7,
                               n_deps=3)

    def test_deadline_before_the_first_round(self, monkeypatch):
        # the clock passes the deadline once the first incumbent is in:
        # the loop stops at its top, before any enumeration
        initial = driver.initial_upper_bound
        late = []

        def initial_upper_bound(*args, **kwargs):
            out = initial(*args, **kwargs)
            late.append(True)
            return out

        monkeypatch.setattr(driver, "initial_upper_bound",
                            initial_upper_bound)
        monkeypatch.setattr(driver, "time", types.SimpleNamespace(
            monotonic=lambda: time.monotonic() + (1e9 if late else 0.0)))
        inst = self.instance()
        st = run(inst, SolverConfig(time_limit=60.0))
        assert st.status == "time-limit" and st.stats["iterations"] == 1
        assert st.lb_sol == st.stats["lb_certified"] == 35.5
        assert st.ub_sol == 37 and check_solution(st.incumbent, inst)
        assert st.stats["rounds"] == []
        assert "enumerate" not in st.stats["wall_times"]

    def test_unproven_round_keeps_the_incumbent(self, monkeypatch):
        # the round's MILP gets no time left, so it proves nothing: the
        # solve stops with the first incumbent and records the round
        solve = driver._solve_restricted

        def solve_restricted(m, inst, deadline, counts, cutoff=None):
            if cutoff is not None:
                deadline = time.monotonic()
            return solve(m, inst, deadline, counts, cutoff=cutoff)

        monkeypatch.setattr(driver, "_solve_restricted", solve_restricted)
        inst = self.instance()
        st = run(inst, SolverConfig())
        assert st.status == "time-limit"
        assert st.lb_sol == st.stats["lb_certified"] == 35.5
        assert st.ub_sol == 37 and check_solution(st.incumbent, inst)
        assert [(r["ub_cand"], r["milp_value"])
                for r in st.stats["rounds"]] == [(36, None)]

    def test_nothing_below_the_artificial_cost_is_infeasible(
            self, monkeypatch):
        # with no incumbent, a round that proves nothing costs its
        # candidate or less, when that candidate reaches the artificial
        # column's cost, proves that no solution exists
        monkeypatch.setattr(driver, "artificial_cost", lambda inst: 36.0)
        monkeypatch.setattr(driver, "initial_upper_bound",
                            lambda *args, **kwargs: (math.inf, None))
        monkeypatch.setattr(driver, "_solve_restricted",
                            lambda *args, **kwargs: (math.inf, None, True))
        st = run(self.instance(), SolverConfig())
        assert (st.status, st.lb_sol, st.ub_sol, st.incumbent) == \
            ("infeasible", math.inf, math.inf, None)
        # the schedule's first candidate, ceil(1.05 * 35.5) = 38, is
        # already past 36: one round
        assert [r["ub_cand"] for r in st.stats["rounds"]] == [38]

    def test_zero_step_doubles_the_candidate(self):
        assert driver._grow(40.0, 2.5) == 43.0
        assert driver._grow(40.0, 0.0) == 80.0
        assert driver._grow(40.0, 1e-12) == 80.0
        assert driver._grow(0.0, 0.0) == 1.0


def lp_arrays(m):
    """Every array _assemble hands to a solve, the triplets one by one."""
    A, *rest = m._assemble()
    return [np.asarray(a) for a in (*A, *rest)]


def assert_same_lp(m, fresh):
    assert [f.tasks for f in m.fragments] == [f.tasks for f in fresh.fragments]
    assert m._frag_keys == fresh._frag_keys
    for a, b in zip(lp_arrays(m), lp_arrays(fresh), strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestRoundMaster:
    """A gap round builds one restricted master.  reduce_by_resolve adds
    the pool to it, re-solves, and drops the columns it added and
    rejected; the final MILP then solves that master.  It must be, array
    for array, the master a fresh build over the kept fragments gives."""

    @pytest.mark.parametrize("n_tasks,n_deps,seed,refuse", [
        # with the pool at ub - 1 refused as past f_max, the schedule's
        # one round, at 40, rejects six fragments and finds the optimum
        pytest.param(8, 2, 132, True, id="8-2-132"),
        # refused likewise: three rounds; the first, at 58, rejects two,
        # the second, at 61, rejects none and finds the optimum 64, the
        # third, at 63, rejects none
        pytest.param(9, 2, 341, True, id="9-2-341"),
        # refused likewise: two rounds; the first, at 41, rejects none,
        # the second, at 43, rejects three
        pytest.param(9, 3, 67, True, id="9-3-67"),
        # one round, at ub - 1; rejects eight, one of them an initial
        # fragment
        pytest.param(7, 3, 17, False, id="7-3-17"),
    ])
    def test_rounds_match_a_fresh_build(self, monkeypatch, n_tasks, n_deps,
                                        seed, refuse):
        make = driver._restricted_master
        resolve = driver.reduce_by_resolve
        solve = driver._solve_restricted
        built, reduced, solved = [], [], []

        def restricted_master(*args):
            built.append((args, make(*args)))
            return built[-1][1]

        def reduce_by_resolve(frags, master, ub_cand):
            args, m = built[-1]
            assert master is m
            kept, duals, lb = resolve(frags, master, ub_cand)
            assert_same_lp(master, make(*args, kept))
            reduced.append(len(frags) - len(kept))
            return kept, duals, lb

        def solve_restricted(m, *args, **kwargs):
            solved.append(m)
            return solve(m, *args, **kwargs)

        if refuse:
            monkeypatch.setattr(
                driver, "enumerate_fragments",
                refusing_first_pool(driver.enumerate_fragments))
        monkeypatch.setattr(driver, "_restricted_master", restricted_master)
        monkeypatch.setattr(driver, "reduce_by_resolve", reduce_by_resolve)
        monkeypatch.setattr(driver, "_solve_restricted", solve_restricted)
        inst = random_instance(np.random.default_rng(seed), n_tasks=n_tasks,
                               n_deps=n_deps)
        st = run(inst, SolverConfig())
        assert st.status == "optimal"
        rounds = len(st.stats["rounds"])
        assert rounds == len(reduced) and any(reduced)
        # one master for the first incumbent, then exactly one per round
        assert len(built) == 1 + rounds
        assert solved == [m for _, m in built]

    def round_master(self):
        """A round's master and a pool holding every initial fragment,
        the lower bound's columns and those enumerated within 10."""
        inst = random_instance(np.random.default_rng(9), n_tasks=6, n_deps=2)
        lb = compute_lower_bound(inst)
        pool = {f.tasks: f for f in driver.enumerate_fragments(
            lb.duals, 10.0, inst)}
        for f in (*initial_fragments(inst), *lb.columns):
            pool.setdefault(f.tasks, f)
        args = (inst, lb.cuts)
        return args, _restricted_master(*args), lb.lb, \
            sorted(pool.values(), key=lambda f: f.tasks)

    def test_rejected_initial_fragments_stay(self):
        args, m, lb, pool = self.round_master()
        held = {f.tasks for f in m.fragments}
        kept, _, _ = driver.reduce_by_resolve(pool, m, lb)
        rejected = held - {f.tasks for f in kept}
        assert rejected
        assert held <= {f.tasks for f in m.fragments}
        assert_same_lp(m, _restricted_master(*args, kept))

    def test_built_from_the_lower_bounds_rows(self, monkeypatch):
        # the lower bound's cuts begin with build_initial's up-front
        # FSECs, so a master over those cuts alone is the one
        # build_initial gives plus the lifted cuts, array for array
        monkeypatch.setattr(driver, "FRCC_SIZE_CAP", 1.0)
        rng = np.random.default_rng(4)
        vd_rows = frcc_rows = 0
        for _ in range(12):
            inst = random_instance(rng, n_tasks=7, n_deps=3)
            lb = compute_lower_bound(inst)
            if lb.status != "optimal":
                continue
            frags = driver.enumerate_fragments(lb.duals, 10.0, inst)
            fresh = driver.build_initial(inst)
            for cut in lb.cuts:
                fresh.add_cut(driver._lift_cut(cut, inst))
            fresh.add_fragments(frags)
            m = _restricted_master(inst, lb.cuts, frags)
            assert_same_lp(m, fresh)
            vd_rows += len(inst.vd) > 2
            frcc_rows += sum(cut.kind == "FRCC" for cut in m.cuts)
        assert vd_rows >= 3 and frcc_rows >= 1

    @pytest.mark.parametrize("seed", [59, 82, 110, 157])
    def test_round_master_holds_only_its_pool(self, monkeypatch, seed):
        # the round's MILP searches below the incumbent, so the
        # incumbent's own fragments need no column of their own: every
        # column is an initial one or in the round's pool
        make = driver._restricted_master
        enum = driver.enumerate_fragments
        solve = driver._solve_restricted
        initial, pools, checked = {}, [], []

        def restricted_master(*args):
            m = make(*args)
            initial[id(m)] = {f.tasks for f in m.fragments}
            return m

        def enumerate_fragments(*args, **kwargs):
            out = enum(*args, **kwargs)
            pools.append({f.tasks for f in out})
            return out

        def solve_restricted(m, *args, **kwargs):
            if pools:
                held = {f.tasks for f in m.fragments}
                assert held <= initial[id(m)] | pools[-1]
                checked.append(m)
            return solve(m, *args, **kwargs)

        monkeypatch.setattr(driver, "_restricted_master", restricted_master)
        monkeypatch.setattr(driver, "enumerate_fragments",
                            enumerate_fragments)
        monkeypatch.setattr(driver, "_solve_restricted", solve_restricted)
        inst = random_instance(np.random.default_rng(seed), n_tasks=7)
        best, _ = brute_force_optimal(inst)
        st = run(inst, SolverConfig())
        assert len(checked) == len(st.stats["rounds"]) >= 1
        assert st.ub_sol == best


class TestSolutionFile:
    def test_round_trip_verifies(self):
        rng = np.random.default_rng(41)
        inst = random_instance(rng, n_tasks=4, n_deps=1)
        best, _ = oracle_best(inst)
        if best is None:
            pytest.skip("instance drew infeasible")
        st = run(inst, SolverConfig())
        doc = json.loads(solution_to_json(st))
        assert set(doc) == {"status", "lb", "ub", "routes", "start_times",
                            "order_vars", "stats"}
        inc = incumbent_from_json(doc)
        assert check_solution(inc, inst)
        assert doc["ub"] == best

    def test_infinite_bounds_become_null(self):
        st = BoundsState(float("inf"), float("inf"), None, "infeasible", {})
        doc = json.loads(solution_to_json(st))
        assert doc["lb"] is None and doc["ub"] is None

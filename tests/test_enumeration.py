import math
import time

import numpy as np
import pytest
from hypothesis import given, settings

from fragvrp import cuts
from fragvrp.enumeration import (DeadlinePassed, LimitExceeded,
                                 _CompletionLB, enumerate_fragments,
                                 reduce_by_resolve, reduce_by_route_bound)
from fragvrp.fragments import build_fragment, initial_bounds
from fragvrp.instance import Task, TemporalDependency
from fragvrp.master import LP_TOLERANCE, build_initial
from fragvrp.pricing import (CostEnv, Label, exact_memory, extend_label,
                             fragment_reduced_cost, interior_tasks,
                             is_complete, solve_pricing)
from fragvrp.scheduling import schedule_routes

from support import (all_feasible_solutions, exhaustive_fragments,
                     line_instance, random_instance, routes_to_fragments,
                     solution_cost)

from test_pricing import priced_cases, zero_duals


def converge_cg(inst, with_cuts=True):
    """Column (and optionally row) generation to a settled LP."""
    m = build_initial(inst)
    sol = m.solve_relaxation()
    if sol.status != "optimal":
        return None, None
    vmin = cuts.VminCalculator(inst)
    for _ in range(60):
        cols = solve_pricing(sol.duals, inst)
        added = m.add_fragments(cols)
        ncuts = 0
        if with_cuts:
            sup = m.support(sol.x)
            new = []
            new += cuts.separate_fsec(sup, inst, cuts.K_MAX, vmin, 1e-4,
                                      m.cut_keys())
            new += cuts.separate_tifi(sup, inst, 1e-4, m.cut_keys())
            new += cuts.separate_tdifi(sup, sol.p, inst, 1e-4, m.cut_keys())
            new += cuts.separate_rcc(sup, inst, 1e-4, m.cut_keys())
            ncuts = sum(m.add_cut(c) for c in new)
        if not added and not ncuts:
            break
        sol = m.solve_relaxation()
        if sol.status != "optimal":
            return None, None
    return m, sol


class TestEnumerate:
    def test_large_gap_equals_exhaustive(self):
        rng = np.random.default_rng(71)
        done = 0
        for _ in range(8):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            m, sol = converge_cg(inst, with_cuts=False)
            if m is None:
                continue
            env = CostEnv(sol.duals, inst)
            exh = exhaustive_fragments(inst, build_fragment)
            top = max(fragment_reduced_cost(f, env) for f in exh)
            got = enumerate_fragments(sol.duals, top + 1.0, inst)
            assert sorted(f.tasks for f in got) == \
                sorted(f.tasks for f in exh)
            for f in got:
                g = build_fragment(f.tasks, inst)
                assert (f.es, f.ls, f.dur, f.cost, f.demand) == \
                    (g.es, g.ls, g.dur, g.cost, g.demand)
            done += 1
        assert done >= 4

    def test_zero_gap_holds_every_tight_optimum(self):
        # when the relaxation value meets the integer optimum, a zero
        # budget still covers every fragment of every optimal solution
        rng = np.random.default_rng(73)
        tight = 0
        for _ in range(20):
            inst = random_instance(rng, n_tasks=5, n_deps=1)
            m, sol = converge_cg(inst)
            if m is None:
                continue
            sols = all_feasible_solutions(inst, schedule_routes)
            if not sols:
                continue
            best = min(solution_cost(r, inst) for r, _, _ in sols)
            if abs(best - sol.objective) > 1e-6:
                continue
            tight += 1
            got = set(f.tasks for f in
                      enumerate_fragments(sol.duals, 0.0, inst))
            env = CostEnv(sol.duals, inst)
            for f in (build_fragment(s, inst) for s in got):
                assert fragment_reduced_cost(f, env) <= 1e-5
            for routes, _, _ in sols:
                if solution_cost(routes, inst) != best:
                    continue
                for seq in routes_to_fragments(routes, inst):
                    assert seq in got, seq
        assert tight >= 2

    def test_fragment_limit(self):
        inst = line_instance(n=4, deps=[TemporalDependency(1, 4, 0, 40, 0, 40)])
        with pytest.raises(LimitExceeded) as err:
            enumerate_fragments(zero_duals(inst), 1000.0, inst, f_max=1)
        assert err.value.count == 2

    def test_deadline(self):
        # 1,956 fragments: the search pops well over the 1,024 labels
        # between two looks at the clock
        inst = line_instance(n=6)
        whole = enumerate_fragments(zero_duals(inst), 1000.0, inst)
        late = enumerate_fragments(zero_duals(inst), 1000.0, inst,
                                   deadline=math.inf)
        assert [f.tasks for f in late] == [f.tasks for f in whole]
        with pytest.raises(DeadlinePassed):
            enumerate_fragments(zero_duals(inst), 1000.0, inst,
                                deadline=time.monotonic())

    def test_negative_gap_rejected(self):
        inst = line_instance(n=3)
        with pytest.raises(ValueError):
            enumerate_fragments(zero_duals(inst), -1.0, inst)

    def test_deterministic(self):
        rng = np.random.default_rng(79)
        inst = random_instance(rng, n_tasks=6, n_deps=2)
        a = enumerate_fragments(zero_duals(inst), 60.0, inst)
        b = enumerate_fragments(zero_duals(inst), 60.0, inst)
        assert [f.tasks for f in a] == [f.tasks for f in b]


def reference_remaining(bound, lab):
    """_CompletionLB.remaining as documented, read off the NumPy arrays:
    a departure from the end, and one from every unvisited interior task
    v with es + d_e + t_ev <= beta_v, plus the start, end and cut
    terms."""
    inst, e = bound.inst, lab.end
    arcs = bound.neg_out[e] + sum(
        bound.neg_out[v] for v in interior_tasks(inst)
        if v not in lab.tasks
        and lab.es + inst.dur[e] + inst.t[e, v] <= inst.beta[v])
    return arcs + bound.start_terms(lab) + bound.end_lb[lab.start] \
        + bound.cut_pen


class TestCompletionBound:
    @settings(max_examples=150, deadline=None)
    @given(priced_cases())
    def test_bound_is_admissible(self, case):
        # every partial label exhaustive labeling reaches: the bound is
        # the documented sum, and rcost plus the bound never exceeds the
        # least reduced cost of the label's completions
        inst, duals, _ = case
        env = CostEnv(duals, inst)
        ng = exact_memory(inst)
        bound = _CompletionLB(env)

        def least_completion(lab):
            rest = bound.remaining(lab)
            assert rest == pytest.approx(reference_remaining(bound, lab),
                                         abs=1e-9)
            best = math.inf
            for u in range(inst.n + 1):
                child = extend_label(lab, u, env, ng)
                if child is None:
                    continue
                best = min(best, child.rcost if is_complete(child, inst)
                           else least_completion(child))
            assert lab.rcost + rest <= best + 1e-9
            return best

        for s in [0] + sorted(inst.vd):
            if inst.alpha[s] <= inst.beta[s]:
                least_completion(Label((s,), 0, 0, *initial_bounds(s, inst),
                                       env.init_cost(s)))

    @settings(max_examples=100, deadline=None)
    @given(priced_cases())
    def test_pool_equals_brute_force_filter(self, case):
        # at gap 0, 25 and past every fragment, the pool is exactly the
        # exhaustive fragments priced within the budget
        inst, duals, _ = case
        env = CostEnv(duals, inst)
        exh = sorted(exhaustive_fragments(inst, build_fragment),
                     key=lambda f: f.tasks)
        rc = [fragment_reduced_cost(f, env) for f in exh]
        for gap in (0.0, 25.0, max(rc, default=0.0) + 1.0):
            gap = max(gap, 0.0)
            want = [f for f, r in zip(exh, rc) if r <= gap + LP_TOLERANCE]
            assert enumerate_fragments(duals, gap, inst) == want


class TestRouteBound:
    def test_infinite_gap_keeps_all(self):
        inst = line_instance(n=4, deps=[TemporalDependency(1, 4, 0, 40, 0, 40)])
        frags = enumerate_fragments(zero_duals(inst), 1000.0, inst)
        kept = reduce_by_route_bound(frags, zero_duals(inst), float("inf"),
                                     inst)
        assert sorted(f.tasks for f in kept) == sorted(f.tasks for f in frags)

    def test_unreachable_fragment_cascades_out(self):
        # every fragment ending at task 1 arrives no earlier than 11,
        # while (1, 2) must start by 8 to make task 2's deadline; the
        # pairing bound drops (1, 2), and the fixed point then drops
        # (2, 0), whose only feeder vanished
        tasks = [Task(0, 0, 60, 0, 0), Task(1, 5, 20, 1, 1),
                 Task(2, 8, 12, 1, 1), Task(3, 0, 50, 1, 1)]
        coords = {0: 0, 1: 11, 2: 14, 3: 1}
        t = np.array([[abs(coords[i] - coords[j]) for j in range(4)]
                      for i in range(4)], dtype=np.int64)
        from fragvrp.instance import Instance
        inst = Instance(tasks, t, t.copy(), 3, 10, 60,
                        [TemporalDependency(1, 2, 0, 30, 0, 30)])
        frags = enumerate_fragments(zero_duals(inst), 1000.0, inst)
        seqs = set(f.tasks for f in frags)
        assert (1, 2) in seqs and (2, 0) in seqs
        by_seq = {f.tasks: f for f in frags}
        assert by_seq[(1, 2)].ls == 8
        assert by_seq[(0, 1)].es == 11
        kept = set(f.tasks for f in
                   reduce_by_route_bound(frags, zero_duals(inst), 1000.0,
                                         inst))
        assert (1, 2) not in kept
        assert (2, 0) not in kept       # second pass, feeder gone
        assert (0, 1) in kept           # 0 -> 1 -> 0 remains viable
        assert (0, 3, 0) in kept

    def test_never_drops_fragments_of_admissible_solutions(self):
        rng = np.random.default_rng(83)
        done = 0
        for _ in range(10):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            m, sol = converge_cg(inst)
            if m is None:
                continue
            sols = all_feasible_solutions(inst, schedule_routes)
            if not sols:
                continue
            best = min(solution_cost(r, inst) for r, _, _ in sols)
            gap = best + 5.0 - sol.objective
            if gap < 0:
                continue
            frags = enumerate_fragments(sol.duals, gap, inst)
            kept = set(f.tasks for f in
                       reduce_by_route_bound(frags, sol.duals, gap, inst))
            for routes, _, _ in sols:
                if solution_cost(routes, inst) > best + 5.0 - 1e-9:
                    continue
                for seq in routes_to_fragments(routes, inst):
                    assert seq in kept, (seq, routes)
            done += 1
        assert done >= 4


class TestResolve:
    def test_budget_monotone(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            m, sol = converge_cg(inst)
            if m is not None:
                break
        assert m is not None
        frags = enumerate_fragments(sol.duals, 40.0, inst)
        m1 = build_initial(inst)
        kept_small, duals1, lb1 = reduce_by_resolve(frags, m1,
                                                    sol.objective + 4.0)
        m2 = build_initial(inst)
        kept_large, duals2, lb2 = reduce_by_resolve(frags, m2,
                                                    sol.objective + 30.0)
        assert lb1 == pytest.approx(lb2)
        assert set(f.tasks for f in kept_small) <= \
            set(f.tasks for f in kept_large)

    def test_no_lift_means_same_bound(self):
        # without capacity cuts to lift, the rebuilt relaxation over the
        # full enumerated set cannot fall below the settled value
        rng = np.random.default_rng(97)
        done = 0
        for _ in range(8):
            inst = random_instance(rng, n_tasks=5, n_deps=1)
            m, sol = converge_cg(inst, with_cuts=False)
            if m is None:
                continue
            frags = enumerate_fragments(sol.duals, 50.0, inst)
            m2 = build_initial(inst)
            kept, duals, lb = reduce_by_resolve(frags, m2,
                                                sol.objective + 50.0)
            assert lb <= sol.objective + 1e-6
            done += 1
        assert done >= 4


class TestEndToEndCompleteness:
    def test_reduced_set_reaches_oracle_optimum(self):
        # the full chain: settle the relaxation, enumerate within the
        # gap to a known optimum, reduce twice, then the restricted
        # integer master must still find that optimum
        rng = np.random.default_rng(101)
        done = 0
        for _ in range(12):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            m, sol = converge_cg(inst)
            if m is None:
                continue
            sols = all_feasible_solutions(inst, schedule_routes)
            if not sols:
                continue
            best = min(solution_cost(r, inst) for r, _, _ in sols)
            ub_cand = float(best)
            gap = ub_cand - sol.objective
            if gap < 0:
                continue
            frags = enumerate_fragments(sol.duals, gap, inst)
            frags = reduce_by_route_bound(frags, sol.duals, gap, inst)
            m2 = build_initial(inst)
            for cut, _ in sol.duals.cut_duals:
                m2.add_cut(cuts.lift_rcc_to_frcc(cut)
                           if isinstance(cut, cuts.RccCut) else cut)
            frags, duals, lb = reduce_by_resolve(frags, m2, ub_cand)
            for routes, _, _ in sols:
                if solution_cost(routes, inst) != best:
                    continue
                for seq in routes_to_fragments(routes, inst):
                    assert seq in set(f.tasks for f in frags), seq
            final = m2.solve_integer()
            assert final.status in ("optimal", "feasible")
            assert final.objective == pytest.approx(best)
            done += 1
        assert done >= 4

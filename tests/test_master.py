"""Restricted master: initial columns, duals, monotonicity, integer solve."""

import numpy as np
import pytest
import scipy.sparse as sp

from fragvrp.cuts import (FrccCut, FsecCut, RccCut, VminCalculator,
                          make_tifi, separate_tifi)
from fragvrp.fragments import build_fragment
from fragvrp.instance import Instance, Task, TemporalDependency
from fragvrp.master import (DualValues, MasterModel, build_initial,
                            initial_fragments)
from fragvrp.pricing import CostEnv, fragment_reduced_cost
from fragvrp.scheduling import schedule_routes

import support
from support import line_instance

TOL = 1e-6


def dep(u, v, quad):
    return TemporalDependency(u, v, *quad)


def solved(inst):
    m = build_initial(inst)
    return m, m.solve_relaxation()


class TestInitialColumns:
    def test_no_dependencies_gives_round_trips(self):
        inst = line_instance(3)
        frags = initial_fragments(inst)
        assert sorted(f.tasks for f in frags) == [(0, 1, 0), (0, 2, 0),
                                                  (0, 3, 0)]

    def test_dependent_pair_matches_enumeration(self):
        inst = line_instance(3, deps=[dep(1, 2, (2, 9, 0, 9))], horizon=30)
        got = {f.tasks for f in initial_fragments(inst)}
        expect = set()
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                if a != b and build_fragment((a, b), inst):
                    expect.add((a, b))
        if build_fragment((0, 3, 0), inst):
            expect.add((0, 3, 0))
        assert got == expect

    def test_empty_task_set(self):
        zero = np.zeros((1, 1), dtype=np.int64)
        inst = Instance(tasks=[Task(0, 0, 10, 0, 0)], travel_time=zero,
                        travel_cost=zero, vehicle_count=1, capacity=5,
                        horizon=10, dependencies=[])
        m, res = solved(inst)
        assert m.fragments == [] and m.cuts == []
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=TOL)

    def test_initial_fsecs_installed(self):
        inst = line_instance(
            5, deps=[dep(1, 2, (0, 60, 0, 60)), dep(3, 4, (0, 60, 0, 60))])
        m = build_initial(inst)
        keys = {c.key() for c in m.cuts}
        assert ("FSEC", (1, 2)) in keys
        assert ("FSEC", (3, 4)) in keys
        assert ("FSEC", (1, 2, 3, 4)) in keys


class TestRelaxation:
    def test_artificial_only_cover(self):
        inst = line_instance(2)
        m = MasterModel(inst)
        res = m.solve_relaxation()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(m.art_cost, abs=1e-4)
        assert res.artificial == pytest.approx(1.0, abs=TOL)

    def test_bounded_by_feasible_solution(self):
        inst = line_instance(3, deps=[dep(1, 2, (0, 60, 0, 60))])
        routes = [[1, 2], [3]]
        ok, _, _ = schedule_routes(routes, inst)
        assert ok
        m = build_initial(inst)
        sol_frags = [build_fragment(seq, inst)
                     for seq in support.routes_to_fragments(routes, inst)]
        assert all(sol_frags)
        m.add_fragments(sol_frags)
        res = m.solve_relaxation()
        assert res.status == "optimal"
        assert res.objective <= support.solution_cost(routes, inst) + 1e-4

    def test_dual_feasibility_audit(self):
        inst = line_instance(4, deps=[dep(1, 2, (1, 20, 1, 20))], horizon=40)
        m, res = solved(inst)
        assert res.status == "optimal"
        env = CostEnv(res.duals, inst)
        for i, f in enumerate(m.fragments):
            rc = fragment_reduced_cost(f, env)
            assert rc >= -1e-5, f.tasks
            if res.x[i] > TOL:
                assert abs(rc) <= 1e-5

    def test_zero_duals_reduce_to_cost(self):
        inst = line_instance(3, deps=[dep(1, 3, (0, 60, 0, 60))])
        m, res = solved(inst)
        zero = DualValues(0.0, np.zeros(inst.n + 1), {}, {}, {}, {}, {},
                          {}, {}, [])
        env = CostEnv(zero, inst)
        for f in m.fragments:
            assert fragment_reduced_cost(f, env) == pytest.approx(f.cost)

    def test_sign_conventions(self):
        inst = line_instance(4, deps=[dep(1, 2, (2, 10, 2, 10))], horizon=30)
        m, res = solved(inst)
        d = res.duals
        assert all(v <= TOL for v in d.rho.values())
        assert all(v <= TOL for v in d.lam.values())
        assert all(v >= -TOL for v in d.tau_lb.values())
        assert all(v >= -TOL for v in d.tau_ub.values())
        assert all(v >= -TOL for v in d.kap_lb.values())
        assert all(v >= -TOL for v in d.kap_ub.values())
        for cut, y in d.cut_duals:
            if cut.sense == "L":
                assert y <= TOL
            else:
                assert y >= -TOL

    def test_vehicle_lower_bound_row(self):
        inst = line_instance(2, demands=[10, 10], capacity=10)
        m = build_initial(inst)
        assert m.senses[1] == "G" and m.rhs[1] == 2.0
        res = m.solve_relaxation()
        departures = sum(x for f, x in zip(m.fragments, res.x)
                         if f.start == 0)
        departures += 2.0 * res.artificial
        assert departures >= 2.0 - 1e-5

    @pytest.mark.parametrize("cut", [RccCut(S=frozenset({1}), rhs=5),
                                     FrccCut(S=frozenset({1}), rhs=5)])
    def test_artificial_covers_appended_g_rows(self, cut):
        # No fragment can meet a capacity row asking for 5 vehicles into
        # {1}; the artificial column keeps the LP feasible, at weight 1.
        inst = support.random_instance(np.random.default_rng(5),
                                       n_tasks=5, n_deps=2)
        m = build_initial(inst)
        assert m.add_cut(cut)
        res = m.solve_relaxation()
        assert res.status == "optimal"
        assert res.artificial == pytest.approx(1.0, abs=TOL)

    def test_forced_order_pins_p(self):
        # Precedence: task 2 may never start before task 1.
        T = 40
        inst = line_instance(2, deps=[dep(1, 2, (0, T, T, T))], horizon=T)
        assert inst.forced_order(1, 2)
        m, res = solved(inst)
        assert res.p[(1, 2)] == pytest.approx(1.0, abs=TOL)

    def test_monotone_under_columns_and_cuts(self):
        inst = line_instance(4, deps=[dep(1, 2, (1, 15, 1, 15))], horizon=30)
        m, res0 = solved(inst)
        cuts = separate_tifi(m.support(res0.x), inst, viol_tol=1e-6,
                             existing=m.cut_keys())
        base = res0.objective
        if cuts:
            m.add_cuts(cuts)
            res1 = m.solve_relaxation()
            assert res1.objective >= base - 1e-6
            base = res1.objective
        added = m.add_fragments(
            support.exhaustive_fragments(inst, build_fragment))
        assert added > 0
        res2 = m.solve_relaxation()
        assert res2.objective <= base + 1e-6

    def test_rebuild_reproduces_value(self):
        inst = line_instance(3, deps=[dep(1, 2, (0, 20, 4, 20))], horizon=30)
        m, res = solved(inst)
        m.add_cut(make_tifi(1, 5))
        val = m.solve_relaxation().objective
        fresh = MasterModel(inst)
        fresh.add_fragments(m.fragments)
        for cut in m.cuts:
            fresh.add_cut(cut)
        assert fresh.solve_relaxation().objective == pytest.approx(val,
                                                                   abs=1e-7)

    def test_duplicate_columns_and_cuts_ignored(self):
        inst = line_instance(2, deps=[dep(1, 2, (0, 30, 0, 30))], horizon=30)
        m = build_initial(inst)
        before = len(m.fragments)
        assert m.add_fragments(initial_fragments(inst)) == 0
        assert len(m.fragments) == before
        assert not m.add_cut(m.cuts[0])


class TestAssembly:
    def test_order_of_adds_leaves_the_matrix_unchanged(self, monkeypatch):
        # The lower bound's cuts (RCCs lifted to FRCCs) and its columns,
        # given to one master cuts first and to another interleaved with
        # the columns: every assembled array must come out the same.
        from fragvrp import driver
        monkeypatch.setattr(driver, "FRCC_SIZE_CAP", 1.0)
        # Seed 1 separates every family, an FRCC among them.
        inst = support.random_instance(np.random.default_rng(1),
                                       n_tasks=6, n_deps=3)
        lb = driver.compute_lower_bound(inst)
        cuts = [driver._lift_cut(c, inst) for c in lb.cuts]
        frags = list(lb.columns)
        assert any(c.sense == "G" for c in cuts)
        assert any(c.p_pair is not None and c.p_coeff for c in cuts)
        first = MasterModel(inst)
        first.add_cuts(cuts)
        first.add_fragments(frags)
        mixed = MasterModel(inst)
        step = -(-len(frags) // (len(cuts) + 1))
        for i, cut in enumerate(cuts):
            mixed.add_fragments(frags[i * step:(i + 1) * step])
            mixed.add_cut(cut)
        mixed.add_fragments(frags[len(cuts) * step:])
        assert mixed.fragments == first.fragments
        A, *rest = first._assemble()
        B, *other = mixed._assemble()
        # the triplets come in add order; the matrix they sum to must not
        A, B = (sp.csr_matrix((v, (r, c)), shape=(len(rest[3]), len(rest[0])))
                for r, c, v in (A, B))
        nf = len(frags)
        assert A[A.shape[0] - len(cuts):, :nf].nnz > 0
        for a, b in [(A.data, B.data), (A.indices, B.indices),
                     (A.indptr, B.indptr)] + list(zip(rest, other)):
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.array_equal(a, b)

    def test_drop_then_add_matches_a_fresh_build(self, monkeypatch):
        # Drop every third column, initial ones among them, then add new
        # columns and the dropped ones again: the triplets must be those
        # of a fresh build that adds the columns in that order.
        from fragvrp import driver
        monkeypatch.setattr(driver, "FRCC_SIZE_CAP", 1.0)
        inst = support.random_instance(np.random.default_rng(1),
                                       n_tasks=6, n_deps=3)
        lb = driver.compute_lower_bound(inst)
        m = build_initial(inst)
        initial = len(m.fragments)
        m.add_cuts(driver._lift_cut(c, inst) for c in lb.cuts)
        m.add_fragments(lb.columns)
        first = [f for i, f in enumerate(m.fragments) if i % 3 and i < initial]
        rest = [f for i, f in enumerate(m.fragments) if i % 3 and i >= initial]
        dropped = m.fragments[::3]
        m.drop_fragments({f.tasks for f in dropped})
        assert m.fragments == first + rest and rest
        new = [f for f in support.exhaustive_fragments(inst, build_fragment)
               if f.tasks not in m._frag_keys and f not in dropped][:20]
        assert m.add_fragments(new + dropped) == len(new) + len(dropped)
        fresh = MasterModel(inst)
        fresh.add_fragments(first)
        fresh.add_cuts(m.cuts)
        fresh.add_fragments(rest + new + dropped)
        assert fresh.fragments == m.fragments
        assert fresh._frag_keys == m._frag_keys
        A, *arrays = m._assemble()
        B, *other = fresh._assemble()
        assert len(A[0]) > 0
        for a, b in zip((*A, *arrays), (*B, *other), strict=True):
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.array_equal(a, b)


class TestInteger:
    def tiny(self, seed):
        rng = np.random.default_rng(seed)
        return support.random_instance(rng, n_tasks=3, n_deps=1)

    @pytest.mark.parametrize("seed", [3, 5, 9, 12, 21])
    def test_matches_enumerated_optimum(self, seed):
        inst = self.tiny(seed)
        sols = support.all_feasible_solutions(inst, schedule_routes)
        m = build_initial(inst)
        m.add_fragments(support.exhaustive_fragments(inst, build_fragment))
        res = m.solve_integer()
        if not sols:
            assert res.status in ("infeasible", "no_solution")
            return
        best = min(support.solution_cost(r, inst) for r, _, _ in sols)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(best, abs=1e-6)
        assert res.artificial == pytest.approx(0.0, abs=TOL)
        # Exactly one fragment covers every task.
        cover = np.zeros(inst.n + 1)
        for f, x in zip(m.fragments, res.x):
            if x > 0.5:
                for v in f.tasks[:-1]:
                    if v != 0:
                        cover[v] += 1
        assert all(cover[1:] == 1)

    def test_integer_weights_are_binary(self):
        inst = self.tiny(3)
        m = build_initial(inst)
        m.add_fragments(support.exhaustive_fragments(inst, build_fragment))
        res = m.solve_integer()
        if res.status == "optimal":
            assert all(abs(x) < TOL or abs(x - 1) < TOL for x in res.x)
            for val in res.p.values():
                assert abs(val) < TOL or abs(val - 1) < TOL

import dataclasses
import heapq
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fragvrp import cuts, driver, enumeration, lpback, pricing
from fragvrp.driver import _restricted_master, compute_lower_bound
from fragvrp.fragments import Fragment, build_fragment, initial_bounds
from fragvrp.instance import Instance, Task, TemporalDependency
from fragvrp.master import (LP_TOLERANCE, DualValues, MasterModel,
                            build_initial, initial_fragments)
from fragvrp.pricing import (CostEnv, Label, _insert, _phi,
                             exact_memory, extend_label, fragment_reduced_cost,
                             interior_tasks, is_complete, labels_from,
                             ng_neighborhoods, solve_pricing)

from support import exhaustive_fragments, random_instance


def zero_duals(inst):
    return DualValues(gamma=0.0, mu=np.zeros(inst.n + 1), eta={}, rho={},
                      tau_lb={}, tau_ub={}, lam={}, kap_lb={}, kap_ub={},
                      cut_duals=[])


def random_sign_duals(rng, inst, with_cuts=False):
    """Arbitrary prices with the sign pattern the master always produces."""
    vd = sorted(inst.vd)
    mu = np.round(rng.uniform(-15, 15, inst.n + 1), 3)
    mu[0] = 0.0
    d = DualValues(
        gamma=float(np.round(rng.uniform(-20, 20), 3)),
        mu=mu,
        eta={v: float(np.round(rng.uniform(-10, 10), 3)) for v in vd},
        rho={(u, v): -float(np.round(rng.uniform(0, 2), 3))
             for u in vd for v in vd if u != v},
        tau_lb={v: float(np.round(rng.uniform(0, 3), 3)) for v in vd},
        tau_ub={v: float(np.round(rng.uniform(0, 3), 3)) for v in vd},
        lam={(u, v): -float(np.round(rng.uniform(0, 1), 3))
             for u in vd for v in vd if u != v},
        kap_lb={v: float(np.round(rng.uniform(0, 2), 3)) for v in vd},
        kap_ub={v: float(np.round(rng.uniform(0, 2), 3)) for v in vd},
        cut_duals=[])
    if with_cuts and vd:
        v = vd[0]
        t = int((inst.alpha[v] + inst.beta[v]) // 2)
        d.cut_duals.append((cuts.make_tifi(v, t),
                            -float(np.round(rng.uniform(0, 5), 3))))
        for dep in inst.deps:
            lo, hi = int(inst.alpha[dep.u]), int(inst.beta[dep.u])
            cut = cuts.make_tdifi(dep.u, dep.v, "uv-min",
                                  int(rng.integers(lo, hi + 1)), inst)
            d.cut_duals.append((cut, -float(np.round(rng.uniform(0, 5), 3))))
    return d


def fold(seq, inst, duals, ng=None):
    """Grow a label along seq with extend_label; None when infeasible."""
    if ng is None:
        ng = exact_memory(inst)
    env = CostEnv(duals, inst)
    lab = Label((seq[0],), 0, 0, *initial_bounds(seq[0], inst),
                env.init_cost(seq[0]))
    for u in seq[1:]:
        lab = extend_label(lab, u, env, ng)
        if lab is None:
            return None
    return lab


def summary(lab):
    return lab.es, lab.ls, lab.dur


def bits(mask):
    """The task set an ng-memory bitmask holds."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def scan_drops(f, g, env):
    """Whether the production dominance scan deletes g when f joins its
    bucket: g is inserted first, then f.  The scan always asks _phi
    here, which is itself 0.0 at an unpriced start.  A bucket is keyed
    end -> memory mask -> task sequence."""
    buckets, heap = {}, []
    _insert(buckets, heap, g, env, True)
    _insert(buckets, heap, f, env, True)
    return g.tasks not in buckets[g.end].get(g.mem, {})


def all_labels_no_dominance(inst, duals, ng, kernel=extend_label):
    """Reference labeling without any pruning: every reachable label,
    grown by kernel."""
    env = CostEnv(duals, inst)
    out = []
    stack = []
    for s in [0] + sorted(inst.vd):
        stack.append(Label((s,), 0, 0, *initial_bounds(s, inst),
                           env.init_cost(s)))
    while stack:
        lab = stack.pop()
        out.append(lab)
        if is_complete(lab, inst):
            continue
        for u in range(inst.n + 1):
            child = kernel(lab, u, env, ng)
            if child is not None:
                stack.append(child)
    return out


def plain_ng_kernel(lab, u, env, ng):
    """extend_label with the plain ng memory: a non-closing child
    remembers its parent's memory within u's neighborhood, and u, but
    no task out of reach."""
    child = extend_label(lab, u, env, ng)
    if child is None or is_complete(child, env.inst):
        return child
    return Label(child.tasks, (lab.mem & ng.get(u, 0)) | 1 << u, child.load,
                 child.es, child.ls, child.dur, child.rcost)


def line_dep_instance(dep_quad=(0, 30, 0, 30), horizon=40):
    """Tasks 1..4 on a line, 1 and 4 dependent, unit demands."""
    tasks = [Task(0, 0, horizon, 0, 0)]
    for v in range(1, 5):
        tasks.append(Task(v, 0, horizon - 5, 1, 1))
    t = np.zeros((5, 5), dtype=np.int64)
    for i in range(5):
        for j in range(5):
            t[i, j] = abs(i - j)
    deps = [TemporalDependency(1, 4, *dep_quad)]
    return Instance(tasks, t, t.copy(), 3, 10, horizon, deps)


def check_dense_reduced_costs(m, inst, extra=()):
    """Solves m's relaxation, adds `extra` columns (rows stay as they
    are, so the same row duals y price them), and checks
    fragment_reduced_cost against the dense obj - A^T y on every
    fragment column.  Returns the checked fragments and the duals."""
    A, obj, lb, ub, senses, rhs = m._assemble()
    res = lpback.solve_lp(obj, A, senses, rhs, lb, ub,
                          tol=LP_TOLERANCE)
    if res.status != "optimal":
        return [], None
    duals = m._extract_duals(res.duals)
    m.add_fragments(extra)
    (rows, cols, vals), obj = m._assemble()[:2]
    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(m.rhs), len(obj)))
    assert A.shape[0] == len(res.duals)
    dense = obj - A.T @ res.duals
    env = CostEnv(duals, inst)
    for i, f in enumerate(m.fragments):
        got = fragment_reduced_cost(f, env)
        assert got == pytest.approx(dense[i], abs=1e-7), f.tasks
    return m.fragments, duals


def priced_rows(duals, kind):
    return [cut for cut, y in duals.cut_duals
            if cut.kind == kind and abs(y) > 1e-9]


@dataclasses.dataclass(frozen=True)
class ArcRow:
    """A stand-in "arc" row, no cuts class: the arcs entering S, at
    least rhs, keyed apart from every real row."""

    S: frozenset
    rhs: float

    kind = "ARC"
    sense = "G"
    charge = "arc"
    p_pair = None
    p_coeff = 0.0

    def key(self):
        return (self.kind, tuple(sorted(self.S)))

    def fragment_coeff(self, f):
        return sum(1 for a, b in zip(f.tasks, f.tasks[1:])
                   if a not in self.S and b in self.S)


@dataclasses.dataclass(frozen=True)
class FragmentRow(ArcRow):
    """A stand-in "fragment" row: fragments starting outside S that
    visit it, at least rhs."""

    kind = "WHOLE"
    charge = "fragment"

    def fragment_coeff(self, f):
        return int(f.start not in self.S
                   and any(v in self.S for v in f.tasks))


class TestCompletionCost:
    def test_zero_duals_zero_charge(self):
        inst = line_dep_instance()
        f = build_fragment((1, 2, 4), inst)
        env = CostEnv(zero_duals(inst), inst)
        assert env.completion_charge(f.start, f.end, f.es, f.ls, f.dur,
                                     f.demand) == 0.0

    def test_single_term(self):
        base = line_dep_instance()
        tasks = [t if t.id != 4 else Task(4, 7, 35, 1, 1) for t in base.tasks]
        inst = base.replace(tasks=tasks)
        f = build_fragment((0, 2, 4), inst)
        d = zero_duals(inst)
        d.tau_lb[4] = 2.0
        assert f.es == 7
        env = CostEnv(d, inst)
        assert env.completion_charge(f.start, f.end, f.es, f.ls, f.dur,
                                     f.demand) == pytest.approx(14.0)

    def test_matches_master_columns(self):
        # on lower-bound masters (capacity cuts in arc form) the arc walk
        # plus charges equals objective minus A^T y on every fragment
        rng = np.random.default_rng(3)
        checked = rcc_rows = 0
        for _ in range(10):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            res = compute_lower_bound(inst)
            if res.status != "optimal":
                continue
            m = build_initial(inst)
            m.add_cuts(res.cuts)
            m.add_fragments(res.columns)
            frags, duals = check_dense_reduced_costs(
                m, inst, exhaustive_fragments(inst, build_fragment))
            checked += len(frags)
            if duals is not None:
                rcc_rows += len(priced_rows(duals, "RCC"))
        assert checked > 50
        assert rcc_rows >= 1

    def test_matches_restricted_master_columns(self, monkeypatch):
        # the restricted masters of the gap rounds lift capacity cuts to
        # fragment-capacity rows, which only fragment_reduced_cost prices
        monkeypatch.setattr(driver, "FRCC_SIZE_CAP", 1.0)
        rng = np.random.default_rng(0)
        checked = frcc_rows = 0
        for _ in range(30):
            inst = random_instance(rng, n_tasks=7, n_deps=2)
            res = compute_lower_bound(inst)
            if res.status != "optimal":
                continue
            pool = enumeration.enumerate_fragments(res.duals, 15.0, inst)
            m = _restricted_master(inst, res.cuts, pool)
            frags, duals = check_dense_reduced_costs(m, inst)
            checked += len(frags)
            if duals is not None:
                frcc_rows += len(priced_rows(duals, "FRCC"))
        assert checked > 500
        assert frcc_rows >= 1

    def test_rows_priced_by_their_charge_alone(self):
        # rows of no cuts class are priced by the charge they declare:
        # the capacity rows of lower-bound masters become "arc" stand-ins
        # and those of restricted masters "fragment" stand-ins, and
        # fragment_reduced_cost still equals obj - A^T y on every column
        rng = np.random.default_rng(0)
        checked = 0
        priced = {ArcRow: 0, FragmentRow: 0}
        for _ in range(30):
            inst = random_instance(rng, n_tasks=7, n_deps=2)
            res = compute_lower_bound(inst)
            if res.status != "optimal":
                continue
            pool = enumeration.enumerate_fragments(res.duals, 15.0, inst)
            for row, extra in ((ArcRow, exhaustive_fragments(
                    inst, build_fragment)), (FragmentRow, ())):
                m = MasterModel(inst)
                m.add_fragments(initial_fragments(inst))
                m.add_cuts(row(c.S, c.rhs) if c.kind == "RCC" else c
                           for c in res.cuts)
                m.add_fragments(res.columns if row is ArcRow else pool)
                frags, duals = check_dense_reduced_costs(m, inst, extra)
                checked += len(frags)
                if duals is not None:
                    priced[row] += len(priced_rows(duals, row.kind))
        assert checked > 500
        assert min(priced.values()) >= 1, priced

    def test_row_lists_keep_every_charge(self):
        # completion_charge sums only the rows that can be nonzero at the
        # (start, end) pair; the sum over every row, written out here,
        # must come out the same to the last bit
        def every_row(env, start, end, es, ls, dur, load):
            inst, d = env.inst, env.duals
            th = 0.0
            if start in inst.vd:
                th += load * d.kap_ub.get(start, 0.0)
                th -= ls * d.tau_ub.get(start, 0.0)
            if end in inst.vd:
                th += es * d.tau_lb.get(end, 0.0)
                th += load * d.kap_lb.get(end, 0.0)
                if start in inst.vd:
                    th -= (dur + inst.beta[start]
                           - inst.alpha[end]) * d.rho.get((start, end), 0.0)
                    th -= (inst.Q - inst.dem[start] + load) \
                        * d.lam.get((start, end), 0.0)
            for cut, y in env.completion_duals:
                th -= y * cut.completion_coeff(start, end, es, ls)
            return th

        rng = np.random.default_rng(7)
        kinds = set()
        skipped = 0
        for _ in range(12):
            inst = random_instance(rng, n_tasks=6, n_deps=3)
            res = compute_lower_bound(inst)
            if res.status != "optimal":
                continue
            env = CostEnv(res.duals, inst)
            kinds |= {cut.kind for cut, _ in env.completion_duals}
            for f in exhaustive_fragments(inst, build_fragment):
                args = (f.start, f.end, f.es, f.ls, f.dur, f.demand)
                assert env.completion_charge(*args).hex() == \
                    every_row(env, *args).hex(), f.tasks
            skipped += sum(len(env.completion_duals) - len(rows)
                           for rows in env._completion_rows.values())
        assert {"FSEC", "TIFI", "TDIFI"} <= kinds
        assert skipped > 0


class TestExtendLabel:
    def test_depot_round_trip(self):
        inst = line_dep_instance()
        d = zero_duals(inst)
        lab = fold((0, 1), inst, d)
        assert is_complete(lab, inst)
        assert lab.rcost == pytest.approx(float(inst.c[0, 1]))

    def test_capacity_rejected(self):
        inst = line_dep_instance()
        heavy = inst.replace(tasks=[Task(0, 0, 40, 0, 0)] + [
            Task(v, 0, 35, 1, 4) for v in range(1, 5)])
        d = zero_duals(heavy)
        lab = fold((1, 2), heavy, d)
        out = extend_label(lab, 3, CostEnv(d, heavy), exact_memory(heavy))
        assert out is None

    def test_structural_rejects(self):
        inst = line_dep_instance()
        d = zero_duals(inst)
        ng = exact_memory(inst)
        env = CostEnv(d, inst)
        depot = Label((0,), 0, 0, *initial_bounds(0, inst), 0.0)
        assert extend_label(depot, 0, env, ng) is None
        lab = fold((1, 2), inst, d)
        # start revisit, then held in memory
        assert extend_label(lab, 1, env, ng) is None
        assert extend_label(lab, 2, env, ng) is None

    def test_chain_equals_fragment_recursion(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(12):
            inst = random_instance(rng, n_tasks=6, n_deps=2)
            d = zero_duals(inst)
            for f in exhaustive_fragments(inst, build_fragment):
                lab = fold(f.tasks, inst, d)
                assert lab is not None, f.tasks
                assert (lab.es, lab.ls, lab.dur) == (f.es, f.ls, f.dur)
                assert lab.load == f.demand
                assert lab.rcost == pytest.approx(float(f.cost))
                checked += 1
        assert checked > 100

    def test_complete_labels_are_fragments(self):
        # the converse: the kernel accepts only what build_fragment
        # accepts, with the same schedule summary and demand; every other
        # instance gets a capacity that binds on task pairs
        rng = np.random.default_rng(11)
        checked = 0
        for i in range(12):
            inst = random_instance(rng, n_tasks=6, n_deps=2)
            if i % 2:
                top = max(max(inst.dem), 1)
                inst = inst.replace(capacity=int(rng.integers(top, 2 * top)))
            for lab in all_labels_no_dominance(inst, zero_duals(inst),
                                               exact_memory(inst)):
                if not is_complete(lab, inst):
                    continue
                f = build_fragment(lab.tasks, inst)
                assert isinstance(f, Fragment), (lab.tasks, f.reason)
                assert (f.es, f.ls, f.dur, f.demand) == \
                    (lab.es, lab.ls, lab.dur, lab.load)
                checked += 1
        assert checked > 100

    def test_label_window_system(self):
        # every label produced satisfies the full feasibility system
        rng = np.random.default_rng(9)
        for _ in range(6):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            d = random_sign_duals(rng, inst)
            ng = ng_neighborhoods(inst, 3)
            for lab in all_labels_no_dominance(inst, d, ng):
                s, e = lab.start, lab.end
                assert inst.alpha[s] <= lab.ls <= inst.beta[s]
                assert inst.alpha[e] <= lab.es <= inst.beta[e]
                assert lab.ls + lab.dur <= inst.beta[e]
                assert lab.es - lab.dur >= inst.alpha[s]
                assert lab.load + inst.dem[e] <= inst.Q
                if len(lab.tasks) >= 2 and inst.has_dep(s, e):
                    assert inst.dmin(s, e) <= lab.dur <= inst.dmax(s, e)

    def test_extension_monotone(self):
        # child resources never beat the parent in the dominance order
        rng = np.random.default_rng(13)
        for _ in range(6):
            inst = random_instance(rng, n_tasks=5, n_deps=1)
            d = zero_duals(inst)
            ng = ng_neighborhoods(inst, 4)
            env = CostEnv(d, inst)
            for lab in all_labels_no_dominance(inst, d, ng):
                if is_complete(lab, inst):
                    continue
                for u in range(inst.n + 1):
                    child = extend_label(lab, u, env, ng)
                    if child is None:
                        continue
                    assert child.es >= lab.es
                    assert child.ls <= lab.ls
                    assert child.dur >= lab.dur
                    assert child.load >= lab.load


class TestCompletionBound:
    def two_labels(self, inst, duals):
        f = fold((1, 2), inst, duals)
        g = fold((1, 3, 2), inst, duals)
        assert f.mem | g.mem == g.mem and f.load <= g.load
        assert f.es <= g.es and f.ls >= g.ls and f.dur <= g.dur
        return f, g

    def test_zero_prices_zero_bound(self):
        inst = line_dep_instance()
        d = zero_duals(inst)
        f, g = self.two_labels(inst, d)
        assert _phi(f, g, CostEnv(d, inst)) == 0.0

    def test_equal_resources_no_dependencies(self):
        inst = line_dep_instance()
        free = inst.replace(dependencies=())
        d = zero_duals(free)
        d.tau_ub[1] = 2.5      # prices on a task no longer dependent
        d.kap_ub[1] = 1.5
        env = CostEnv(d, free)
        a = Label((1, 2), 1 << 2, 1,
                  *summary(fold((1, 2), inst, zero_duals(inst))), 0.0)
        b = Label((1, 3, 2), 1 << 2 | 1 << 3, 2,
                  *summary(fold((1, 3, 2), inst, zero_duals(inst))), 5.0)
        eq = Label(b.tasks, b.mem, a.load, *summary(a), b.rcost)
        assert _phi(a, eq, env) == 0.0

    def test_precondition_enforced(self):
        # reduced cost and bound count only once every resource favors
        # the dominating label
        inst = line_dep_instance()
        d = zero_duals(inst)
        d.tau_ub[1] = 1000.0
        d.kap_ub[1] = 1000.0
        f, g = self.two_labels(inst, d)
        env = CostEnv(d, inst)
        assert _phi(g, f, env) < 0.0
        assert scan_drops(f, g, env)
        assert not scan_drops(g, f, env)
        cheap = Label(g.tasks, g.mem, g.load, *summary(g), f.rcost - 1.0)
        assert not scan_drops(cheap, f, env)

    @pytest.mark.parametrize("with_cuts", [False, True])
    def test_bound_below_every_completion_gap(self, with_cuts):
        # the inequality the relaxed dominance depends on: for labels f, g
        # with the resource criteria in favor of f, the charge gap of any
        # common completion suffix is at least the bound
        rng = np.random.default_rng(21 if with_cuts else 17)
        pairs = suffixes = 0
        for _ in range(35):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            duals = random_sign_duals(rng, inst, with_cuts=with_cuts)
            ng = ng_neighborhoods(inst, 3)
            env = CostEnv(duals, inst)
            labels = [lab for lab in all_labels_no_dominance(inst, duals, ng)
                      if not is_complete(lab, inst)]
            by_bucket = {}
            for lab in labels:
                by_bucket.setdefault((lab.start, lab.end), []).append(lab)
            for bucket in by_bucket.values():
                for f in bucket:
                    for g in bucket:
                        if f is g or f.tasks == g.tasks:
                            continue
                        if not (f.mem | g.mem == g.mem and f.load <= g.load
                                and f.es <= g.es and f.ls >= g.ls
                                and f.dur <= g.dur):
                            continue
                        phi = _phi(f, g, env)
                        if f.rcost > g.rcost:
                            assert scan_drops(f, g, env) == \
                                (f.rcost <= g.rcost + phi)
                        pairs += 1
                        suffixes += self.check_suffixes(f, g, phi, ng, env)
        assert pairs > 20 and suffixes > 20

    def check_suffixes(self, f, g, phi, ng, env):
        """Enumerates every completion of g and compares charge gaps."""
        inst = env.inst
        seen = 0
        stack = [(f, g)]
        while stack:
            lf, lg = stack.pop()
            for u in range(inst.n + 1):
                cg = extend_label(lg, u, env, ng)
                if cg is None:
                    continue
                cf = extend_label(lf, u, env, ng)
                assert cf is not None, "dominant label lost a completion"
                if is_complete(cg, inst):
                    gap_g = cg.rcost - g.rcost
                    gap_f = cf.rcost - f.rcost
                    assert gap_g - gap_f >= phi - 1e-9
                    seen += 1
                else:
                    stack.append((cf, cg))
        return seen


class FullScanEnv(CostEnv):
    """The same prices, with every task offered to every label: no
    successor list, and no skip before the kernel."""

    def open_succ(self, lab):
        return list(range(self.inst.n + 1))


def label_record(lab):
    return (lab.tasks, lab.mem, lab.load, lab.es, lab.ls, lab.dur, lab.rcost)


@st.composite
def priced_cases(draw):
    """A random instance, often with capacity binding on task pairs, and
    random master-signed prices with or without cut rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inst = random_instance(rng, n_tasks=draw(st.integers(3, 6)),
                           n_deps=draw(st.integers(0, 3)))
    if draw(st.booleans()):
        top = max(max(inst.dem), 1)
        inst = inst.replace(capacity=draw(st.integers(top, 2 * top)))
    duals = random_sign_duals(rng, inst, with_cuts=draw(st.booleans()))
    ng_size = draw(st.integers(0, inst.n))
    return inst, duals, ng_size


class TestSuccessorLists:
    @settings(max_examples=60, deadline=None)
    @given(priced_cases())
    def test_lists_are_exact_and_change_nothing(self, case):
        inst, duals, ng_size = case
        env = CostEnv(duals, inst)
        nodes = range(inst.n + 1)
        # one table per instance, which a pricing context only reads
        assert not hasattr(env, "succ")
        # the documented filter, read off the Task records and inst.t
        alpha = [t.alpha for t in inst.tasks]
        beta = [t.beta for t in inst.tasks]
        dur = [t.duration for t in inst.tasks]
        dem = [t.demand for t in inst.tasks]
        for e in nodes:
            assert inst.succ[e] == [
                u for u in nodes
                if alpha[e] + dur[e] + inst.t[e, u] <= beta[u]
                and dem[e] + dem[u] <= inst.Q]
        # sound: every task left out, of the list or by the loops' skip,
        # fails on every reachable label
        ng = ng_neighborhoods(inst, ng_size)
        for lab in all_labels_no_dominance(inst, duals, ng):
            if is_complete(lab, inst):
                continue
            opened = env.open_succ(lab)
            assert set(opened) <= set(inst.succ[lab.end])
            for u in set(nodes) - set(opened):
                assert extend_label(lab, u, env, ng) is None
        # pricing and enumeration equal a full scan of the same kernel
        full = FullScanEnv(duals, inst)
        for s in [0] + sorted(inst.vd):
            assert [label_record(lab)
                    for lab in labels_from(s, env, ng)] == \
                [label_record(lab)
                 for lab in labels_from(s, full, ng)]
        for gap in (0.0, 25.0):
            pool = enumeration.enumerate_fragments(duals, gap, inst)
            with mock.patch.object(enumeration, "CostEnv", FullScanEnv):
                assert pool == enumeration.enumerate_fragments(duals, gap,
                                                               inst)


def out_of_reach(u, es, inst):
    """The dependency-free tasks v a label ending at u with earliest
    start es can no longer reach in time: es + d_u + t_uv > beta_v, read
    off the instance's values, not its reach table."""
    return frozenset(v for v in interior_tasks(inst)
                     if es + inst.dur[u] + inst.t[u, v] > inst.beta[v])


def reference_labels_from(start, env, ng):
    """labels_from under the pairwise dominance rule over frozenset
    memory, asking _phi at every start.  Resources and costs come from
    extend_label; the memory is kept as a set beside each label's mask,
    and the two must agree: a non-closing child remembers the ng
    projection of its parent's memory, its own end, and every task its
    end can no longer reach.  Returns (label, memory set) pairs."""
    inst = env.inst
    if inst.alpha[start] > inst.beta[start]:
        return []
    hoods = {u: bits(mask) for u, mask in ng.items()}

    def dominates(f, fmem, g, gmem):
        if f.dur > g.dur or f.ls < g.ls or f.es > g.es or f.load > g.load:
            return False
        if not fmem <= gmem:
            return False
        return f.rcost <= g.rcost or f.rcost <= g.rcost + _phi(f, g, env)

    heap, buckets, done = [], {}, []

    def insert(lab, mem):
        bucket = buckets.setdefault(lab.end, {})
        doomed = []
        for seq, (kept, kmem) in bucket.items():
            if kept.dur <= lab.dur and dominates(kept, kmem, lab, mem):
                return
            if lab.dur <= kept.dur and dominates(lab, mem, kept, kmem):
                doomed.append(seq)
        for seq in doomed:
            del bucket[seq]
        bucket[lab.tasks] = (lab, mem)
        heapq.heappush(heap, (lab.dur, lab.rcost, len(lab.tasks), lab.tasks,
                              lab, mem))

    insert(Label((start,), 0, 0, *initial_bounds(start, inst),
                 env.init_cost(start)), frozenset())
    while heap:
        lab, mem = heapq.heappop(heap)[-2:]
        if buckets[lab.end].get(lab.tasks, (None,))[0] is not lab:
            continue
        for u in inst.succ[lab.end]:
            child = extend_label(lab, u, env, ng)
            closing = u == 0 or u in inst.vd
            if not closing and u in mem:
                assert child is None
                continue
            if child is None:
                continue
            cmem = mem if closing else \
                (mem & hoods.get(u, frozenset())) | {u} \
                | out_of_reach(u, child.es, inst)
            assert bits(child.mem) == cmem
            if is_complete(child, inst):
                done.append((child, cmem))
            else:
                insert(child, cmem)
    return done


class TestOutOfReachMemory:
    @settings(max_examples=60, deadline=None)
    @given(priced_cases())
    def test_least_cost_per_start_as_plain_ng(self, case):
        # remembering the tasks out of reach cuts off no sequence whose
        # windows hold, so per start the least reduced cost equals the
        # plain ng memory's, with dominance and without it
        inst, duals, ng_size = case
        env = CostEnv(duals, inst)
        for ng in (ng_neighborhoods(inst, ng_size), exact_memory(inst)):
            every = [lab for lab in all_labels_no_dominance(inst, duals, ng)
                     if is_complete(lab, inst)]
            plain_every = [
                lab for lab in all_labels_no_dominance(inst, duals, ng,
                                                       plain_ng_kernel)
                if is_complete(lab, inst)]
            assert sorted(lab.tasks for lab in every) == \
                sorted(lab.tasks for lab in plain_every)
            for s in [0] + sorted(inst.vd):
                got = [lab.rcost for lab in labels_from(s, env, ng)]
                with mock.patch.object(pricing, "extend_label",
                                       plain_ng_kernel):
                    plain = [lab.rcost for lab in labels_from(s, env, ng)]
                full = [lab.rcost for lab in every if lab.start == s]
                assert bool(got) == bool(plain) == bool(full)
                if full:
                    assert min(got) == pytest.approx(min(full), abs=1e-9)
                    assert min(plain) == pytest.approx(min(full), abs=1e-9)

    def test_memory_holds_the_tasks_out_of_reach(self):
        # after 0 -> 1 (es 1), task 3 (window [0, 2], two away) is out
        # of reach; after 1 -> 2 (es 2), task 1 is too; the memory
        # forgets every visit but the last, so it holds only those
        tasks = [Task(0, 0, 40, 0, 0), Task(1, 0, 1, 0, 1),
                 Task(2, 0, 30, 0, 1), Task(3, 0, 2, 0, 1)]
        t = np.array([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1],
                      [3, 2, 1, 0]], dtype=np.int64)
        inst = Instance(tasks, t, t.copy(), 2, 10, 40, [])
        hoods = {u: 0 for u in interior_tasks(inst)}
        lab = fold((0, 1), inst, zero_duals(inst), hoods)
        assert bits(lab.mem) == {1, 3}
        lab = fold((0, 1, 2), inst, zero_duals(inst), hoods)
        assert (lab.es, bits(lab.mem)) == (2, {1, 2, 3})
        assert fold((0, 1, 2, 3), inst, zero_duals(inst), hoods) is None


class TestDominanceScan:
    @settings(max_examples=200, deadline=None)
    @given(priced_cases())
    def test_scan_equals_pairwise_rule_over_sets(self, case):
        # the bitmask scan, with _phi skipped at unpriced starts, keeps
        # exactly the labels of the pairwise rule over set memory, in
        # the same order; random_sign_duals prices every dependent start
        # and leaves the depot unpriced, so both branches run
        inst, duals, ng_size = case
        env = CostEnv(duals, inst)
        for ng in (ng_neighborhoods(inst, ng_size), exact_memory(inst)):
            for s in [0] + sorted(inst.vd):
                got = labels_from(s, env, ng)
                want = reference_labels_from(s, env, ng)
                assert [label_record(lab) for lab in got] == \
                    [label_record(lab) for lab, _ in want]
                assert [bits(lab.mem) for lab in got] == \
                    [mem for _, mem in want]


class TestSolvePricing:
    def test_zero_duals_empty(self):
        inst = line_dep_instance()
        assert solve_pricing(zero_duals(inst), inst) == []

    def test_isolated_task_priced_out(self):
        inst = line_dep_instance()
        d = zero_duals(inst)
        d.mu = np.zeros(inst.n + 1)
        d.mu[3] = 1000.0
        cols = solve_pricing(d, inst)
        assert (0, 3, 0) in [f.tasks for f in cols]

    def test_matches_exhaustive_minimum(self):
        rng = np.random.default_rng(29)
        tried = 0
        for _ in range(10):
            inst = random_instance(rng, n_tasks=6, n_deps=2)
            m = build_initial(inst)
            sol = m.solve_relaxation()
            if sol.status != "optimal":
                continue
            env = CostEnv(sol.duals, inst)
            want = min(fragment_reduced_cost(f, env)
                       for f in exhaustive_fragments(inst, build_fragment))
            cols = solve_pricing(sol.duals, inst, ng=exact_memory(inst))
            if want < -LP_TOLERANCE:
                got = min(fragment_reduced_cost(f, env) for f in cols)
                assert got == pytest.approx(want, abs=1e-7)
            else:
                assert cols == []
            tried += 1
        assert tried >= 5

    def test_output_contract(self, monkeypatch):
        rng = np.random.default_rng(31)
        monkeypatch.setattr(pricing, "COLS_PER_ITER", 4)
        done = 0
        for _ in range(10):
            inst = random_instance(rng, n_tasks=6, n_deps=2)
            m = build_initial(inst)
            sol = m.solve_relaxation()
            if sol.status != "optimal":
                continue
            with monkeypatch.context() as mp:
                mp.setattr(pricing, "COLS_PER_ITER", 10 ** 6)
                full = solve_pricing(sol.duals, inst)
            cols = solve_pricing(sol.duals, inst)
            assert len(cols) <= 4
            seqs = [f.tasks for f in cols]
            assert len(set(seqs)) == len(seqs)
            env = CostEnv(sol.duals, inst)
            rcs = {f.tasks: fragment_reduced_cost(f, env) for f in full}
            assert all(rcs[s] < -LP_TOLERANCE for s in seqs if s in rcs)
            # every start with a negative fragment keeps its cheapest one
            best = {}
            for f in full:
                rc = rcs[f.tasks]
                if rc < best.get(f.start, (0.0, None))[0]:
                    best[f.start] = (rc, f.tasks)
            for s, (rc, seq) in best.items():
                if len(best) <= 4:
                    held = [q for q in seqs if q[0] == s]
                    assert held and min(rcs[q] for q in held) == \
                        pytest.approx(rc, abs=1e-9)
            if full:
                done += 1
        assert done >= 3

    def test_ng_relaxation_direction(self):
        # forgetting visits can only lower the attainable minimum
        rng = np.random.default_rng(37)
        compared = 0
        for _ in range(8):
            inst = random_instance(rng, n_tasks=6, n_deps=1)
            m = build_initial(inst)
            sol = m.solve_relaxation()
            if sol.status != "optimal":
                continue
            env = CostEnv(sol.duals, inst)

            def best(ng):
                out = [lab.rcost for s in [0] + sorted(inst.vd)
                       for lab in labels_from(s, env, ng)]
                return min(out) if out else 0.0

            relaxed = best(ng_neighborhoods(inst, 1))
            exact = best(exact_memory(inst))
            assert relaxed <= exact + 1e-9
            compared += 1
        assert compared >= 4

    def test_dominance_prunes_nothing_optimal(self):
        # the pruned run reaches the same minimum as a run with no
        # dominance at all, under the same memory
        rng = np.random.default_rng(41)
        compared = 0
        for _ in range(8):
            inst = random_instance(rng, n_tasks=5, n_deps=2)
            m = build_initial(inst)
            sol = m.solve_relaxation()
            if sol.status != "optimal":
                continue
            for ng in (ng_neighborhoods(inst, 2), exact_memory(inst)):
                env = CostEnv(sol.duals, inst)
                pruned = [lab.rcost for s in [0] + sorted(inst.vd)
                          for lab in labels_from(s, env, ng)]
                plain = [lab.rcost
                         for lab in all_labels_no_dominance(inst, sol.duals,
                                                            ng)
                         if is_complete(lab, inst)]
                assert bool(plain) == bool(pruned)
                if plain:
                    assert min(pruned) == pytest.approx(min(plain), abs=1e-9)
                compared += 1
        assert compared >= 8

    def test_ng_excludes_dependent_tasks(self):
        rng = np.random.default_rng(43)
        inst = random_instance(rng, n_tasks=7, n_deps=3)
        hoods = ng_neighborhoods(inst, 10)
        assert set(hoods) == set(interior_tasks(inst))
        for hood in hoods.values():
            assert not (bits(hood) & inst.vd)

    def test_fragment_capacity_rows_rejected(self):
        # a fragment-capacity price is charged on finished fragments but
        # has no arc or completion form, so both label searches refuse it
        inst = line_dep_instance()
        d = zero_duals(inst)
        frcc = cuts.FrccCut(frozenset((1, 2)), 1)
        d.cut_duals.append((frcc, -3.0))
        env = CostEnv(d, inst)
        assert env.fragment_duals == [(frcc, -3.0)]
        f = build_fragment((0, 2, 4), inst)
        assert frcc.fragment_coeff(f) == 1
        assert fragment_reduced_cost(f, env) == pytest.approx(f.cost + 3.0)
        with pytest.raises(ValueError):
            solve_pricing(d, inst)
        with pytest.raises(ValueError):
            enumeration.enumerate_fragments(d, 10.0, inst)


class TestChargeMonotonicity:
    def test_sign_audit(self):
        # charges never fall when dur, es or load grow, never rise when
        # ls grows, under the master's dual sign pattern
        rng = np.random.default_rng(47)
        inst = line_dep_instance()
        for _ in range(40):
            d = random_sign_duals(rng, inst, with_cuts=True)
            env = CostEnv(d, inst)
            s, e = 1, 4
            es, ls, dur, load = 12, 9, 6, 3
            base = env.completion_charge(s, e, es, ls, dur, load)
            assert env.completion_charge(s, e, es, ls, dur + 2, load) \
                >= base - 1e-12
            assert env.completion_charge(s, e, es + 2, ls, dur, load) \
                >= base - 1e-12
            assert env.completion_charge(s, e, es, ls, dur, load + 2) \
                >= base - 1e-12
            assert env.completion_charge(s, e, es, ls + 2, dur, load) \
                <= base + 1e-12

"""Cut row coefficients, minimum-vehicle computation, and separation."""

import collections
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fragvrp.cuts as cutlib
from fragvrp.cuts import (TDIFI_VARIANTS, FrccCut, FsecCut, RccCut,
                          VminCalculator, lift_rcc_to_frcc, make_tdifi,
                          make_tifi, rcc_rhs,
                          separate_fsec, separate_rcc, separate_tdifi,
                          separate_tifi)
from fragvrp.fragments import build_fragment
from fragvrp.instance import Instance, Task, TemporalDependency
from fragvrp.scheduling import schedule_routes

import support
from support import line_instance


def dep(u, v, quad):
    return TemporalDependency(u, v, *quad)


def frag(seq, inst):
    f = build_fragment(tuple(seq), inst)
    assert f, "helper expects a feasible fragment: %s" % (f.reason,)
    return f


class TestCoefficients:
    def test_fsec_membership_and_rhs(self):
        inst = line_instance(3, deps=[dep(1, 2, (0, 60, 0, 60))])
        cut = FsecCut(S=frozenset((1, 2)), vmin=1)
        assert cut.rhs == 1.0
        assert cut.fragment_coeff(frag((1, 3, 2), inst)) == 1
        assert cut.fragment_coeff(frag((0, 3, 1), inst)) == 0
        assert cut.fragment_coeff(frag((2, 0), inst)) == 0
        assert FsecCut(S=frozenset((1, 2)), vmin=3).rhs == -1.0

    def test_tifi_conditions(self):
        inst = line_instance(3, deps=[dep(1, 2, (0, 60, 0, 60))])
        incoming = frag((0, 3, 1), inst)   # ends at task 1
        outgoing = frag((1, 0), inst)      # starts at task 1
        t = incoming.es
        cut = make_tifi(1, t)
        assert cut.key() == ("TIFI", 1, t)
        assert (cut.in_task, cut.es_min, cut.out_task, cut.ls_max) == \
            (1, t, 1, t - 1)
        assert (cut.p_pair, cut.p_coeff, cut.rhs) == (None, 0.0, 1.0)
        assert cut.fragment_coeff(incoming) == 1
        assert cut.fragment_coeff(frag((0, 1), inst)) == (
            1 if frag((0, 1), inst).es >= t else 0)
        # The outgoing side counts only fragments that must start earlier.
        assert cut.fragment_coeff(outgoing) == (1 if outgoing.ls < t else 0)
        late = make_tifi(1, outgoing.ls + 1)
        assert late.fragment_coeff(outgoing) == 1

    def test_tifi_matches_its_definition(self):
        # [f.end == v and f.es >= t] + [f.start == v and f.ls < t] over
        # every exhaustive fragment, at every es and ls and one either side
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(4):
            inst = support.random_instance(rng, n_tasks=5, n_deps=2)
            frags = support.exhaustive_fragments(inst, build_fragment)
            times = {f.es for f in frags} | {f.ls for f in frags}
            for v in sorted(inst.vd):
                for t in sorted({t + d for t in times for d in (-1, 0, 1)}):
                    cut = make_tifi(v, t)
                    for f in frags:
                        want = int(f.end == v and f.es >= t) \
                            + int(f.start == v and f.ls < t)
                        assert cut.fragment_coeff(f) == want, (v, t, f.tasks)
                        checked += want
        assert checked > 1000

    def test_tdifi_variant_thresholds(self):
        inst = line_instance(4, deps=[dep(1, 2, (2, 5, 1, 7))])
        a = make_tdifi(1, 2, "uv-min", 10, inst)
        assert a.key() == ("TDIFI", 1, 2, "uv-min", 10)
        assert a.p_pair == (1, 2)
        assert (a.in_task, a.es_min, a.out_task, a.ls_max) == (1, 10, 2, 11)
        assert (a.p_coeff, a.rhs) == (1.0, 2.0)
        b = make_tdifi(1, 2, "uv-max", 10, inst)
        assert (b.out_task, b.ls_max, b.in_task, b.es_min) == (1, 10, 2, 16)
        assert (b.p_coeff, b.rhs) == (0.0, 1.0)
        c = make_tdifi(1, 2, "vu-min", 10, inst)
        assert (c.in_task, c.es_min, c.out_task, c.ls_max) == (2, 10, 1, 10)
        assert (c.p_coeff, c.rhs) == (-1.0, 1.0)
        d = make_tdifi(1, 2, "vu-max", 10, inst)
        assert (d.out_task, d.ls_max, d.in_task, d.es_min) == (2, 10, 1, 18)
        assert (d.p_coeff, d.rhs) == (0.0, 1.0)
        with pytest.raises(ValueError):
            make_tdifi(2, 1, "uv-min", 10, inst)
        with pytest.raises(ValueError):
            make_tdifi(1, 2, "sideways", 10, inst)

    def test_rcc_counts_entries_frcc_counts_fragments(self):
        inst = line_instance(4)
        route = frag((0, 2, 1, 3, 0), inst)
        S = frozenset((2, 3))
        rcc = RccCut(S=S, rhs=1.0)
        frcc = FrccCut(S=S, rhs=1.0)
        assert rcc.fragment_coeff(route) == 2
        assert frcc.fragment_coeff(route) == 1

    def test_start_inside_set(self):
        inst = line_instance(4, deps=[dep(1, 4, (0, 60, 0, 60))])
        f = frag((1, 2, 3, 4), inst)
        S = frozenset((1, 3))
        assert FrccCut(S=S, rhs=1.0).fragment_coeff(f) == 0
        assert RccCut(S=S, rhs=1.0).fragment_coeff(f) == 1

    def test_lift_preserves_set_and_rhs(self):
        cut = RccCut(S=frozenset((1, 2, 3)), rhs=2.0)
        lifted = lift_rcc_to_frcc(cut)
        assert lifted.S == cut.S and lifted.rhs == cut.rhs
        assert lifted.kind == "FRCC" and lifted.sense == "G"

    def test_rcc_rhs_ceiling(self):
        inst = line_instance(3, demands=[10, 10, 1], capacity=10)
        assert rcc_rhs((1, 2), inst) == 2
        assert rcc_rhs((1, 2, 3), inst) == 3
        assert rcc_rhs((3,), inst) == 1
        zero = line_instance(2, demands=[0, 0], capacity=10)
        assert rcc_rhs((1, 2), zero) == 0


class TestCompletionContract:
    def test_es_read_only_at_a_dependent_end_ls_at_a_dependent_start(self):
        # cuts.Row: at a depot end a completion row's coefficient is the
        # same for every es, at a depot start for every ls.  The sweep
        # crosses every threshold, and at dependent ends and starts the
        # interval rows do move with es and ls, so the check has teeth.
        inst = line_instance(4, deps=[dep(1, 2, (2, 5, 1, 7))])
        rows = [FsecCut(S=frozenset((1, 2)), vmin=1),
                make_tifi(1, 10), make_tifi(2, 10)]
        rows += [make_tdifi(1, 2, variant, 10, inst)
                 for variant in TDIFI_VARIANTS]
        ends = [0] + sorted(inst.vd)
        times = range(0, 30)
        moved = collections.Counter()
        for row in rows:
            for start, end in itertools.product(ends, ends):
                if start == end:
                    continue
                for es, ls in itertools.product(times, times):
                    c = row.completion_coeff(start, end, es, ls)
                    if end == 0:
                        assert c == row.completion_coeff(start, end, 0, ls)
                    else:
                        moved["es", row.kind] += \
                            c != row.completion_coeff(start, end, 0, ls)
                    if start == 0:
                        assert c == row.completion_coeff(start, end, es, 0)
                    else:
                        moved["ls", row.kind] += \
                            c != row.completion_coeff(start, end, es, 0)
        assert all(moved[side, kind] for side in ("es", "ls")
                   for kind in ("TIFI", "TDIFI"))


def exhaustive_vmin(S, inst):
    """Fewest routes over S that schedule jointly, by trying every set
    partition and every order of every block; |S| + 1 when none does."""
    best = len(S) + 1
    for part in support.set_partitions(S, len(S)):
        if len(part) >= best or any(
                sum(int(inst.dem[v]) for v in b) > inst.Q for b in part):
            continue
        for combo in itertools.product(
                *[itertools.permutations(b) for b in part]):
            if schedule_routes([list(r) for r in combo], inst)[0]:
                best = len(part)
                break
    return best


@st.composite
def vmin_cases(draw):
    """A set of 2-5 tasks in an instance with travel times closed under
    the triangle inequality, random windows, durations, demands and
    capacity, and 0-3 dependencies (some with a forbidden order)."""
    n = draw(st.integers(2, 6))
    horizon = draw(st.integers(15, 40))
    tasks = [Task(0, 0, horizon, 0, 0)]
    for v in range(1, n + 1):
        a = draw(st.integers(0, horizon // 2))
        tasks.append(Task(v, a, draw(st.integers(a + 3, horizon)),
                          draw(st.integers(0, 3)), draw(st.integers(0, 5))))
    t = np.array([[0 if a == b else draw(st.integers(1, 6))
                   for b in range(n + 1)] for a in range(n + 1)])
    t = np.minimum(t, t.T)
    for k in range(n + 1):
        t = np.minimum(t, t[:, [k]] + t[[k], :])
    deps = []
    for u, v in draw(st.lists(st.sampled_from(
            list(itertools.combinations(range(1, n + 1), 2))),
            max_size=3, unique=True)):
        band = []
        for _ in range(2):
            m = draw(st.integers(0, 6))
            band += [m, draw(st.integers(m, horizon))]
        forbid = draw(st.sampled_from(["none", "uv", "vu"]))
        if forbid == "uv":
            band[0:2] = [horizon, horizon]
        if forbid == "vu":
            band[2:4] = [horizon, horizon]
        deps.append(TemporalDependency(u, v, *band))
    inst = Instance(tasks, t, t, n, draw(st.integers(5, 12)), horizon, deps)
    S = sorted(draw(st.sets(st.integers(1, n), min_size=2,
                            max_size=min(5, n))))
    return S, inst


@st.composite
def split_cases(draw):
    """An instance of ``vmin_cases`` and its set split into two nonempty
    parts A and B."""
    S, inst = draw(vmin_cases())
    A = set(draw(st.sets(st.sampled_from(S), min_size=1,
                         max_size=len(S) - 1)))
    return inst, A, set(S) - A


def unschedulable_part_case():
    """Six tasks, unit travel, no durations or demands, windows [0, 3]
    but task 3's [4, 7], and tasks 3 and 4 synchronized: the part
    B = {3, 4} does not schedule, A = {1, 2} fits one route."""
    tasks = [Task(0, 0, 15, 0, 0)] + [
        Task(v, 4 if v == 3 else 0, 7 if v == 3 else 3, 0, 0)
        for v in range(1, 7)]
    t = np.ones((7, 7), dtype=int) - np.eye(7, dtype=int)
    inst = Instance(tasks, t, t, 6, 5, 15, [dep(3, 4, (0, 0, 0, 0))])
    return inst, {1, 2}, {3, 4}


class TestVmin:
    def test_pair_in_one_route(self):
        inst = line_instance(2, deps=[dep(1, 2, (0, 60, 0, 60))])
        assert VminCalculator(inst).vmin((1, 2)) == 1

    def test_synchronization_needs_two_vehicles(self):
        inst = line_instance(2, deps=[dep(1, 2, (0, 0, 0, 0))])
        assert VminCalculator(inst).vmin((1, 2)) == 2

    def test_impossible_pair_reports_size_plus_one(self):
        inst = line_instance(2, deps=[dep(1, 2, (0, 0, 0, 0))],
                             windows=[(0, 2), (10, 12)])
        assert VminCalculator(inst).vmin((1, 2)) == 3

    def test_capacity_drives_vehicle_count(self):
        inst = line_instance(3, demands=[10, 10, 10], capacity=20)
        assert VminCalculator(inst).vmin((1, 2, 3)) == 2

    def test_matches_exhaustive_partition_search(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(30):
            n = 3
            horizon = int(rng.integers(20, 40))
            windows = [tuple(sorted(rng.integers(0, horizon, size=2)))
                       for _ in range(n)]
            quad = [int(q) for q in rng.integers(0, 8, size=4)]
            quad[1] = max(quad[0], quad[1])
            quad[3] = max(quad[2], quad[3])
            inst = line_instance(n, deps=[dep(1, 2, tuple(quad))],
                                 windows=windows, horizon=horizon,
                                 capacity=int(rng.integers(4, 9)),
                                 demands=[2, 2, 2], vehicles=3)
            S = [1, 2, 3]
            assert VminCalculator(inst).vmin(S) == exhaustive_vmin(S, inst)
            checked += 1
        assert checked == 30

    def test_failed_placement_prunes_its_subtree(self, monkeypatch):
        # Synchronized tasks 1 and 2 with disjoint windows: no placement
        # of task 2 ever schedules, so nothing is tried below it.  Per k,
        # one placement of task 1 and at most three of task 2 are checked;
        # a search that went on below them would check hundreds.
        inst = line_instance(5, deps=[dep(1, 2, (0, 0, 0, 0))],
                             windows=[(0, 2), (10, 12)] + [(0, 60)] * 3)
        placed = []
        extend = cutlib.extend_schedule

        def counted(parent, route, pos, inst, dep_edges, free):
            # the tasks of the parent's state and the one placed now
            placed.append(sorted([*parent[0], route[pos]]))
            return extend(parent, route, pos, inst, dep_edges, free)

        monkeypatch.setattr(cutlib, "extend_schedule", counted)
        assert VminCalculator(inst).vmin(range(1, 6)) == 6
        assert 5 <= len(placed) <= 4 * 5
        assert all(tasks in ([1], [1, 2]) for tasks in placed)

    @settings(max_examples=200, deadline=None)
    @given(vmin_cases())
    def test_property_matches_exhaustive_partition_search(self, case):
        S, inst = case
        assert VminCalculator(inst).vmin(S) == exhaustive_vmin(S, inst)


    @settings(max_examples=200, deadline=None)
    @given(split_cases())
    @example(split=unschedulable_part_case())
    def test_subadditive_over_independent_parts(self, split):
        # FSEC separation skips disconnected sets on this fact: with no
        # dependency between disjoint A and B, their routes schedule
        # apart, so V_min(A | B) <= V_min(A) + V_min(B) when both parts
        # schedule.  A part that does not schedule has the sentinel
        # |part| + 1, which does not add up: then A | B does not
        # schedule either, and its V_min is |A | B| + 1.
        inst, A, B = split
        inst = inst.replace(dependencies=[
            d for d in inst.deps if not ({d.u, d.v} & A and {d.u, d.v} & B)])
        calc = VminCalculator(inst)
        va, vb, vs = calc.vmin(A), calc.vmin(B), calc.vmin(A | B)
        if va <= len(A) and vb <= len(B):
            assert vs <= va + vb
        else:
            assert vs == len(A | B) + 1

    def test_unschedulable_part_breaks_plain_subadditivity(self):
        # the pinned case: B = {3, 4} is synchronized across disjoint
        # windows, so V_min(B) = 3 and V_min(A | B) = 5 > 1 + 3
        inst, A, B = unschedulable_part_case()
        calc = VminCalculator(inst)
        assert (calc.vmin(A), calc.vmin(B), calc.vmin(A | B)) == (1, 3, 5)

    @settings(max_examples=150, deadline=None)
    @given(vmin_cases(), st.lists(st.integers(-1, 7), max_size=6))
    def test_threshold_queries_leave_vmin_exact(self, case, ks):
        S, inst = case
        calc = VminCalculator(inst)
        exact = exhaustive_vmin(S, inst)
        for k in ks:
            assert calc.exceeds(S, k) == (exact > k)
            lo, hi = calc._bounds.get(frozenset(S), (1, len(S) + 1))
            assert lo <= exact <= hi
        assert calc.vmin(S) == VminCalculator(inst).vmin(S) == exact
        assert calc.exceeds(S, exact) is False
        assert calc.exceeds(S, exact - 1) is True


Arc = collections.namedtuple("Arc", "start end")


@st.composite
def fsec_cases(draw):
    """An instance of ``vmin_cases`` with LP-like weights on arcs between
    its tasks and the depot.  Weights and tolerances are multiples of 1/8,
    so every sum is exact and rows sit exactly at the tolerance edge."""
    _, inst = draw(vmin_cases())
    ends = st.integers(0, inst.n)
    support = draw(st.lists(st.tuples(
        st.builds(Arc, ends, ends),
        st.integers(1, 16).map(lambda k: k / 8.0)), max_size=12))
    tol = draw(st.sampled_from([0.0, 0.125, 0.25, 1e-6]))
    vd = sorted(inst.vd)
    sets = [S for size in range(2, len(vd) + 1)
            for S in itertools.combinations(vd, size)]
    existing = {("FSEC", S) for S in draw(st.lists(st.sampled_from(sets),
                                                   max_size=3))} \
        if sets else set()
    return inst, support, draw(st.integers(2, 5)), tol, existing


class AskedCalculator(VminCalculator):
    """A VminCalculator that records the sets of the threshold queries
    asked from outside, not those ``vmin`` asks itself."""

    def __init__(self, inst):
        super().__init__(inst)
        self.asked = []
        self._exact = False

    def vmin(self, S):
        self._exact = True
        try:
            return super().vmin(S)
        finally:
            self._exact = False

    def exceeds(self, S, k):
        if not self._exact:
            self.asked.append(tuple(sorted(S)))
        return super().exceeds(S, k)


class TestSeparation:
    @settings(max_examples=200, deadline=None)
    @given(fsec_cases())
    def test_fsec_matches_reference_separator(self, case):
        inst, sup, k_max, tol, existing = case
        exact = VminCalculator(inst)
        want = support.reference_fsec(sup, inst, k_max, exact.vmin, tol,
                                      existing)
        calc = AskedCalculator(inst)
        cuts = separate_fsec(sup, inst, k_max, calc, tol, existing)
        assert [(tuple(sorted(c.S)), c.vmin) for c in cuts] == want
        # one threshold query per set, and only of connected sets
        edges = {frozenset((f.start, f.end)) for f, _ in sup} \
            | {frozenset((d.u, d.v)) for d in inst.deps}
        assert len(calc.asked) == len(set(calc.asked))
        assert all(support.connected(S, edges) for S in calc.asked)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1),
                                      st.integers(0, n - 1))))),
        st.integers(0, 6))
    def test_connected_sets_each_listed_once(self, graph, size_max):
        n, pairs = graph
        adj = [set() for _ in range(n)]
        for a, b in pairs:
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        edges = {frozenset(p) for p in pairs}
        got = [tuple(sorted(S))
               for S in cutlib._connected_sets(adj, size_max)]
        want = [S for size in range(2, size_max + 1)
                for S in itertools.combinations(range(n), size)
                if support.connected(S, edges)]
        assert sorted(got) == sorted(want)

    def test_fsec_row_at_the_tolerance_edge(self):
        # V_min{1, 2} = 1, so the row is x <= 1: weight 1.125 violates it
        # by exactly 0.125, which is not more than a tolerance of 0.125.
        inst = line_instance(2, deps=[dep(1, 2, (0, 60, 0, 60))])
        sup = [(Arc(1, 2), 0.5), (Arc(2, 1), 0.625)]
        calc = VminCalculator(inst)
        assert separate_fsec(sup, inst, 5, calc, 0.125) == []
        cuts = separate_fsec(sup, inst, 5, calc, 0.0625)
        assert [(c.S, c.vmin) for c in cuts] == [(frozenset((1, 2)), 1)]

    def test_fsec_two_cycle(self):
        inst = line_instance(2, deps=[dep(1, 2, (0, 60, 0, 60))])
        sup = [(frag((1, 2), inst), 1.0), (frag((2, 1), inst), 1.0)]
        calc = VminCalculator(inst)
        cuts = separate_fsec(sup, inst, k_max=5, vmin_calc=calc,
                             viol_tol=1e-6)
        assert len(cuts) == 1
        assert cuts[0].S == frozenset((1, 2)) and cuts[0].vmin == 1
        # Existing keys are not re-emitted.
        again = separate_fsec(sup, inst, 5, calc, 1e-6,
                              existing={cuts[0].key()})
        assert again == []

    def test_fsec_prefilter_requires_weight_above_one(self):
        # Internal weight exactly 1 is skipped before any V_min work.
        inst = line_instance(2, deps=[dep(1, 2, (0, 60, 0, 60))])
        sup = [(frag((1, 2), inst), 1.0)]
        calc = VminCalculator(inst)
        assert separate_fsec(sup, inst, 5, calc, 1e-6) == []
        assert calc._bounds == {}

    def test_tifi_max_violated_time_point(self):
        # Task 1 is reached no earlier than 6 via (0,3,1) but must be
        # left by time 2 when followed by task 4's tight window.
        inst = line_instance(
            4, deps=[dep(1, 2, (0, 80, 0, 80))], horizon=80,
            windows=[(0, 40), (0, 80), (0, 80), (0, 6)])
        into = frag((0, 3, 1), inst)
        out = frag((1, 4, 0), inst)
        assert out.ls < into.es
        sup = [(into, 0.7), (out, 0.7)]
        cuts = separate_tifi(sup, inst, viol_tol=0.25)
        assert len(cuts) == 1
        assert cuts[0].key() == ("TIFI", 1, into.es)
        assert cuts[0].fragment_coeff(into) == 1
        assert cuts[0].fragment_coeff(out) == 1
        # Below the violation threshold nothing is returned.
        weak = [(into, 0.55), (out, 0.55)]
        assert separate_tifi(weak, inst, viol_tol=0.25) == []

    def test_tdifi_detects_min_difference_conflict(self):
        # u = 1 finishes late, v = 2 must start early, dmin(1,2) = 5.
        inst = line_instance(
            4, deps=[dep(1, 2, (5, 80, 0, 80))], horizon=80,
            windows=[(30, 70), (0, 80), (0, 80), (0, 6)])
        into_u = frag((0, 3, 1), inst)
        out_v = frag((2, 4, 0), inst)
        assert out_v.ls < into_u.es + 5
        sup = [(into_u, 0.8), (out_v, 0.8)]
        cuts = separate_tdifi(sup, {(1, 2): 1.0}, inst, viol_tol=0.25)
        assert len(cuts) == 1
        cut = cuts[0]
        assert cut.key() == ("TDIFI", 1, 2, "uv-min", into_u.es)
        assert cut.fragment_coeff(into_u) == 1
        assert cut.fragment_coeff(out_v) == 1
        # With p = 0 the same support is not violated (rhs stays at 2).
        assert separate_tdifi(sup, {(1, 2): 0.0}, inst, viol_tol=0.25) == []

    def test_interval_rows_match_reference_separators(self):
        # dyadic weights and order values keep every sum exact, so the
        # EPS tie-break reduces to "first of largest violation"
        rng = np.random.default_rng(43)
        found = collections.Counter()
        for trial in range(30):
            inst = support.random_instance(
                rng, n_tasks=int(rng.integers(5, 7)),
                n_deps=int(rng.integers(1, 4)))
            frags = support.exhaustive_fragments(inst, build_fragment)
            sup = [(f, int(rng.integers(1, 9)) / 8.0) for f in frags
                   if rng.random() < 0.3]
            p_vals = {(d.u, d.v): int(rng.integers(0, 9)) / 8.0
                      for d in inst.deps}
            tol = [0.0, 0.125, 1e-6][trial % 3]
            keys = [r[1] for r in support.reference_tifi(sup, inst, tol)
                    + support.reference_tdifi(sup, p_vals, inst, tol)]
            for existing in (set(), set(keys[::2])):
                want = support.reference_tifi(sup, inst, tol, existing) \
                    + support.reference_tdifi(sup, p_vals, inst, tol,
                                              existing)
                got = separate_tifi(sup, inst, tol, existing) \
                    + separate_tdifi(sup, p_vals, inst, tol, existing)
                rows = []
                for cut in got:
                    lhs = sum(cut.fragment_coeff(f) * x for f, x in sup)
                    if cut.p_pair is not None:
                        lhs += cut.p_coeff * p_vals[cut.p_pair]
                    rows.append((lhs - cut.rhs, cut.key(), cut.rhs,
                                 cut.p_coeff))
                assert rows == want, trial
                found.update(cut.kind for cut in got)
        assert found["TIFI"] > 20 and found["TDIFI"] > 20, found

    def test_rcc_exchange_merges_singletons(self):
        # Two half-used round trips cannot cover demand 12 with Q = 10;
        # the climb grows each singleton seed to the violated pair.
        inst = line_instance(2, demands=[6, 6], capacity=10)
        sup = [(frag((0, 1, 0), inst), 0.5), (frag((0, 2, 0), inst), 0.5)]
        cuts = separate_rcc(sup, inst, viol_tol=0.05)
        assert len(cuts) == 1
        assert cuts[0].S == frozenset((1, 2)) and cuts[0].rhs == 2.0
        assert separate_rcc(sup, inst, 0.05, max_new=0) == []

    def test_rcc_respects_existing(self):
        inst = line_instance(2, demands=[6, 6], capacity=10)
        sup = [(frag((0, 1, 0), inst), 0.5), (frag((0, 2, 0), inst), 0.5)]
        first = separate_rcc(sup, inst, 0.05)
        keys = {c.key() for c in first}
        assert separate_rcc(sup, inst, 0.05, existing=keys) == []


class TestValidityAgainstEnumeration:
    """Every emitted cut must hold for every feasible integer solution,
    with TDIFIs evaluated under the solution's own order assignment."""

    def _solution_lhs(self, cut, sol_frags, orders):
        lhs = sum(cut.fragment_coeff(f) for f in sol_frags)
        if cut.p_pair is not None and cut.p_coeff:
            lhs += cut.p_coeff * orders[cut.p_pair]
        return lhs

    def test_cuts_hold_for_all_feasible_solutions(self):
        rng = np.random.default_rng(11)
        total_cuts = 0
        total_sols = 0
        for trial in range(12):
            inst = support.random_instance(rng, n_tasks=4, n_deps=1)
            sols = support.all_feasible_solutions(inst, schedule_routes)
            if not sols:
                continue
            fragments = support.exhaustive_fragments(inst, build_fragment)
            weights = rng.random(len(fragments))
            sup = [(f, float(w)) for f, w in zip(fragments, weights)
                   if w > 0.2]
            p_vals = {(d.u, d.v): float(rng.random()) for d in inst.deps}
            calc = VminCalculator(inst)
            cuts = []
            cuts += separate_fsec(sup, inst, 5, calc, 1e-6)
            cuts += separate_tifi(sup, inst, 1e-6)
            cuts += separate_tdifi(sup, p_vals, inst, 1e-6)
            cuts += separate_rcc(sup, inst, 1e-6)
            cuts += [lift_rcc_to_frcc(c) for c in cuts if c.kind == "RCC"]
            for routes, _, orders in sols:
                sol_frags = [build_fragment(seq, inst) for seq in
                             support.routes_to_fragments(routes, inst)]
                assert all(sol_frags)
                for cut in cuts:
                    lhs = self._solution_lhs(cut, sol_frags, orders)
                    if cut.sense == "L":
                        assert lhs <= cut.rhs + 1e-9, (trial, cut.key())
                    else:
                        assert lhs >= cut.rhs - 1e-9, (trial, cut.key())
                total_sols += 1
            total_cuts += len(cuts)
        assert total_cuts > 5 and total_sols > 5

import numpy as np

from fragvrp.fragments import Fragment, Infeasible, build_fragment
from fragvrp.instance import Instance, Task, TemporalDependency

from support import (discretized_duration_at, discretized_summary,
                     duration_at_oracle, random_fragment_case,
                     schedule_summary)


def three_task_instance(dep_quad=(0, 20, 0, 20), horizon=20):
    """Tasks 1 and 3 dependent, task 2 free; unit services and travel."""
    tasks = [Task(0, 0, horizon, 0, 0),
             Task(1, 0, 10, 1, 1),
             Task(2, 5, 8, 1, 1),
             Task(3, 0, horizon, 1, 1)]
    t = np.ones((4, 4), dtype=np.int64)
    np.fill_diagonal(t, 0)
    deps = [TemporalDependency(1, 3, *dep_quad)]
    return Instance(tasks, t, t, 2, 10, horizon, deps)


class TestRecursion:
    def test_reference_sequence(self):
        # windows [0,10], [5,8], [0,20]; recursion lands on (7, 6, 4)
        inst = three_task_instance()
        f = build_fragment((1, 2, 3), inst)
        assert isinstance(f, Fragment)
        assert (f.es, f.ls, f.dur) == (7, 6, 4)
        assert schedule_summary((1, 2, 3), inst) == (7, 6, 4)
        assert f.cost == 2 and f.demand == 2

    def test_reference_duration_profile(self):
        # the time-linkage rows read the least duration from a start t
        # as max(dur, es - t): constant, then waiting for the end's release
        inst = three_task_instance()
        f = build_fragment((1, 2, 3), inst)
        assert max(f.dur, f.es - 5) == 4
        assert max(f.dur, f.es - 3) == 4
        assert max(f.dur, f.es - 2) == 5      # waits for the chain through 2
        for t in range(0, 7):
            assert max(f.dur, f.es - t) == duration_at_oracle((1, 2, 3),
                                                              inst, t)
        assert duration_at_oracle((1, 2, 3), inst, 7) is None  # past ls

    def test_dependency_minimum_lifts_duration(self):
        inst = three_task_instance(dep_quad=(6, 20, 0, 20))
        f = build_fragment((1, 2, 3), inst)
        assert (f.es, f.ls, f.dur) == (7, 6, 6)
        assert schedule_summary((1, 2, 3), inst) == (7, 6, 6)

    def test_dependency_maximum_rejects(self):
        inst = three_task_instance(dep_quad=(0, 3, 0, 20))
        assert isinstance(build_fragment((1, 2, 3), inst), Infeasible)
        assert schedule_summary((1, 2, 3), inst) is None

    def test_forbidden_order_rejects_even_full_span(self):
        # the full-horizon duration window is read as a forbidden order
        T = 20
        inst = three_task_instance(dep_quad=(T, T, 0, T))
        assert isinstance(build_fragment((1, 2, 3), inst), Infeasible)


class TestStructure:
    def test_rejects(self):
        inst = three_task_instance()
        assert isinstance(build_fragment((0, 0), inst), Infeasible)
        assert isinstance(build_fragment((1,), inst), Infeasible)
        assert isinstance(build_fragment((1, 2, 1), inst), Infeasible)  # repeat
        assert isinstance(build_fragment((2, 3), inst), Infeasible)  # start
        assert isinstance(build_fragment((1, 3, 2), inst), Infeasible)  # end
        assert isinstance(build_fragment((1, 0, 3), inst), Infeasible)
        # dependent task in the interior
        inst2 = three_task_instance()
        inst2 = inst2.replace(dependencies=list(inst2.deps) +
                              [TemporalDependency(2, 3, 0, 20, 0, 20)])
        assert isinstance(build_fragment((1, 2, 3), inst2), Infeasible)

    def test_depot_loop_through_task(self):
        inst = three_task_instance()
        f = build_fragment((0, 2, 0), inst)
        assert isinstance(f, Fragment)
        assert f.demand == 1          # end task demand excluded, depot is 0

    def test_capacity_counts_every_task(self):
        inst = three_task_instance()
        tasks = [Task(t.id, t.alpha, t.beta, t.duration,
                      6 if t.id else 0) for t in inst.tasks]
        heavy = inst.replace(tasks=tasks)   # 3 tasks at 6 > Q = 10
        assert isinstance(build_fragment((1, 2, 3), heavy), Infeasible)
        # two tasks fit: 6 + 6 <= 10 is false, 6 alone is fine
        assert isinstance(build_fragment((1, 3), heavy), Infeasible)
        f = build_fragment((0, 1), heavy)
        assert isinstance(f, Fragment) and f.demand == 0

    def test_demand_excludes_end(self):
        inst = three_task_instance()
        f = build_fragment((1, 3), inst)
        assert f.demand == 1


class TestAgainstDiscretizedBruteForce:
    def test_discretized_matches_exhaustive_on_tiny_cases(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(120):
            case = random_fragment_case(rng, max_len=4, horizon=9)
            if case is None:
                continue
            inst, seq = case
            assert discretized_summary(seq, inst) == \
                schedule_summary(seq, inst)
            hits += 1
        assert hits > 60

    def test_recursion_matches_brute_force(self):
        rng = np.random.default_rng(17)
        feasible = infeasible = 0
        for _ in range(300):
            case = random_fragment_case(rng, max_len=6, horizon=40)
            if case is None:
                continue
            inst, seq = case
            f = build_fragment(seq, inst)
            expected = discretized_summary(seq, inst)
            if sum(int(inst.dem[v]) for v in seq) > inst.Q:
                expected = None
            if expected is None:
                assert isinstance(f, Infeasible)
                infeasible += 1
                continue
            assert isinstance(f, Fragment), f.reason
            assert (f.es, f.ls, f.dur) == expected
            feasible += 1
            for t in range(int(inst.alpha[seq[0]]), int(inst.beta[seq[0]]) + 1):
                want = discretized_duration_at(seq, inst, t)
                if want is not None:
                    assert max(f.dur, f.es - t) == want
        assert feasible > 60 and infeasible > 20

import numpy as np
import pytest

from fragvrp.instance import (Instance, SolverConfig, Task,
                              TemporalDependency, dependency_from_type,
                              instance_from_dict, instance_to_dict,
                              normalize_kind, validate)


def two_task_instance(d1=2, d2=3, horizon=20):
    tasks = [Task(0, 0, horizon, 0, 0), Task(1, 0, horizon, d1, 1),
             Task(2, 0, horizon, d2, 1)]
    t = np.ones((3, 3), dtype=np.int64)
    np.fill_diagonal(t, 0)
    return Instance(tasks, t, t, 2, 10, horizon, ())


def dep_satisfied(dep, bu, bv):
    """Disjunctive reading: some starting order consistent with (bu, bv)
    admits the difference."""
    if bu <= bv and dep.dmin_uv <= bv - bu <= dep.dmax_uv:
        return True
    return bv <= bu and dep.dmin_vu <= bu - bv <= dep.dmax_vu


class TestDependencyKinds:
    def test_quadruples(self):
        inst = two_task_instance(d1=2, d2=3)
        T = inst.tmax
        mk = lambda kind, **kw: dependency_from_type(kind, 1, 2, inst, **kw)
        assert mk("synchronization") == TemporalDependency(1, 2, 0, 0, 0, 0)
        assert mk("min-diff", delta_min=4) == TemporalDependency(1, 2, 4, T, 4, T)
        assert mk("max-diff", delta_max=4) == TemporalDependency(1, 2, 0, 4, 0, 4)
        assert mk("minmax-diff", delta_min=2, delta_max=5) == \
            TemporalDependency(1, 2, 2, 5, 2, 5)
        assert mk("overlap") == TemporalDependency(1, 2, 0, 2, 0, 3)
        assert mk("non-overlap") == TemporalDependency(1, 2, 2, T, 3, T)
        assert mk("precedence") == TemporalDependency(1, 2, 0, T, T, T)

    def test_aliases(self):
        assert normalize_kind("syn") == "synchronization"
        assert normalize_kind("MINMAX") == "minmax-diff"
        assert normalize_kind("nonoverlap") == "non-overlap"
        with pytest.raises(ValueError):
            normalize_kind("sometimes")

    def test_rejects_depot_and_loops(self):
        inst = two_task_instance()
        with pytest.raises(ValueError):
            dependency_from_type("synchronization", 0, 1, inst)
        with pytest.raises(ValueError):
            dependency_from_type("synchronization", 1, 1, inst)
        with pytest.raises(ValueError):
            dependency_from_type("min-diff", 1, 2, inst)  # missing delta

    def test_non_overlap_matches_interval_disjointness(self):
        # executions [b, b+d) must not overlap
        inst = two_task_instance(d1=2, d2=3, horizon=8)
        dep = dependency_from_type("non-overlap", 1, 2, inst)
        for bu in range(9):
            for bv in range(9):
                disjoint = bv >= bu + 2 or bu >= bv + 3
                assert dep_satisfied(dep, bu, bv) == disjoint

    def test_overlap_matches_interval_intersection(self):
        # second task must start before (or exactly when) the first ends
        inst = two_task_instance(d1=2, d2=3, horizon=8)
        dep = dependency_from_type("overlap", 1, 2, inst)
        for bu in range(9):
            for bv in range(9):
                touching = (bu <= bv <= bu + 2) or (bv <= bu <= bv + 3)
                assert dep_satisfied(dep, bu, bv) == touching

    def test_synchronization_means_equality(self):
        inst = two_task_instance()
        dep = dependency_from_type("synchronization", 1, 2, inst)
        assert dep_satisfied(dep, 5, 5)
        assert not dep_satisfied(dep, 5, 6)

    def test_precedence_forbids_reverse(self):
        inst = two_task_instance()
        dep = dependency_from_type("precedence", 1, 2, inst)
        assert dep_satisfied(dep, 3, 9)
        assert dep_satisfied(dep, 4, 4)
        assert not dep_satisfied(dep, 9, 3)


class TestInstanceHelpers:
    def test_orientation_and_defaults(self):
        inst = two_task_instance()
        dep = TemporalDependency(2, 1, 3, 7, 1, 5)  # stored canonically
        inst = inst.replace(dependencies=[dep])
        assert inst.deps[0].u == 1
        assert inst.dmin(2, 1) == 3 and inst.dmax(2, 1) == 7
        assert inst.dmin(1, 2) == 1 and inst.dmax(1, 2) == 5
        # non-dependent pairs default to the trivial window
        assert inst.dmin(1, 0) == 0 and inst.dmax(1, 0) == inst.tmax
        assert inst.vd == frozenset({1, 2})

    def test_order_flags(self):
        inst = two_task_instance()
        T = inst.tmax
        inst = inst.replace(dependencies=[TemporalDependency(1, 2, 0, T, T, T)])
        assert inst.order_forbidden(2, 1)
        assert not inst.order_forbidden(1, 2)
        assert inst.forced_order(1, 2)
        assert not inst.forced_order(2, 1)

    def test_order_flags_read_only_the_horizon_marker(self):
        inst = two_task_instance()
        T = inst.tmax
        assert not inst.order_forbidden(1, 2)      # no dependency
        assert not inst.forced_order(1, 2)
        for quad, forbidden in (((T, T, T, T), (True, True)),
                                ((T - 1, T, T, T - 1), (False, False)),
                                ((0, T, T, T), (False, True)),
                                ((T, T, 0, 0), (True, False))):
            dep = inst.replace(dependencies=[TemporalDependency(1, 2, *quad)])
            assert (dep.order_forbidden(1, 2),
                    dep.order_forbidden(2, 1)) == forbidden
            assert dep.forced_order(1, 2) == (forbidden == (False, True))
            assert dep.forced_order(2, 1) == (forbidden == (True, False))


class TestValidate:
    def test_clean_instance(self):
        assert validate(two_task_instance()) == []

    def test_depot_window(self):
        inst = two_task_instance()
        bad = inst.replace(tasks=[Task(0, 1, inst.tmax, 0, 0)] +
                           list(inst.tasks[1:]))
        assert any("depot window" in r for r in validate(bad))

    def test_triangle_violation(self):
        inst = two_task_instance()
        t = inst.t.copy()
        t[1, 2] = t[2, 1] = 50
        bad = inst.replace(travel_time=t)
        assert any("triangle" in r for r in validate(bad))

    def test_duplicate_dependency(self):
        inst = two_task_instance()
        bad = inst.replace(dependencies=[
            TemporalDependency(1, 2, 0, 5, 0, 5),
            TemporalDependency(2, 1, 1, 4, 1, 4)])
        assert any("duplicate" in r for r in validate(bad))

    def test_dependency_parameter_range(self):
        inst = two_task_instance()
        bad = inst.replace(dependencies=[TemporalDependency(1, 2, 5, 2, 0, 5)])
        assert any("lower bound above upper" in r for r in validate(bad))
        # the forbidden-order sentinel is legal
        T = inst.tmax
        ok = inst.replace(dependencies=[TemporalDependency(1, 2, T, T, 0, 5)])
        assert validate(ok) == []


class TestSerialization:
    def test_euclid_rounding(self):
        data = {
            "horizon": 30, "capacity": 5, "vehicle_count": 1,
            "tasks": [
                {"id": 0, "x": 0, "y": 0, "alpha": 0, "beta": 30,
                 "duration": 0, "demand": 0},
                {"id": 1, "x": 3, "y": 4, "alpha": 0, "beta": 20,
                 "duration": 1, "demand": 1},
                {"id": 2, "x": 4, "y": 5, "alpha": 0, "beta": 20,
                 "duration": 1, "demand": 1},
            ],
        }
        inst = instance_from_dict(data)
        assert inst.t[0, 1] == 5           # exact distance stays exact
        assert inst.t[1, 2] == 2           # sqrt(2) rounds up
        assert (inst.t == inst.c).all()

    def test_roundtrip(self):
        data = {
            "horizon": 25, "capacity": 9, "vehicle_count": 2, "cost_scale": 10,
            "tasks": [
                {"id": 0, "alpha": 0, "beta": 25, "duration": 0, "demand": 0},
                {"id": 1, "alpha": 2, "beta": 20, "duration": 3, "demand": 4},
                {"id": 2, "alpha": 0, "beta": 15, "duration": 1, "demand": 2},
            ],
            "travel_time": [[0, 2, 3], [2, 0, 1], [3, 1, 0]],
            "travel_cost": [[0, 20, 30], [20, 0, 10], [30, 10, 0]],
            "dependencies": [{"u": 1, "v": 2, "dmin_uv": 1, "dmax_uv": 6,
                              "dmin_vu": 0, "dmax_vu": 4}],
            "meta": {"source": "unit-test"},
        }
        inst = instance_from_dict(data)
        again = instance_from_dict(instance_to_dict(inst))
        assert validate(inst) == []
        assert again.tasks == inst.tasks
        assert (again.t == inst.t).all() and (again.c == inst.c).all()
        assert again.deps == inst.deps
        assert again.meta == {"source": "unit-test"}

    def test_kind_form_dependencies(self):
        data = {
            "horizon": 25, "capacity": 9, "vehicle_count": 2,
            "tasks": [
                {"id": 0, "alpha": 0, "beta": 25, "duration": 0, "demand": 0},
                {"id": 1, "alpha": 2, "beta": 20, "duration": 3, "demand": 4},
                {"id": 2, "alpha": 0, "beta": 15, "duration": 1, "demand": 2},
            ],
            "travel_time": [[0, 2, 3], [2, 0, 1], [3, 1, 0]],
            "dependencies": [{"kind": "non-overlap", "u": 1, "v": 2}],
        }
        inst = instance_from_dict(data)
        assert inst.deps[0] == TemporalDependency(1, 2, 3, 25, 1, 25)


class TestSolverConfig:
    @pytest.mark.parametrize("kw", [{"time_limit": float("nan")},
                                    {"time_limit": -5.0},
                                    {"time_limit": -float("inf")},
                                    {"f_max": -3}, {"f_max": float("nan")}])
    def test_rejects_nan_and_negative_budgets(self, kw):
        with pytest.raises(ValueError, match="must be nonnegative"):
            SolverConfig(**kw)

    @pytest.mark.parametrize("kw", [{}, {"time_limit": 0.0},
                                    {"time_limit": float("inf")},
                                    {"f_max": 0}])
    def test_accepts_zero_and_unbounded_budgets(self, kw):
        cfg = SolverConfig(**kw)
        assert all(getattr(cfg, k) == v for k, v in kw.items())

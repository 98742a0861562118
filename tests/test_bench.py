"""Solomon parsing, dependency generation, and batch-runner tests."""

import csv
import hashlib
import io
import json
import logging
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fragvrp
from fragvrp.bench import (CSV_COLUMNS, DEAD, GENERATOR_KINDS, LOOSE, TIGHT,
                           SolomonFormatError, _DomainState, _union,
                           generate_dependencies, load_solomon, parse_solomon,
                           run_batch)
from fragvrp.instance import (Instance, SolverConfig, Task,
                              TemporalDependency, dependency_from_type,
                              instance_to_dict, save_instance)
from fragvrp.oracle import brute_force_optimal

DATA_DIR = pathlib.Path(fragvrp.__file__).parent / "data"

HEADER_SAMPLE = """\
C101

VEHICLE
NUMBER     CAPACITY
  25         200

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME   DUE DATE   SERVICE TIME

    0         40         50          0          0       1236          0
    1         45         68         10        912        967         90
    2         45         70         30        825        870         90
"""


def sample(depot="0 0 0 0 0 100 0", customers=("1 3 4 1 0 90 1",)):
    lines = ["T1", "", "VEHICLE", "NUMBER CAPACITY", "3 50", "",
             "CUSTOMER",
             "CUST NO. XCOORD. YCOORD. DEMAND READY DUE SERVICE", "",
             depot]
    lines += list(customers)
    return "\n".join(lines) + "\n"


class TestParseSolomon:
    def test_header_fields(self):
        data = parse_solomon(HEADER_SAMPLE)
        assert data.name == "C101"
        assert data.vehicles == 25
        assert data.capacity == 200

    def test_instance_mapping(self):
        inst = parse_solomon(HEADER_SAMPLE).instance()
        assert inst.n == 2
        assert inst.K == 25 and inst.Q == 200
        assert inst.tmax == 1236
        # depot row becomes task 0 with the full horizon as its window
        assert inst.alpha[0] == 0 and inst.beta[0] == 1236
        assert inst.dur[0] == 0 and inst.dem[0] == 0
        assert inst.alpha[1] == 912 and inst.beta[1] == 967
        assert inst.dur[1] == 90 and inst.dem[1] == 10
        assert inst.meta["source"] == "C101"

    def test_travel_rounds_up(self):
        text = sample(customers=("1 3 4 1 0 90 1", "2 1 1 1 0 90 1"))
        inst = parse_solomon(text).instance()
        assert inst.t[0][1] == 5          # 3-4-5 triangle, exact
        assert inst.t[0][2] == 2          # sqrt(2) rounded up
        assert inst.t[1][2] == 4          # sqrt(13) rounded up
        assert inst.t[1][0] == inst.t[0][1]
        assert all(inst.t[i][i] == 0 for i in range(3))

    def test_packaged_truncation(self):
        data = load_solomon(DATA_DIR / "S101.txt")
        assert data.vehicles == 25 and data.capacity == 150
        full = data.instance()
        assert full.n == 30
        cut = data.instance(take=10)
        assert cut.n == 10
        assert cut.alpha[7] == full.alpha[7]

    def test_empty_input(self):
        with pytest.raises(SolomonFormatError) as err:
            parse_solomon("   \n\n")
        assert err.value.line == 1 and err.value.column == 1

    def test_missing_vehicle_section(self):
        with pytest.raises(SolomonFormatError, match="VEHICLE"):
            parse_solomon("T1\n\njust a title\n")

    def test_missing_customer_section(self):
        with pytest.raises(SolomonFormatError, match="CUSTOMER"):
            parse_solomon("T1\nVEHICLE\nNUMBER CAPACITY\n3 50\n")

    def test_non_numeric_token_position(self):
        bad = "    1    3    1.2.3    1    0   90    1"
        text = sample(customers=(bad,))
        with pytest.raises(SolomonFormatError) as err:
            parse_solomon(text)
        assert "1.2.3" in str(err.value)
        assert err.value.line == text[:text.index(bad)].count("\n") + 1
        assert err.value.column == bad.index("1.2.3") + 1

    def test_stray_text_in_customer_table(self):
        with pytest.raises(SolomonFormatError, match="text inside"):
            parse_solomon(sample(customers=("1 3 4 1 0 90 1", "lunch break")))

    def test_wrong_field_count(self):
        with pytest.raises(SolomonFormatError, match="expected 7 fields"):
            parse_solomon(sample(customers=("1 3 4 1 0 90",)))

    def test_fractional_integer_field(self):
        bad = "1 3 4 1.5 0 90 1"
        with pytest.raises(SolomonFormatError) as err:
            parse_solomon(sample(customers=(bad,)))
        assert err.value.column == bad.index("1.5") + 1

    def test_depot_must_come_first(self):
        with pytest.raises(SolomonFormatError, match="depot"):
            parse_solomon(sample(depot="1 3 4 1 0 90 1",
                                 customers=("0 0 0 0 0 100 0",)))

    def test_ids_must_be_consecutive(self):
        with pytest.raises(SolomonFormatError, match="consecutive"):
            parse_solomon(sample(customers=("1 3 4 1 0 90 1",
                                            "3 1 1 1 0 90 1")))


def forest_skeleton(n=6, narrow=(), dur=3, T=30):
    """Wide windows except the listed tasks, which get windows too narrow
    to dodge a non-overlap band; one vehicle per task keeps every
    arc-consistent dependency set schedulable."""
    tasks = [Task(0, 0, T, 0, 0)]
    for v in range(1, n + 1):
        if v in narrow:
            a = 4 + 2 * v
            tasks.append(Task(v, a, a + 4, dur, 1))
        else:
            tasks.append(Task(v, 0, T, dur, 1))
    t = [[abs(i - j) for j in range(n + 1)] for i in range(n + 1)]
    return Instance(tasks, t, t, n, 10, T, [])


def pinned_skeleton():
    # every start time is pinned, so no dependency can tighten anything
    tasks = [Task(0, 0, 30, 0, 0), Task(1, 5, 5, 1, 1),
             Task(2, 9, 9, 1, 1), Task(3, 14, 14, 1, 1)]
    t = [[0] * 4 for _ in range(4)]
    return Instance(tasks, t, t, 3, 5, 30, [])


class TestGenerateDependencies:
    def test_sigma_zero_returns_skeleton(self):
        skel = forest_skeleton()
        assert generate_dependencies(skel, "synchronization", 0.0, 1) is skel

    def test_deterministic_under_seed(self):
        skel = load_solomon(DATA_DIR / "S101.txt").instance(take=8)
        a = generate_dependencies(skel, "min-diff", 0.25, seed=11)
        b = generate_dependencies(skel, "min-diff", 0.25, seed=11)
        assert (json.dumps(instance_to_dict(a), sort_keys=True)
                == json.dumps(instance_to_dict(b), sort_keys=True))

    def test_meta_fields(self):
        skel = load_solomon(DATA_DIR / "S101.txt").instance(take=6)
        inst = generate_dependencies(skel, "synchronization", 0.2, seed=4)
        meta = inst.meta
        assert meta["kind"] == "synchronization"
        assert meta["sigma"] == 0.2 and meta["seed"] == 4
        assert meta["rng"] == "pcg64"
        assert meta["dependencies_requested"] == 2
        assert meta["dependencies_added"] == len(inst.deps)
        assert meta["source"] == "S101"

    def test_kind_aliases(self):
        inst = generate_dependencies(forest_skeleton(), "min", 0.2, seed=5)
        assert inst.meta["kind"] == "min-diff"
        assert all(d.dmin_uv >= 1 for d in inst.deps)

    def test_emits_a_forest(self):
        inst = generate_dependencies(forest_skeleton(), "synchronization",
                                     1.0, seed=7)
        n = inst.n
        assert inst.meta["dependencies_requested"] == n
        assert 1 <= len(inst.deps) <= n - 1
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for d in inst.deps:
            assert find(d.u) != find(d.v), "dependency closes a cycle"
            parent[find(d.u)] = find(d.v)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_generated_instances_stay_feasible(self, kind):
        skel = forest_skeleton(narrow={2, 4})
        inst = generate_dependencies(skel, kind, 0.5, seed=3)
        assert inst.meta["dependencies_added"] >= 1
        cost, sol = brute_force_optimal(inst)
        assert math.isfinite(cost) and sol is not None

    @pytest.mark.parametrize("kind", ("synchronization", "min-diff"))
    def test_exhaustion_is_reported_not_fatal(self, kind, caplog):
        with caplog.at_level(logging.WARNING, logger="fragvrp.bench"):
            inst = generate_dependencies(pinned_skeleton(), kind, 0.5, seed=2)
        assert "exhausted" in caplog.text
        assert inst.deps == ()
        assert inst.meta["dependencies_added"] == 0
        assert inst.meta["dependencies_requested"] == 2


def digest(inst):
    text = json.dumps(instance_to_dict(inst), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def generated(solomon, kind, sigma, n, seed=7):
    skel = load_solomon(DATA_DIR / ("%s.txt" % solomon)).instance(take=n)
    return generate_dependencies(skel, kind, sigma, seed)


class TestGenerationPinned:
    """The benchmark's seven workload instances and the four 30-task
    instances of the ROADMAP table, at dependency seed 7, hashed over
    instance_to_dict; the digests were recorded with the boolean-array
    domains that the interval unions replaced."""

    @pytest.mark.parametrize("case, want", [
        (("S101", "synchronization", 0.5, 15), "99ef9cc9ce660eca"),
        (("S102", "min-diff", 0.5, 15), "81df159c799a6ae3"),
        (("S102", "max-diff", 0.5, 15), "70417249764f759d"),
        (("S102", "synchronization", 0.1, 25), "3c6f287005a2c977"),
        (("S101", "synchronization", 0.1, 25), "863a399139e170aa"),
        (("S101", "max-diff", 0.2, 22), "8cedb0842edbab94"),
        (("S101", "synchronization", 0.2, 20), "2869d9194295357b"),
        (("S101", "min-diff", 0.5, 30), "4e7cc5a7f3457913"),
        (("S101", "non-overlap", 0.3, 30), "f6464da0f1b2fddf"),
        (("S102", "synchronization", 0.3, 30), "f5a2cd6cd3424500"),
        (("S103", "overlap", 0.3, 30), "a8f7c69d1ab7c43e"),
    ])
    def test_digest(self, case, want):
        assert digest(generated(*case))[:16] == want

    @pytest.mark.parametrize("solomon, kind, n", [
        ("S101", "synchronization", 20), ("S103", "overlap", 15)])
    def test_horizon_scale(self, solomon, kind, n):
        """Kinds without a drawn parameter pick the same pairs, with
        quadruples x1000, when every time of the skeleton is x1000."""
        k = 1000
        skel = load_solomon(DATA_DIR / ("%s.txt" % solomon)).instance(take=n)
        big = Instance([Task(t.id, k * t.alpha, k * t.beta, k * t.duration,
                             t.demand) for t in skel.tasks],
                       k * skel.t, skel.c, skel.K, skel.Q, k * skel.tmax, [],
                       coords=skel.coords, meta=skel.meta)
        small = generate_dependencies(skel, kind, 0.5, 7)
        large = generate_dependencies(big, kind, 0.5, 7)
        assert len(small.deps) >= 3
        assert [(d.u, d.v) for d in large.deps] == \
            [(d.u, d.v) for d in small.deps]
        for d, e in zip(small.deps, large.deps):
            assert (e.dmin_uv, e.dmax_uv, e.dmin_vu, e.dmax_vu) == \
                (k * d.dmin_uv, k * d.dmax_uv, k * d.dmin_vu, k * d.dmax_vu)


def related(quad, T, diff):
    """diff = b_v - b_u is allowed by the oriented quadruple (u, v);
    an order whose two parameters both equal the horizon is forbidden."""
    m_uv, M_uv, m_vu, M_vu = quad
    if not m_uv == M_uv == T and m_uv <= diff <= M_uv:
        return True
    return not m_vu == M_vu == T and m_vu <= -diff <= M_vu


def reference_ac(dom, edges, T):
    """Arc consistency over plain sets of integers, to a fixed point."""
    dom = {v: set(vals) for v, vals in dom.items()}
    changed = True
    while changed:
        changed = False
        for u, v, q in edges:
            for a, b, quad in ((u, v, q), (v, u, (q[2], q[3], q[0], q[1]))):
                keep = {t for t in dom[a]
                        if any(related(quad, T, s - t) for s in dom[b])}
                if keep != dom[a]:
                    dom[a] = keep
                    changed = True
    return dom


def intervals(vals):
    """The sorted, disjoint, touching-merged intervals of a set."""
    out = []
    for t in sorted(vals):
        if out and out[-1][1] == t - 1:
            out[-1] = (out[-1][0], t)
        else:
            out.append((t, t))
    return tuple(out)


@st.composite
def forest_cases(draw):
    """A skeleton with zero travel (so preprocessing keeps its windows),
    wide and narrow windows mixed so that bands cut holes, and a random
    forest of dependencies in a random order: generator kinds through
    dependency_from_type, precedences, and raw quadruples with forbidden
    orders and narrow bands, some with the minimum above the maximum."""
    T = draw(st.integers(1, 40))
    n = draw(st.integers(2, 6))
    tasks = [Task(0, 0, T, 0, 0)]
    for v in range(1, n + 1):
        dur = draw(st.integers(0, min(T, 4)))
        a = draw(st.integers(0, T - dur))
        if draw(st.booleans()):
            b = draw(st.integers(a, min(a + 3, T - dur)))
        else:
            a = min(a, 2)
            b = draw(st.integers(max(a, T - dur - 2), T - dur))
        tasks.append(Task(v, a, b, dur, 1))
    zero = [[0] * (n + 1) for _ in range(n + 1)]
    skel = Instance(tasks, zero, zero, n, n, T, [])
    deps = []
    for v in range(2, n + 1):
        if not draw(st.booleans()):
            continue
        u = draw(st.integers(1, v - 1))
        if draw(st.booleans()):
            u, v = v, u
        if draw(st.booleans()):
            quad = []
            for _ in range(2):
                lo = draw(st.integers(0, T))
                hi = lo + draw(st.integers(-2, 3))
                quad += [lo, min(max(hi, 0), T)]
            forbid = draw(st.sampled_from((None, 0, 2)))
            if forbid is not None:
                quad[forbid:forbid + 2] = [T, T]
            deps.append(TemporalDependency(u, v, *quad))
            continue
        kind = draw(st.sampled_from(GENERATOR_KINDS + ("precedence",)))
        lo = draw(st.integers(0, T))
        hi = draw(st.integers(lo, T))
        deps.append(dependency_from_type(kind, u, v, skel,
                                         delta_min=lo, delta_max=hi))
    return skel, draw(st.permutations(deps))


class TestDomainState:
    def test_union_form(self):
        # contained, overlapping and touching intervals merge; gaps stay
        got = _union([(14, 14), (0, 10), (2, 5), (11, 12), (9, 11)])
        assert got == ((0, 12), (14, 14))
        assert _union([]) == ()

    @settings(max_examples=300, deadline=None)
    @given(forest_cases())
    def test_matches_reference_arc_consistency(self, case):
        skel, deps = case
        T = skel.tmax
        state = _DomainState(skel)
        ref = {t.id: set(range(t.alpha, t.beta + 1)) for t in skel.tasks[1:]}
        assert state.dom == {v: intervals(s) for v, s in ref.items()}
        edges, committed = [], []
        for d in deps:
            quad = (d.dmin_uv, d.dmax_uv, d.dmin_vu, d.dmax_vu)
            trial = reference_ac(ref, edges + [(d.u, d.v, quad)], T)
            if not all(trial.values()):
                want = DEAD
            elif trial[d.u] != ref[d.u] or trial[d.v] != ref[d.v]:
                want = TIGHT
            else:
                want = LOOSE
            assert state.probe(d) == want
            if want == DEAD:
                continue
            state.commit(d)
            edges.append((d.u, d.v, quad))
            committed.append(d)
            ref = trial
            assert state.dom == {v: intervals(s) for v, s in ref.items()}
        rebuilt = _DomainState(skel.replace(dependencies=committed))
        assert rebuilt.dom == state.dom


def quick_instance(n=3):
    tasks = [Task(0, 0, 40, 0, 0)]
    tasks += [Task(v, 0, 30, 1, 2) for v in range(1, n + 1)]
    t = [[3 * abs(i - j) for j in range(n + 1)] for i in range(n + 1)]
    return Instance(tasks, t, t, 2, 8, 40, [])


class TestRunBatch:
    def parse(self, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        single = [r for r in rows if not r["instance"].startswith("aggregate")]
        agg = [r for r in rows if r["instance"].startswith("aggregate")]
        return single, agg

    def test_empty_manifest(self, tmp_path):
        header = ",".join(CSV_COLUMNS) + "\n"
        assert run_batch([]) == header
        mf = tmp_path / "empty.json"
        mf.write_text("[]")
        assert run_batch(str(mf)) == header

    def test_rows_errors_and_aggregates(self, tmp_path):
        pa = tmp_path / "a.json"
        save_instance(quick_instance(), pa)
        gen = generate_dependencies(forest_skeleton(n=4), "synchronization",
                                    0.25, seed=9)
        pb = tmp_path / "b.json"
        save_instance(gen, pb)
        # depot -> 1 is 9 directly but 2 through task 2: not a valid instance
        t = [[0, 9, 1], [9, 0, 1], [1, 1, 0]]
        tasks = [Task(0, 0, 40, 0, 0), Task(1, 0, 5, 1, 2),
                 Task(2, 0, 30, 1, 2)]
        pc = tmp_path / "skewed.json"
        save_instance(Instance(tasks, t, t, 2, 8, 40, []), pc)
        manifest = [str(pa),
                    {"instance": str(pb)},
                    str(tmp_path / "missing.json"),
                    {"instance": str(pa), "config": {"time_limit": 0.0}},
                    str(pc)]
        single, agg = self.parse(run_batch(manifest))
        assert [r["status"] for r in single] == [
            "optimal", "optimal", "error", "time-limit", "error"]
        for r in single[:2]:
            assert r["gap%"] == "0.0000"
            assert float(r["lb"]) == float(r["ub"])
            assert r["cuts-by-kind"].startswith("FSEC=")
        assert single[2]["lb"] == "" and single[2]["ub"] == ""
        assert single[3]["ub"] == ""        # no incumbent under a 0s budget
        labels = [r["instance"] for r in agg]
        assert labels[-1] == "aggregate all"
        assert any("kind=synchronization" in l and "sigma=0.25" in l
                   for l in labels)
        assert single[4]["lb"] == "" and single[4]["ub"] == ""
        assert agg[-1]["status"] == "2/5 optimal"

    def test_aggregate_means_match_rows(self, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"i{i}.json"
            save_instance(quick_instance(n=2 + i % 2), p)
            paths.append(str(p))
        single, agg = self.parse(run_batch(paths))
        walls = [float(r["wall-time"]) for r in single]
        assert agg[-1]["wall-time"] == "%.4f" % (sum(walls) / len(walls))
        frags = [float(r["fragments-enumerated"]) for r in single]
        assert (agg[-1]["fragments-enumerated"]
                == "%.4f" % (sum(frags) / len(frags)))
        assert agg[-1]["status"] == "3/3 optimal"

    def test_unknown_config_field_is_an_error_row(self, tmp_path):
        # a manifest may set only SolverConfig's fields, the solve flags;
        # the method's tuning values are constants
        p = tmp_path / "c.json"
        save_instance(quick_instance(), p)
        names = ["cols_per_iter", "gap_init", "gap_step", "t_guess",
                 "k_max", "ng_size"]
        single, _ = self.parse(run_batch(
            [{"instance": str(p), "config": {name: 4}} for name in names]
            + [{"instance": str(p), "config": {"f_max": 4}}]))
        assert [r["status"] for r in single] == \
            ["error"] * len(names) + ["optimal"]

    def test_invalid_budget_is_an_error_row(self, tmp_path):
        p = tmp_path / "c.json"
        save_instance(quick_instance(), p)
        configs = [{"time_limit": math.nan}, {"time_limit": -5.0},
                   {"f_max": -3}, {"time_limit": 0.0},
                   {"time_limit": math.inf}, {"f_max": 0}]
        single, _ = self.parse(run_batch(
            [{"instance": str(p), "config": c} for c in configs]))
        assert [r["status"] for r in single] == \
            ["error"] * 3 + ["time-limit", "optimal", "optimal"]

    def test_base_config_applies_to_all(self, tmp_path):
        p = tmp_path / "c.json"
        save_instance(quick_instance(), p)
        single, _ = self.parse(
            run_batch([str(p)], cfg=SolverConfig(time_limit=0.0)))
        assert single[0]["status"] == "time-limit"

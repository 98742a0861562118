import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

import fragvrp
from fragvrp import bench, driver, lpback
from fragvrp.lpback import LPResult, MILPResult, solve_lp, solve_milp


def dense(rows):
    """The (row, column, value) triplets of a dense matrix."""
    r, c = np.nonzero(np.asarray(rows, dtype=float))
    return r, c, np.asarray(rows, dtype=float)[r, c]


# -- reference: the same interface through SciPy's public linprog / milp --


def _csr(A, n_rows, n_cols):
    rows, cols, vals = A if A is not None else ((), (), ())
    return sp.csr_matrix((np.asarray(vals, dtype=float),
                          (np.asarray(rows, dtype=np.int64),
                           np.asarray(cols, dtype=np.int64))),
                         shape=(n_rows, n_cols))


def reference_solve_lp(c, A, senses, rhs, col_lb, col_ub, tol=1e-9):
    c = np.asarray(c, dtype=float)
    n = c.size
    senses = np.asarray(list(senses))
    A = _csr(A, len(senses), n)
    rhs = np.asarray(rhs, dtype=float)
    le = np.flatnonzero(senses == "L")
    ge = np.flatnonzero(senses == "G")
    eq = np.flatnonzero(senses == "E")
    A_ub = b_ub = A_eq = b_eq = None
    if le.size or ge.size:
        A_ub = sp.vstack([A[le], -A[ge]], format="csr") if ge.size else A[le]
        b_ub = np.concatenate([rhs[le], -rhs[ge]])
    if eq.size:
        A_eq = A[eq]
        b_eq = rhs[eq]
    bounds = list(zip(np.asarray(col_lb, dtype=float),
                      np.asarray(col_ub, dtype=float)))
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 2:
        return LPResult("infeasible", float("inf"), np.zeros(n),
                        np.zeros(len(senses)), res.message)
    if res.status == 3:
        return LPResult("unbounded", float("-inf"), np.zeros(n),
                        np.zeros(len(senses)), res.message)
    if res.status != 0:
        return LPResult("error", float("nan"), np.zeros(n),
                        np.zeros(len(senses)), res.message)
    duals = np.zeros(len(senses))
    if le.size or ge.size:
        marg = np.asarray(res.ineqlin.marginals, dtype=float)
        duals[le] = marg[:le.size]
        duals[ge] = -marg[le.size:]
    if eq.size:
        duals[eq] = np.asarray(res.eqlin.marginals, dtype=float)
    wrong_le = (senses == "L") & (duals > 0) & (duals < tol)
    wrong_ge = (senses == "G") & (duals < 0) & (duals > -tol)
    duals[wrong_le | wrong_ge] = 0.0
    return LPResult("optimal", float(res.fun), np.asarray(res.x, dtype=float),
                    duals, res.message)


def reference_solve_milp(c, A, senses, rhs, col_lb, col_ub, integral,
                         time_limit=None, cutoff=None):
    assert cutoff is None, "milp() has no objective cutoff"
    c = np.asarray(c, dtype=float)
    n = c.size
    senses = np.asarray(list(senses))
    A = _csr(A, len(senses), n)
    rhs = np.asarray(rhs, dtype=float)
    lo = np.where(senses == "L", -np.inf, rhs)
    hi = np.where(senses == "G", np.inf, rhs)
    constraints = []
    if len(senses):
        constraints.append(LinearConstraint(A, lo, hi))
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None and np.isfinite(time_limit):
        options["time_limit"] = max(float(time_limit), 0.05)
    res = milp(c=c, constraints=constraints,
               integrality=np.asarray(integral, dtype=np.uint8),
               bounds=Bounds(np.asarray(col_lb, dtype=float),
                             np.asarray(col_ub, dtype=float)),
               options=options)
    bound = getattr(res, "mip_dual_bound", None)
    bound = float("-inf") if bound is None else float(bound)
    if res.status == 2:
        return MILPResult("infeasible", float("inf"), np.zeros(n),
                          float("inf"), res.message)
    if res.status == 0:
        return MILPResult("optimal", float(res.fun),
                          np.asarray(res.x, dtype=float), bound, res.message)
    if res.status == 1 and res.x is not None:
        return MILPResult("feasible", float(res.fun),
                          np.asarray(res.x, dtype=float), bound, res.message)
    if res.status == 1:
        return MILPResult("no_solution", float("inf"), np.zeros(n), bound,
                          res.message)
    return MILPResult("error", float("nan"), np.zeros(n), bound, res.message)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_lp_identical(got, want):
    assert got.status == want.status
    assert bits(got.objective) == bits(want.objective)
    assert bits(got.x) == bits(want.x)
    assert bits(got.duals) == bits(want.duals)


def assert_milp_identical(got, want):
    assert got.status == want.status
    assert bits(got.objective) == bits(want.objective)
    assert bits(got.x) == bits(want.x)
    assert bits(got.best_bound) == bits(want.best_bound)


@st.composite
def models(draw):
    """Small models: mixed senses, repeated and zero triplets, finite and
    infinite column bounds, an integrality mask."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    small = st.integers(-4, 4)
    entries = draw(st.lists(st.tuples(st.integers(0, max(m - 1, 0)),
                                      st.integers(0, n - 1), small),
                            max_size=3 * n * m if m else 0))
    A = (tuple(e[0] for e in entries), tuple(e[1] for e in entries),
         tuple(float(e[2]) for e in entries)) if entries else None
    senses = "".join(draw(st.lists(st.sampled_from("LGE"), min_size=m,
                                   max_size=m)))
    c = draw(st.lists(small, min_size=n, max_size=n))
    lb = draw(st.lists(st.sampled_from([-np.inf, -2.0, 0.0, 0.0, 1.0]),
                       min_size=n, max_size=n))
    width = draw(st.lists(st.sampled_from([np.inf, 0.0, 1.0, 3.0]),
                          min_size=n, max_size=n))
    ub = [w if lo == -np.inf else lo + w for lo, w in zip(lb, width)]
    rhs = draw(st.lists(small, min_size=m, max_size=m))
    if draw(st.booleans()):
        # rows slack around an integer point within the bounds: feasible
        point = np.clip(draw(st.lists(small, min_size=n, max_size=n)), lb, ub)
        act = np.zeros(m)
        for r, j, a in entries:
            act[r] += a * point[j]
        step = {"L": 1, "G": -1, "E": 0}
        rhs = [act[r] + step[s] * (abs(b) % 3) for r, (s, b) in
               enumerate(zip(senses, rhs))]
    integral = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return c, A, senses, rhs, lb, ub, integral


class TestMatchesScipy:
    """lpback builds HiGHS's model itself; linprog and milp stay the
    independent oracle it must match bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(models())
    def test_lp(self, model):
        c, A, senses, rhs, lb, ub, _ = model
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = reference_solve_lp(c, A, senses, rhs, lb, ub)
        assert_lp_identical(solve_lp(c, A, senses, rhs, lb, ub), want)

    @settings(max_examples=300, deadline=None)
    @given(models())
    def test_milp(self, model):
        c, A, senses, rhs, lb, ub, integral = model
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = reference_solve_milp(c, A, senses, rhs, lb, ub, integral)
        assert_milp_identical(solve_milp(c, A, senses, rhs, lb, ub, integral),
                              want)

    def test_statuses_covered(self):
        # every status the mapping knows, on both paths
        assert solve_lp([-1], None, "", [], [0], [np.inf]).status == \
            reference_solve_lp([-1], None, "", [], [0], [np.inf]).status \
            == "unbounded"
        args = ([1], dense([[1], [1]]), "LG", [-1, 0], [0], [np.inf])
        assert solve_lp(*args).status == reference_solve_lp(*args).status \
            == "infeasible"
        args = ([1], dense([[1], [1]]), "GL", [2, 1], [0], [5], [1])
        assert solve_milp(*args).status == reference_solve_milp(*args).status \
            == "infeasible"


DATA = Path(fragvrp.__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def last_master():
    """The last restricted master of the gap-loop S101 instance (first
    22 tasks, max-diff, sigma 0.2, dependency seed 7), as in
    benchmarks/bench_master.py: the last gap round's only master, after
    reduce_by_resolve dropped the columns it rejected."""
    data = bench.load_solomon(DATA / "S101.txt")
    inst = bench.generate_dependencies(data.instance(take=22), "max-diff",
                                       0.2, 7)
    built = []
    make = driver._restricted_master

    def record(*args, **kwargs):
        m = make(*args, **kwargs)
        built.append(m)
        return m

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "_restricted_master", record)
        driver.run(inst)
    return built[-1]


def solution_bits(sol):
    d = sol.duals
    duals = None if d is None else (
        bits(d.gamma), bits(d.mu),
        [sorted((k, bits(v)) for k, v in fam.items())
         for fam in (d.eta, d.rho, d.tau_lb, d.tau_ub, d.lam, d.kap_lb,
                     d.kap_ub)],
        [(cut.key(), bits(y)) for cut, y in d.cut_duals])
    return (sol.status, bits(sol.objective), bits(sol.x),
            bits(sol.artificial),
            sorted((k, bits(v)) for k, v in sol.p.items()),
            duals)


def raw_runs(monkeypatch):
    """The HiGHS objects lpback's runs return, recorded in order."""
    runs = []
    run = lpback._run

    def record(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(lpback, "_run", record)
    return runs


class TestReplay:
    def test_last_master_below_incumbent(self, last_master, monkeypatch):
        # the round's optimum is the incumbent, so with the cutoff below
        # it nothing is left; HiGHS still says kOptimal, with a solution
        # far above the cutoff and a dual bound equal to that solution
        m = last_master
        ub = round(m.solve_integer().objective)
        runs = raw_runs(monkeypatch)
        sol = m.solve_integer(cutoff=ub - 1 + 1e-6)
        [highs] = runs
        assert highs.getModelStatus() == lpback._MS.kOptimal
        assert highs.getInfo().objective_function_value > ub
        assert sol.status == "infeasible" and sol.objective == np.inf

    def test_last_master_matches_scipy(self, last_master, monkeypatch):
        m = last_master
        got = [m.solve_relaxation(), m.solve_integer()]
        monkeypatch.setattr(lpback, "solve_lp", reference_solve_lp)
        monkeypatch.setattr(lpback, "solve_milp", reference_solve_milp)
        want = [m.solve_relaxation(), m.solve_integer()]
        assert got[0].status == "optimal" and got[1].status == "optimal"
        for g, w in zip(got, want):
            assert solution_bits(g) == solution_bits(w)


class TestLP:
    def test_hand_solved_duals(self):
        # min -x1 - 2 x2  s.t.  x1 + x2 <= 4,  x2 <= 3,  x >= 0
        # optimum (1, 3), objective -7, both rows tight with duals -1
        res = solve_lp([-1, -2], dense([[1, 1], [0, 1]]), "LL", [4, 3],
                       [0, 0], [np.inf, np.inf])
        assert res.status == "optimal"
        assert res.objective == -7
        assert np.allclose(res.x, [1, 3])
        assert np.allclose(res.duals, [-1, -1])
        # reduced costs against the original rows vanish for basic columns
        rc = np.array([-1, -2]) - res.duals @ np.array([[1, 1], [0, 1]])
        assert np.allclose(rc, 0)

    def test_ge_duals_nonnegative(self):
        # min 3x  s.t.  x >= 2
        res = solve_lp([3], dense([[1]]), "G", [2], [0], [np.inf])
        assert res.status == "optimal"
        assert np.allclose(res.x, [2])
        assert np.allclose(res.duals, [3])

    def test_eq_duals(self):
        # min x1 + 2 x2  s.t.  x1 + x2 = 5
        res = solve_lp([1, 2], dense([[1, 1]]), "E", [5], [0, 0],
                       [np.inf, np.inf])
        assert res.status == "optimal"
        assert np.allclose(res.x, [5, 0])
        assert np.allclose(res.duals, [1])

    def test_mixed_senses_in_input_order(self):
        # min x1 + x2  s.t.  x1 >= 1 (G), x1 + x2 = 3 (E), x2 <= 5 (L)
        res = solve_lp([1, 1], dense([[1, 0], [1, 1], [0, 1]]), "GEL",
                       [1, 3, 5], [0, 0], [np.inf, np.inf])
        assert res.status == "optimal"
        assert res.objective == 3
        assert res.duals[0] >= -1e-9      # G row
        assert res.duals[2] <= 1e-9       # L row
        rc = np.array([1, 1]) - res.duals @ np.array([[1, 0], [1, 1], [0, 1]])
        assert (rc >= -1e-7).all()        # dual feasibility at optimum

    def test_repeated_triplets_add_up(self):
        # min -x  s.t.  (1 + 1) x <= 4
        res = solve_lp([-1], ([0, 0], [0, 0], [1.0, 1.0]), "L", [4], [0],
                       [np.inf])
        assert res.status == "optimal"
        assert np.allclose(res.x, [2])

    def test_infeasible(self):
        res = solve_lp([1], dense([[1], [1]]), "LG", [-1, 0], [0], [np.inf])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp([-1], None, "", [], [0], [np.inf])
        assert res.status == "unbounded"


class TestMILP:
    def test_binary_knapsack(self):
        # max 3a + 4b with a + b <= 1  ->  minimize the negation
        res = solve_milp([-3, -4], dense([[1, 1]]), "L", [1], [0, 0], [1, 1],
                         [1, 1])
        assert res.status == "optimal"
        assert res.objective == -4
        assert np.allclose(res.x, [0, 1])
        assert res.best_bound <= res.objective + 1e-9

    def test_integrality_mask(self):
        # continuous relaxation of one variable keeps the fraction
        res = solve_milp([-1, -1], dense([[2, 2]]), "L", [3], [0, 0], [1, 1],
                         [1, 0])
        assert res.status == "optimal"
        assert np.allclose(sorted(res.x), [0.5, 1.0])

    def test_infeasible(self):
        res = solve_milp([1], dense([[1], [1]]), "GL", [2, 1], [0], [5], [1])
        assert res.status == "infeasible"

    def test_equality_rows(self):
        res = solve_milp([1, 1], dense([[1, 2]]), "E", [3], [0, 0], [9, 9],
                         [1, 1])
        assert res.status == "optimal"
        assert res.objective == 2          # x = (1, 1)


# Offsets of the cutoff from the reference optimum.  None is zero: a
# cutoff equal to a fractional optimum lies within HiGHS's tolerance,
# and the driver's cutoffs sit 1 - 1e-6 below an integer incumbent.
CUTOFF_OFFSETS = (-3.0, -1.0, -0.5, -1 + 1e-6, 1e-6, 0.5, 2.0)


def assert_feasible(x, c, A, senses, rhs, lb, ub, integral, tol=1e-6):
    act = _csr(A, len(senses), len(c)) @ x
    for a, s, b in zip(act, senses, rhs):
        assert {"L": a <= b + tol, "G": a >= b - tol,
                "E": abs(a - b) <= tol}[s]
    assert (x >= np.asarray(lb) - tol).all()
    assert (x <= np.asarray(ub) + tol).all()
    held = x[np.asarray(integral, dtype=bool)]
    assert np.allclose(held, np.round(held), atol=tol)


class _StoppedAboveCutoff:
    """HiGHS stopped by its time limit, holding a solution of cost 7."""

    def getModelStatus(self):
        return lpback._MS.kTimeLimit

    def getInfo(self):
        return types.SimpleNamespace(objective_function_value=7.0,
                                     mip_dual_bound=2.0,
                                     primal_solution_status=2)

    def modelStatusToString(self, status):
        return "Time limit reached"

    def solutionStatusToString(self, status):
        return "Feasible"


class TestCutoff:
    """solve_milp with a cutoff keeps only solutions costing at most the
    cutoff, against milp() without one as the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(models(), st.sampled_from(CUTOFF_OFFSETS))
    def test_matches_reference_below_cutoff(self, model, offset):
        c, A, senses, rhs, lb, ub, integral = model
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = reference_solve_milp(c, A, senses, rhs, lb, ub, integral)
        assume(want.status in ("optimal", "infeasible"))
        cutoff = offset + (want.objective if want.status == "optimal"
                           else 0.0)
        got = solve_milp(c, A, senses, rhs, lb, ub, integral, cutoff=cutoff)
        if want.status == "infeasible" or want.objective > cutoff:
            assert got.status == "infeasible"
            assert got.objective == got.best_bound == np.inf
        else:
            assert got.status == "optimal"
            assert got.objective == pytest.approx(want.objective, rel=1e-9,
                                                  abs=1e-9)
            assert_feasible(got.x, c, A, senses, rhs, lb, ub, integral)

    def test_optimal_above_the_cutoff(self, monkeypatch):
        # HiGHS prunes its tree against the cutoff and reports kOptimal
        # with the optimum -35/3, which lies above it
        model = ([-3, -1, 1, -2, 2],
                 ((1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0),
                  (3, 2, 0, 3, 2, 3, 4, 4, 1, 2, 3, 3),
                  (4.0, -3.0, 4.0, -4.0, -3.0, 3.0, 4.0, -2.0, 1.0, -3.0,
                   0.0, 3.0)),
                 "EL", [3, 1], [0.0, -2.0, -np.inf, 0.0, -2.0],
                 [3.0, 1.0, np.inf, 3.0, np.inf],
                 [True, False, False, False, False])
        assert solve_milp(*model).objective == pytest.approx(-35 / 3)
        runs = raw_runs(monkeypatch)
        res = solve_milp(*model, cutoff=-12.5)
        [highs] = runs
        assert highs.getModelStatus() == lpback._MS.kOptimal
        assert highs.getInfo().objective_function_value > -12.5
        assert res.status == "infeasible"
        assert res.objective == res.best_bound == np.inf

    def test_time_limit_above_the_cutoff(self, monkeypatch):
        # a search the limit stopped has not shown that nothing lies
        # below the cutoff
        monkeypatch.setattr(lpback, "_run",
                            lambda *args, **kwargs: _StoppedAboveCutoff())
        res = solve_milp([1], None, "", [], [0], [9], [1], time_limit=1,
                         cutoff=5.5)
        assert res.status == "no_solution"
        assert res.objective == np.inf and res.best_bound == -np.inf

    def test_optimum_one_below_the_incumbent(self):
        # min 2x + 2y  s.t.  2x + 2y >= 43: the LP bound is 43 and the
        # integer optimum 44, one below an incumbent of 45
        model = ([2, 2], dense([[2, 2]]), "G", [43], [0, 0], [30, 30],
                 [1, 1])
        res = solve_milp(*model, cutoff=45 - 1 + 1e-6)
        assert res.status == "optimal" and res.objective == 44
        assert_feasible(res.x, *model)
        assert solve_milp(*model, cutoff=44 - 1e-6).status == "infeasible"

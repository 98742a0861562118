"""LP / MILP backend.

Hands each model to HiGHS through SciPy's private binding
``scipy.optimize._highspy._core`` behind a row-sense interface, so the
rest of the code never touches solver-specific sign conventions.  Rows
carry senses 'L' (<=), 'G' (>=), 'E' (=); the matrix is given as
(row, column, value) triplets whose repeated entries add up.  Reported
duals follow the convention of a minimization problem stated with those
senses directly: duals of 'L' rows are <= 0, duals of 'G' rows are >= 0,
duals of 'E' rows are free, and the reduced cost of column j is
c_j - sum_r y_r * a_rj against the original coefficients.

Each solve builds one column-wise model and runs a fresh ``_Highs`` on
it, with exactly the model and options SciPy's public ``linprog`` and
``milp`` would hand HiGHS, so every result is bit-identical to theirs:

- ``solve_lp`` uses ``linprog(method="highs")``'s layout: the L rows,
  then the G rows negated, then the E rows, with presolve on, the dual
  simplex strategy and no output.  The duals are mapped back to input
  row order, and an optimum that misses a row or bound by more than
  linprog's residual tolerance is an error, as linprog reports it.
- ``solve_milp`` uses ``milp``'s layout: every row in input order as a
  ranged row, with ``mip_rel_gap`` 0, ``time_limit`` at least 0.05 s and
  no console log; HiGHS statuses map as ``milp`` maps them.  Its
  ``cutoff`` sets ``objective_bound``, the one option here that ``milp``
  never sets: with it HiGHS searches only for solutions costing at most
  the cutoff, and a model with none is reported ``infeasible``.  The
  one other departure: a run that ends in a HiGHS "Solve error" is run
  once more with presolve off, where ``milp`` reports the error.  Some
  models whose presolve fails that way solve without it.

HiGHS writes a few diagnostic lines from C straight onto file
descriptor 1, whatever ``output_flag`` says, so each run sends that
descriptor to ``os.devnull``, flushing C stdio before the switch and
again before restoring it; the standard output of a program that prints
JSON stays JSON.

Why the private binding: the restricted masters are small (hundreds of
rows and columns), and on them the public wrappers' input checks,
row slicing and stacking, per-option validation and per-column result
loops took longer than HiGHS itself.  The binding is not a stable API,
so ``pyproject.toml`` pins SciPy to the minor series this was checked
against; ``tests/test_lpback.py`` keeps ``linprog`` and ``milp`` as the
oracle that any other SciPy must match bitwise.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os

import numpy as np

try:
    from scipy.optimize._highspy import _core as _h
except ImportError as exc:  # pragma: no cover - depends on the install
    raise ImportError(
        "fragvrp.lpback needs SciPy's private HiGHS binding "
        "scipy.optimize._highspy._core (SciPy 1.17.x; see the scipy pin "
        "in pyproject.toml): %s" % exc) from exc

_MS = _h.HighsModelStatus
_INTEGER = _h.HighsVarType.kInteger
_CONTINUOUS = _h.HighsVarType.kContinuous
# HiGHS statuses as linprog and milp read them
_LP_FAILED = {_MS.kInfeasible: ("infeasible", float("inf")),
              _MS.kModelError: ("infeasible", float("inf")),
              _MS.kUnbounded: ("unbounded", float("-inf"))}
_MILP_KIND = {_MS.kOptimal: "optimal", _MS.kTimeLimit: "feasible",
              _MS.kIterationLimit: "feasible",
              _MS.kInfeasible: "infeasible", _MS.kModelError: "infeasible"}
_LIMITS = (_MS.kTimeLimit, _MS.kIterationLimit, _MS.kSolutionLimit)
# the C library, for fflush(NULL) of HiGHS's buffered writes to stdout
_LIBC = ctypes.CDLL(None)
_LIBC.fflush.argtypes = [ctypes.c_void_p]
_LIBC.fflush.restype = ctypes.c_int
# linprog's tolerance for an optimum's row and bound residuals
_LP_CHECK = np.sqrt(1e-9) * 10

# The options linprog(method="highs") sets; all others keep HiGHS's defaults.
_LP_OPTIONS = _h.HighsOptions()
_LP_OPTIONS.presolve = "on"
_LP_OPTIONS.highs_debug_level = int(_h.kHighsDebugLevelNone)
_LP_OPTIONS.log_to_console = False
_LP_OPTIONS.output_flag = False
_LP_OPTIONS.simplex_strategy = int(
    _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual)


@dataclasses.dataclass
class LPResult:
    status: str            # optimal | infeasible | unbounded | error
    objective: float
    x: np.ndarray
    duals: np.ndarray      # one entry per row, in input row order
    message: str = ""


@dataclasses.dataclass
class MILPResult:
    status: str            # optimal | feasible | no_solution | infeasible | error
    objective: float
    x: np.ndarray
    best_bound: float
    message: str = ""


def _csc(A, pos, n_rows, n_cols):
    """CSC (start, index, value) of the triplets A with row r moved to
    pos[r]: repeated entries summed in input order, row indices sorted
    within each column, entries that sum to zero kept, as SciPy's
    conversions keep them."""
    rows, cols, vals = A if A is not None else ((), (), ())
    key = (np.asarray(cols, dtype=np.int64) * n_rows
           + pos[np.asarray(rows, dtype=np.int64)])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    value = np.add.reduceat(np.asarray(vals, dtype=float)[order], first) \
        if key.size else np.zeros(0)
    key = key[first]
    col, index = np.divmod(key, n_rows)
    return np.searchsorted(col, np.arange(n_cols + 1)), index, value


def _run(options, c, matrix, lower, upper, col_lb, col_ub, integrality=None):
    """A fresh HiGHS run on one column-wise model; matrix is its CSC
    (start, index, value).  Returns the solver."""
    start, index, value = matrix
    lp = _h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = lower.size
    lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = index.tolist()
    lp.a_matrix_.value_ = value.tolist()
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = np.asarray(col_lb, dtype=float).tolist()
    lp.col_upper_ = np.asarray(col_ub, dtype=float).tolist()
    lp.row_lower_ = lower.tolist()
    lp.row_upper_ = upper.tolist()
    if integrality is not None:
        lp.integrality_ = [_INTEGER if b else _CONTINUOUS
                           for b in integrality]
    highs = _h._Highs()
    highs.passOptions(options)
    highs.passModel(lp)
    _LIBC.fflush(None)
    saved = os.dup(1)
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, 1)
        finally:
            os.close(null)
        highs.run()
    finally:
        _LIBC.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)
    return highs


def _fail(highs):
    info = highs.getInfo()
    return "model_status is %s; primal_status is %s" % (
        highs.modelStatusToString(highs.getModelStatus()),
        highs.solutionStatusToString(info.primal_solution_status))


def solve_lp(c, A, senses, rhs, col_lb, col_ub, tol=1e-9) -> LPResult:
    """Minimizes c @ x subject to rows A with senses and rhs and column
    bounds; A is (rows, cols, values) triplets, or None for no entries."""
    c = np.asarray(c, dtype=float)
    n = c.size
    senses = np.asarray(list(senses), dtype="U1")
    rhs = np.asarray(rhs, dtype=float)
    m = senses.size
    le = np.flatnonzero(senses == "L")
    ge = np.flatnonzero(senses == "G")
    eq = np.flatnonzero(senses == "E")
    layout = np.concatenate((le, ge, eq))
    pos = np.empty(m, dtype=np.int64)
    pos[layout] = np.arange(m)
    upper = np.concatenate((rhs[le], -rhs[ge], rhs[eq]))
    lower = np.concatenate((np.full(le.size + ge.size, -np.inf), rhs[eq]))
    start, index, value = _csc(A, pos, m, n)
    # linprog negates the G rows after summing their entries
    ge_row = (index >= le.size) & (index < le.size + ge.size)
    value = np.where(ge_row, -value, value)
    highs = _run(_LP_OPTIONS, c, (start, index, value), lower, upper,
                 col_lb, col_ub)
    status = highs.getModelStatus()
    if status != _MS.kOptimal:
        kind, value = _LP_FAILED.get(status, ("error", float("nan")))
        return LPResult(kind, value, np.zeros(n), np.zeros(m), _fail(highs))
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    act = np.array(sol.row_value)
    objective = highs.getInfo().objective_function_value
    # linprog's check of the returned point against rows and bounds
    with np.errstate(invalid="ignore"):
        off = np.concatenate((act - upper, lower - act, col_lb - x,
                              x - col_ub))
    if np.isnan(objective) or np.isnan(off).any() or (off > _LP_CHECK).any():
        return LPResult("error", float("nan"), np.zeros(n), np.zeros(m),
                        "the solution does not satisfy the constraints "
                        "within %.2E" % _LP_CHECK)
    marg = np.array(sol.row_dual)
    duals = np.zeros(m)
    duals[le] = marg[:le.size]
    duals[ge] = -marg[le.size:le.size + ge.size]
    duals[eq] = marg[le.size + ge.size:]
    # zero out sub-tolerance sign violations from roundoff
    wrong_le = (senses == "L") & (duals > 0) & (duals < tol)
    wrong_ge = (senses == "G") & (duals < 0) & (duals > -tol)
    duals[wrong_le | wrong_ge] = 0.0
    return LPResult("optimal", objective, x, duals,
                    highs.modelStatusToString(status))


def solve_milp(c, A, senses, rhs, col_lb, col_ub, integral,
               time_limit=None, cutoff=None) -> MILPResult:
    """Minimizes c @ x over the columns where integral is true kept
    integer; the rows and A as in solve_lp.  With a cutoff only
    solutions costing at most cutoff count: the status is infeasible
    when there is none, and no_solution when a limit stopped the search
    before it found one."""
    c = np.asarray(c, dtype=float)
    n = c.size
    senses = np.asarray(list(senses), dtype="U1")
    rhs = np.asarray(rhs, dtype=float)
    options = _h.HighsOptions()
    options.log_to_console = False
    options.mip_rel_gap = 0.0
    if time_limit is not None and np.isfinite(time_limit):
        options.time_limit = max(float(time_limit), 0.05)
    if cutoff is not None:
        options.objective_bound = float(cutoff)
    integral = np.broadcast_to(np.asarray(integral, dtype=bool), (n,))
    m = senses.size
    model = (c, _csc(A, np.arange(m), m, n),
             np.where(senses == "L", -np.inf, rhs),
             np.where(senses == "G", np.inf, rhs), col_lb, col_ub)
    highs = _run(options, *model, integrality=integral)
    status = highs.getModelStatus()
    if status == _MS.kSolveError:
        options.presolve = "off"
        highs = _run(options, *model, integrality=integral)
        status = highs.getModelStatus()
    info = highs.getInfo()
    kind = _MILP_KIND.get(status, "error")
    if kind == "infeasible":
        return MILPResult(kind, float("inf"), np.zeros(n), float("inf"),
                          _fail(highs))
    mip = integral.any()
    # a MIP stopped by a limit keeps its incumbent, if it has one
    found = status == _MS.kOptimal or mip and status in _LIMITS \
        and info.objective_function_value != _h.kHighsInf
    bound = info.mip_dual_bound if mip and found else float("-inf")
    if kind == "feasible" and not found:
        kind = "no_solution"
    if cutoff is not None and found \
            and info.objective_function_value > cutoff:
        # HiGHS that pruned its whole tree against the cutoff still says
        # kOptimal, with a solution above the cutoff and a dual bound
        # equal to that solution's cost, which bounds nothing: no
        # solution costs cutoff or less, unless a limit cut the search
        if status == _MS.kOptimal:
            return MILPResult("infeasible", float("inf"), np.zeros(n),
                              float("inf"), _fail(highs))
        return MILPResult("no_solution", float("inf"), np.zeros(n),
                          float("-inf"), _fail(highs))
    if kind in ("no_solution", "error"):
        value = float("inf") if kind == "no_solution" else float("nan")
        return MILPResult(kind, value, np.zeros(n), bound, _fail(highs))
    return MILPResult(kind, info.objective_function_value,
                      np.array(highs.getSolution().col_value), bound,
                      highs.modelStatusToString(status))

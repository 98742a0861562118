"""Price-cut-and-enumerate driver.

The solve proceeds in six steps: tighten the instance, settle the LP
relaxation by column-and-row generation, guess an upper bound from a
restricted integer solve, enumerate every fragment priced within the
candidate gap, reduce the enumerated pool, and close the bracket with
a final integer solve.  Step 3 is skipped when the converged LP is
integral: fragment weights all 0 or 1 and the artificial column at 0.
Its solution, once decoded and verified, costs the lower bound, so it
is the optimum and the solve ends there.  Costs are integers, so the
candidate bound ub_cand is an integer too: the largest cost a round
must rule out.  A round's pool holds every fragment of every solution
costing at most ub_cand, so its final solve either finds the optimum
or proves that every solution costs at least ub_cand + 1.

With an incumbent, and no pool refused yet, a round's candidate is
ub - 1: its final solve finds a cheaper solution, which is optimal, or
proves that none exists, so one round closes the bracket.  Otherwise
it is the schedule's, capped at ub - 1: ceil((1 + GAP_INIT) lb), then
GAP_STEP lb more per round, rounded up (see _grow).  The last of the
ROUNDS rounds, with no incumbent yet, takes the artificial cost as its
candidate, which every solution undercuts: it finds the optimum or
proves the instance infeasible, unless a limit stops it.  A pool past
f_max fragments is refused: at ub - 1 the round falls back to the
schedule; a refused scheduled pool, or a scheduled candidate at or past
the refused one (a pool never shrinks as its candidate grows), stops the
solve with fragment-limit.  The final solve looks only below the
incumbent, so a round's master holds only the initial columns and the
reduced pool.

One deadline, cfg.time_limit after the start, bounds every phase; the
first-incumbent solve, repairs included, gets T_GUESS seconds at most.
It caps that MILP only, so an instance whose integral LP is the first
incumbent keeps it at any T_GUESS.  The two budgets, time_limit and
f_max, are the only settings (SolverConfig); GAP_INIT, GAP_STEP,
T_GUESS and ROUNDS here, cuts.K_MAX and pricing.NG_SIZE are the method's
constants.
stats["first_incumbent"] names where the first incumbent came from,
"lp" or "milp", and is absent when neither gave one.
"""

import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import cuts as cutlib
from .enumeration import (DeadlinePassed, LimitExceeded,
                          enumerate_fragments, reduce_by_resolve,
                          reduce_by_route_bound)
from .instance import Instance, SolverConfig
from .master import LP_TOLERANCE, MasterError, MasterModel, \
    artificial_cost, build_initial, initial_fragments
from .pricing import NG_SIZE, ng_neighborhoods, solve_pricing
from .preprocess import preprocess
from .scheduling import schedule_routes

# capacity cuts separated over a whole lower-bound solve, at most
RCC_TOTAL_LIMIT = 200
# restricted masters lift RCCs over at most this fraction of the tasks
FRCC_SIZE_CAP = 0.25
# the gap schedule's first candidate, as a fraction above lb, and its
# growth per round, as a fraction of lb
GAP_INIT = 0.05
GAP_STEP = 0.05
# seconds for the first-incumbent MILP, repairs included
T_GUESS = 100.0
# gap rounds a solve runs at most
ROUNDS = 64


@dataclass(frozen=True)
class Incumbent:
    """A concrete solution: routes without depot entries, integer start
    times per task and an order bit per dependency pair."""

    routes: Tuple[Tuple[int, ...], ...]
    start_times: Dict[int, int]
    orders: Dict[Tuple[int, int], int]
    cost: float


@dataclass
class BoundsState:
    """The bracket a solve ends with: no solution costs less than
    lb_sol, and the incumbent, if any, costs ub_sol.  On a limit stop,
    lb_sol - 1 is the largest cost ruled out so far; the gap rounds that
    ruled it out are in stats["rounds"]."""

    lb_sol: float
    ub_sol: float
    incumbent: Optional[Incumbent]
    status: str
    stats: dict = field(default_factory=dict)


def check_solution(incumbent, inst: Instance) -> bool:
    """First-principles feasibility: partition, capacity, windows,
    horizon, fleet size, and the four order-conditional dependency
    rows under the incumbent's order bits.

    Works purely from the instance data; no scheduling or master code
    is consulted.  A missing order bit is derived from the start times
    (ties read as the lower-id task starting first); a bit other than 0
    or 1 fails.
    """
    routes = [list(r) for r in incumbent.routes if r]
    seen = set()
    for r in routes:
        for v in r:
            if not (1 <= v <= inst.n) or v in seen:
                return False
            seen.add(v)
    if seen != set(range(1, inst.n + 1)):
        return False
    if len(routes) > inst.K:
        return False
    b = incumbent.start_times
    for r in routes:
        if sum(int(inst.dem[v]) for v in r) > inst.Q:
            return False
        for v in r:
            if v not in b:
                return False
            if not (inst.alpha[v] <= b[v] <= inst.beta[v]):
                return False
        if b[r[0]] < inst.t[0, r[0]]:
            return False
        for u, v in zip(r, r[1:]):
            if b[v] < b[u] + inst.dur[u] + inst.t[u, v]:
                return False
        last = r[-1]
        if b[last] + inst.dur[last] + inst.t[last, 0] > inst.tmax:
            return False
    for d in inst.deps:
        bu, bv = b[d.u], b[d.v]
        p = incumbent.orders.get((d.u, d.v))
        if p is None:
            p = 1 if bu <= bv else 0
        elif p not in (0, 1):
            return False
        # the all-sentinel quadruple forbids the order outright
        if p == 1 and inst.order_forbidden(d.u, d.v):
            return False
        if p == 0 and inst.order_forbidden(d.v, d.u):
            return False
        m_uv = max(0, int(inst.beta[d.u]) - int(inst.alpha[d.v]))
        m_vu = max(0, int(inst.beta[d.v]) - int(inst.alpha[d.u]))
        if bv - bu > d.dmax_uv * p:
            return False
        if bu - bv > d.dmax_vu * (1 - p):
            return False
        if bv - bu < d.dmin_uv * p - m_uv * (1 - p):
            return False
        if bu - bv < d.dmin_vu * (1 - p) - m_vu * p:
            return False
    return True


# -- Step 2: column-and-row generation --------------------------------


@dataclass
class LowerBound:
    lb: float
    columns: tuple
    duals: object
    cuts: tuple
    status: str
    pricing_iterations: int = 0
    # the converged LP's own solution, when it is integral and verifies
    incumbent: Optional[Incumbent] = None
    # V_min searches, threshold and exact, that its rows took
    vmin_searches: int = 0


def compute_lower_bound(inst, deadline=math.inf) -> LowerBound:
    """Alternates pricing with row separation until neither produces
    anything; rows are only separated once pricing comes up empty.
    Stops at deadline, by default never.  A converged LP that is
    integral, artificial column included, and decodes to a verified
    solution hands that solution back as the incumbent.  The cuts it
    returns start with build_initial's up-front FSECs."""
    calc = cutlib.VminCalculator(inst)

    def infeasible():
        return LowerBound(float("inf"), (), None, (), "infeasible",
                          vmin_searches=calc.searches)

    ng = ng_neighborhoods(inst, NG_SIZE)
    m = build_initial(inst, calc)
    sol = m.solve_relaxation()
    if sol.status != "optimal":
        return infeasible()
    tol = LP_TOLERANCE
    rcc_left = RCC_TOTAL_LIMIT
    iters = 0
    status = "optimal"
    # value of the last fully priced relaxation; a restricted master that
    # is still missing columns only bounds from above, so mid-loop
    # objectives must never escape as certified bounds
    cert = 0.0 if inst.c.size == 0 or int(inst.c.min()) >= 0 else float("-inf")
    while True:
        if time.monotonic() >= deadline:
            status = "time-limit"
            break
        iters += 1
        added = m.add_fragments(solve_pricing(sol.duals, inst, ng))
        if not added:
            cert = max(cert, sol.objective)
            sup = m.support(sol.x)
            new = cutlib.separate_fsec(sup, inst, cutlib.K_MAX, calc, tol,
                                       m.cut_keys())
            new += cutlib.separate_tifi(sup, inst, tol, m.cut_keys())
            new += cutlib.separate_tdifi(sup, sol.p, inst, tol, m.cut_keys())
            if rcc_left > 0:
                rccs = cutlib.separate_rcc(sup, inst, tol, m.cut_keys(),
                                           max_new=rcc_left)
                rcc_left -= len(rccs)
                new += rccs
            if not m.add_cuts(new):
                break
        sol = m.solve_relaxation()
        if sol.status != "optimal":
            return infeasible()
    if status == "time-limit":
        # pricing may not have converged and an artificial-free resolve
        # of a column-starved master proves nothing, so skip the
        # infeasibility confirmation and report the snapshot bound
        return LowerBound(cert, tuple(m.fragments), sol.duals,
                          tuple(m.cuts), status, iters,
                          vmin_searches=calc.searches)
    if sol.artificial > 1e-7:
        # the LP leans on the artificial column: confirm that no real
        # solution exists before declaring the instance infeasible
        strict = m.solve_relaxation(forbid_artificial=True)
        if strict.status != "optimal":
            return infeasible()
    inc = None
    if sol.artificial <= tol and np.all(
            np.minimum(np.abs(sol.x), np.abs(sol.x - 1)) <= tol):
        inc, _ = _verified(m, sol, inst)
    return LowerBound(sol.objective, tuple(m.fragments), sol.duals,
                      tuple(m.cuts), status, iters, inc, calc.searches)


# -- Steps 3 and 5: restricted integer solves -------------------------


def _lift_cut(cut, inst):
    """Restricted masters are never labeled, so small "arc" rows are lifted."""
    cap = math.ceil(FRCC_SIZE_CAP * inst.n)
    if cut.charge == "arc" and len(cut.S) <= cap:
        return cutlib.lift_rcc_to_frcc(cut)
    return cut


def _restricted_master(inst, cuts, frags=()):
    """The initial columns, then the lower bound's cuts, capacity rows
    lifted to their fragment form, then the given extra fragments.  The
    master's rows are the lower bound's rows: its cuts begin with the
    up-front FSECs build_initial adds, so no V_min is computed here."""
    m = MasterModel(inst)
    m.add_fragments(initial_fragments(inst))
    for cut in cuts:
        m.add_cut(_lift_cut(cut, inst))
    m.add_fragments(frags)
    return m


def _decode(m, sol, inst):
    """Chained routes from an integral master solution, or None when the
    chosen fragments do not decompose into depot-rooted walks (possible
    only through zero-elapsed-time cycles).  Also returns the leftover
    dependent vertices of an undecodable remainder for the repair cut.
    The master's rows are the lower bound's rows; its order variables
    are not read: the routes are scheduled from the instance alone,
    whose search tries every order they could fix."""
    chosen = [f for f, x in m.support(sol.x, eps=0.5)]
    by_start = {}
    for f in chosen:
        by_start.setdefault(f.start, []).append(f)
    for v, fs in by_start.items():
        if v != 0 and len(fs) > 1:
            return None, {u for f in fs for u in (f.start, f.end) if u != 0}
    used = set()
    routes = []
    for f0 in by_start.get(0, []):
        walk = [f0]
        used.add(id(f0))
        cur = f0
        while cur.end != 0:
            nxt = by_start.get(cur.end, [None])[0]
            if nxt is None or id(nxt) in used:
                return None, {u for u in (cur.end,) if u != 0}
            walk.append(nxt)
            used.add(id(nxt))
            cur = nxt
        tasks = [v for f in walk for v in f.tasks if v != 0]
        dedup = [v for i, v in enumerate(tasks)
                 if i == 0 or v != tasks[i - 1]]
        routes.append(tuple(dedup))
    left = [f for f in chosen if id(f) not in used]
    if left:
        return None, {u for f in left for u in (f.start, f.end) if u != 0}
    ok, starts, orders = schedule_routes(routes, inst)
    if not ok:
        return None, set()
    inc = Incumbent(tuple(routes), starts, orders,
                    float(round(sol.objective)))
    return inc, set()


def _verified(m, sol, inst):
    """_decode's answer, with an incumbent that check_solution rejects
    turned into (None, set())."""
    inc, stuck = _decode(m, sol, inst)
    if inc is not None and not check_solution(inc, inst):
        return None, set()
    return inc, stuck


def _solve_restricted(m, inst, deadline, counts, cutoff=None):
    """Integer solve; decodes and verifies the incumbent, adding a repair
    subtour row in the degenerate case of a depot-free cycle that the
    big-M timing rows cannot exclude.  Raises MasterError when the
    last of 1 + |V_D| solves still needs a repair row.  Every solve
    looks only for solutions costing at most cutoff; none is
    (inf, None, True).  The solves together end by deadline."""
    solves = 1 + len(inst.vd)
    for _ in range(solves):
        limit = deadline - time.monotonic()
        if limit <= 0:
            return float("inf"), None, False
        isol = m.solve_integer(time_limit=limit, cutoff=cutoff)
        if isol.status == "infeasible":
            return float("inf"), None, True
        if isol.status == "no_solution":
            return float("inf"), None, False
        proven = isol.status == "optimal"
        inc, stuck = _verified(m, isol, inst)
        if inc is not None:
            return inc.cost, inc, proven
        if not stuck:
            raise MasterError("integer master produced an unusable solution")
        vmin = max(1, cutlib.rcc_rhs(stuck, inst))
        if not m.add_cut(cutlib.FsecCut(S=frozenset(stuck), vmin=vmin)):
            raise MasterError("repair row already present; giving up")
        counts["FSEC"] = counts.get("FSEC", 0) + 1
    raise MasterError("integer master still undecodable after %d solves"
                      % solves)


def initial_upper_bound(columns, cuts, inst, deadline=math.inf,
                        counts=None):
    """Integer solve over the generated columns with capacity rows
    lifted to their fragment form.  Its solves, repairs included, end
    after T_GUESS seconds or at deadline, whichever comes first."""
    now = time.monotonic()
    counts = counts if counts is not None else {}
    m = _restricted_master(inst, cuts, columns)
    ub, inc, _ = _solve_restricted(m, inst, min(deadline, now + T_GUESS),
                                   counts)
    return ub, inc


# -- Step 1..6 state machine -------------------------------------------


def _int_floor_bound(lb, tol=1e-6):
    """Smallest integer a solution value could take given bound lb."""
    return math.ceil(lb - tol)


def _grow(cand, step):
    """The schedule's next candidate: step more, rounded up.  A step
    within 1e-9 of 0 (GAP_STEP lb at lb 0) would stall the schedule, so
    the candidate doubles instead, growing by 1 at least."""
    grown = cand + step
    if grown <= cand + 1e-9:
        grown = max(grown, 2.0 * cand, cand + 1.0)
    return float(math.ceil(grown))


def run(inst: Instance, cfg: SolverConfig = None) -> BoundsState:
    cfg = cfg or SolverConfig()
    deadline = time.monotonic() + cfg.time_limit
    stats = {
        "iterations": 0,
        "fragments_enumerated": 0,
        "cuts_by_kind": {"FSEC": 0, "TIFI": 0, "TDIFI": 0, "RCC": 0},
        "wall_times": {},
        "lb_certified": 0.0,
        # one entry per gap round that reached its final integer solve
        "rounds": [],
    }
    counts = stats["cuts_by_kind"]

    def mark(step, t0):
        dt = time.monotonic() - t0
        stats["wall_times"][step] = stats["wall_times"].get(step, 0.0) + dt
        return dt

    t0 = time.monotonic()
    pre = preprocess(inst)
    mark("preprocess", t0)
    if not pre.feasible:
        stats["infeasibility"] = pre.reason
        return BoundsState(float("inf"), float("inf"), None, "infeasible",
                           stats)
    pinst = pre.instance

    t0 = time.monotonic()
    lbres = compute_lower_bound(pinst, deadline)
    mark("lower_bound", t0)
    for c in lbres.cuts:
        counts[c.kind] += 1
    stats["vmin_searches"] = lbres.vmin_searches
    if lbres.status == "infeasible":
        return BoundsState(float("inf"), float("inf"), None, "infeasible",
                           stats)
    lb_cert = lbres.lb
    stats["lb_certified"] = lb_cert
    stats["pricing_iterations"] = lbres.pricing_iterations
    if lbres.status == "time-limit":
        return BoundsState(lb_cert, float("inf"), None, "time-limit", stats)

    if lbres.incumbent is not None:
        ub_sol, incumbent = lbres.incumbent.cost, lbres.incumbent
        stats["first_incumbent"] = "lp"
    else:
        t0 = time.monotonic()
        ub_sol, incumbent = initial_upper_bound(lbres.columns, lbres.cuts,
                                                pinst, deadline, counts)
        mark("initial_ub", t0)
        if incumbent is not None:
            stats["first_incumbent"] = "milp"
    if ub_sol <= _int_floor_bound(lb_cert):
        return BoundsState(ub_sol, ub_sol, incumbent, "optimal", stats)
    lb_sol = lb_cert
    sched = float(math.ceil((1 + GAP_INIT) * lb_cert))
    refused = math.inf    # the candidate whose pool passed f_max

    # any feasible solution costs less than the artificial column, so a
    # candidate bound beyond it turns "nothing found" into "infeasible"
    c_art = artificial_cost(pinst)

    def pool_at(ub_cand):
        """Every fragment priced within ub_cand - lb, or None past f_max."""
        try:
            return enumerate_fragments(
                lbres.duals, max(0.0, ub_cand - lb_cert), pinst, cfg.f_max,
                deadline)
        except LimitExceeded:
            return None

    status = "gap-limit"
    for iteration in range(1, ROUNDS + 1):
        stats["iterations"] = iteration
        if time.monotonic() >= deadline:
            status = "time-limit"
            break

        t0 = time.monotonic()
        pool = None
        try:
            if math.isfinite(ub_sol) and math.isinf(refused):
                ub_cand = ub_sol - 1
                pool = pool_at(ub_cand)
                if pool is None:
                    refused = ub_cand
            if pool is None:
                ub_cand = min(sched, ub_sol - 1)
                if iteration == ROUNDS and math.isinf(ub_sol):
                    ub_cand = c_art
                pool = pool_at(ub_cand) if ub_cand < refused else None
        except DeadlinePassed:
            mark("enumerate", t0)
            status = "time-limit"
            break
        mark("enumerate", t0)
        if pool is None:
            status = "fragment-limit"
            break
        stats["fragments_enumerated"] += len(pool)
        gap = max(0.0, ub_cand - lb_cert)

        t0 = time.monotonic()
        alive = reduce_by_route_bound(pool, lbres.duals, gap, pinst)
        m = _restricted_master(pinst, lbres.cuts)
        kept, _, _ = reduce_by_resolve(alive, m, ub_cand)
        mark("reduce", t0)

        # the round can only use a solution cheaper than the incumbent,
        # and costs are integers, so HiGHS searches at most ub_sol - 1;
        # the 1e-6 keeps a solution of exactly that cost clear of its
        # pruning tolerance.  A round that proves nothing cheaper exists
        # returns inf, and its milp_value is null.
        cutoff = ub_sol - 1 + 1e-6 if math.isfinite(ub_sol) else None
        t0 = time.monotonic()
        val, inc, proven = _solve_restricted(m, pinst, deadline, counts,
                                             cutoff=cutoff)
        stats["rounds"].append({"ub_cand": ub_cand, "enumerated": len(pool),
                                "kept": len(kept), "milp_value": _num(val),
                                "milp_s": mark("final_milp", t0)})
        if val < ub_sol:
            ub_sol, incumbent = val, inc
        if not proven:
            status = "time-limit"
            break

        # no solution costs ub_cand or less unless the solve found it
        lb_sol = max(lb_sol, min(ub_cand + 1, ub_sol))
        if ub_sol <= _int_floor_bound(lb_sol):
            # values are integral, so the rounded bound meets the ub
            lb_sol = float(ub_sol)
            status = "optimal"
            break
        if math.isinf(ub_sol) and ub_cand >= c_art:
            status = "infeasible"
            break
        sched = _grow(sched, GAP_STEP * lb_cert)

    if status == "infeasible":
        return BoundsState(float("inf"), float("inf"), None, status, stats)
    return BoundsState(lb_sol, ub_sol, incumbent, status, stats)


# -- solution file ------------------------------------------------------


def _num(x):
    return x if math.isfinite(x) else None


def solution_to_json(state: BoundsState) -> str:
    inc = state.incumbent
    doc = {
        "status": state.status,
        "lb": _num(state.lb_sol),
        "ub": _num(state.ub_sol),
        "routes": [list(r) for r in inc.routes] if inc else [],
        "start_times": {str(k): int(v)
                        for k, v in inc.start_times.items()} if inc else {},
        "order_vars": {"%d,%d" % k: int(v)
                       for k, v in inc.orders.items()} if inc else {},
        "stats": state.stats,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _whole(v) -> int:
    """v as an int; ValueError when it has a fractional part."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError("%r is not an integer" % (v,))
    return int(v)


def incumbent_from_json(doc: dict) -> Incumbent:
    routes = tuple(tuple(_whole(v) for v in r) for r in doc.get("routes", []))
    starts = {int(k): _whole(v)
              for k, v in doc.get("start_times", {}).items()}
    orders = {}
    for k, v in doc.get("order_vars", {}).items():
        u, w = k.split(",")
        orders[(int(u), int(w))] = _whole(v)
    ub = doc.get("ub")
    return Incumbent(routes, starts, orders,
                     float("inf") if ub is None else float(ub))

"""Answer checks for the benchmark, written apart from the solver.

The feasibility check reads only the instance data and the reported
routes, start times and order bits.  It shares no code with
``fragvrp.driver.check_solution``, so a fault there cannot hide a wrong
answer here.
"""

from __future__ import annotations

import math


def route_cost(route, inst) -> int:
    """Travel cost of one route, depot legs included, from ``inst.c``."""
    stops = [0, *route, 0]
    return sum(int(inst.c[a, b]) for a, b in zip(stops, stops[1:]))


def violations(routes, starts, orders, inst) -> list:
    """Every constraint the solution breaks, as text; empty when feasible.

    Covers partition, fleet size, capacity, windows, chaining (with the
    depot departure), the horizon, and the four rows of each dependency
    under the reported order bit: with u first (bit 1) the difference
    b_v - b_u must lie in [dmin_uv, dmax_uv] and u-first must not be
    forbidden; with v first (bit 0) b_u - b_v must lie in
    [dmin_vu, dmax_vu].  The two rows of the order not taken are slack.
    """
    out = []
    routes = [list(r) for r in routes]
    served = [v for r in routes for v in r]
    if sorted(served) != list(range(1, inst.n + 1)):
        out.append("routes do not partition the tasks 1..%d" % inst.n)
    if any(not r for r in routes):
        out.append("empty route")
    if len(routes) > inst.K:
        out.append("%d routes for %d vehicles" % (len(routes), inst.K))
    for r in (r for r in routes if r):
        load = sum(int(inst.dem[v]) for v in r)
        if load > inst.Q:
            out.append("route %s carries %d > %d" % (r, load, inst.Q))
        missing = [v for v in r if v not in starts]
        if missing:
            out.append("no start time for %s" % missing)
            continue
        for v in r:
            if not int(inst.alpha[v]) <= starts[v] <= int(inst.beta[v]):
                out.append("task %d starts at %d outside [%d, %d]"
                           % (v, starts[v], inst.alpha[v], inst.beta[v]))
        if starts[r[0]] < int(inst.t[0, r[0]]):
            out.append("task %d starts before the vehicle arrives" % r[0])
        for a, b in zip(r, r[1:]):
            if starts[b] < starts[a] + int(inst.dur[a]) + int(inst.t[a, b]):
                out.append("task %d starts before %d is done and the "
                           "vehicle arrives" % (b, a))
        last = r[-1]
        back = starts[last] + int(inst.dur[last]) + int(inst.t[last, 0])
        if back > inst.tmax:
            out.append("route %s returns at %d > %d" % (r, back, inst.tmax))
    for d in inst.deps:
        if d.u not in starts or d.v not in starts:
            continue        # already reported as a partition fault
        p = orders.get((d.u, d.v))
        if p not in (0, 1):
            out.append("no order bit for dependency (%d,%d)" % (d.u, d.v))
            continue
        if p == 1:
            lo, hi, diff = d.dmin_uv, d.dmax_uv, starts[d.v] - starts[d.u]
        else:
            lo, hi, diff = d.dmin_vu, d.dmax_vu, starts[d.u] - starts[d.v]
        forbidden = lo == hi == inst.tmax
        if forbidden or not lo <= diff <= hi:
            out.append("dependency (%d,%d) broken: order bit %d, "
                       "difference %d, allowed [%d, %d]%s"
                       % (d.u, d.v, p, diff, lo, hi,
                          " (order forbidden)" if forbidden else ""))
    return out


def answer_faults(state, inst, optimum) -> list:
    """Why a solver result is not the proven optimum; empty when it is.

    ``optimum`` is the arc-MILP optimum of the same instance.  Costs are
    integral, so it is compared after rounding.
    """
    if state.status != "optimal":
        return ["status %s" % state.status]
    out = []
    if state.lb_sol != state.ub_sol:
        out.append("lb %r != ub %r" % (state.lb_sol, state.ub_sol))
    inc = state.incumbent
    if inc is None:
        return out + ["no incumbent"]
    out += violations(inc.routes, inc.start_times, inc.orders, inst)
    cost = sum(route_cost(r, inst) for r in inc.routes)
    if cost != state.ub_sol:
        out.append("route cost %d != ub %r" % (cost, state.ub_sol))
    if not math.isfinite(optimum) or state.ub_sol != round(optimum):
        out.append("ub %r != arc-MILP optimum %r" % (state.ub_sol, optimum))
    return out

"""Reference solvers for cross-checking the fragment pipeline.

Two independent routes to the same integer optimum:

* ``brute_force_optimal`` enumerates every partition of the tasks into at
  most K open routes and every serving order inside each route, then asks
  the scheduler for a joint start-time witness.  Exact and exponential;
  refuses instances with more than nine tasks.

* ``arc_model_solve`` states the problem as a compact MILP over arc
  variables with big-M timing, load propagation and one order binary per
  dependent pair, solved by the bundled MILP backend.

Both validate their witness against the driver's independent feasibility
checker before returning it.  Neither shares any code with the pricing or
enumeration machinery, which is the point.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from . import lpback
from .driver import Incumbent, check_solution
from .instance import Instance
from .scheduling import schedule_routes

BRUTE_FORCE_CAP = 9

_EMPTY = Incumbent((), {}, {}, 0.0)


def _route_cost(route, inst) -> int:
    cost = int(inst.c[0, route[0]]) + int(inst.c[route[-1], 0])
    for a, b in zip(route, route[1:]):
        cost += int(inst.c[a, b])
    return cost


def _standalone_ok(route, inst) -> bool:
    # capacity and window chain of one route in isolation, deps ignored
    if sum(int(inst.dem[v]) for v in route) > inst.Q:
        return False
    b = max(int(inst.alpha[route[0]]), int(inst.t[0, route[0]]))
    if b > inst.beta[route[0]]:
        return False
    for u, v in zip(route, route[1:]):
        b = max(b + int(inst.dur[u]) + int(inst.t[u, v]), int(inst.alpha[v]))
        if b > inst.beta[v]:
            return False
    last = route[-1]
    return b + int(inst.dur[last]) + int(inst.t[last, 0]) <= inst.tmax


def _partitions(items, max_blocks):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest, max_blocks):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        if len(part) < max_blocks:
            yield [[first]] + part


def brute_force_optimal(inst: Instance):
    """Exact optimum with witness, or (inf, None) when infeasible.

    Hard-capped at nine tasks; raises ValueError beyond that.  Single
    threaded by construction so runs are reproducible.
    """
    if inst.n > BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_CAP} tasks, got {inst.n}")
    if inst.n == 0:
        return 0, _EMPTY
    if inst.K == 0:
        return math.inf, None

    order_cache: dict = {}

    def block_orders(block):
        key = frozenset(block)
        got = order_cache.get(key)
        if got is None:
            got = sorted(
                (_route_cost(p, inst), p)
                for p in itertools.permutations(sorted(block))
                if _standalone_ok(p, inst))
            order_cache[key] = got
        return got

    best_cost = math.inf
    best = None
    for part in _partitions(list(range(1, inst.n + 1)), inst.K):
        options = [block_orders(b) for b in part]
        if any(not o for o in options):
            continue
        tail_min = [0] * (len(options) + 1)
        for i in range(len(options) - 1, -1, -1):
            tail_min[i] = tail_min[i + 1] + options[i][0][0]

        def descend(i, cost, chosen):
            nonlocal best_cost, best
            if cost + tail_min[i] >= best_cost:
                return
            if i == len(options):
                ok, starts, orders = schedule_routes(chosen, inst)
                if ok:
                    best_cost = cost
                    best = Incumbent(tuple(tuple(r) for r in chosen),
                                     starts, orders, float(cost))
                return
            for c, perm in options[i]:
                if cost + c + tail_min[i + 1] >= best_cost:
                    break
                descend(i + 1, cost + c, chosen + [perm])

        descend(0, 0, [])

    if best is None:
        return math.inf, None
    assert check_solution(best, inst)
    return int(best_cost), best


# --- compact arc formulation ---------------------------------------------

def _clipped_windows(inst):
    """Start windows tightened by the depot legs every route must take."""
    a = inst.alpha.copy()
    b = inst.beta.copy()
    for v in range(1, inst.n + 1):
        a[v] = max(a[v], int(inst.t[0, v]))
        b[v] = min(b[v], inst.tmax - int(inst.dur[v]) - int(inst.t[v, 0]))
    return a, b


def _build_arcs(inst, a, b):
    arcs = []
    for u in range(inst.n + 1):
        for v in range(inst.n + 1):
            if u == v:
                continue
            if a[u] + int(inst.dur[u]) + int(inst.t[u, v]) > b[v]:
                continue
            if u and v and int(inst.dem[u]) + int(inst.dem[v]) > inst.Q:
                continue
            if inst.has_dep(u, v):
                # u immediately before v pins the pair's serving order
                if b[v] - a[u] < inst.dmin(u, v):
                    continue
                gap = max(int(inst.dur[u]) + int(inst.t[u, v]),
                          int(a[v] - b[u]))
                if gap > inst.dmax(u, v):
                    continue
            arcs.append((u, v))
    return arcs


def _decode_arcs(chosen):
    succ = {}
    for u, v in chosen:
        succ[u] = succ.get(u, []) + [v]
    routes = []
    used = set()
    for v in sorted(succ.get(0, [])):
        route = []
        cur = v
        while cur != 0:
            if cur in used:
                return None, None
            route.append(cur)
            used.add(cur)
            nxts = succ.get(cur, [])
            if len(nxts) != 1:
                return None, None
            cur = nxts[0]
        routes.append(route)
    left = {u for u, v in chosen if u and u not in used}
    return routes, left


def arc_model_solve(inst: Instance, time_limit=None):
    """(lb, ub, solution or None) from the arc-variable MILP.

    Depot-free cycles over zero-demand zero-elapsed arcs slip through the
    big-M rows, so solutions are decoded and cycle cuts added lazily until
    the incumbent is a genuine set of routes.
    """
    if inst.n == 0:
        return 0.0, 0.0, _EMPTY
    if inst.K == 0:
        return math.inf, math.inf, None
    a, b = _clipped_windows(inst)
    if any(a[v] > b[v] for v in range(1, inst.n + 1)):
        return math.inf, math.inf, None
    for d in inst.deps:
        if inst.order_forbidden(d.u, d.v) and inst.order_forbidden(d.v, d.u):
            return math.inf, math.inf, None

    arcs = _build_arcs(inst, a, b)
    pairs = [(d.u, d.v) for d in inst.deps]
    nx = len(arcs)
    np_ = len(pairs)
    n = inst.n
    bpos = nx + np_
    lpos = bpos + n
    ncols = lpos + n
    aidx = {arc: i for i, arc in enumerate(arcs)}

    cost = np.zeros(ncols)
    lo = np.zeros(ncols)
    hi = np.ones(ncols)
    integral = np.zeros(ncols, dtype=np.uint8)
    integral[:bpos] = 1
    for i, (u, v) in enumerate(arcs):
        cost[i] = inst.c[u, v]
    for k, (u, v) in enumerate(pairs):
        if inst.order_forbidden(u, v):
            hi[nx + k] = 0.0      # u first ruled out
        if inst.order_forbidden(v, u):
            lo[nx + k] = 1.0
    for v in range(1, n + 1):
        lo[bpos + v - 1], hi[bpos + v - 1] = a[v], b[v]
        lo[lpos + v - 1], hi[lpos + v - 1] = inst.dem[v], inst.Q

    rows, senses, rhs = [], [], []

    def add(coefs, sense, r):
        rows.append(coefs)
        senses.append(sense)
        rhs.append(float(r))

    add([(aidx[(0, v)], 1.0) for v in range(1, n + 1)
         if (0, v) in aidx], "L", inst.K)
    for v in range(1, n + 1):
        add([(i, 1.0) for i, (u, w) in enumerate(arcs) if w == v], "E", 1.0)
        coefs = [(i, 1.0) for i, (u, w) in enumerate(arcs) if w == v]
        coefs += [(i, -1.0) for i, (u, w) in enumerate(arcs) if u == v]
        add(coefs, "E", 0.0)
    for i, (u, v) in enumerate(arcs):
        if u == 0 or v == 0:
            continue
        big = float(b[u] - a[v])
        step = float(inst.dur[u] + inst.t[u, v])
        add([(bpos + u - 1, 1.0), (bpos + v - 1, -1.0),
             (i, step + big)], "L", big)
        add([(lpos + u - 1, 1.0), (lpos + v - 1, -1.0),
             (i, float(inst.Q))], "L", float(inst.Q - inst.dem[v]))
    for k, d in enumerate(inst.deps):
        u, v = d.u, d.v
        bu, bv, pk = bpos + u - 1, bpos + v - 1, nx + k
        m_uv = float(max(0, b[u] - a[v]))
        m_vu = float(max(0, b[v] - a[u]))
        add([(bv, 1.0), (bu, -1.0), (pk, -float(d.dmax_uv))], "L", 0.0)
        add([(bu, 1.0), (bv, -1.0), (pk, float(d.dmax_vu))],
            "L", float(d.dmax_vu))
        add([(bv, 1.0), (bu, -1.0), (pk, -(float(d.dmin_uv) + m_uv))],
            "G", -m_uv)
        add([(bu, 1.0), (bv, -1.0), (pk, float(d.dmin_vu) + m_vu)],
            "G", float(d.dmin_vu))

    deadline = None if time_limit is None else time.monotonic() + time_limit
    lb_out = -math.inf
    for _ in range(60):
        A = tuple(zip(*[(r, j, c) for r, coefs in enumerate(rows)
                        for j, c in coefs if c])) or None
        left = None
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                return lb_out, math.inf, None
        res = lpback.solve_milp(cost, A, senses, rhs, lo, hi, integral,
                                time_limit=left)
        if res.status == "infeasible":
            return math.inf, math.inf, None
        if res.status == "no_solution":
            return max(lb_out, res.best_bound), math.inf, None
        if res.status == "error":
            raise RuntimeError(f"arc model backend failure: {res.message}")
        lb_out = res.objective if res.status == "optimal" else res.best_bound
        chosen = [arcs[i] for i in range(nx) if res.x[i] > 0.5]
        routes, leftover = _decode_arcs(chosen)
        if routes is not None and not leftover:
            ok, starts, orders = schedule_routes(routes, inst)
            obj = int(round(res.objective))
            if ok:
                inc = Incumbent(tuple(tuple(r) for r in routes), starts,
                                orders, float(obj))
                if check_solution(inc, inst):
                    return float(lb_out), float(obj), inc
        # cut off the offending support: cycle rows when we can name the
        # cycles, otherwise a no-good on the full arc set
        if leftover:
            cut_vertices = set(leftover)
            internal = [i for i, (u, v) in enumerate(arcs)
                        if u in cut_vertices and v in cut_vertices]
            add([(i, 1.0) for i in internal], "L", len(cut_vertices) - 1)
        else:
            add([(i, 1.0) for i, arc in enumerate(arcs) if arc in chosen],
                "L", len(chosen) - 1)
    raise RuntimeError("arc model cycle elimination failed to converge")

"""Earliest start times for fixed route sets.

Given a set of routes (ordered task sequences, depot legs implicit) the
entry point decides whether integer start times exist that respect task
windows, route chaining, the horizon, and every temporal dependency whose
endpoints are both scheduled, and returns the earliest such schedule.

Once the starting order of every dependent pair is fixed, each constraint
is either a window [lo, hi] on one start or a difference edge
b_b >= b_a + w (a band [m, M] on b_v - b_u is two edges).  That is a
simple temporal network (Dechter, Meiri & Pearl, 1991): its earliest
schedule is the longest-path vector from the window openings, which
Bellman-Ford finds in at most |V| passes or refutes by a positive cycle,
and the order is feasible exactly when that vector stays within the window
closings.  No pass count depends on the horizon value.

Orders that are not forced are branched depth first, u first before v
first.  The network is propagated at every branch node, starting from the
parent's earliest starts, so a subtree dies at its first conflicting
order.
"""

from __future__ import annotations


def _propagate(lo, hi, edges):
    """Raises lo to the least solution of b_b >= b_a + w over the edges
    (a, b, w), in place.  False when some lo[v] passes hi[v] or when
    |V| + 1 passes still change lo, which proves a positive cycle."""
    for _ in range(len(lo) + 1):
        changed = False
        for a, b, w in edges:
            if lo[a] + w > lo[b]:
                lo[b] = lo[a] + w
                changed = True
        if any(lo[v] > hi[v] for v in lo):
            return False
        if not changed:
            return True
    return False


def _order_edges(d, bit):
    """The band of dependency d under its order bit (1: u starts first)."""
    if bit:
        return [(d.u, d.v, d.dmin_uv), (d.v, d.u, -d.dmax_uv)]
    return [(d.v, d.u, d.dmin_vu), (d.u, d.v, -d.dmax_vu)]


def schedule_routes(routes, inst, forced_orders=None):
    """Searches for feasible integer start times of the given routes.

    routes: iterable of task-id sequences (no depot entries).
    forced_orders: optional {(u, v) canonical u < v: 0/1} fixing who starts
    first (1 means u).  Dependencies with an endpoint outside the routes are
    ignored.

    Returns (ok, starts, orders); starts maps task -> earliest start time
    under the returned orders, and orders maps each decided canonical
    pair -> 0/1.
    """
    routes = [list(r) for r in routes if r]
    alpha, beta, dur, t = (inst.alpha_list, inst.beta_list, inst.dur_list,
                           inst.t_list)
    lo = {}
    hi = {}
    edges = []
    for r in routes:
        for v in r:
            lo[v] = alpha[v]
            hi[v] = beta[v]
        first, last = r[0], r[-1]
        # vehicle leaves the depot no earlier than time 0
        lo[first] = max(lo[first], t[0][first])
        # and must be back before the end of the horizon
        hi[last] = min(hi[last], inst.tmax - dur[last] - t[last][0])
        for a, b in zip(r, r[1:]):
            edges.append((a, b, dur[a] + t[a][b]))

    free = []      # dependencies whose order is still to branch
    orders = {}
    for d in inst.deps:
        if d.u not in lo or d.v not in lo:
            continue
        pair = (d.u, d.v)
        u_first_ok = not inst.pair[pair][0]
        v_first_ok = not inst.pair[(d.v, d.u)][0]
        want = None if forced_orders is None else forced_orders.get(pair)
        if want == 1:
            v_first_ok = False
        elif want == 0:
            u_first_ok = False
        if not u_first_ok and not v_first_ok:
            return False, {}, {}
        if u_first_ok and v_first_ok:
            free.append(d)
        else:
            orders[pair] = 1 if u_first_ok else 0
            edges += _order_edges(d, orders[pair])

    def attempt(i, lo, edges):
        if not _propagate(lo, hi, edges):
            return None
        if i == len(free):
            return lo
        d = free[i]
        for bit in (1, 0):
            orders[(d.u, d.v)] = bit
            out = attempt(i + 1, dict(lo), edges + _order_edges(d, bit))
            if out is not None:
                return out
        return None

    lo = attempt(0, lo, edges)
    if lo is None:
        return False, {}, {}
    return True, lo, orders

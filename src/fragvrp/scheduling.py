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

Orders the instance leaves open are branched depth first, u first before v
first.  The network is propagated at every branch node, starting from the
parent's earliest starts, so a subtree dies at its first conflicting
order.  A synchronization (both orders give the same band) is not
branched: its second order could only repeat the first one's subtree.

``extend_schedule`` answers the same question for routes that grew by one
task, without rebuilding the network.  Its state is the network itself:
least starts lo (order-free: under the decided orders alone), closings hi
and the edge list.  A placement adds the task's window (clamped by the
depot leg when it opens its route, by the horizon return when it ends
it), the at most two chain edges through it and its decided dependency
bands, then propagates from the parent's fixed point.  The link or depot
leg the task replaced stays in the state: under the triangle inequality
and non-negative durations a chain through the task implies it, so the
solution set, the least starts and the verdict are those of a rebuilt
network.
"""

from __future__ import annotations


def _propagate(lo, hi, edges):
    """Raises lo to the least solution of b_b >= b_a + w over the edges
    (a, b, w), in place.  False when some lo[v] passes hi[v] or when
    |V| + 1 passes still change lo, which proves a positive cycle.  lo
    must start within hi: it only rises, so only a raised lo[b] can pass
    its closing.  lo is left part-raised when the answer is False."""
    for _ in range(len(lo) + 1):
        changed = False
        for a, b, w in edges:
            if lo[a] + w > lo[b]:
                lo[b] = lo[a] + w
                if lo[b] > hi[b]:
                    return False
                changed = True
        if not changed:
            return True
    return False


def _order_edges(d, bit):
    """The band of dependency d under its order bit (1: u starts first)."""
    if bit:
        return [(d.u, d.v, d.dmin_uv), (d.v, d.u, -d.dmax_uv)]
    return [(d.v, d.u, d.dmin_vu), (d.u, d.v, -d.dmax_vu)]


def _network(routes, inst):
    """Window openings lo and closings hi of the tasks on the routes, and
    the chain edges between route neighbours; empty routes are skipped."""
    alpha, beta, dur, t = (inst.alpha_list, inst.beta_list, inst.dur_list,
                           inst.t_list)
    lo = {}
    hi = {}
    edges = []
    for r in routes:
        if not r:
            continue
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
    return lo, hi, edges


def dependency_orders(deps, inst):
    """Splits dependencies into decided and free orders.

    Returns (edges, free, orders): the bands of every dependency with one
    order left, the dependencies whose order is still to branch, and the
    decided canonical pair -> bit (1: u first).  None when some dependency
    has both orders ruled out.  The instance alone rules an order out; to
    fix an order, forbid the other one in the instance (its dmin = dmax =
    horizon sentinel).
    """
    edges = []
    free = []
    orders = {}
    for d in deps:
        pair = (d.u, d.v)
        u_first_ok = not inst.pair[pair][0]
        v_first_ok = not inst.pair[(d.v, d.u)][0]
        if not u_first_ok and not v_first_ok:
            return None
        if u_first_ok and v_first_ok and not (
                d.dmin_uv == -d.dmax_vu and d.dmax_uv == -d.dmin_vu):
            free.append(d)
        else:
            orders[pair] = 1 if u_first_ok else 0
            edges += _order_edges(d, orders[pair])
    return edges, free, orders


def _branch(i, lo, hi, edges, free, orders):
    """Earliest starts under the first assignment of bits to free[i:], in
    depth-first order with bit 1 first, that schedules; None when none
    does.  lo is already propagated over edges and is not changed; each
    tried bit is recorded in orders."""
    if i == len(free):
        return lo
    d = free[i]
    for bit in (1, 0):
        orders[(d.u, d.v)] = bit
        child = dict(lo)
        more = edges + _order_edges(d, bit)
        if _propagate(child, hi, more):
            out = _branch(i + 1, child, hi, more, free, orders)
            if out is not None:
                return out
    return None


def schedule_routes(routes, inst):
    """Searches for feasible integer start times of the given routes.

    routes: iterable of task-id sequences (no depot entries).  Every
    order the instance allows is searched; to fix who starts first in a
    pair, forbid the other order in the instance.  Dependencies with an
    endpoint outside the routes are ignored.

    Returns (ok, starts, orders); starts maps task -> earliest start time
    under the returned orders, and orders maps each decided canonical
    pair -> 0/1 (1 means u starts first).
    """
    lo, hi, edges = _network(routes, inst)
    split = dependency_orders(
        [d for d in inst.deps if d.u in lo and d.v in lo], inst)
    if split is None:
        return False, {}, {}
    dep_edges, free, orders = split
    edges += dep_edges
    if any(lo[v] > hi[v] for v in lo) or not _propagate(lo, hi, edges):
        return False, {}, {}
    lo = _branch(0, lo, hi, edges, free, orders)
    if lo is None:
        return False, {}, {}
    return True, lo, orders


def extend_schedule(parent, route, pos, inst, dep_edges, free):
    """The verdict of ``schedule_routes`` after placing v = route[pos].

    parent: the state (lo, hi, edges) of the routes before v was inserted
    into route; ``({}, {}, [])`` for empty routes.  Its lo must be the
    order-free least starts, never starts found after branching on a free
    order.  dep_edges: the decided bands (``dependency_orders``) of v's
    dependencies with tasks already placed.  free: every free dependency
    among the tasks now placed, v's included.

    Returns the child's state when the routes schedule, else None.  The
    parent's state is not changed.
    """
    lo, hi, edges = parent
    dur, t = inst.dur_list, inst.t_list
    v = route[pos]
    lo = dict(lo)
    hi = dict(hi)
    lo[v] = inst.alpha_list[v]
    hi[v] = inst.beta_list[v]
    edges = edges + dep_edges
    if pos:
        prev = route[pos - 1]
        edges.append((prev, v, dur[prev] + t[prev][v]))
    else:
        lo[v] = max(lo[v], t[0][v])
    if pos + 1 < len(route):
        nxt = route[pos + 1]
        edges.append((v, nxt, dur[v] + t[v][nxt]))
    else:
        hi[v] = min(hi[v], inst.tmax - dur[v] - t[v][0])
    # the parent's starts lie within their closings: only v's can pass
    if lo[v] > hi[v] or not _propagate(lo, hi, edges) or \
            _branch(0, lo, hi, edges, free, {}) is None:
        return None
    return lo, hi, edges

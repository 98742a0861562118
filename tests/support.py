"""Shared brute-force oracles and generators for the test suite.

Everything here recomputes quantities from first principles (integer
enumeration over small horizons) so the package code can be checked against
independent ground truth.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from fragvrp.instance import (Instance, Task, TemporalDependency,
                              dependency_from_type, instance_from_dict)
from fragvrp.scheduling import _branch, _network, _propagate

SIX_KINDS = ("synchronization", "min-diff", "max-diff", "minmax-diff",
             "overlap", "non-overlap")


# --- fragment schedule oracle -------------------------------------------

def enumerate_schedules(seq, inst):
    """All integer start vectors of `seq` satisfying windows, chaining and
    the endpoint dependency window.  Exponential; keep horizons tiny."""
    seq = list(seq)
    n = len(seq)
    out = []
    s, e = seq[0], seq[-1]
    dep = inst.has_dep(s, e)
    if dep and inst.order_forbidden(s, e):
        return out

    def rec(i, prefix):
        if i == n:
            if dep:
                diff = prefix[-1] - prefix[0]
                if not (inst.dmin(s, e) <= diff <= inst.dmax(s, e)):
                    return
            out.append(tuple(prefix))
            return
        v = seq[i]
        lo = int(inst.alpha[v])
        if i:
            p = seq[i - 1]
            lo = max(lo, prefix[-1] + int(inst.dur[p]) + int(inst.t[p, v]))
        for b in range(lo, int(inst.beta[v]) + 1):
            prefix.append(b)
            rec(i + 1, prefix)
            prefix.pop()

    rec(0, [])
    return out


def schedule_summary(seq, inst):
    """(es, ls, dur) recomputed by exhaustive schedule enumeration, or None
    when no schedule exists."""
    scheds = enumerate_schedules(seq, inst)
    if not scheds:
        return None
    es = min(sc[-1] for sc in scheds)
    ls = max(sc[0] for sc in scheds)
    dur = min(sc[-1] - sc[0] for sc in scheds)
    return es, ls, dur


def duration_at_oracle(seq, inst, t):
    """Minimum duration over all schedules starting exactly at t, or None."""
    durs = [sc[-1] - sc[0] for sc in enumerate_schedules(seq, inst)
            if sc[0] == t]
    return min(durs) if durs else None


def _forward_earliest(seq, inst, t):
    """Earliest start per position when seq[0] starts at t; None if the
    chain leaves some window."""
    if not (inst.alpha[seq[0]] <= t <= inst.beta[seq[0]]):
        return None
    out = [t]
    b = t
    for p, v in zip(seq, seq[1:]):
        b = max(b + int(inst.dur[p]) + int(inst.t[p, v]), int(inst.alpha[v]))
        if b > inst.beta[v]:
            return None
        out.append(b)
    return out


def _end_range(seq, inst, t):
    """Feasible end-start values for a fixed first start t, or None.

    Interior tasks start as early as possible; only the end task is ever
    delayed, which is sufficient because every constraint on it is a lower
    bound except its own window and the dependency maximum.
    """
    s, e = seq[0], seq[-1]
    dep = inst.has_dep(s, e)
    if dep and inst.order_forbidden(s, e):
        return None
    ear = _forward_earliest(seq, inst, t)
    if ear is None:
        return None
    lo = ear[-1]
    hi = int(inst.beta[e])
    if dep:
        lo = max(lo, t + inst.dmin(s, e))
        hi = min(hi, t + inst.dmax(s, e))
    return (lo, hi) if lo <= hi else None


def discretized_summary(seq, inst):
    """(es, ls, dur) by looping the first start over its whole window."""
    s = seq[0]
    es = ls = dur = None
    for t in range(int(inst.alpha[s]), int(inst.beta[s]) + 1):
        rng = _end_range(seq, inst, t)
        if rng is None:
            continue
        es = rng[0] if es is None else min(es, rng[0])
        ls = t
        d = rng[0] - t
        dur = d if dur is None else min(dur, d)
    return None if es is None else (es, ls, dur)


def discretized_duration_at(seq, inst, t):
    rng = _end_range(seq, inst, t)
    return None if rng is None else rng[0] - t


# --- window tightening reference ---------------------------------------

def reference_tighten_td_windows(inst):
    """Window tightening with one hand-written case per set of allowed
    starting orders, run to a fixed point.  Returns (feasible, reason,
    alpha, beta)."""
    alpha = [int(a) for a in inst.alpha]
    beta = [int(b) for b in inst.beta]
    tmax = inst.tmax
    changed = True
    while changed:
        changed = False
        for d in inst.deps:
            u, v = d.u, d.v
            uv_ok = not d.dmin_uv == d.dmax_uv == tmax
            vu_ok = not d.dmin_vu == d.dmax_vu == tmax
            if not uv_ok and not vu_ok:
                return (False, "both starting orders of (%d, %d) are "
                        "forbidden" % (u, v), alpha, beta)
            if uv_ok and vu_ok:
                cand = (
                    (u, max(alpha[u], alpha[v] - d.dmax_uv),
                     min(beta[u], beta[v] + d.dmax_vu)),
                    (v, max(alpha[v], alpha[u] - d.dmax_vu),
                     min(beta[v], beta[u] + d.dmax_uv)),
                )
            elif uv_ok:
                # u must start first: b_v - b_u in [dmin_uv, dmax_uv]
                cand = (
                    (u, max(alpha[u], alpha[v] - d.dmax_uv),
                     min(beta[u], beta[v] - d.dmin_uv)),
                    (v, max(alpha[v], alpha[u] + d.dmin_uv),
                     min(beta[v], beta[u] + d.dmax_uv)),
                )
            else:
                cand = (
                    (v, max(alpha[v], alpha[u] - d.dmax_vu),
                     min(beta[v], beta[u] - d.dmin_vu)),
                    (u, max(alpha[u], alpha[v] + d.dmin_vu),
                     min(beta[u], beta[v] + d.dmax_vu)),
                )
            for w, a, b in cand:
                if a > alpha[w]:
                    alpha[w] = a
                    changed = True
                if b < beta[w]:
                    beta[w] = b
                    changed = True
                if alpha[w] > beta[w]:
                    return (False, "dependency (%d, %d) empties the window "
                            "of task %d" % (u, v, w), alpha, beta)
    return True, "", alpha, beta


# --- placement reference -----------------------------------------------

def reference_extend_schedule(parent_lo, routes, inst, dep_edges, free):
    """The verdict of ``schedule_routes(routes, inst)`` for routes that
    hold one task more than the routes parent_lo was computed for, with
    the child network rebuilt from its routes (windows, closings, chain
    edges) and propagated from parent_lo.

    parent_lo: the parent routes' order-free least starts.  dep_edges and
    free: ``dependency_orders`` of every dependency among the tasks now
    on the routes.  Returns the child's order-free least starts when the
    routes schedule, else None."""
    lo, hi, edges = _network(routes, inst)
    lo.update(parent_lo)
    edges += dep_edges
    if any(lo[v] > hi[v] for v in lo) or not _propagate(lo, hi, edges) or \
            _branch(0, lo, hi, edges, free, {}) is None:
        return None
    return lo


# --- random instance generation -----------------------------------------

def random_instance(rng, n_tasks=None, n_deps=None, kinds=SIX_KINDS,
                    horizon=None, grid=12):
    """Small random instance with euclidean (rounded up) travel."""
    n = int(n_tasks if n_tasks is not None else rng.integers(4, 9))
    T = int(horizon if horizon is not None else rng.integers(40, 80))
    Q = int(rng.integers(15, 40))
    K = int(rng.integers(2, 4))
    coords = rng.integers(0, grid, size=(n + 1, 2))
    tasks = [{"id": 0, "x": int(coords[0][0]), "y": int(coords[0][1]),
              "alpha": 0, "beta": T, "duration": 0, "demand": 0}]
    for v in range(1, n + 1):
        a = int(rng.integers(0, (2 * T) // 3))
        width = int(rng.integers(T // 6, T // 2))
        # durations >= 1 keep dependent same-route tasks strictly ordered
        tasks.append({"id": v, "x": int(coords[v][0]), "y": int(coords[v][1]),
                      "alpha": a, "beta": min(a + width, T),
                      "duration": int(rng.integers(1, 5)),
                      "demand": int(rng.integers(0, max(2, Q // 3)))})
    data = {"horizon": T, "capacity": Q, "vehicle_count": K, "tasks": tasks,
            "dependencies": []}
    inst = instance_from_dict(data)
    m = int(n_deps if n_deps is not None else rng.integers(1, 4))
    deps = []
    used = set()
    guard = 0
    while len(deps) < m and guard < 200:
        guard += 1
        u, v = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        u, v = int(u), int(v)
        if frozenset((u, v)) in used:
            continue
        kind = kinds[int(rng.integers(0, len(kinds)))]
        dmax = int(rng.integers(0, max(1, T // 2)))
        dmin = int(rng.integers(0, dmax + 1))
        try:
            dep = dependency_from_type(kind, u, v, inst,
                                       delta_min=dmin, delta_max=dmax)
        except ValueError:
            continue
        deps.append(dep)
        used.add(frozenset((u, v)))
    return inst.replace(dependencies=deps)


def random_fragment_case(rng, max_len=6, horizon=50):
    """Instance plus a structurally valid sequence for recursion checks.

    The sequence starts and ends at the depot or at one of two dependent
    tasks and has dependency-free interior tasks.
    """
    n = int(rng.integers(2, 7))
    T = int(horizon)
    tasks = [Task(0, 0, T, 0, 0)]
    for v in range(1, n + 1):
        a = int(rng.integers(0, T - 5))
        tasks.append(Task(v, a, int(rng.integers(a, T)),
                          int(rng.integers(0, 4)), int(rng.integers(0, 5))))
    t = rng.integers(0, 6, size=(n + 1, n + 1))
    t = np.minimum(t, t.T)  # symmetric keeps the triangle fix convergent
    np.fill_diagonal(t, 0)
    # floyd-warshall style fix to restore the triangle inequality
    for k in range(n + 1):
        t = np.minimum(t, t[:, [k]] + t[[k], :])
    deps = []
    if n >= 2 and rng.random() < 0.8:
        u, v = 1, 2
        dmax = int(rng.integers(0, T // 2))
        dmin = int(rng.integers(0, dmax + 1))
        if rng.random() < 0.25:
            dmin, dmax = dmin, T  # open-ended upper side
        deps.append(TemporalDependency(u, v, dmin, dmax,
                                       int(rng.integers(0, 10)), T))
    cap = int(rng.integers(8, 20))
    inst = Instance(tasks, t, t.copy(), 3, cap, T, deps)
    endpoints = sorted(inst.vd | {0})
    interior = [v for v in range(1, n + 1) if v not in inst.vd]
    start = endpoints[int(rng.integers(0, len(endpoints)))]
    end = endpoints[int(rng.integers(0, len(endpoints)))]
    k = int(rng.integers(0, min(len(interior), max_len - 2) + 1))
    mid = list(rng.permutation(interior)[:k])
    seq = [start] + [int(x) for x in mid] + [end]
    if seq[0] == seq[-1] and (seq[0] != 0 or len(seq) == 2):
        return None
    return inst, tuple(seq)


# --- exhaustive structures ----------------------------------------------

def exhaustive_fragments(inst, build):
    """Every sequence accepted by `build` (endpoints in V_D + depot,
    distinct dependency-free interiors)."""
    endpoints = sorted(inst.vd | {0})
    interior = [v for v in range(1, inst.n + 1) if v not in inst.vd]
    frags = []
    for s in endpoints:
        for e in endpoints:
            if s == e and s != 0:
                continue
            for r in range(len(interior) + 1):
                for mid in itertools.permutations(interior, r):
                    seq = (s,) + mid + (e,)
                    if seq == (0, 0):
                        continue
                    f = build(seq, inst)
                    if f:
                        frags.append(f)
    return frags


def set_partitions(items, max_blocks):
    """All partitions of `items` into at most max_blocks nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest, max_blocks):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        if len(part) < max_blocks:
            yield [[first]] + part


def _route_feasible_alone(route, inst):
    """Window-chain and capacity check of a single route, deps ignored."""
    if sum(int(inst.dem[v]) for v in route) > inst.Q:
        return False
    b = max(int(inst.alpha[route[0]]), int(inst.t[0, route[0]]))
    if b > inst.beta[route[0]]:
        return False
    for a, c in zip(route, route[1:]):
        b = max(b + int(inst.dur[a]) + int(inst.t[a, c]), int(inst.alpha[c]))
        if b > inst.beta[c]:
            return False
    last = route[-1]
    return b + int(inst.dur[last]) + int(inst.t[last, 0]) <= inst.tmax


def with_orders(inst, bits):
    """inst with each order of bits, canonical pair -> 0/1 (1: u starts
    first), fixed: the other order's bounds become the horizon sentinel,
    which Instance.pair reads as forbidden.  Pairs not in bits keep
    their quadruple."""
    deps = []
    for d in inst.deps:
        bit = bits.get((d.u, d.v))
        if bit == 1:
            d = dataclasses.replace(d, dmin_vu=inst.tmax, dmax_vu=inst.tmax)
        elif bit == 0:
            d = dataclasses.replace(d, dmin_uv=inst.tmax, dmax_uv=inst.tmax)
        deps.append(d)
    return inst.replace(dependencies=deps)


def all_feasible_solutions(inst, schedule_routes):
    """Every (routes, starts, orders) triple that is feasible, enumerating
    route partitions, per-route orders and dependency starting orders."""
    tasks = list(range(1, inst.n + 1))
    perm_cache = {}

    def feasible_perms(block):
        key = frozenset(block)
        if key not in perm_cache:
            perm_cache[key] = [p for p in itertools.permutations(sorted(block))
                               if _route_feasible_alone(p, inst)]
        return perm_cache[key]

    pairs = [(d.u, d.v) for d in inst.deps]
    fixed = [with_orders(inst, dict(zip(pairs, bits)))
             for bits in itertools.product((1, 0), repeat=len(pairs))]
    sols = []
    for part in set_partitions(tasks, inst.K):
        options = [feasible_perms(b) for b in part]
        if any(not o for o in options):
            continue
        for combo in itertools.product(*options):
            for one in fixed:
                ok, starts, orders = schedule_routes(combo, one)
                if ok:
                    sols.append(([list(r) for r in combo], starts, orders))
    return sols


def reference_fsec(support, inst, k_max, vmin, viol_tol, existing=()):
    """FSEC separation the plain way: every set of 2..k_max dependent tasks
    that is connected, where two tasks are adjacent when a weighted
    fragment joins them either way or they form a dependency, and whose
    internal fragment weight, summed by scanning every weighted pair,
    exceeds 1 gets its exact vmin(S); the row |S| - vmin(S) is emitted
    when the weight violates it by more than viol_tol and its key is new.
    Returns the sorted (S, vmin) of the emitted rows."""
    vd = sorted(inst.vd)
    weight = {}
    for f, x in support:
        if f.start in inst.vd and f.end in inst.vd:
            key = (f.start, f.end)
            weight[key] = weight.get(key, 0.0) + x
    edges = {frozenset(k) for k, w in weight.items() if w > 0} \
        | {frozenset((d.u, d.v)) for d in inst.deps}
    out = []
    for size in range(2, min(k_max, len(vd)) + 1):
        for S in itertools.combinations(vd, size):
            if not connected(S, edges):
                continue
            inside = sum(w for (a, b), w in weight.items()
                         if a in S and b in S)
            if inside <= 1.0 + 1e-9:
                continue
            v = vmin(S)
            if ("FSEC", S) not in existing and \
                    inside > float(len(S) - v) + viol_tol:
                out.append((S, v))
    return sorted(out)


def connected(S, edges):
    """Whether a search from S's first task over the edges (pairs as
    frozensets) with both ends in S reaches all of S."""
    reached, stack = {S[0]}, [S[0]]
    while stack:
        a = stack.pop()
        for b in S:
            if b not in reached and frozenset((a, b)) in edges:
                reached.add(b)
                stack.append(b)
    return len(reached) == len(S)


def _first_most_violated(rows, viol_tol, existing):
    """From (violation, key, rhs, p_coeff) rows in candidate order, the
    first of largest violation above viol_tol whose key is new."""
    rows = [r for r in rows if r[0] > viol_tol and r[1] not in existing]
    return [max(rows, key=lambda r: r[0])] if rows else []


def reference_tifi(support, inst, viol_tol, existing=()):
    """TIFI separation from the row definition: per dependent task v and
    time t among the earliest completions into v, fragments into v with
    es >= t plus fragments out of v with ls < t, at most 1.  Sums over
    the whole support.  Returns (violation, key, rhs, p_coeff) rows."""
    out = []
    for v in sorted(inst.vd):
        rows = []
        for t in sorted({f.es for f, _ in support if f.end == v}):
            lhs = sum(x for f, x in support if f.end == v and f.es >= t) \
                + sum(x for f, x in support if f.start == v and f.ls < t)
            rows.append((lhs - 1.0, ("TIFI", v, t), 1.0, 0.0))
        out += _first_most_violated(rows, viol_tol, existing)
    return out


def reference_tdifi(support, p_vals, inst, viol_tol, existing=()):
    """TDIFI separation from the row definitions, per dependency (u, v)
    with order variable p (1 when u starts first), at time t:

    * uv-min: u done at or after t, v started before t + dmin(u, v):
      into(u, es >= t) + out(v, ls < t + dmin(u, v)) + p <= 2;
    * uv-max: u started by t, v reached after t + dmax(u, v):
      out(u, ls <= t) + into(v, es > t + dmax(u, v)) <= 1;
    * vu-min and vu-max: the same with u and v swapped, the first with
      - p and right-hand side 1.

    Candidate times are the earliest completions into, or latest starts
    out of, the task the row anchors at t.  Returns (violation, key, rhs,
    p_coeff) rows."""
    def into(w, after):
        return sum(x for f, x in support if f.end == w and after(f.es))

    def out_of(w, before):
        return sum(x for f, x in support if f.start == w and before(f.ls))

    def es_into(w):
        return sorted({f.es for f, _ in support if f.end == w})

    def ls_out(w):
        return sorted({f.ls for f, _ in support if f.start == w})

    out = []
    for d in inst.deps:
        u, v = d.u, d.v
        p = p_vals.get((u, v), 0.0)
        rows = []
        for t in es_into(u):
            lo = t + inst.dmin(u, v)
            lhs = into(u, lambda es: es >= t) \
                + out_of(v, lambda ls: ls < lo) + p
            rows.append((lhs - 2.0, ("TDIFI", u, v, "uv-min", t), 2.0, 1.0))
        for t in ls_out(u):
            hi = t + inst.dmax(u, v)
            lhs = out_of(u, lambda ls: ls <= t) + into(v, lambda es: es > hi)
            rows.append((lhs - 1.0, ("TDIFI", u, v, "uv-max", t), 1.0, 0.0))
        for t in es_into(v):
            lo = t + inst.dmin(v, u)
            lhs = into(v, lambda es: es >= t) \
                + out_of(u, lambda ls: ls < lo) - p
            rows.append((lhs - 1.0, ("TDIFI", u, v, "vu-min", t), 1.0, -1.0))
        for t in ls_out(v):
            hi = t + inst.dmax(v, u)
            lhs = out_of(v, lambda ls: ls <= t) + into(u, lambda es: es > hi)
            rows.append((lhs - 1.0, ("TDIFI", u, v, "vu-max", t), 1.0, 0.0))
        out += _first_most_violated(rows, viol_tol, existing)
    return out


def route_cost(route, inst):
    cost = int(inst.c[0, route[0]]) + int(inst.c[route[-1], 0])
    for a, b in zip(route, route[1:]):
        cost += int(inst.c[a, b])
    return cost


def solution_cost(routes, inst):
    return sum(route_cost(r, inst) for r in routes if r)


def routes_to_fragments(routes, inst):
    """Fragment decomposition of depot-to-depot routes: boundaries at the
    depot and at every dependent task."""
    frags = []
    for r in routes:
        seq = [0] + list(r) + [0]
        cur = [seq[0]]
        for v in seq[1:]:
            cur.append(v)
            if v == 0 or v in inst.vd:
                frags.append(tuple(cur))
                cur = [v]
    return frags


def line_instance(n=4, deps=(), horizon=60, capacity=20, vehicles=3,
                  demands=None, durations=None, windows=None):
    """Tasks on a line at coordinates 1..n, depot at 0, travel = distance.

    Window / duration / demand overrides are per task (index v-1).
    """
    tasks = [Task(0, 0, horizon, 0, 0)]
    for v in range(1, n + 1):
        a, b = (0, horizon) if windows is None else windows[v - 1]
        tasks.append(Task(v, a, b,
                          1 if durations is None else durations[v - 1],
                          2 if demands is None else demands[v - 1]))
    mat = np.array([[abs(i - j) for j in range(n + 1)]
                    for i in range(n + 1)], dtype=np.int64)
    return Instance(tasks=tasks, travel_time=mat, travel_cost=mat,
                    vehicle_count=vehicles, capacity=capacity,
                    horizon=horizon, dependencies=list(deps))

"""Valid inequalities for the fragment formulation.

Five cut families strengthen the master relaxation.  Each says how
pricing charges its dual (Row.charge):

* FSEC: subtour elimination over sets of dependent tasks, with a
  minimum-vehicle right-hand side V_min(S); charged at completion.
  Separation asks V_min only of connected candidate sets, one threshold
  query each (separate_fsec); V_min is one depth-first search per
  route count (VminCalculator).
* TIFI: time infeasible fragment inequalities at a single task.
* TDIFI: temporal dependency infeasible fragment inequalities at a
  dependent pair, in four variants (min/max difference per order).
  TIFI and TDIFI share one row form, IntervalCut, charged at completion:
  late arrivals into one task plus early departures from another, with
  an optional order term.  Their separators only list candidate rows;
  one scoring loop picks the most violated.
* RCC: rounded capacity constraints counting S-entering arcs; charged
  on those arcs.
* FRCC: fragment-based lifting of an RCC (coefficient 1 per entering
  fragment, regardless of how often it enters); charged on the finished
  fragment only, so only restricted masters, never labeled, hold it.

Every cut knows its row coefficient for an arbitrary fragment, so the
master can rebuild rows from fragment data alone.  Separators are pure
functions of the current LP weights and return deterministically ordered
lists of new cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from .fragments import Fragment
from .instance import Instance
from .scheduling import dependency_orders, extend_schedule
# not called here: it stays importable as cuts.schedule_routes, where the
# wrappers of perfbench/measure.py look it up
from .scheduling import schedule_routes  # noqa: F401

EPS = 1e-9
# largest dependent set FSEC separation enumerates, and the largest V_D
# whose up-front FSEC gets an exact V_min
K_MAX = 5

TDIFI_VARIANTS = ("uv-min", "uv-max", "vu-min", "vu-max")


class Row:
    """A master row: kind, key(), sense ('L' unless a class says 'G'),
    rhs, an order term p_coeff * p (none by default) and fragment_coeff(f).
    `charge` says where pricing puts its dual: "arc" onto every arc
    entering the row's set S, which fragment_coeff counts; "completion"
    by completion_coeff(start, end, es, ls) as a label completes;
    "fragment" on the finished fragment alone.

    Completion rows are 'L' rows, so their duals are nonpositive up to
    the LP tolerance.  The coefficient is a nonnegative integer, at most
    coeff_max, that depends on (start, end, es, ls) only, never falls as
    es grows and never rises as ls grows.  It reads es only when the end
    is a dependent task and ls only when the start is one.
    """

    sense = "L"
    p_pair = None
    p_coeff = 0.0


@dataclass(frozen=True)
class SetRow(Row):
    """A row over a task set S, keyed by its kind and sorted S."""

    S: FrozenSet[int]

    def key(self):
        return (self.kind, tuple(sorted(self.S)))


class CompletionRow(Row):
    charge = "completion"

    def fragment_coeff(self, f: Fragment) -> int:
        return self.completion_coeff(f.start, f.end, f.es, f.ls)


@dataclass(frozen=True)
class FsecCut(SetRow, CompletionRow):
    """sum of fragments with both endpoints in S  <=  |S| - vmin."""

    vmin: int

    kind = "FSEC"
    coeff_max = 1

    @property
    def rhs(self) -> float:
        return float(len(self.S) - self.vmin)

    def completion_coeff(self, start: int, end: int, es: int, ls: int) -> int:
        return 1 if (start in self.S and end in self.S) else 0


@dataclass(frozen=True)
class IntervalCut(CompletionRow):
    """An infeasible-interval row: fragments into in_task finishing at or
    after es_min plus fragments out of out_task that must start by
    ls_max, plus p_coeff times the order variable of p_pair, at most rhs.

    TIFI and TDIFI rows both take this form; strict comparisons are
    folded into the inclusive integer thresholds.  `tag` is the key after
    the kind: (v, t) for a TIFI, (u, v, variant, t) for a TDIFI.
    """

    kind: str
    tag: tuple
    in_task: int
    es_min: int
    out_task: int
    ls_max: int
    rhs: float
    p_pair: Optional[Tuple[int, int]] = None
    p_coeff: float = 0.0

    coeff_max = 2

    def key(self):
        return (self.kind,) + self.tag

    def completion_coeff(self, start: int, end: int, es: int, ls: int) -> int:
        c = 0
        if end == self.in_task and es >= self.es_min:
            c += 1
        if start == self.out_task and ls <= self.ls_max:
            c += 1
        return c


def make_tifi(v: int, t: int) -> IntervalCut:
    """Fragments into v finishing at or after t plus fragments out of v
    that must start before t: at most one of them fits."""
    return IntervalCut("TIFI", (v, t), in_task=v, es_min=t, out_task=v,
                       ls_max=t - 1, rhs=1.0)


def make_tdifi(u: int, v: int, variant: str, t: int,
               inst: Instance) -> IntervalCut:
    """One of the four order-dependent incompatibility rows for a
    dependent pair (u, v), which must be in canonical order u < v."""
    if u > v:
        raise ValueError("pair must be in canonical order")
    if variant == "uv-min":
        # u starting at or after t and v before t + dmin forbids u-first.
        row = (u, t, v, t + inst.dmin(u, v) - 1, 1.0, 2.0)
    elif variant == "uv-max":
        # u no later than t and v after t + dmax: incompatible outright.
        row = (v, t + inst.dmax(u, v) + 1, u, t, 0.0, 1.0)
    elif variant == "vu-min":
        row = (v, t, u, t + inst.dmin(v, u) - 1, -1.0, 1.0)
    elif variant == "vu-max":
        row = (u, t + inst.dmax(v, u) + 1, v, t, 0.0, 1.0)
    else:
        raise ValueError("unknown variant %r" % (variant,))
    in_task, es_min, out_task, ls_max, p_coeff, rhs = row
    return IntervalCut("TDIFI", (u, v, variant, t), in_task, es_min,
                       out_task, ls_max, rhs, (u, v), p_coeff)


@dataclass(frozen=True)
class RccCut(SetRow):
    """Entering-arc rounded capacity constraint: the number of arcs that
    cross into S, weighted by fragment use, is at least ceil(q(S)/Q)."""

    rhs: float

    kind = "RCC"
    sense = "G"
    charge = "arc"

    def fragment_coeff(self, f: Fragment) -> int:
        return _entries(f, self.S)


def _entries(f: Fragment, S) -> int:
    """The arcs of f that enter S."""
    return sum(1 for a, b in zip(f.tasks, f.tasks[1:])
               if a not in S and b in S)


@dataclass(frozen=True)
class FrccCut(SetRow):
    """Fragment-based rounded capacity constraint: fragments starting
    outside S and visiting it count once each."""

    rhs: float

    kind = "FRCC"
    sense = "G"
    charge = "fragment"

    def fragment_coeff(self, f: Fragment) -> int:
        return int(f.start not in self.S
                   and any(task in self.S for task in f.tasks))


def lift_rcc_to_frcc(cut: RccCut) -> FrccCut:
    """Replace arc-entry counting by fragment-entry counting; same set,
    same right-hand side, never weaker."""
    return FrccCut(S=cut.S, rhs=cut.rhs)


def rcc_rhs(S: Iterable[int], inst: Instance) -> int:
    """ceil(q(S)/Q); 0 when S has no demand, as at capacity 0."""
    total = sum(inst.dem[v] for v in S)
    return -(-total // inst.Q) if total else 0


# ---------------------------------------------------------------------------
# Minimum-vehicle computation for FSECs


class VminCalculator:
    """Minimum number of vehicles needed to serve a set of tasks.

    V_min(S) is the least k for which at most k routes over S schedule
    jointly (windows, capacity, horizon, dependencies inside S); |S| + 1
    when none does.  Each k is one depth-first search that places the
    tasks in id order at every position of every open route with room,
    or alone in the first unopened one, reaching every arrangement
    exactly once.

    Each set keeps proven bounds lo <= V_min(S) <= hi, starting from
    (1, |S| + 1): a search that succeeds with k routes sets hi = k, one
    that fails sets lo = k + 1, and lo == hi is the exact value.
    ``exceeds`` answers V_min(S) > k with at most one search, and none
    outside [lo, hi); ``vmin`` asks it for k = 1, 2, ... until the answer
    is no, so no k is searched twice for the same set.  ``searches``
    counts the searches run, threshold and exact alike.

    Each node of the search carries its network state (least starts,
    closings, edges; ``scheduling.extend_schedule``), and a placement
    builds its child from it by the one inserted task: its window, the
    chain edges through it and its dependency bands, propagated from the
    parent's order-free least starts.  A branch dies at its first
    placement that does not schedule.  Both rest on one fact: placing a
    task only adds constraints, and a chain through it is, under the
    triangle inequality and non-negative durations (``validate`` checks
    both, before ``driver.run`` solves), no looser than the depot leg or
    link it replaces, which therefore stays in the state.  So the
    parent's least starts lie below the child's, and a child of an
    unschedulable placement never schedules.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._bounds: Dict[FrozenSet[int], Tuple[int, int]] = {}
        self.searches = 0

    def vmin(self, S: Iterable[int]) -> int:
        S = frozenset(S)
        k = 1
        while self.exceeds(S, k):
            k += 1
        return k

    def exceeds(self, S: Iterable[int], k: int) -> bool:
        """Whether V_min(S) > k, by at most one search with k routes."""
        key = frozenset(S)
        lo, hi = self._bounds.get(key) or (1, len(key) + 1)
        if k < lo:
            return True
        if k >= hi:
            return False
        self.searches += 1
        if self._feasible_with(sorted(key), k):
            self._bounds[key] = (lo, k)
            return False
        self._bounds[key] = (k + 1, hi)
        return True

    def _feasible_with(self, tasks: List[int], k: int) -> bool:
        inst = self.inst
        dem, cap = inst.dem, inst.Q
        # the dependencies each task has with the tasks placed before it
        at = {v: i for i, v in enumerate(tasks)}
        links: List[list] = [[] for _ in tasks]
        for d in inst.deps:
            if d.u in at and d.v in at:
                links[max(at[d.u], at[d.v])].append(d)
        brought = [dependency_orders(deps, inst) for deps in links]
        if None in brought:
            return False
        routes: List[List[int]] = [[] for _ in range(k)]
        loads = [0] * k

        def place(i: int, state: tuple, free: list) -> bool:
            if i == len(tasks):
                return True
            v = tasks[i]
            dep_edges, more, _ = brought[i]
            free = free + more
            for r, route in enumerate(routes):
                if loads[r] + dem[v] <= cap:
                    loads[r] += dem[v]
                    for pos in range(len(route) + 1):
                        route.insert(pos, v)
                        child = extend_schedule(state, route, pos, inst,
                                                dep_edges, free)
                        if child is not None and place(i + 1, child, free):
                            return True
                        del route[pos]
                    loads[r] -= dem[v]
                if not route:
                    break   # the first unopened route stands for them all
            return False

        return place(0, ({}, {}, []), [])


# ---------------------------------------------------------------------------
# Separation routines
#
# Each takes the support of the current LP solution as (fragment, weight)
# pairs with positive weight and returns new violated cuts, skipping keys
# already present in the model.  Output order is deterministic.


def _connected_sets(adj: Sequence[AbstractSet[int]], size_max: int):
    """Each connected set of 2..size_max vertices of the graph over
    0..len(adj) - 1 with neighbour sets adj, once, as a list in no fixed
    order.  ESU (Wernicke, IEEE/ACM TCBB 2006): a set grows from its
    least vertex, by candidates above it that are adjacent to the set,
    and a vertex becomes a candidate only through the first member it
    is adjacent to, so no set is reached twice."""
    def extend(members: List[int], cands: List[int], near: set):
        while cands:
            w = cands.pop()
            grown = members + [w]
            yield grown
            if len(grown) < size_max:
                fresh = [u for u in adj[w] if u > grown[0] and u not in near]
                yield from extend(grown, cands + fresh, near | adj[w])

    if size_max < 2:
        return
    for v in range(len(adj)):
        yield from extend([v], [u for u in adj[v] if u > v], adj[v] | {v})


def separate_fsec(support: Sequence[Tuple[Fragment, float]], inst: Instance,
                  k_max: int, vmin_calc: VminCalculator, viol_tol: float,
                  existing: AbstractSet = frozenset()) -> List[FsecCut]:
    """FSECs over sets of 2..k_max dependent tasks that are connected in
    the candidate graph: an edge joins two dependent tasks when the
    support carries weight on a fragment between them, either way, or
    when they form a dependency.  Each connected set is listed once.  A
    set new to the model is a candidate only when its internal fragment
    weight exceeds 1; it is violated exactly when V_min(S) > k for the
    largest k whose row |S| - k the weight does not violate, which one
    threshold query decides.  Only violated sets get an exact V_min.
    The weight is summed over the members in id order, each adding its
    own term and then its links to the members before it, so a set's
    float, and its row, do not depend on how the set was reached.

    A disconnected set S = A + B, no edge across, is skipped: its inside
    weight is inside(A) + inside(B), and with no dependency across, the
    parts schedule apart.  So V_min(S) <= V_min(A) + V_min(B) when both
    parts schedule, and a row of S violated by more than viol_tol has a
    part violated by more than viol_tol / 2; when one does not, S does
    not either (V_min(S) = |S| + 1), and that part's row, right-hand
    side -1, is violated by at least 1.  Such a part is not always
    emitted: its weight may be at most 1, or its violation at most
    viol_tol.  FSECs are valid inequalities, so the rows left out only
    weaken the bound, never its soundness."""
    vd = sorted(inst.vd)
    at = {v: i for i, v in enumerate(vd)}
    # link[j][i], i <= j: fragment weight between vd[i] and vd[j]
    link = [[0.0] * (j + 1) for j in range(len(vd))]
    for f, x in support:
        if f.start in inst.vd and f.end in inst.vd:
            i, j = sorted((at[f.start], at[f.end]))
            link[j][i] += x
    adj: List[set] = [set() for _ in vd]
    for j, row in enumerate(link):
        for i in range(j):
            if row[i] > 0.0:
                adj[i].add(j)
                adj[j].add(i)
    for d in inst.deps:
        adj[at[d.u]].add(at[d.v])
        adj[at[d.v]].add(at[d.u])
    out: List[FsecCut] = []
    for members in _connected_sets(adj, min(k_max, len(vd))):
        members = sorted(members)
        inside = 0.0
        for a, j in enumerate(members):
            row = link[j]
            inside += row[j]
            for i in members[:a]:
                inside += row[i]
        if inside <= 1.0 + EPS:
            continue
        S = tuple(vd[i] for i in members)
        if ("FSEC", S) in existing:
            continue
        # the largest k whose row |S| - k the weight does not violate,
        # by the float test inside > FsecCut.rhs + viol_tol itself, so
        # V_min(S) > k decides exactly as an exact V_min would
        n = len(S)
        k = math.floor(n + viol_tol - inside)
        while inside > float(n - k) + viol_tol:
            k -= 1
        while not inside > float(n - k - 1) + viol_tol:
            k += 1
        if vmin_calc.exceeds(S, k):
            out.append(FsecCut(S=frozenset(S), vmin=vmin_calc.vmin(S)))
    out.sort(key=lambda c: c.key())
    return out


def _by_endpoint(support: Sequence[Tuple[Fragment, float]], inst: Instance):
    """The support grouped by dependent end (incoming) and by dependent
    start (outgoing), in support order."""
    incoming: Dict[int, List[Tuple[Fragment, float]]] = {}
    outgoing: Dict[int, List[Tuple[Fragment, float]]] = {}
    for f, x in support:
        if f.end in inst.vd:
            incoming.setdefault(f.end, []).append((f, x))
        if f.start in inst.vd:
            outgoing.setdefault(f.start, []).append((f, x))
    return incoming, outgoing


def _most_violated(groups: Iterable[Iterable[IntervalCut]], incoming,
                   outgoing, p_vals: Dict[Tuple[int, int], float],
                   viol_tol: float, existing) -> List[IntervalCut]:
    """Per group of candidate rows, the first row violated by more than
    viol_tol whose key is new to the model, replaced only by a later one
    violated more by EPS; a group without one adds nothing."""
    out: List[IntervalCut] = []
    for rows in groups:
        best = None
        for cut in rows:
            lhs = cut.p_coeff * p_vals.get(cut.p_pair, 0.0)
            lhs += sum(x for f, x in incoming.get(cut.in_task, ())
                       if f.es >= cut.es_min)
            lhs += sum(x for f, x in outgoing.get(cut.out_task, ())
                       if f.ls <= cut.ls_max)
            viol = lhs - cut.rhs
            if viol > viol_tol and (best is None or viol > best[0] + EPS) \
                    and cut.key() not in existing:
                best = (viol, cut)
        if best is not None:
            out.append(best[1])
    return out


def separate_tifi(support: Sequence[Tuple[Fragment, float]], inst: Instance,
                  viol_tol: float,
                  existing: AbstractSet = frozenset()) -> List[IntervalCut]:
    """At most one cut per dependent task, the most violated over the
    candidate time points (earliest completions of ingoing fragments)."""
    incoming, outgoing = _by_endpoint(support, inst)
    groups = ((make_tifi(v, int(t))
               for t in sorted({f.es for f, _ in incoming.get(v, ())}))
              for v in sorted(inst.vd))
    return _most_violated(groups, incoming, outgoing, {}, viol_tol, existing)


def separate_tdifi(support: Sequence[Tuple[Fragment, float]],
                   p_vals: Dict[Tuple[int, int], float], inst: Instance,
                   viol_tol: float,
                   existing: AbstractSet = frozenset()) -> List[IntervalCut]:
    """At most one cut per dependent pair: the most violated among the
    four variants over their respective candidate time points."""
    incoming, outgoing = _by_endpoint(support, inst)

    def rows(u, v):
        times = {
            "uv-min": sorted({f.es for f, _ in incoming.get(u, ())}),
            "uv-max": sorted({f.ls for f, _ in outgoing.get(u, ())}),
            "vu-min": sorted({f.es for f, _ in incoming.get(v, ())}),
            "vu-max": sorted({f.ls for f, _ in outgoing.get(v, ())}),
        }
        return (make_tdifi(u, v, variant, int(t), inst)
                for variant in TDIFI_VARIANTS for t in times[variant])

    return _most_violated((rows(d.u, d.v) for d in inst.deps), incoming,
                          outgoing, p_vals, viol_tol, existing)


def separate_rcc(support: Sequence[Tuple[Fragment, float]], inst: Instance,
                 viol_tol: float, existing: AbstractSet = frozenset(),
                 max_new: Optional[int] = None) -> List[RccCut]:
    """Heuristic separation: seed candidate sets from the connected
    components of the undirected support graph over tasks, then improve
    each by single-task exchanges while the violation grows."""
    if max_new is not None and max_new <= 0:
        return []
    adj: Dict[int, set] = {v: set() for v in range(1, inst.n + 1)}
    for f, x in support:
        for a, b in zip(f.tasks, f.tasks[1:]):
            if a != 0 and b != 0:
                adj[a].add(b)
                adj[b].add(a)

    def violation(S: set) -> float:
        lhs = 0.0   # the entering weight
        for f, x in support:
            lhs += _entries(f, S) * x
        return rcc_rhs(S, inst) - lhs

    seen: set = set()
    seeds: List[Tuple[int, ...]] = []
    for root in range(1, inst.n + 1):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen |= comp
        seeds.append(tuple(sorted(comp)))

    out: List[RccCut] = []
    emitted = set()
    for seed in seeds:
        S = set(seed)
        viol = violation(S)
        # Single-task exchanges, best-improvement, bounded walk.
        for _ in range(2 * inst.n):
            moves = [S | {j} for j in sorted(set(range(1, inst.n + 1)) - S)]
            if len(S) > 1:
                moves += [S - {j} for j in sorted(S)]
            best = None
            for T in moves:
                cand = violation(T)
                if cand > viol + EPS and (best is None or cand > best[0] + EPS):
                    best = (cand, T)
            if best is None:
                break
            viol, S = best
        if viol > viol_tol:
            cut = RccCut(S=frozenset(S), rhs=float(rcc_rhs(S, inst)))
            if cut.key() not in existing and cut.key() not in emitted:
                emitted.add(cut.key())
                out.append(cut)
    out.sort(key=lambda c: c.key())
    if max_new is not None:
        out = out[:max_new]
    return out

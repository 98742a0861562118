"""Column pricing by forward labeling over incomplete fragments.

A fragment's reduced cost decomposes into three parts: arc costs net of
the assignment and flow prices, a start-side credit for the vehicle and
flow rows, and a completion charge collecting every price whose row
coefficient depends on the finished schedule summary (es, ls, dur) or on
the demand.  A cut row says itself where its price goes (cuts.Row.charge):
into the arcs entering its set, into the completion charge, or onto the
finished fragment alone, which fragment_reduced_cost charges and the
label searches refuse.  Labels extend one task at a time through the
same (es, ls, dur) recursion as the fragment calculus, so a priced
column and the column the master builds for the same sequence agree to
the last unit.

The label kernel (extend_label) is shared with enumeration.  It reads
the instance's per-task int lists and t_list, and the list form of the
reduced arc costs, never NumPy scalars.  Both label loops call it only
on the tasks CostEnv.open_succ leaves of Instance.succ: those the kernel
does not reject at once on the label's earliest start, its load or its
memory.

Elementarity is relaxed to ng form: a label remembers a visited task
only while it stays inside the neighborhood of the tasks appended after
it.  It also remembers every dependency-free task its end can no longer
reach in time (Instance.reach), treated as visited (Feillet, Dejax,
Gendreau & Gueguen, Networks 2004).  Travel meets the triangle
inequality and durations are non-negative, so no completion visits such
a task, and the set only grows along an extension: the memory rejects no
sequence the plain ng memory accepts and whose windows hold, and the
relaxation stays the ng-route one (Baldacci, Mingozzi & Roberti, Oper.
Res. 2011).  Memory and neighborhoods are int bitmasks over task ids
(bit v set when task v is held); neither ever holds a dependent task,
as a cycle through one cannot occur inside a fragment anyway.
Dominance keeps, per (start, end) bucket, the labels not beaten on
every resource (_insert), and drops one beaten everywhere but on
reduced cost when its advantage cannot survive any completion (_phi).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import Dict, List

import numpy as np

from .fragments import Fragment, assemble, initial_bounds, step
from .instance import Instance
from .master import LP_TOLERANCE, DualValues

COLS_PER_ITER = 100    # columns one pricing call returns, at most
NG_SIZE = 10           # nearest tasks a pricing label remembers, per task


class Label:
    """A fragment under construction, plus its accumulated reduced cost.

    `mem` is an int bitmask (bit v set when task v is remembered) of
    dependency-free tasks only: the ng-projected visited set, and every
    such task the end can no longer reach in time from es (built by
    extend_label); `load` is the demand of tasks[:-1], so for a
    complete label it equals the fragment demand.  Endpoints and the
    schedule summary (es, ls, dur, as on Fragment) are plain slots, set
    once: labels are never changed after construction.
    """

    __slots__ = ("tasks", "mem", "load", "rcost", "start", "end",
                 "es", "ls", "dur")

    def __init__(self, tasks, mem, load, es, ls, dur, rcost):
        self.tasks = tasks
        self.mem = mem
        self.load = load
        self.rcost = rcost
        self.start = tasks[0]
        self.end = tasks[-1]
        self.es = es
        self.ls = ls
        self.dur = dur

    def __repr__(self):
        return ("Label(tasks=%r, mem=%r, load=%r, es=%r, ls=%r, dur=%r, "
                "rcost=%r)" % (self.tasks, self.mem, self.load, self.es,
                               self.ls, self.dur, self.rcost))


def is_complete(lab: Label, inst: Instance) -> bool:
    return len(lab.tasks) >= 2 and (lab.end == 0 or lab.end in inst.vd)


def interior_tasks(inst: Instance) -> list:
    return [v for v in range(1, inst.n + 1) if v not in inst.vd]


def ng_neighborhoods(inst: Instance, ng_size: int) -> dict:
    """Per dependency-free task u, the bitmask of the ng_size nearest
    such tasks by travel cost (ties by index): {u: mask}.  Dependent
    tasks are excluded throughout."""
    pool = interior_tasks(inst)
    hoods = {}
    for u in pool:
        ranked = sorted((int(inst.c[u, w]), w) for w in pool if w != u)
        hoods[u] = sum(1 << w for _, w in ranked[: max(0, int(ng_size))])
    return hoods


def exact_memory(inst: Instance) -> dict:
    """Neighborhoods so wide the memory never forgets: elementary
    labeling.  {u: mask of every dependency-free task}."""
    pool = interior_tasks(inst)
    full = sum(1 << v for v in pool)
    return {u: full for u in pool}


class CostEnv:
    """Dual prices rearranged for labeling, and the one pricing context:
    the label kernel, dominance and fragment_reduced_cost read the duals
    and the instance from it.

    cbar[i, j] is the reduced arc cost: travel cost minus the assignment
    price of i and the flow price of a dependent j, minus the price of
    every "arc" row whose set the arc enters; cbar_list holds the same
    floats as lists for the label kernel.  Completion charges and the
    start-side credit are evaluated on demand.  open_succ narrows the
    instance's successor lists (Instance.succ) to one label.

    "completion" rows' prices are kept in completion_duals, "fragment"
    rows' in fragment_duals: the label searches refuse those
    (check_labelable), and fragment_reduced_cost charges them.
    """

    def __init__(self, duals: DualValues, inst: Instance):
        self.inst = inst
        self.duals = duals
        cbar = inst.c.astype(float)
        cbar[1:, :] -= np.asarray(duals.mu, dtype=float)[1:, None]
        for v, ev in duals.eta.items():
            cbar[:, v] -= ev
        self.completion_duals = []
        self.fragment_duals = []
        self._completion_rows = {}
        for cut, y in duals.cut_duals:
            if y == 0.0:
                continue
            if cut.charge == "arc":
                inside = np.zeros(inst.n + 1, dtype=bool)
                inside[list(cut.S)] = True
                cbar[np.ix_(~inside, inside)] -= y
            elif cut.charge == "completion":
                self.completion_duals.append((cut, y))
            else:
                self.fragment_duals.append((cut, y))
        self.cbar = cbar
        self.cbar_list = cbar.tolist()

    def open_succ(self, lab: Label) -> list:
        """The tasks of inst.succ[lab.end] that lab may still go on to:
        those it reaches in time (lab.es <= inst.reach.slack[end][u]),
        whose demand fits in the room left, and that its memory does not
        hold.  extend_label rejects every task left out, on its window,
        capacity or memory check, so the loops call it on this list
        only."""
        e, es, mem, inst = lab.end, lab.es, lab.mem, self.inst
        dem = inst.dem
        slack = inst.reach.slack[e]
        room = inst.Q - lab.load - dem[e]
        return [u for u in inst.succ[e]
                if es <= slack[u] and dem[u] <= room and not mem >> u & 1]

    def check_labelable(self) -> None:
        if self.fragment_duals:
            raise ValueError("a fragment-charged row cannot be labeled")

    def init_cost(self, v: int) -> float:
        if v == 0:
            return -self.duals.gamma
        return self.duals.eta.get(v, 0.0)

    def completion_charge(self, start, end, es, ls, dur, load) -> float:
        inst, d = self.inst, self.duals
        th = 0.0
        if start in inst.vd:
            th += load * d.kap_ub.get(start, 0.0)
            th -= ls * d.tau_ub.get(start, 0.0)
        if end in inst.vd:
            th += es * d.tau_lb.get(end, 0.0)
            th += load * d.kap_lb.get(end, 0.0)
            if start in inst.vd:
                key = (start, end)
                th -= (dur + inst.beta[start] - inst.alpha[end]) \
                    * d.rho.get(key, 0.0)
                th -= (inst.Q - inst.dem[start] + load) \
                    * d.lam.get(key, 0.0)
        pair = (start, end)
        rows = self._completion_rows.get(pair)
        if rows is None:
            rows = self._completion_rows[pair] = self._rows_at(start, end)
        for cut, y in rows:
            th -= y * cut.completion_coeff(start, end, es, ls)
        return th

    def _rows_at(self, start, end) -> list:
        """The completion rows whose coefficient can be nonzero on a
        (start, end) fragment, in completion_duals order: by the
        completion-row contract (cuts.Row), those nonzero at es = inf,
        ls = -inf.  The other rows add zero terms, which leave every
        charge as it is to the last bit (a charge starts at +0.0 and so
        never is -0.0)."""
        return [(cut, y) for cut, y in self.completion_duals
                if cut.completion_coeff(start, end, math.inf, -math.inf)]


def extend_label(lab: Label, u: int, env: CostEnv, ng: dict):
    """One forward extension of an incomplete label, or None when u
    cannot follow it.

    Check order: structural rules (start revisit, empty depot loop,
    memory), capacity, then the (es, ls, dur) recursion with its
    dependent duration clamp and window checks.  Appending a dependent
    task or the depot completes the label and adds the completion
    charge; the start-side credit is part of the initial label.  Any
    other child remembers the ng projection of lab's memory, u itself,
    and the tasks u can no longer reach at the child's es.  Every u
    outside env.open_succ(lab) is rejected.
    """
    inst = env.inst
    start, end, tasks = lab.start, lab.end, lab.tasks
    if u == start and not (u == 0 and len(tasks) >= 2):
        return None
    closing = u == 0 or u in inst.vd
    if not closing and lab.mem >> u & 1:
        return None
    dem = inst.dem
    load = lab.load + dem[end]
    if load + dem[u] > inst.Q:
        return None
    b = step(lab.es, lab.ls, lab.dur, end, u, start, inst)
    if b is None:
        return None
    es, ls, dur = b
    rc = lab.rcost + env.cbar_list[end][u]
    if closing:
        rc += env.completion_charge(start, u, es, ls, dur, load)
        mem = lab.mem
    else:
        reach = inst.reach
        mem = ((lab.mem & ng.get(u, 0)) | 1 << u
               | reach.masks[u][bisect_left(reach.keys[u], es)])
    return Label(tasks + (u,), mem, load, es, ls, dur, rc)


def fragment_reduced_cost(f: Fragment, env: CostEnv) -> float:
    """Reduced cost of a finished fragment: start credit, arc walk,
    completion charge, and the fragment-capacity rows' prices.  The one
    place duals become a finished fragment's reduced cost: it equals the
    objective coefficient minus the dual-weighted master column."""
    rc = env.init_cost(f.start)
    for a, b in zip(f.tasks, f.tasks[1:]):
        rc += env.cbar_list[a][b]
    rc += env.completion_charge(f.start, f.end, f.es, f.ls, f.dur, f.demand)
    for cut, y in env.fragment_duals:
        rc -= y * cut.fragment_coeff(f)
    return rc


# --- dominance -----------------------------------------------------------

def _implied_latest_start(g: Label, inst: Instance) -> int:
    """Smallest latest start any dependent completion can force on g.

    Ranges over the dependency partners of g's start that g could still
    reach: the order not forbidden, the partner's window reachable from
    es and from the start window under the pair's minimum offset, the
    duration cap respected, capacity kept.  Each such partner u caps the
    start at beta_u minus the pair's minimum offset."""
    s, e = g.start, g.end
    beta, pair = inst.beta, inst.pair
    best = beta[s]
    d_e = inst.dur[e]
    a_s = inst.alpha[s]
    for u in inst.dep_adj.get(s, ()):
        forbidden, dmin, dmax = pair[(s, u)]
        if forbidden:
            continue
        b_u = beta[u]
        travel = inst.t_list[e][u]
        if g.es + d_e + travel > b_u:
            continue
        if a_s + dmin > b_u:
            continue
        if max(g.dur + d_e + travel, inst.alpha[u] - g.ls) > dmax:
            continue
        if g.load + inst.dem[u] > inst.Q:
            continue
        best = min(best, b_u - dmin)
    return best


def _phi(f: Label, g: Label, env: CostEnv) -> float:
    """Lower bound on the completion-charge gap between g and f when f
    beats g on every resource but reduced cost (same endpoints, f.mem a
    subset of g.mem, no more load, es or dur, no less ls).  It is 0.0
    unless the start carries a tau_ub or kap_ub price, so the scan in
    _insert calls it only for such starts.

    The ls term anticipates the worst clamp a dependent completion could
    still apply to g's latest start; the load term is exact.  Cut rows
    charged at completion only widen the gap (by the completion-row
    contract, cuts.Row, g's coefficients are no smaller than f's and the
    prices are nonpositive), so they contribute zero here.
    """
    s = f.start
    tau = env.duals.tau_ub.get(s, 0.0)
    kap = env.duals.kap_ub.get(s, 0.0)
    if tau == 0.0 and kap == 0.0:
        return 0.0
    lam_min = _implied_latest_start(g, env.inst)
    ls_term = min(f.ls, g.ls + g.dur - f.dur, max(g.ls, lam_min)) - g.ls
    return ls_term * tau + (g.load - f.load) * kap


# --- the labeling loop ---------------------------------------------------

def _heap_key(lab: Label):
    # non-decreasing dur keeps dominators ahead of the labels they beat
    return (lab.dur, lab.rcost, len(lab.tasks), lab.tasks)


def _insert(buckets, heap, lab, env, priced) -> None:
    """The dominance rule, as one scan of lab's bucket: drop lab if a
    kept label dominates it, else delete the kept labels lab dominates.

    f dominates g when f has no more dur, es or load, no less ls, a
    memory that is a subset of g's (f.mem | g.mem == g.mem), and a
    reduced cost no larger than g's plus _phi(f, g), the least charge
    gap any completion opens.  `priced` says whether the start carries
    a tau_ub or kap_ub price; without one _phi is 0.0, so the scan skips
    the call.

    A bucket is keyed end -> mem -> tasks -> label, so the memory test
    is made once per group of equal masks: a dominator of lab is looked
    for only in groups whose mask lies within lab's, and the labels lab
    dominates only in groups whose mask holds lab's.  The outcome does
    not depend on the order of the scan, so the kept labels are those of
    the pairwise rule over the whole bucket.  A dominator has no larger
    dur, so only ties in dur are tested both ways."""
    groups = buckets.setdefault(lab.end, {})
    doomed = []
    dur, ls, es, load, mem, rc = (lab.dur, lab.ls, lab.es, lab.load,
                                  lab.mem, lab.rcost)
    for kmem, group in groups.items():
        if kmem | mem == mem:
            for kept in group.values():
                if (kept.dur <= dur and kept.ls >= ls and kept.es <= es
                        and kept.load <= load):
                    krc = kept.rcost
                    if krc <= rc or priced and \
                            krc <= rc + _phi(kept, lab, env):
                        return
            if kmem != mem:
                continue
        elif mem | kmem != kmem:
            continue
        for kept in group.values():
            if (dur <= kept.dur and ls >= kept.ls and es <= kept.es
                    and load <= kept.load):
                krc = kept.rcost
                if rc <= krc or priced and rc <= krc + _phi(lab, kept, env):
                    doomed.append((kmem, kept.tasks))
    for kmem, seq in doomed:
        group = groups[kmem]
        del group[seq]
        if not group:
            del groups[kmem]
    groups.setdefault(mem, {})[lab.tasks] = lab
    heapq.heappush(heap, _heap_key(lab) + (lab,))


def labels_from(start: int, env: CostEnv, ng: dict) -> List[Label]:
    """All complete labels grown from one start task, dominance pruned.

    Deterministic: the queue pops in (dur, rcost, length, sequence)
    order and candidate tasks are scanned by index, over the label's
    open successors (CostEnv.open_succ)."""
    inst = env.inst
    if inst.alpha[start] > inst.beta[start]:
        return []
    init = Label((start,), 0, 0, *initial_bounds(start, inst),
                 env.init_cost(start))
    priced = (env.duals.tau_ub.get(start, 0.0) != 0.0
              or env.duals.kap_ub.get(start, 0.0) != 0.0)
    heap: list = []
    buckets: Dict[int, Dict[int, Dict[tuple, Label]]] = {}
    done: List[Label] = []
    _insert(buckets, heap, init, env, priced)
    while heap:
        entry = heapq.heappop(heap)
        lab = entry[-1]
        group = buckets[lab.end].get(lab.mem)
        if group is None or group.get(lab.tasks) is not lab:
            continue
        for u in env.open_succ(lab):
            child = extend_label(lab, u, env, ng)
            if child is None:
                continue
            if is_complete(child, inst):
                done.append(child)
            else:
                _insert(buckets, heap, child, env, priced)
    return done


def _output_order(lab: Label):
    return (lab.rcost, len(lab.tasks), lab.tasks)


def solve_pricing(duals: DualValues, inst: Instance,
                  ng=None) -> List[Fragment]:
    """Fragments with strictly negative reduced cost under the current
    prices: at most COLS_PER_ITER, always containing a cheapest one
    for every start task that has any.  An empty result certifies that
    no ng-relaxed fragment prices negative (a task out of reach in the
    memory cuts none off), so the master value is a valid relaxation
    bound.  ng defaults to the NG_SIZE neighborhoods."""
    env = CostEnv(duals, inst)
    env.check_labelable()
    if ng is None:
        ng = ng_neighborhoods(inst, NG_SIZE)
    negatives: List[Label] = []
    for s in [0] + sorted(inst.vd):
        for lab in labels_from(s, env, ng):
            if lab.rcost < -LP_TOLERANCE:
                negatives.append(lab)
    negatives.sort(key=_output_order)
    lead: List[Label] = []
    rest: List[Label] = []
    seen = set()
    for lab in negatives:
        if lab.start in seen:
            rest.append(lab)
        else:
            seen.add(lab.start)
            lead.append(lab)
    chosen = (lead + rest)[:COLS_PER_ITER]
    chosen.sort(key=_output_order)
    return [assemble(lab.tasks, inst, (lab.es, lab.ls, lab.dur))
            for lab in chosen]

"""Exhaustive fragment enumeration within a reduced-cost budget.

After column generation settles, every fragment whose reduced cost stays
within the gap between the candidate upper bound and the relaxation value
might still appear in an improving solution, so all of them are listed.
Unlike pricing, the search must be complete: elementarity is exact (no ng
forgetting) and no label is discarded on cost grounds.  The only pruning
is an admissible completion bound: a branch dies when its accumulated
reduced cost plus a provable lower bound on the cheapest way to finish
already exceeds the budget, which no completion of the branch can undo
(Baldacci, Christofides & Mingozzi, Math. Prog. 2008).  The bound charges
a departure only from tasks the branch can still reach in time: under
the triangle inequality and non-negative durations, a task whose window
closes before the earliest direct arrival from the branch's end is never
visited by any completion.

Two reduction passes follow.  The route bound removes fragments that no
schedulable predecessor/successor pair can embed in a route within the
budget, iterated to a fixed point.  The re-solve pass adds the surviving
set to a restricted master (capacity cuts lifted to their fragment form),
prices every column against the fresh duals, and drops those above the
new, usually tighter, budget, from the pool and from the master alike.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .fragments import Fragment, assemble, initial_bounds
from .instance import Instance
from .master import LP_TOLERANCE, DualValues, MasterError, MasterModel
from .pricing import (CostEnv, Label, exact_memory, extend_label,
                      fragment_reduced_cost, is_complete)


class LimitExceeded(Exception):
    """Raised when the enumeration would keep more than f_max fragments."""

    def __init__(self, count: int):
        super().__init__("fragment limit reached at %d" % count)
        self.count = count


class DeadlinePassed(Exception):
    """Raised when the enumeration runs past its deadline."""


class _CompletionLB:
    """Admissible lower bounds on the cost still to come for a partial
    label: one reduced arc per departure the suffix can still make, the
    start-side charge terms evaluated at their best reachable values, a
    per-start minimum over all possible end-side charges, and the worst
    the completion rows can charge: each row's coeff_max times its price
    when that has the wrong sign (cuts.Row), else zero.

    A departure is charged from the label's end e and from every
    unvisited interior task v the suffix can still reach, that is with
    es + d_e + t_ev <= beta_v.  No later arrival at v is earlier: travel
    meets the triangle inequality and durations are non-negative (both
    validated on Instance), and the recursion only raises es.  So a task
    failing that test is never visited, and its departure never made.
    Per end, _tail holds the suffix sums of the departures of the
    interior tasks in Instance.reach order, by ascending slack
    beta_v - d_e - t_ev, so the reachable set is one bisect on es.

    Sound for any dual signs; with correctly signed prices the end-side
    and cut terms collapse to zero or small negatives.
    """

    def __init__(self, env: CostEnv):
        self.env = env
        inst = self.inst = env.inst
        d = env.duals
        n = inst.n
        cbar = env.cbar
        off = cbar + np.where(np.eye(n + 1, dtype=bool), np.inf, 0.0)
        neg_out = self.neg_out = np.minimum(off.min(axis=1), 0.0).tolist()
        self._tail = []
        for ranked in inst.reach.ranked:
            tail = [0.0] * (len(ranked) + 1)
            for i in range(len(ranked) - 1, -1, -1):
                tail[i] = tail[i + 1] + neg_out[ranked[i]]
            self._tail.append(tail)
        self.cut_pen = -sum(cut.coeff_max * max(0.0, y)
                            for cut, y in env.completion_duals)
        ends = [0] + sorted(inst.vd)
        self.end_lb: Dict[int, float] = {}
        for s in [0] + sorted(inst.vd):
            best = 0.0
            for v in ends:
                if v == s and v != 0:
                    continue
                term = 0.0
                if v in inst.vd:
                    tlb = d.tau_lb.get(v, 0.0)
                    term += int(inst.alpha[v]) * tlb if tlb >= 0 \
                        else int(inst.beta[v]) * tlb
                    klb = d.kap_lb.get(v, 0.0)
                    term += min(0.0, inst.Q * klb)
                    if s in inst.vd:
                        rho = d.rho.get((s, v), 0.0)
                        if rho > 0:
                            term -= (inst.tmax + int(inst.beta[s])
                                     - int(inst.alpha[v])) * rho
                        lam = d.lam.get((s, v), 0.0)
                        if lam > 0:
                            term -= 2 * inst.Q * lam
                best = min(best, term)
            self.end_lb[s] = best

    def start_terms(self, lab: Label) -> float:
        d = self.env.duals
        s = lab.start
        out = 0.0
        kap = d.kap_ub.get(s, 0.0)
        out += lab.load * kap if kap >= 0 else self.inst.Q * kap
        tau = d.tau_ub.get(s, 0.0)
        out += -lab.ls * tau if tau >= 0 else -self.inst.alpha_list[s] * tau
        return out

    def remaining(self, lab: Label) -> float:
        """The bound for an incomplete label.  Its visited interior
        tasks, lab.tasks[1:], and those it can no longer reach are left
        out of the departures still to come: the reachable sum is one
        suffix sum, less the visited tasks inside it."""
        es, neg_out, e = lab.es, self.neg_out, lab.end
        reach = self.inst.reach
        slack = reach.slack[e]
        arcs = neg_out[e] + self._tail[e][bisect_left(reach.keys[e], es)] \
            - sum(neg_out[v] for v in lab.tasks[1:] if es <= slack[v])
        return arcs + self.start_terms(lab) + self.end_lb[lab.start] \
            + self.cut_pen


def enumerate_fragments(duals: DualValues, gap: float, inst: Instance,
                        f_max: float = math.inf,
                        deadline: float = math.inf) -> List[Fragment]:
    """Every elementary fragment whose reduced cost is at most gap.

    Complete by construction: the depth-first search discards a branch
    only on the admissible bound above, and a finished label only by its
    own reduced cost.  A label is extended over its open successors
    (CostEnv.open_succ), which leave out only tasks extend_label rejects.
    Raises LimitExceeded past f_max kept fragments, and DeadlinePassed
    when time.monotonic() passes deadline (checked every 1,024 labels
    popped); by default neither limit applies.  Output sorted by task
    sequence.
    """
    if gap < 0:
        raise ValueError("the enumeration budget must be nonnegative")
    env = CostEnv(duals, inst)
    env.check_labelable()
    ng = exact_memory(inst)
    bound = _CompletionLB(env)
    tol = LP_TOLERANCE
    kept: List[Tuple[tuple, Label]] = []
    stack: List[Label] = []
    for s in sorted((0, *inst.vd), reverse=True):
        if inst.alpha_list[s] > inst.beta_list[s]:
            continue
        lab = Label((s,), 0, 0, *initial_bounds(s, inst),
                    env.init_cost(s))
        if lab.rcost + bound.remaining(lab) <= gap + tol:
            stack.append(lab)
    pops = 0
    while stack:
        lab = stack.pop()
        pops += 1
        if not pops & 1023 and time.monotonic() > deadline:
            raise DeadlinePassed()
        for u in reversed(env.open_succ(lab)):
            child = extend_label(lab, u, env, ng)
            if child is None:
                continue
            if is_complete(child, inst):
                if child.rcost <= gap + tol:
                    kept.append((child.tasks, child))
                    if len(kept) > f_max:
                        raise LimitExceeded(len(kept))
            elif child.rcost + bound.remaining(child) <= gap + tol:
                stack.append(child)
    kept.sort(key=lambda p: p[0])
    return [assemble(seq, inst, (lab.es, lab.ls, lab.dur))
            for seq, lab in kept]


def reduce_by_route_bound(frags: Sequence[Fragment], duals: DualValues,
                          gap: float, inst: Instance,
                          tol: float = 1e-6) -> List[Fragment]:
    """Keeps fragments embeddable in a route within the budget.

    A route through F = (u, ..., v) pays at least the cheapest fragment
    ending at u that can be scheduled before F (earliest start at u not
    after F's latest start) and the cheapest one starting at v schedulable
    after it; depot ends need no neighbor.  Removing a fragment can only
    raise the neighbors' bounds, so the pass iterates to a fixed point.
    """
    env = CostEnv(duals, inst)
    alive: Dict[tuple, Fragment] = {f.tasks: f for f in frags}
    rc = {f.tasks: fragment_reduced_cost(f, env) for f in frags}
    while True:
        by_end: Dict[int, List[Fragment]] = {}
        by_start: Dict[int, List[Fragment]] = {}
        for f in alive.values():
            by_end.setdefault(f.end, []).append(f)
            by_start.setdefault(f.start, []).append(f)
        doomed = []
        for f in alive.values():
            pred = 0.0
            if f.start != 0:
                pred = min((rc[g.tasks] for g in by_end.get(f.start, ())
                            if g.es <= f.ls), default=float("inf"))
            succ = 0.0
            if f.end != 0:
                succ = min((rc[g.tasks] for g in by_start.get(f.end, ())
                            if g.ls >= f.es), default=float("inf"))
            if rc[f.tasks] + pred + succ > gap + tol:
                doomed.append(f.tasks)
        if not doomed:
            break
        for seq in doomed:
            del alive[seq]
    return [alive[seq] for seq in sorted(alive)]


def reduce_by_resolve(frags: Sequence[Fragment], master: MasterModel,
                      ub_cand: float):
    """Re-solves the master holding frags (plus whatever it already has)
    and filters by the refreshed reduced costs.

    Returns (kept fragments, duals, objective).  The budget becomes
    ub_cand minus the new objective.  The master ends up holding its
    earlier columns plus the kept fragments.
    """
    held = len(master.fragments)
    master.add_fragments(frags)
    sol = master.solve_relaxation()
    if sol.status != "optimal":
        raise MasterError("re-solve after enumeration: %s" % sol.status)
    lb = sol.objective
    env = CostEnv(sol.duals, master.inst)
    out = [f for f in frags
           if fragment_reduced_cost(f, env) <= ub_cand - lb + LP_TOLERANCE]
    master.drop_fragments({f.tasks for f in master.fragments[held:]}
                          - {f.tasks for f in out})
    return out, sol.duals, lb

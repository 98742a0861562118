"""Fragment calculus.

A fragment is an ordered task sequence whose first and last entries lie in
V_D + {0} and whose interior tasks carry no temporal dependency.  Its
scheduling freedom is summarized by three numbers: the earliest start of the
end task over all feasible schedules (es), the latest start of the first
task (ls), and the minimum attainable duration between those two starts
(dur).  The recursion below maintains all three along a sequence in O(1)
per extension and is exact for compact schedules, which are sufficient.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Infeasible:
    reason: str

    def __bool__(self):
        return False


@dataclasses.dataclass(frozen=True, slots=True)
class Fragment:
    tasks: tuple
    cost: int
    demand: int
    es: int
    ls: int
    dur: int

    @property
    def start(self):
        return self.tasks[0]

    @property
    def end(self):
        return self.tasks[-1]


def initial_bounds(v, inst):
    return inst.alpha[v], inst.beta[v], 0


def step(es, ls, dur, frm, to, start, inst):
    """One step of the (es, ls, dur) recursion, from `frm` to `to`.

    `start` is the first task of the sequence; when {start, to} is a
    dependent pair, `to` closes the fragment and the duration window
    [dmin, dmax] of that pair applies.  Returns the new (es, ls, dur) as
    a plain tuple, or None when the extension is infeasible.  Reads the
    instance's plain-Python tables only.
    """
    t = inst.t_list[frm][to]
    d = inst.dur[frm]
    a_to = inst.alpha[to]
    b_to = inst.beta[to]
    a_s = inst.alpha[start]
    # plain comparisons: this runs once per label extension, and a call
    # to the max/min builtins costs several times more
    es_to = es + d + t
    if es_to < a_to:
        es_to = a_to
    ls_to = b_to - t - d - dur
    if ls_to > ls:
        ls_to = ls
    dur_to = dur + d + t
    if dur_to < a_to - ls:
        dur_to = a_to - ls
    pair = inst.pair.get((start, to))
    if pair is not None:
        forbidden, dmin, dmax = pair
        if forbidden:
            return None
        if dur_to < dmin:
            es_to = max(es_to, a_s + dmin)
            ls_to = min(ls_to, b_to - dmin)
            dur_to = dmin
        if dur_to > dmax:
            return None
    if es_to > b_to or ls_to < a_s:
        return None
    return es_to, ls_to, dur_to


def assemble(seq, inst, bounds) -> Fragment:
    """Fragment record from a sequence and its (es, ls, dur) triple."""
    cost = 0
    for a, b in zip(seq, seq[1:]):
        cost += int(inst.c[a, b])
    demand = sum(inst.dem[v] for v in seq[:-1])
    return Fragment(tuple(seq), cost, demand, *bounds)


def build_fragment(seq, inst):
    """Validates the structural conditions and runs the recursion."""
    seq = tuple(seq)
    if len(seq) < 2:
        return Infeasible("a fragment has at least two nodes")
    endpoints = inst.vd | {0}
    if seq[0] not in endpoints or seq[-1] not in endpoints:
        return Infeasible("fragment endpoints must be dependent tasks or the depot")
    if seq == (0, 0):
        return Infeasible("the empty depot loop is not a fragment")
    nondepot = [v for v in seq if v != 0]
    if len(set(nondepot)) != len(nondepot):
        return Infeasible("repeated task")
    for v in seq[1:-1]:
        if v == 0:
            return Infeasible("depot inside the sequence")
        if v in inst.vd:
            return Infeasible("dependent task %d inside the sequence" % v)
    if sum(inst.dem[v] for v in seq) > inst.Q:
        return Infeasible("total demand above vehicle capacity")
    if inst.alpha[seq[0]] > inst.beta[seq[0]]:
        return Infeasible("start task window is empty")
    b = initial_bounds(seq[0], inst)
    for frm, to in zip(seq, seq[1:]):
        b = step(*b, frm, to, seq[0], inst)
        if b is None:
            return Infeasible("no schedule meets the windows and the "
                              "dependency bounds")
    return assemble(seq, inst, b)

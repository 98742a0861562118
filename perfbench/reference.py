"""A fixed reference computation that tracks the speed of the host.

The benchmark runs on shared virtual machines whose speed drifts: the
same solve takes 1.4 s in one stretch and 2.5 s a minute later, and a
slow stretch can outlast a whole run.  Each solve is therefore timed
between two runs of this computation, and its time is rescaled to the
speed the host had when the reference took ``REFERENCE_S`` seconds
(see ``measure``).  The computation shares no code with the solver, so
a change to the solver moves the solve time and not the reference.

Its mix follows the solver's profile: most of the time goes to a
label-setting search in pure Python (heap, dicts, frozen dataclasses,
NumPy scalar reads), the rest to a small LP solved with HiGHS through
SciPy.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import random
import time

import numpy as np
from scipy.optimize import linprog

# Seconds the computation took at the speed solve times are scaled to:
# about its median on a 2-core Intel Xeon virtual machine at 2.0 GHz.
REFERENCE_S = 0.035

_NODES = 40
_LP_ROWS, _LP_COLS = 30, 60


@dataclasses.dataclass(frozen=True)
class _Label:
    cost: float
    time: int
    load: int
    node: int
    seen: frozenset


class Reference:
    """The computation's data, built once from a fixed seed."""

    def __init__(self):
        rng = random.Random(20261018)
        self.cost = np.array([[rng.randint(1, 60) for _ in range(_NODES)]
                              for _ in range(_NODES)], dtype=float)
        self.dem = np.array([rng.randint(1, 9) for _ in range(_NODES)])
        self.late = np.array([rng.randint(80, 240) for _ in range(_NODES)])
        self.near = [sorted(range(_NODES), key=lambda v: self.cost[u, v])[1:9]
                     for u in range(_NODES)]
        self.a_ub = np.array([[rng.randint(0, 5) for _ in range(_LP_COLS)]
                              for _ in range(_LP_ROWS)], dtype=float)
        self.b_ub = self.a_ub.sum(axis=1) / 3
        self.c = -np.array([rng.randint(1, 20) for _ in range(_LP_COLS)],
                           dtype=float)
        self.expected = None

    def _labels(self):
        """Bounded label-setting search from node 0; returns the number
        of labels settled, which must repeat exactly."""
        heap = [(0.0, 0, _Label(0.0, 0, 0, 0, frozenset((0,))))]
        best = {}
        settled = 0
        while heap and settled < 6000:
            _, _, lab = heapq.heappop(heap)
            key = (lab.node, lab.load // 8)
            if best.get(key, 1e18) <= lab.cost - 1e-9 * lab.time:
                continue
            best[key] = lab.cost
            settled += 1
            for v in self.near[lab.node]:
                if v in lab.seen:
                    continue
                t = lab.time + int(self.cost[lab.node, v])
                load = lab.load + int(self.dem[v])
                if t > int(self.late[v]) or load > 60:
                    continue
                nxt = _Label(lab.cost + float(self.cost[lab.node, v]) - 25.0,
                             t, load, v, lab.seen | {v})
                heapq.heappush(heap, (nxt.cost, settled * 64 + v, nxt))
        return settled

    def _lp(self):
        res = linprog(self.c, A_ub=self.a_ub, b_ub=self.b_ub,
                      bounds=(0, 1), method="highs")
        return round(res.fun, 6)

    def run(self, clock=time.perf_counter) -> float:
        """Runs the computation once; returns its wall time in seconds.

        Raises ``RuntimeError`` if its result differs from the first
        run's, since a reference that changes its work measures
        nothing."""
        # with the collector off, the objects a solve left alive do not
        # slow the reference down
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            out = (self._labels(), self._lp(), self._lp())
            seconds = clock() - start
        finally:
            if enabled:
                gc.enable()
        if self.expected is None:
            self.expected = out
        elif out != self.expected:
            raise RuntimeError("reference computation gave %r, first %r"
                               % (out, self.expected))
        return seconds

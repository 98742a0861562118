"""Restricted master problem over fragment columns.

Variables are the fragment weights x_F, one artificial feasibility
column, a start time b_v and an arriving load l_v per dependent task,
and an order variable p_uv per dependency (1 when u starts no later
than v).  Rows cover the vehicle limit and a vehicle lower bound, task
covering, flow conservation at dependent tasks, big-M start-time and
load linkage between consecutive fragments, per-dependency order
constraints, and any number of appended cut rows.

The matrix is kept as (row, column, value) triplets: ``add_fragments``
appends a column's entries, ``add_cut`` a row's, ``drop_fragments``
filters columns out, and every solve hands the triplets to ``lpback``,
which sums them into the one column-wise matrix HiGHS reads.  Every
coefficient is a pure function of fragment and cut data, and a cut's
coefficient on a fragment comes from ``cut.fragment_coeff`` alone.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import lpback
from .cuts import K_MAX, FsecCut, VminCalculator, rcc_rhs
from .fragments import Fragment, build_fragment
from .instance import Instance

# margin of every reduced-cost, cut-violation and dual-sign test
LP_TOLERANCE = 1e-6


class MasterError(RuntimeError):
    """Unexpected backend failure (not plain infeasibility)."""


@dataclass
class DualValues:
    """Duals grouped by row family.

    gamma merges the vehicle limit and vehicle lower-bound rows; both
    have the same column pattern (fragments starting at the depot), so
    pricing only ever needs their sum.
    """

    gamma: float
    mu: np.ndarray
    eta: Dict[int, float]
    rho: Dict[Tuple[int, int], float]
    tau_lb: Dict[int, float]
    tau_ub: Dict[int, float]
    lam: Dict[Tuple[int, int], float]
    kap_lb: Dict[int, float]
    kap_ub: Dict[int, float]
    cut_duals: list


@dataclass
class MasterSolution:
    status: str
    objective: float
    x: np.ndarray
    artificial: float
    p: Dict[Tuple[int, int], float]
    duals: Optional[DualValues] = None


def artificial_cost(inst: Instance) -> float:
    """Cost of the artificial column: one more than every off-diagonal
    arc together, so any real solution is cheaper."""
    return 1.0 + float(inst.c.sum() - np.trace(inst.c))


# Offset of the artificial column past the last fragment; the b, l and p
# columns follow it.
ART = 0


class MasterModel:
    def __init__(self, inst: Instance):
        self.inst = inst
        self.vd = sorted(inst.vd)
        self.fragments: List[Fragment] = []
        self.cuts: list = []
        self._frag_keys: Dict[tuple, int] = {}
        self._cut_rows: List[int] = []
        self._cut_keys: set = set()
        self._dep_pos = {(d.u, d.v): k for k, d in enumerate(inst.deps)}
        self.art_cost = artificial_cost(inst)
        # The matrix as (row, column, value) triplets.  A
        # fragment entry's column is the fragment's index; a fixed entry's
        # column is its offset past the last fragment, so appending a
        # fragment moves no stored entry.  Typed arrays, so that each
        # solve copies them into NumPy as whole buffers.
        self.senses: List[str] = []
        self.rhs: List[float] = []
        self._frag_ijv = (array("q"), array("q"), array("d"))
        self._fixed_ijv = (array("q"), array("q"), array("d"))
        self._p0 = 1 + 2 * len(self.vd)
        self._build_static_rows()
        self._build_fixed_columns()

    # -- rows ---------------------------------------------------------

    def _row(self, sense: str, rhs: float, fixed=()) -> int:
        """Appends a row with its (offset, value) fixed-column entries;
        returns the row's index."""
        r = len(self.rhs)
        self.senses.append(sense)
        self.rhs.append(rhs)
        rows, cols, vals = self._fixed_ijv
        for c, a in fixed:
            rows.append(r)
            cols.append(c)
            vals.append(a)
        return r

    def _build_static_rows(self):
        inst = self.inst
        b = {v: 1 + i for i, v in enumerate(self.vd)}
        l = {v: 1 + len(self.vd) + i for i, v in enumerate(self.vd)}
        pairs = [(u, v) for u in self.vd for v in self.vd if u != v]
        self._row("L", float(inst.K))
        veh_lb = max(rcc_rhs(range(inst.n + 1), inst), 1 if inst.n else 0)
        self._row("G", float(veh_lb), [(ART, float(veh_lb))])
        self._cover = {v: self._row("E", 1.0, [(ART, 1.0)])
                       for v in range(1, inst.n + 1)}
        self._flow = {v: self._row("E", 0.0) for v in self.vd}
        self._trow = {(u, v): self._row(
            "L", float(inst.beta[u] - inst.alpha[v]),
            [(b[u], 1.0), (b[v], -1.0)]) for u, v in pairs}
        self._es_row: Dict[int, int] = {}
        self._ls_row: Dict[int, int] = {}
        for v in self.vd:
            self._es_row[v] = self._row("G", 0.0, [(b[v], 1.0)])
            self._ls_row[v] = self._row("G", 0.0, [(b[v], -1.0),
                                                   (ART, float(inst.tmax))])
        for k, dep in enumerate(inst.deps):
            u, v, p = dep.u, dep.v, self._p0 + k
            m_uv = max(0, inst.beta[u] - inst.alpha[v])
            m_vu = max(0, inst.beta[v] - inst.alpha[u])
            self._row("L", 0.0, [(b[v], 1.0), (b[u], -1.0),
                                 (p, -float(dep.dmax_uv))])
            self._row("L", float(dep.dmax_vu), [(b[u], 1.0), (b[v], -1.0),
                                                (p, float(dep.dmax_vu))])
            self._row("G", -float(m_uv), [(b[v], 1.0), (b[u], -1.0),
                                          (p, -float(dep.dmin_uv + m_uv))])
            self._row("G", float(dep.dmin_vu),
                      [(b[u], 1.0), (b[v], -1.0),
                       (p, float(dep.dmin_vu + m_vu))])
        self._lrow = {(u, v): self._row(
            "L", float(inst.Q - inst.dem[u]),
            [(l[u], 1.0), (l[v], -1.0)]) for u, v in pairs}
        self._load_lb: Dict[int, int] = {}
        self._load_ub: Dict[int, int] = {}
        for v in self.vd:
            self._load_lb[v] = self._row("G", 0.0, [(l[v], 1.0)])
            self._load_ub[v] = self._row("G", -float(inst.Q), [(l[v], -1.0)])

    def _build_fixed_columns(self):
        """Costs and bounds of the columns past the last fragment."""
        inst = self.inst
        p0 = self._p0
        n = p0 + len(inst.deps)
        self._fixed_obj = np.zeros(n)
        self._fixed_obj[ART] = self.art_cost
        self._fixed_lb = np.zeros(n)
        self._fixed_ub = np.full(n, np.inf)
        self._fixed_ub[1 + len(self.vd):p0] = float(inst.Q)
        for k, dep in enumerate(inst.deps):
            self._fixed_ub[p0 + k] = 1.0
            if inst.forced_order(dep.u, dep.v):
                self._fixed_lb[p0 + k] = 1.0
            elif inst.forced_order(dep.v, dep.u):
                self._fixed_ub[p0 + k] = 0.0

    # -- columns ------------------------------------------------------

    def _fragment_entries(self, f: Fragment):
        """(row, value) pairs of a fragment's column; a repeated row adds
        up when the matrix is assembled."""
        inst = self.inst
        if f.start == 0:
            yield 0, 1.0
            yield 1, 1.0
        for task in f.tasks[:-1]:
            if task != 0:
                yield self._cover[task], 1.0
        if f.end in inst.vd:
            yield self._flow[f.end], 1.0
            yield self._es_row[f.end], -float(f.es)
            yield self._load_lb[f.end], -float(f.demand)
        if f.start in inst.vd:
            yield self._flow[f.start], -1.0
            yield self._ls_row[f.start], float(f.ls)
            yield self._load_ub[f.start], -float(f.demand)
            if f.end in inst.vd:
                u, v = f.start, f.end
                yield self._trow[(u, v)], float(
                    f.dur + inst.beta[u] - inst.alpha[v])
                yield self._lrow[(u, v)], float(
                    f.demand + inst.Q - inst.dem[u])
        for r, cut in zip(self._cut_rows, self.cuts):
            a = cut.fragment_coeff(f)
            if a:
                yield r, float(a)

    def add_fragments(self, frags: Sequence[Fragment]) -> int:
        rows, cols, vals = self._frag_ijv
        added = 0
        for f in frags:
            if f.tasks in self._frag_keys:
                continue
            i = len(self.fragments)
            self._frag_keys[f.tasks] = i
            self.fragments.append(f)
            for r, a in self._fragment_entries(f):
                rows.append(r)
                cols.append(i)
                vals.append(a)
            added += 1
        return added

    def drop_fragments(self, doomed) -> None:
        """Removes the columns of the fragments whose task sequences are
        in doomed; the triplets left are those of a model that added only
        the other columns, in their order."""
        gone = np.array([f.tasks in doomed for f in self.fragments], bool)
        rows, cols, vals = (np.asarray(a) for a in self._frag_ijv)
        live = ~gone[cols]
        renum = np.cumsum(~gone) - 1
        self._frag_ijv = (array("q", rows[live].tobytes()),
                          array("q", renum[cols[live]].tobytes()),
                          array("d", vals[live].tobytes()))
        self.fragments = [f for f, g in zip(self.fragments, gone) if not g]
        self._frag_keys = {f.tasks: i for i, f in enumerate(self.fragments)}

    def add_cut(self, cut) -> bool:
        """Append a cut row; returns False when already present."""
        key = cut.key()
        if key in self._cut_keys:
            return False
        self._cut_keys.add(key)
        fixed = []
        if cut.p_pair is not None and cut.p_coeff:
            fixed.append((self._p0 + self._dep_pos[cut.p_pair],
                          float(cut.p_coeff)))
        if cut.sense == "G":
            # The artificial column must keep covering appended rows.
            fixed.append((ART, float(cut.rhs)))
        r = self._row(cut.sense, float(cut.rhs), fixed)
        self.cuts.append(cut)
        self._cut_rows.append(r)
        rows, cols, vals = self._frag_ijv
        for i, f in enumerate(self.fragments):
            a = cut.fragment_coeff(f)
            if a:
                rows.append(r)
                cols.append(i)
                vals.append(float(a))
        return True

    def add_cuts(self, cuts) -> int:
        return sum(1 for c in cuts if self.add_cut(c))

    def cut_keys(self) -> set:
        """Keys of the cuts present: the model's own set, which callers
        must not change."""
        return self._cut_keys

    # -- assembly -----------------------------------------------------

    def _assemble(self):
        """The LP data, columns ordered fragments, artificial, b, l, p;
        the matrix is its (row, column, value) triplets, whose repeated
        entries lpback sums."""
        nf = len(self.fragments)
        fr, fc, fv = self._frag_ijv
        xr, xc, xv = self._fixed_ijv
        A = (np.concatenate((fr, xr)),
             np.concatenate((fc, np.add(xc, nf))),
             np.concatenate((fv, xv)))
        obj = np.concatenate(([f.cost for f in self.fragments],
                              self._fixed_obj))
        lb = np.concatenate((np.zeros(nf), self._fixed_lb))
        ub = np.concatenate((np.full(nf, np.inf), self._fixed_ub))
        return A, obj, lb, ub, list(self.senses), np.array(self.rhs)

    def _unpack(self, z: np.ndarray) -> Tuple[np.ndarray, float, dict]:
        nf = len(self.fragments)
        p0 = nf + self._p0
        p = {uv: float(z[p0 + k]) for uv, k in self._dep_pos.items()}
        return np.asarray(z[:nf], dtype=float), float(z[nf + ART]), p

    # -- solving ------------------------------------------------------

    def solve_relaxation(self, forbid_artificial: bool = False) -> MasterSolution:
        A, obj, lb, ub, senses, rhs = self._assemble()
        if forbid_artificial:
            ub[len(self.fragments) + ART] = 0.0
        res = lpback.solve_lp(obj, A, senses, rhs, lb, ub,
                              tol=LP_TOLERANCE)
        if res.status == "infeasible":
            return MasterSolution("infeasible", float("inf"),
                                  np.zeros(len(self.fragments)), 0.0, {})
        if res.status != "optimal":
            raise MasterError("LP backend: %s (%s)" % (res.status, res.message))
        x, art, p = self._unpack(res.x)
        return MasterSolution("optimal", res.objective, x, art, p,
                              duals=self._extract_duals(res.duals))

    def solve_integer(self, time_limit: Optional[float] = None,
                      cutoff: Optional[float] = None) -> MasterSolution:
        A, obj, lb, ub, senses, rhs = self._assemble()
        nf = len(self.fragments)
        ub[:nf] = 1.0
        ub[nf + ART] = 0.0
        integral = np.zeros(len(obj), dtype=bool)
        integral[:nf] = True
        integral[nf + self._p0:] = True
        res = lpback.solve_milp(obj, A, senses, rhs, lb, ub, integral,
                                time_limit=time_limit, cutoff=cutoff)
        if res.status in ("infeasible", "no_solution"):
            return MasterSolution(res.status, float("inf"),
                                  np.zeros(nf), 0.0, {})
        if res.status not in ("optimal", "feasible"):
            raise MasterError("MILP backend: %s (%s)" % (res.status, res.message))
        x, art, p = self._unpack(res.x)
        return MasterSolution(res.status, res.objective, x, art, p)

    def _extract_duals(self, y: np.ndarray) -> DualValues:
        inst = self.inst
        gamma = float(y[0] + y[1])
        mu = np.zeros(inst.n + 1)
        for v, r in self._cover.items():
            mu[v] = y[r]
        eta = {v: float(y[r]) for v, r in self._flow.items()}
        rho = {uv: float(y[r]) for uv, r in self._trow.items()}
        tau_lb = {v: float(y[r]) for v, r in self._es_row.items()}
        tau_ub = {v: float(y[r]) for v, r in self._ls_row.items()}
        lam = {uv: float(y[r]) for uv, r in self._lrow.items()}
        kap_lb = {v: float(y[r]) for v, r in self._load_lb.items()}
        kap_ub = {v: float(y[r]) for v, r in self._load_ub.items()}
        cut_duals = [(cut, float(y[r]))
                     for cut, r in zip(self.cuts, self._cut_rows)]
        return DualValues(gamma, mu, eta, rho, tau_lb, tau_ub, lam,
                          kap_lb, kap_ub, cut_duals)

    def support(self, x: np.ndarray, eps: float = 1e-9):
        return [(self.fragments[i], float(x[i]))
                for i in np.nonzero(np.asarray(x) > eps)[0]]


def initial_fragments(inst: Instance) -> List[Fragment]:
    """Seed columns: every feasible two-node fragment over the depot and
    the dependent tasks, plus a depot round trip per free task."""
    ends = [0] + sorted(inst.vd)
    out: List[Fragment] = []
    for a in ends:
        for b in ends:
            if a == b:
                continue
            f = build_fragment((a, b), inst)
            if f:
                out.append(f)
    for v in range(1, inst.n + 1):
        if v in inst.vd:
            continue
        f = build_fragment((0, v, 0), inst)
        if f:
            out.append(f)
    return out


def build_initial(inst: Instance,
                  vmin_calc: Optional[VminCalculator] = None) -> MasterModel:
    """Master seeded with the two-node columns, the artificial column,
    and the up-front FSECs (every dependent pair, and V_D as a whole).

    The V_min of the full dependent set is computed exactly only when
    the set holds at most K_MAX tasks; otherwise the capacity bound ceil(q(V_D)/Q) keeps
    the row valid at negligible cost.
    """
    m = MasterModel(inst)
    m.add_fragments(initial_fragments(inst))
    calc = vmin_calc or VminCalculator(inst)
    for dep in inst.deps:
        m.add_cut(FsecCut(S=frozenset((dep.u, dep.v)),
                          vmin=calc.vmin((dep.u, dep.v))))
    vd = sorted(inst.vd)
    if len(vd) > 2:
        if len(vd) <= K_MAX:
            vmin = calc.vmin(vd)
        else:
            vmin = max(1, rcc_rhs(vd, inst))
        m.add_cut(FsecCut(S=frozenset(vd), vmin=vmin))
    return m

"""Restricted master problem over fragment columns.

Variables are the fragment weights x_F, one artificial feasibility
column, a start time b_v and an arriving load l_v per dependent task,
and an order variable p_uv per dependency (1 when u starts no later
than v).  Rows cover the vehicle limit and a vehicle lower bound, task
covering, flow conservation at dependent tasks, big-M start-time and
load linkage between consecutive fragments, per-dependency order
constraints, and any number of appended cut rows.

All fragment coefficients are pure functions of fragment data, so the
matrix can be rebuilt from scratch at any time; columns are cached and
extended incrementally when cut rows are appended.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from . import lpback
from .cuts import FsecCut, VminCalculator
from .fragments import Fragment, build_fragment
from .instance import Instance, SolverConfig


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
    b: Dict[int, float]
    l: Dict[int, float]
    p: Dict[Tuple[int, int], float]
    duals: Optional[DualValues] = None
    best_bound: float = float("-inf")
    message: str = ""


@dataclass
class _Row:
    kind: str
    key: object
    sense: str
    rhs: float
    static: dict = field(default_factory=dict)


def artificial_cost(inst: Instance) -> float:
    """Cost of the artificial column: one more than every off-diagonal
    arc together, so any real solution is cheaper."""
    return 1.0 + float(inst.c.sum() - np.trace(inst.c))


class MasterModel:
    def __init__(self, inst: Instance, cfg: SolverConfig):
        self.inst = inst
        self.cfg = cfg
        self.vd = sorted(inst.vd)
        self.fragments: List[Fragment] = []
        self.cuts: list = []
        self._frag_keys: Dict[tuple, int] = {}
        self._fcols: List[Dict[int, float]] = []
        self._cut_rows: List[int] = []
        self._cut_keys: set = set()
        self._dep_pos = {(d.u, d.v): k for k, d in enumerate(inst.deps)}
        self.art_cost = artificial_cost(inst)
        self._build_static_rows()

    # -- rows ---------------------------------------------------------

    def _build_static_rows(self):
        inst = self.inst
        rows: List[_Row] = [
            _Row("veh_ub", None, "L", float(inst.K)),
        ]
        veh_lb = max(-(-int(inst.dem.sum()) // inst.Q), 1 if inst.n else 0)
        rows.append(_Row("veh_lb", None, "G", float(veh_lb),
                         {"art": float(veh_lb)}))
        self._cover: Dict[int, int] = {}
        for v in range(1, inst.n + 1):
            self._cover[v] = len(rows)
            rows.append(_Row("cover", v, "E", 1.0, {"art": 1.0}))
        self._flow: Dict[int, int] = {}
        for v in self.vd:
            self._flow[v] = len(rows)
            rows.append(_Row("flow", v, "E", 0.0))
        self._trow: Dict[Tuple[int, int], int] = {}
        for u in self.vd:
            for v in self.vd:
                if u == v:
                    continue
                self._trow[(u, v)] = len(rows)
                rows.append(_Row("mtz_time", (u, v), "L",
                                 float(inst.beta[u] - inst.alpha[v]),
                                 {("b", u): 1.0, ("b", v): -1.0}))
        self._es_row: Dict[int, int] = {}
        self._ls_row: Dict[int, int] = {}
        for v in self.vd:
            self._es_row[v] = len(rows)
            rows.append(_Row("es", v, "G", 0.0, {("b", v): 1.0}))
            self._ls_row[v] = len(rows)
            rows.append(_Row("ls", v, "G", 0.0,
                             {("b", v): -1.0, "art": float(inst.tmax)}))
        for k, dep in enumerate(inst.deps):
            u, v = dep.u, dep.v
            m_uv = max(0, int(inst.beta[u] - inst.alpha[v]))
            m_vu = max(0, int(inst.beta[v] - inst.alpha[u]))
            rows.append(_Row("dep_a", k, "L", 0.0,
                             {("b", v): 1.0, ("b", u): -1.0,
                              ("p", k): -float(dep.dmax_uv)}))
            rows.append(_Row("dep_b", k, "L", float(dep.dmax_vu),
                             {("b", u): 1.0, ("b", v): -1.0,
                              ("p", k): float(dep.dmax_vu)}))
            rows.append(_Row("dep_c", k, "G", -float(m_uv),
                             {("b", v): 1.0, ("b", u): -1.0,
                              ("p", k): -float(dep.dmin_uv + m_uv)}))
            rows.append(_Row("dep_d", k, "G", float(dep.dmin_vu),
                             {("b", u): 1.0, ("b", v): -1.0,
                              ("p", k): float(dep.dmin_vu + m_vu)}))
        self._lrow: Dict[Tuple[int, int], int] = {}
        for u in self.vd:
            for v in self.vd:
                if u == v:
                    continue
                self._lrow[(u, v)] = len(rows)
                rows.append(_Row("mtz_load", (u, v), "L",
                                 float(inst.Q - inst.dem[u]),
                                 {("l", u): 1.0, ("l", v): -1.0}))
        self._load_lb: Dict[int, int] = {}
        self._load_ub: Dict[int, int] = {}
        for v in self.vd:
            self._load_lb[v] = len(rows)
            rows.append(_Row("load_lb", v, "G", 0.0, {("l", v): 1.0}))
            self._load_ub[v] = len(rows)
            rows.append(_Row("load_ub", v, "G", -float(inst.Q),
                             {("l", v): -1.0}))
        self.rows = rows

    # -- columns ------------------------------------------------------

    def _fragment_column(self, f: Fragment) -> Dict[int, float]:
        inst = self.inst
        col: Dict[int, float] = {}
        if f.start == 0:
            col[0] = 1.0
            col[1] = 1.0
        for task in f.tasks[:-1]:
            if task != 0:
                r = self._cover[task]
                col[r] = col.get(r, 0.0) + 1.0
        if f.end in inst.vd:
            col[self._flow[f.end]] = col.get(self._flow[f.end], 0.0) + 1.0
            col[self._es_row[f.end]] = -float(f.es)
            col[self._load_lb[f.end]] = -float(f.demand)
        if f.start in inst.vd:
            r = self._flow[f.start]
            col[r] = col.get(r, 0.0) - 1.0
            col[self._ls_row[f.start]] = float(f.ls)
            col[self._load_ub[f.start]] = -float(f.demand)
        if f.start in inst.vd and f.end in inst.vd:
            u, v = f.start, f.end
            col[self._trow[(u, v)]] = float(
                f.dur + inst.beta[u] - inst.alpha[v])
            col[self._lrow[(u, v)]] = float(
                f.demand + inst.Q - inst.dem[u])
        for ri, cut in zip(self._cut_rows, self.cuts):
            a = cut.fragment_coeff(f)
            if a:
                col[ri] = float(a)
        return col

    def add_fragments(self, frags: Sequence[Fragment]) -> int:
        added = 0
        for f in frags:
            if f.tasks in self._frag_keys:
                continue
            self._frag_keys[f.tasks] = len(self.fragments)
            self.fragments.append(f)
            self._fcols.append(self._fragment_column(f))
            added += 1
        return added

    def add_cut(self, cut) -> bool:
        """Append a cut row; returns False when already present."""
        key = cut.key()
        if key in self._cut_keys:
            return False
        self._cut_keys.add(key)
        ri = len(self.rows)
        static = {}
        if cut.p_pair is not None and cut.p_coeff:
            k = self._dep_pos[cut.p_pair]
            static[("p", k)] = float(cut.p_coeff)
        if cut.sense == "G":
            # The artificial column must keep covering appended rows.
            static["art"] = float(cut.rhs)
        self.rows.append(_Row("cut", cut, cut.sense, float(cut.rhs), static))
        self.cuts.append(cut)
        self._cut_rows.append(ri)
        for i, f in enumerate(self.fragments):
            a = cut.fragment_coeff(f)
            if a:
                self._fcols[i][ri] = float(a)
        return True

    def add_cuts(self, cuts) -> int:
        return sum(1 for c in cuts if self.add_cut(c))

    def cut_keys(self) -> set:
        """Keys of the cuts present: the model's own set, which callers
        must not change."""
        return self._cut_keys

    # -- assembly -----------------------------------------------------

    def _layout(self):
        nf = len(self.fragments)
        art = nf
        b0 = nf + 1
        l0 = b0 + len(self.vd)
        p0 = l0 + len(self.vd)
        ncols = p0 + len(self.inst.deps)
        bpos = {v: b0 + i for i, v in enumerate(self.vd)}
        lpos = {v: l0 + i for i, v in enumerate(self.vd)}
        return nf, art, bpos, lpos, p0, ncols

    def _assemble(self):
        inst = self.inst
        nf, art, bpos, lpos, p0, ncols = self._layout()
        ri, ci, vals = [], [], []
        for i in range(nf):
            for r, a in self._fcols[i].items():
                ri.append(r)
                ci.append(i)
                vals.append(a)
        for r, row in enumerate(self.rows):
            for key, a in row.static.items():
                if key == "art":
                    c = art
                elif key[0] == "b":
                    c = bpos[key[1]]
                elif key[0] == "l":
                    c = lpos[key[1]]
                else:
                    c = p0 + key[1]
                ri.append(r)
                ci.append(c)
                vals.append(a)
        A = sp.csr_matrix((vals, (ri, ci)), shape=(len(self.rows), ncols))
        obj = np.zeros(ncols)
        obj[:nf] = [f.cost for f in self.fragments]
        obj[art] = self.art_cost
        lb = np.zeros(ncols)
        ub = np.full(ncols, np.inf)
        for v in self.vd:
            ub[lpos[v]] = float(inst.Q)
        for k, dep in enumerate(inst.deps):
            c = p0 + k
            ub[c] = 1.0
            if inst.forced_order(dep.u, dep.v):
                lb[c] = 1.0
            elif inst.forced_order(dep.v, dep.u):
                ub[c] = 0.0
        senses = [row.sense for row in self.rows]
        rhs = np.array([row.rhs for row in self.rows])
        return A, obj, lb, ub, senses, rhs

    def _unpack(self, z: np.ndarray) -> Tuple[np.ndarray, float, dict, dict, dict]:
        nf, art, bpos, lpos, p0, _ = self._layout()
        x = np.asarray(z[:nf], dtype=float)
        b = {v: float(z[c]) for v, c in bpos.items()}
        l = {v: float(z[c]) for v, c in lpos.items()}
        p = {uv: float(z[p0 + k]) for uv, k in self._dep_pos.items()}
        return x, float(z[art]), b, l, p

    # -- solving ------------------------------------------------------

    def solve_relaxation(self, forbid_artificial: bool = False) -> MasterSolution:
        A, obj, lb, ub, senses, rhs = self._assemble()
        if forbid_artificial:
            ub = ub.copy()
            ub[self._layout()[1]] = 0.0
        res = lpback.solve_lp(obj, A, senses, rhs, lb, ub,
                              tol=self.cfg.lp_tolerance)
        if res.status == "infeasible":
            return MasterSolution("infeasible", float("inf"),
                                  np.zeros(len(self.fragments)), 0.0,
                                  {}, {}, {}, message=res.message)
        if res.status != "optimal":
            raise MasterError("LP backend: %s (%s)" % (res.status, res.message))
        x, art, b, l, p = self._unpack(res.x)
        return MasterSolution("optimal", res.objective, x, art, b, l, p,
                              duals=self._extract_duals(res.duals))

    def solve_integer(self, time_limit: Optional[float] = None) -> MasterSolution:
        A, obj, lb, ub, senses, rhs = self._assemble()
        nf, art, bpos, lpos, p0, ncols = self._layout()
        ub = ub.copy()
        ub[:nf] = 1.0
        ub[art] = 0.0
        integral = np.zeros(ncols, dtype=bool)
        integral[:nf] = True
        integral[p0:] = True
        res = lpback.solve_milp(obj, A, senses, rhs, lb, ub, integral,
                                time_limit=time_limit)
        if res.status in ("infeasible", "no_solution"):
            return MasterSolution(res.status, float("inf"),
                                  np.zeros(nf), 0.0, {}, {}, {},
                                  best_bound=res.best_bound,
                                  message=res.message)
        if res.status not in ("optimal", "feasible"):
            raise MasterError("MILP backend: %s (%s)" % (res.status, res.message))
        x, artv, b, l, p = self._unpack(res.x)
        return MasterSolution(res.status, res.objective, x, artv, b, l, p,
                              best_bound=res.best_bound, message=res.message)

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


def build_initial(inst: Instance, cfg: SolverConfig,
                  vmin_calc: Optional[VminCalculator] = None) -> MasterModel:
    """Master seeded with the two-node columns, the artificial column,
    and the up-front FSECs (every dependent pair, and V_D as a whole).

    The V_min of the full dependent set is computed exactly only when
    the set is small; otherwise the capacity bound ceil(q(V_D)/Q) keeps
    the row valid at negligible cost.
    """
    m = MasterModel(inst, cfg)
    m.add_fragments(initial_fragments(inst))
    calc = vmin_calc or VminCalculator(inst)
    for dep in inst.deps:
        m.add_cut(FsecCut(S=frozenset((dep.u, dep.v)),
                          vmin=calc.vmin((dep.u, dep.v))))
    vd = sorted(inst.vd)
    if len(vd) > 2:
        if len(vd) <= cfg.k_max:
            vmin = calc.vmin(vd)
        else:
            vmin = max(1, -(-int(sum(inst.dem[v] for v in vd)) // inst.Q))
        m.add_cut(FsecCut(S=frozenset(vd), vmin=vmin))
    return m

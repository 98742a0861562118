"""Problem data for the CVRPTW with temporal dependencies.

Tasks carry a time window [alpha, beta] on the start of service, a service
duration d_v and a demand q_v.  A temporal dependency on a pair {u, v} is a
quadruple (dmin_uv, dmax_uv, dmin_vu, dmax_vu) restricting the difference of
start times per starting order: if u starts no later than v then
b_v - b_u in [dmin_uv, dmax_uv], otherwise b_u - b_v in [dmin_vu, dmax_vu].
dmin = dmax = horizon in one direction marks that starting order as
forbidden.

All times, durations, demands and costs are 64-bit integers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing

import numpy as np

DEPENDENCY_KINDS = (
    "synchronization",
    "min-diff",
    "max-diff",
    "minmax-diff",
    "overlap",
    "non-overlap",
    "precedence",
)

# short tokens used by the benchmark generator
KIND_ALIASES = {
    "syn": "synchronization",
    "min": "min-diff",
    "max": "max-diff",
    "minmax": "minmax-diff",
    "nonoverlap": "non-overlap",
}


def normalize_kind(kind: str) -> str:
    k = kind.strip().lower()
    if k in DEPENDENCY_KINDS:
        return k
    if k in KIND_ALIASES:
        return KIND_ALIASES[k]
    raise ValueError("unknown dependency kind: %r" % (kind,))


@dataclasses.dataclass(frozen=True)
class Task:
    id: int
    alpha: int
    beta: int
    duration: int
    demand: int


@dataclasses.dataclass(frozen=True)
class TemporalDependency:
    u: int
    v: int
    dmin_uv: int
    dmax_uv: int
    dmin_vu: int
    dmax_vu: int

    def swapped(self) -> "TemporalDependency":
        return TemporalDependency(self.v, self.u, self.dmin_vu, self.dmax_vu,
                                  self.dmin_uv, self.dmax_uv)

    def canonical(self) -> "TemporalDependency":
        return self if self.u < self.v else self.swapped()


class Reach(typing.NamedTuple):
    """Which dependency-free tasks a fragment can still reach in time,
    per end e (Instance.reach).

    slack[e][v] = beta_v - d_e - t_ev, for every node v: a label ending
    at e with earliest start es can go on to v only if es <= slack[e][v].
    ranked[e] lists the dependency-free tasks by ascending slack (ties
    by index), keys[e] their slacks in that order, and masks[e][k] is
    the bitmask of ranked[e][:k].  So the tasks e can no longer reach at
    es are masks[e][bisect_left(keys[e], es)].  Under the triangle
    inequality and non-negative durations no later arrival at v is
    earlier, so such a task is never visited after e."""
    slack: list
    ranked: list
    keys: list
    masks: list


class Instance:
    """Immutable problem statement.

    Vertex 0 is the depot; tasks are 1..n.  Travel matrices are (n+1)x(n+1)
    and satisfy the triangle inequality; durations are non-negative.
    """

    def __init__(self, tasks, travel_time, travel_cost, vehicle_count,
                 capacity, horizon, dependencies, coords=None, meta=None):
        tasks = sorted(tasks, key=lambda t: t.id)
        self.tasks = tuple(tasks)
        self.n = len(tasks) - 1
        self.t = np.asarray(travel_time, dtype=np.int64)
        self.c = np.asarray(travel_cost, dtype=np.int64)
        self.K = int(vehicle_count)
        self.Q = int(capacity)
        self.tmax = int(horizon)
        self.coords = None if coords is None else tuple(tuple(p) for p in coords)
        self.meta = dict(meta) if meta else {}

        self.alpha = np.array([t.alpha for t in tasks], dtype=np.int64)
        self.beta = np.array([t.beta for t in tasks], dtype=np.int64)
        self.dur = np.array([t.duration for t in tasks], dtype=np.int64)
        self.dem = np.array([t.demand for t in tasks], dtype=np.int64)

        deps = tuple(sorted((d.canonical() for d in dependencies),
                            key=lambda d: (d.u, d.v)))
        self.deps = deps
        # oriented pair (u, v), u first -> (forbidden, dmin_uv, dmax_uv)
        self.pair = {}
        adj = {}
        for d in deps:
            self.pair[(d.u, d.v)] = (d.dmin_uv == d.dmax_uv == self.tmax,
                                     d.dmin_uv, d.dmax_uv)
            self.pair[(d.v, d.u)] = (d.dmin_vu == d.dmax_vu == self.tmax,
                                     d.dmin_vu, d.dmax_vu)
            adj.setdefault(d.u, []).append(d.v)
            adj.setdefault(d.v, []).append(d.u)
        self.dep_adj = {v: tuple(sorted(ws)) for v, ws in adj.items()}
        self.vd = frozenset(self.dep_adj)

        # plain-Python copies for the label and scheduling kernels, which
        # read single entries; nothing mutates the arrays after this point
        self.alpha_list = self.alpha.tolist()
        self.beta_list = self.beta.tolist()
        self.dur_list = self.dur.tolist()
        self.dem_list = self.dem.tolist()
        self.t_list = self.t.tolist()

    @functools.cached_property
    def reach(self) -> Reach:
        """The reach table (Reach), built on first use and then kept:
        it depends on windows, durations and travel times only."""
        n = self.n
        beta, dur, t = self.beta_list, self.dur_list, self.t_list
        interior = [v for v in range(1, n + 1) if v not in self.vd]
        out = Reach([], [], [], [])
        for e in range(n + 1):
            slack = [beta[v] - dur[e] - t[e][v] for v in range(n + 1)]
            ranked = sorted(interior, key=slack.__getitem__)
            masks = [0]
            for v in ranked:
                masks.append(masks[-1] | 1 << v)
            out.slack.append(slack)
            out.ranked.append(ranked)
            out.keys.append([slack[v] for v in ranked])
            out.masks.append(masks)
        return out

    # --- dependency helpers (oriented: first argument starts first) ---

    def has_dep(self, u, v) -> bool:
        return (u, v) in self.pair

    def dmin(self, u, v) -> int:
        p = self.pair.get((u, v))
        return 0 if p is None else p[1]

    def dmax(self, u, v) -> int:
        p = self.pair.get((u, v))
        return self.tmax if p is None else p[2]

    def order_forbidden(self, u, v) -> bool:
        """True iff {u,v} is dependent and u-first is ruled out."""
        return self.pair.get((u, v), (False,))[0]

    def forced_order(self, u, v) -> bool:
        """True iff u must start no later than v."""
        return self.order_forbidden(v, u) and not self.order_forbidden(u, v)

    def replace(self, **kw):
        args = dict(
            tasks=self.tasks, travel_time=self.t, travel_cost=self.c,
            vehicle_count=self.K, capacity=self.Q, horizon=self.tmax,
            dependencies=self.deps, coords=self.coords, meta=self.meta,
        )
        args.update(kw)
        return Instance(**args)


@dataclasses.dataclass
class SolverConfig:
    """The options of `fragvrp solve`, one field per flag: the solve's
    two budgets.  Both depend on the machine a solve runs on, its speed
    and its memory, so they stay settings; the method's tuning values
    are constants beside their readers (driver.GAP_INIT, GAP_STEP and
    T_GUESS, cuts.K_MAX, pricing.NG_SIZE).

    time_limit: seconds for the whole solve.
    f_max: fragments one enumeration may keep, at most.
    Both must be nonnegative: a NaN or negative budget raises ValueError.
    """
    time_limit: float = float("inf")
    f_max: int = 20_000_000

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value >= 0:
                raise ValueError(f"{name} must be nonnegative, not {value!r}")


def dependency_from_type(kind, u, v, inst, delta_min=None, delta_max=None):
    """Builds the parameter quadruple of a named dependency kind."""
    kind = normalize_kind(kind)
    if u == v:
        raise ValueError("dependency endpoints must differ")
    if u == 0 or v == 0:
        raise ValueError("the depot cannot carry a dependency")
    T = inst.tmax
    du = int(inst.dur[u])
    dv = int(inst.dur[v])
    if kind == "synchronization":
        quad = (0, 0, 0, 0)
    elif kind == "min-diff":
        if delta_min is None:
            raise ValueError("min-diff requires delta_min")
        quad = (delta_min, T, delta_min, T)
    elif kind == "max-diff":
        if delta_max is None:
            raise ValueError("max-diff requires delta_max")
        quad = (0, delta_max, 0, delta_max)
    elif kind == "minmax-diff":
        if delta_min is None or delta_max is None:
            raise ValueError("minmax-diff requires delta_min and delta_max")
        quad = (delta_min, delta_max, delta_min, delta_max)
    elif kind == "overlap":
        quad = (0, du, 0, dv)
    elif kind == "non-overlap":
        quad = (du, T, dv, T)
    else:  # precedence: u before v, the reverse order is forbidden
        quad = (0, T, T, T)
    return TemporalDependency(u, v, *[int(x) for x in quad])


def validate(inst: Instance):
    """Returns a list of human-readable invariant violations (empty = ok)."""
    report = []
    n = inst.n
    if inst.tmax < 0:
        report.append("horizon is negative")
    if inst.Q < 0:
        report.append("capacity is negative")
    if inst.K < 0:
        report.append("vehicle count is negative")
    ids = [t.id for t in inst.tasks]
    if ids != list(range(n + 1)):
        report.append("task ids are not 0..n")
        return report
    depot = inst.tasks[0]
    if depot.alpha != 0 or depot.beta != inst.tmax:
        report.append("depot window must be [0, horizon]")
    if depot.duration != 0 or depot.demand != 0:
        report.append("depot must have zero duration and demand")
    for t in inst.tasks:
        if not (0 <= t.alpha <= t.beta <= inst.tmax):
            report.append("task %d: window [%d, %d] outside [0, %d]"
                          % (t.id, t.alpha, t.beta, inst.tmax))
        if not (0 <= t.duration <= inst.tmax):
            report.append("task %d: duration %d outside [0, horizon]"
                          % (t.id, t.duration))
        if not (0 <= t.demand <= inst.Q):
            report.append("task %d: demand %d outside [0, capacity]"
                          % (t.id, t.demand))
    for name, m in (("travel_time", inst.t), ("travel_cost", inst.c)):
        if m.shape != (n + 1, n + 1):
            report.append("%s matrix has shape %s, expected %s"
                          % (name, m.shape, (n + 1, n + 1)))
            continue
        if (m < 0).any():
            report.append("%s has negative entries" % name)
        if (np.diag(m) != 0).any():
            report.append("%s has a nonzero diagonal entry" % name)
        # triangle inequality m[a,c] <= m[a,b] + m[b,c] over all triples
        viol = np.argwhere(m[:, None, :] > m[:, :, None] + m[None, :, :])
        if viol.size:
            a, b, k = (int(x) for x in viol[0])
            report.append("%s violates the triangle inequality on (%d,%d,%d)"
                          % (name, a, b, k))
    seen = set()
    for d in inst.deps:
        if d.u == d.v:
            report.append("dependency with equal endpoints %d" % d.u)
        for e in (d.u, d.v):
            if not (1 <= e <= n):
                report.append("dependency endpoint %d is not a task" % e)
        key = frozenset((d.u, d.v))
        if key in seen:
            report.append("duplicate dependency on pair %s" % sorted(key))
        seen.add(key)
        for lo, hi, tag in ((d.dmin_uv, d.dmax_uv, "uv"),
                            (d.dmin_vu, d.dmax_vu, "vu")):
            if not (0 <= lo <= inst.tmax and 0 <= hi <= inst.tmax):
                report.append("dependency (%d,%d): %s parameters outside"
                              " [0, horizon]" % (d.u, d.v, tag))
            elif lo > hi:
                report.append("dependency (%d,%d): %s lower bound above upper"
                              % (d.u, d.v, tag))
    return report


def _euclid_matrix(coords):
    pts = np.asarray(coords, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    m = np.ceil(dist - 1e-9).astype(np.int64)
    np.fill_diagonal(m, 0)
    return m


def _dep_from_json(obj, inst_stub):
    if "kind" in obj:
        return dependency_from_type(
            obj["kind"], int(obj["u"]), int(obj["v"]), inst_stub,
            delta_min=obj.get("delta_min"), delta_max=obj.get("delta_max"))
    return TemporalDependency(
        int(obj["u"]), int(obj["v"]), int(obj["dmin_uv"]), int(obj["dmax_uv"]),
        int(obj["dmin_vu"]), int(obj["dmax_vu"]))


def instance_from_dict(data) -> Instance:
    horizon = int(data["horizon"])
    capacity = int(data["capacity"])
    vehicles = int(data["vehicle_count"])
    tasks = []
    coords = []
    have_coords = True
    for row in data["tasks"]:
        tasks.append(Task(int(row["id"]), int(row["alpha"]), int(row["beta"]),
                          int(row["duration"]), int(row["demand"])))
        if "x" in row and "y" in row:
            coords.append((float(row["x"]), float(row["y"])))
        else:
            have_coords = False
    tasks.sort(key=lambda t: t.id)
    if "travel_time" in data:
        tt = np.asarray(data["travel_time"], dtype=np.int64)
    elif have_coords:
        tt = _euclid_matrix(coords)
    else:
        raise ValueError("instance needs coordinates or a travel_time matrix")
    if "travel_cost" in data:
        tc = np.asarray(data["travel_cost"], dtype=np.int64)
    else:
        tc = tt.copy()
    stub = Instance(tasks, tt, tc, vehicles, capacity, horizon, ())
    deps = [_dep_from_json(o, stub) for o in data.get("dependencies", ())]
    return Instance(tasks, tt, tc, vehicles, capacity, horizon, deps,
                    coords=coords if have_coords else None,
                    meta=data.get("meta"))


def instance_to_dict(inst: Instance) -> dict:
    tasks = []
    for t in inst.tasks:
        row = {"id": t.id, "alpha": int(t.alpha), "beta": int(t.beta),
               "duration": int(t.duration), "demand": int(t.demand)}
        if inst.coords is not None:
            row["x"], row["y"] = inst.coords[t.id]
        tasks.append(row)
    data = {
        "horizon": inst.tmax,
        "capacity": inst.Q,
        "vehicle_count": inst.K,
        "tasks": tasks,
        "travel_time": inst.t.tolist(),
        "travel_cost": inst.c.tolist(),
        "dependencies": [
            {"u": d.u, "v": d.v, "dmin_uv": d.dmin_uv, "dmax_uv": d.dmax_uv,
             "dmin_vu": d.dmin_vu, "dmax_vu": d.dmax_vu}
            for d in inst.deps
        ],
    }
    if inst.meta:
        data["meta"] = inst.meta
    return data


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def save_instance(inst: Instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")

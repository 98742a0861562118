"""Benchmark tooling: Solomon-style input, dependency generation, batches.

The generator follows the published recipe: repeatedly pick a random task
pair that is not yet linked, explicitly or through a chain of existing
dependencies, and attach a dependency of the requested kind that provably
restricts at least one of the two tasks' start-time domains (checked via
exact arc consistency over interval-union domains) without emptying any
domain.  Difference parameters are drawn uniformly from the
restrictive-and-feasible value range, located by binary search since both
feasibility and restrictiveness are monotone in the parameter.  No step
is linear in the horizon value: a domain holds as many intervals as the
dependencies cut it into, and a parameter costs O(log horizon) probes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import math
import re
import time

import numpy as np

from .driver import run
from .instance import (Instance, SolverConfig, Task, _euclid_matrix,
                       dependency_from_type, load_instance, normalize_kind,
                       validate)
from .preprocess import diff_ranges, preprocess

log = logging.getLogger(__name__)

GENERATOR_KINDS = ("synchronization", "min-diff", "max-diff", "minmax-diff",
                   "overlap", "non-overlap")


class SolomonFormatError(ValueError):
    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclasses.dataclass
class SolomonData:
    name: str
    vehicles: int
    capacity: int
    rows: list          # (id, x, y, demand, ready, due, service)

    def instance(self, take=None) -> Instance:
        rows = self.rows if take is None else self.rows[:take + 1]
        horizon = rows[0][5]
        tasks = [Task(0, 0, horizon, 0, 0)]
        coords = [(float(rows[0][1]), float(rows[0][2]))]
        for i, r in enumerate(rows[1:], start=1):
            tasks.append(Task(i, r[4], r[5], r[6], r[3]))
            coords.append((float(r[1]), float(r[2])))
        mat = _euclid_matrix(coords)
        return Instance(tasks, mat, mat.copy(), self.vehicles, self.capacity,
                        horizon, [], coords=coords,
                        meta={"source": self.name})


def _tokens(line):
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _numeric_row(line, line_no, expect):
    toks = _tokens(line)
    if len(toks) != expect:
        raise SolomonFormatError(line_no, toks[0][1] if toks else 1,
                                 f"expected {expect} fields, got {len(toks)}")
    out = []
    for tok, col in toks:
        try:
            out.append(float(tok))
        except ValueError:
            raise SolomonFormatError(line_no, col,
                                     f"not a number: {tok!r}") from None
    return out


def _has_alpha(line):
    return any(c.isalpha() for c in line)


def parse_solomon(text: str) -> SolomonData:
    """Parses the classic layout: name, VEHICLE block, CUSTOMER table."""
    lines = text.splitlines()
    name = None
    i = 0
    while i < len(lines):
        if lines[i].strip():
            name = lines[i].strip()
            break
        i += 1
    if name is None:
        raise SolomonFormatError(1, 1, "empty input")
    while i < len(lines) and "VEHICLE" not in lines[i].upper():
        i += 1
    if i == len(lines):
        raise SolomonFormatError(len(lines), 1, "missing VEHICLE section")
    i += 1
    vehicles = capacity = None
    while i < len(lines):
        line = lines[i]
        if "CUSTOMER" in line.upper():
            raise SolomonFormatError(i + 1, 1,
                                     "vehicle count/capacity line missing")
        if line.strip() and not _has_alpha(line):
            vals = _numeric_row(line, i + 1, 2)
            vehicles, capacity = int(vals[0]), int(vals[1])
            i += 1
            break
        i += 1
    if vehicles is None:
        raise SolomonFormatError(len(lines), 1,
                                 "vehicle count/capacity line missing")
    while i < len(lines) and "CUSTOMER" not in lines[i].upper():
        if lines[i].strip() and not _has_alpha(lines[i]):
            raise SolomonFormatError(i + 1, 1, "unexpected data "
                                     "before CUSTOMER section")
        i += 1
    if i == len(lines):
        raise SolomonFormatError(len(lines), 1, "missing CUSTOMER section")
    i += 1
    rows = []
    for j in range(i, len(lines)):
        line = lines[j]
        if not line.strip():
            continue
        if _has_alpha(line):
            if rows:
                raise SolomonFormatError(j + 1, 1, "text inside the "
                                         "customer table")
            continue        # column headers
        vals = _numeric_row(line, j + 1, 7)
        ints = [int(v) for v in vals]
        for k in (0, 3, 4, 5, 6):
            if vals[k] != ints[k]:
                raise SolomonFormatError(
                    j + 1, _tokens(line)[k][1],
                    f"field must be an integer: {vals[k]}")
        rows.append((ints[0], vals[1], vals[2], ints[3], ints[4], ints[5],
                     ints[6]))
    if not rows:
        raise SolomonFormatError(len(lines), 1, "empty customer table")
    if rows[0][0] != 0:
        raise SolomonFormatError(i + 1, 1, "first customer row must be "
                                 "the depot with id 0")
    ids = [r[0] for r in rows]
    if ids != list(range(len(rows))):
        raise SolomonFormatError(i + 1, 1, "customer ids must be "
                                 "consecutive starting at 0")
    return SolomonData(name, vehicles, capacity, rows)


def load_solomon(path) -> SolomonData:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solomon(fh.read())


# --- dependency generation ------------------------------------------------

DEAD, LOOSE, TIGHT = 0, 1, 2


def _union(intervals):
    """Sorted, disjoint, touching-merged tuple of integer intervals, so
    equal sets give equal tuples."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return tuple(out)


class _DomainState:
    """Exact integer feasible-start domains over the dependency forest.

    Each domain is a union of intervals, kept as the sorted, disjoint,
    touching-merged tuple of (lo, hi) pairs that _union returns.  Domains
    start from the propagated hull windows and are kept arc consistent
    under the pairwise difference bands.  The generator only links tasks
    from distinct components, so the dependency graph is a forest, where
    arc consistency is complete: all domains nonempty means a joint
    schedule exists.  Hull propagation alone misses both the bands that
    minimum-difference kinds carve from window interiors and the joint
    infeasibilities those bands can create along a chain.
    """

    def __init__(self, inst: Instance):
        base = preprocess(inst)
        if not base.feasible:
            raise ValueError("generation requires a feasible skeleton: "
                             + base.reason)
        p = base.instance
        self.T = inst.tmax
        self.dom = {v: ((int(p.alpha[v]), int(p.beta[v])),)
                    for v in range(1, inst.n + 1)}
        self.edges = [(d.u, d.v,
                       (d.dmin_uv, d.dmax_uv, d.dmin_vu, d.dmax_vu))
                      for d in inst.deps]
        if not self._propagate(self.dom, self.edges):
            raise ValueError("skeleton dependencies admit no joint "
                             "schedule")

    def _revise(self, dom, u, v, quad):
        """Drops unsupported values from u's domain; returns True if any.
        Interval (a, b) of v's domain supports exactly t in [a - hi, b - lo]
        per nonempty range (lo, hi) of b_v - b_u."""
        bands = [r for r in diff_ranges(quad, self.T) if r[0] <= r[1]]
        support = [(a - hi, b - lo) for a, b in dom[v] for lo, hi in bands]
        new = _union((max(a, c), min(b, d)) for a, b in dom[u]
                     for c, d in support if max(a, c) <= min(b, d))
        if new == dom[u]:
            return False
        dom[u] = new
        return True

    def _propagate(self, dom, edges):
        """AC-3 over the difference bands; False when a domain empties.

        The loop ends: an edge goes back on the queue only after a revise
        strictly shrinks a domain, and each of the finitely many domain
        values can be dropped once."""
        work = list(edges)
        while work:
            u, v, quad = work.pop()
            swapped = (quad[2], quad[3], quad[0], quad[1])
            changed = self._revise(dom, u, v, quad)
            changed |= self._revise(dom, v, u, swapped)
            if changed:
                if not dom[u] or not dom[v]:
                    return False
                for e in edges:
                    if e[0] in (u, v) or e[1] in (u, v):
                        if e not in work:
                            work.append(e)
        return all(dom.values())

    def probe(self, dep) -> int:
        """DEAD, TIGHT (the domain of u or v shrank) or LOOSE."""
        quad = (dep.dmin_uv, dep.dmax_uv, dep.dmin_vu, dep.dmax_vu)
        trial = dict(self.dom)
        edges = self.edges + [(dep.u, dep.v, quad)]
        if not self._propagate(trial, edges):
            return DEAD
        for w in (dep.u, dep.v):
            if trial[w] != self.dom[w]:
                return TIGHT
        return LOOSE

    def commit(self, dep):
        quad = (dep.dmin_uv, dep.dmax_uv, dep.dmin_vu, dep.dmax_vu)
        self.edges.append((dep.u, dep.v, quad))
        if not self._propagate(self.dom, self.edges):
            raise RuntimeError("committed dependency emptied a domain")


def _search_edge(lo, hi, pred):
    """Smallest value in [lo, hi] with pred true; pred must be monotone
    (false...false true...true).  Returns None if pred(hi) is false."""
    if not pred(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _draw_restrictive(state, skeleton, kind, u, v, rng):
    probe = state.probe
    T = skeleton.tmax

    def make(dmin=None, dmax=None):
        return dependency_from_type(kind, u, v, skeleton,
                                    delta_min=dmin, delta_max=dmax)

    if kind in ("synchronization", "overlap", "non-overlap", "precedence"):
        first = (u, v) if rng.integers(2) == 0 else (v, u)
        for a, b in (first, (first[1], first[0])):
            dep = dependency_from_type(kind, a, b, skeleton)
            if probe(dep) == TIGHT:
                return dep
        return None

    if kind == "min-diff":
        feas = lambda d: probe(make(dmin=d)) != DEAD
        tight = lambda d: probe(make(dmin=d)) == TIGHT
        top = _search_edge(0, T, lambda d: not feas(d))
        hi = T if top is None else top - 1
        if hi < 0:
            return None
        lo = _search_edge(0, hi, tight)
        if lo is None:
            return None
        return make(dmin=int(rng.integers(lo, hi + 1)))

    if kind == "max-diff":
        feas = lambda d: probe(make(dmax=d)) != DEAD
        loose = lambda d: probe(make(dmax=d)) == LOOSE
        lo = _search_edge(0, T, feas)
        if lo is None:
            return None
        top = _search_edge(lo, T, loose)
        hi = T if top is None else top - 1
        if hi < lo:
            return None
        return make(dmax=int(rng.integers(lo, hi + 1)))

    if kind == "minmax-diff":
        feas_max = lambda d: probe(make(dmin=0, dmax=d)) != DEAD
        lo_max = _search_edge(0, T, feas_max)
        if lo_max is None:
            return None
        for _ in range(60):
            dmax = int(rng.integers(lo_max, T + 1))
            dmin = int(rng.integers(0, dmax + 1))
            dep = make(dmin=dmin, dmax=dmax)
            if probe(dep) == TIGHT:
                return dep
        return None

    raise ValueError(f"unknown generator kind: {kind}")


def generate_dependencies(skeleton: Instance, kind, sigma, seed) -> Instance:
    """Adds ceil(sigma * |V|) dependencies of one kind, or as many as the
    restrictiveness rule admits; falling short is logged, not fatal."""
    kind = normalize_kind(kind)
    target = math.ceil(float(sigma) * skeleton.n)
    if target <= 0:
        return skeleton
    rng = np.random.default_rng(seed)
    parent = list(range(skeleton.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deps = list(skeleton.deps)
    state = _DomainState(skeleton)
    for d in deps:
        parent[find(d.u)] = find(d.v)
    added = 0
    dead = set()
    while added < target:
        cands = [(a, b)
                 for a in range(1, skeleton.n + 1)
                 for b in range(a + 1, skeleton.n + 1)
                 if find(a) != find(b) and (a, b) not in dead]
        if not cands:
            break
        u, v = cands[int(rng.integers(len(cands)))]
        dep = _draw_restrictive(state, skeleton, kind, u, v, rng)
        if dep is None:
            dead.add((u, v))
            continue
        deps.append(dep)
        state.commit(dep)
        parent[find(u)] = find(v)
        added += 1
        dead.clear()
    if added < target:
        log.warning("dependency generation exhausted at %d of %d (kind=%s)",
                    added, target, kind)
    meta = dict(skeleton.meta)
    meta.update({"kind": kind, "sigma": float(sigma), "seed": int(seed),
                 "rng": "pcg64", "dependencies_requested": target,
                 "dependencies_added": added})
    return skeleton.replace(dependencies=deps, meta=meta)


# --- batch running ---------------------------------------------------------

CSV_COLUMNS = ("instance", "status", "lb", "ub", "gap%", "wall-time",
               "fragments-enumerated", "cuts-by-kind")


def _fmt_bound(x):
    if x is None or not math.isfinite(x):
        return ""
    return "%g" % x


def _run_entry(base_cfg, path, overrides):
    t0 = time.perf_counter()
    meta = {}
    try:
        inst = load_instance(path)
        meta = inst.meta
        problems = validate(inst)
        if problems:
            raise ValueError(f"invalid instance: {problems[0]}")
        cfg = dataclasses.replace(base_cfg, **overrides)
        st = run(inst, cfg)
        wall = time.perf_counter() - t0
        gap = ""
        if math.isfinite(st.ub_sol) and st.lb_sol > 0:
            gap = "%.4f" % (100.0 * (st.ub_sol - st.lb_sol) / st.lb_sol)
        elif math.isfinite(st.ub_sol) and st.ub_sol == st.lb_sol:
            gap = "0.0000"
        cuts = st.stats.get("cuts_by_kind", {})
        row = {
            "instance": path,
            "status": st.status,
            "lb": _fmt_bound(st.lb_sol),
            "ub": _fmt_bound(st.ub_sol),
            "gap%": gap,
            "wall-time": "%.3f" % wall,
            "fragments-enumerated":
                str(st.stats.get("fragments_enumerated", 0)),
            "cuts-by-kind": ";".join(
                f"{k}={cuts.get(k, 0)}" for k in
                ("FSEC", "TIFI", "TDIFI", "RCC")),
        }
    except Exception as exc:   # noqa: BLE001 - per-row isolation is the point
        log.error("bench run failed on %s: %s", path, exc)
        row = {"instance": path, "status": "error", "lb": "", "ub": "",
               "gap%": "", "wall-time": "%.3f" % (time.perf_counter() - t0),
               "fragments-enumerated": "", "cuts-by-kind": ""}
    return row, meta.get("kind", ""), meta.get("sigma", "")


def _mean(vals):
    vals = [v for v in vals if v != ""]
    if not vals:
        return ""
    return "%.4f" % (sum(float(v) for v in vals) / len(vals))


def _aggregate(label, rows):
    opt = sum(1 for r in rows if r["status"] == "optimal")
    return {
        "instance": label,
        "status": f"{opt}/{len(rows)} optimal",
        "lb": "",
        "ub": "",
        "gap%": _mean([r["gap%"] for r in rows]),
        "wall-time": _mean([r["wall-time"] for r in rows]),
        "fragments-enumerated":
            _mean([r["fragments-enumerated"] for r in rows]),
        "cuts-by-kind": "",
    }


def run_batch(manifest, cfg=None) -> str:
    """Solves every manifest entry and renders the CSV results table.

    The manifest is a JSON list (or an already-parsed list) of entries,
    each a path string or {"instance": path, "config": {field: value}}.
    Failures become rows with status error; the batch always finishes.
    """
    if isinstance(manifest, (str, bytes)):
        with open(manifest, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    else:
        entries = list(manifest)
    base = cfg if cfg is not None else SolverConfig()
    results = []
    for e in entries:
        if not isinstance(e, dict):
            e = {"instance": str(e)}
        results.append(_run_entry(base, e["instance"],
                                  dict(e.get("config", {}))))

    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
    w.writeheader()
    for row, _, _ in results:
        w.writerow(row)
    groups = {}
    for row, kind, sigma in results:
        if kind == "" and sigma == "":
            continue
        groups.setdefault((str(kind), str(sigma)), []).append(row)
    for kind, sigma in sorted(groups):
        rows = groups[(kind, sigma)]
        w.writerow(_aggregate(f"aggregate kind={kind} sigma={sigma}", rows))
    if results:
        w.writerow(_aggregate("aggregate all", [r for r, _, _ in results]))
    return out.getvalue()

"""Instance tightening.

Three strengthen-only transformations run before the solver proper:
clipping task windows by depot travel, transitive closure of temporal
dependencies (every pair connected through a chain of dependencies receives
an explicit, possibly strengthened quadruple), and window tightening from
dependency parameters.  Each preserves the set of feasible solutions.

The closure and the window tightening read a quadruple only through
``diff_ranges``: the ranges of b_v - b_u its allowed starting orders give.
"""

from __future__ import annotations

import dataclasses

from .instance import Instance, Task, TemporalDependency


@dataclasses.dataclass
class PreprocessResult:
    instance: Instance
    feasible: bool
    reason: str = ""


def _with_windows(inst, alpha, beta):
    tasks = [Task(t.id, alpha[t.id], beta[t.id], t.duration, t.demand)
             for t in inst.tasks]
    return inst.replace(tasks=tasks)


def tighten_depot_windows(inst: Instance) -> PreprocessResult:
    """Clips every window to what depot departure and return allow."""
    alpha = inst.alpha.copy()
    beta = inst.beta.copy()
    for v in range(1, inst.n + 1):
        alpha[v] = max(alpha[v], inst.t_list[0][v])
        beta[v] = min(beta[v], inst.tmax - inst.t_list[v][0] - inst.dur[v])
        if alpha[v] > beta[v]:
            return PreprocessResult(
                _with_windows(inst, alpha, beta), False,
                "task %d has no start time compatible with depot travel" % v)
    return PreprocessResult(_with_windows(inst, alpha, beta), True)


# --- transitive closure of dependencies ---------------------------------

def diff_ranges(quad, tmax):
    """Feasible ranges of b_v - b_u, one per allowed starting order.

    quad is (dmin_uv, dmax_uv, dmin_vu, dmax_vu) for the oriented pair
    (u, v): u first gives [dmin_uv, dmax_uv], v first gives
    [-dmax_vu, -dmin_vu], and an order whose bounds both equal tmax is
    forbidden and left out.
    """
    m_uv, M_uv, m_vu, M_vu = quad
    out = []
    if not m_uv == M_uv == tmax:
        out.append((m_uv, M_uv))
    if not m_vu == M_vu == tmax:
        out.append((-M_vu, -m_vu))
    return out


def _compose(quad_uv, quad_vw, tmax):
    """Implied quadruple on (u, w) from dependencies on (u,v) and (v,w).

    Case analysis over the starting orders of both known pairs: summing the
    two difference ranges bounds b_w - b_u, and each sum interval feeds the
    order of {u, w} it is compatible with.  Per target order the least lower
    and greatest upper bound over feasible combinations are kept.
    """
    lo_uw = hi_uw = None   # bounds on b_w - b_u >= 0 (u starts first)
    lo_wu = hi_wu = None   # bounds on b_u - b_w >= 0 (w starts first)
    for a_lo, a_hi in diff_ranges(quad_uv, tmax):
        for b_lo, b_hi in diff_ranges(quad_vw, tmax):
            m = a_lo + b_lo
            M = a_hi + b_hi
            # u first: b_w - b_u in [max(0, m), min(M, tmax)]
            if M >= 0 and max(0, m) <= min(M, tmax):
                lo, hi = max(0, m), min(M, tmax)
                lo_uw = lo if lo_uw is None else min(lo_uw, lo)
                hi_uw = hi if hi_uw is None else max(hi_uw, hi)
            # w first: b_u - b_w in [max(0, -M), min(-m, tmax)]
            if m <= 0 and max(0, -M) <= min(-m, tmax):
                lo, hi = max(0, -M), min(-m, tmax)
                lo_wu = lo if lo_wu is None else min(lo_wu, lo)
                hi_wu = hi if hi_wu is None else max(hi_wu, hi)
    uw = (tmax, tmax) if lo_uw is None else (lo_uw, hi_uw)
    wu = (tmax, tmax) if lo_wu is None else (lo_wu, hi_wu)
    return uw + wu


def _merge(old, new, tmax):
    """Strengthen-only merge of two quadruples on the same oriented pair."""
    out = []
    for i in (0, 2):
        m = max(old[i], new[i])
        M = min(old[i + 1], new[i + 1])
        if m > M:
            m = M = tmax
        out.extend((m, M))
    return tuple(out)


def close_dependencies(inst: Instance) -> PreprocessResult:
    tmax = inst.tmax
    quads = {}
    for d in inst.deps:
        quads[(d.u, d.v)] = (d.dmin_uv, d.dmax_uv, d.dmin_vu, d.dmax_vu)

    def get(u, v):
        if (u, v) in quads:
            return quads[(u, v)]
        q = quads.get((v, u))
        return None if q is None else (q[2], q[3], q[0], q[1])

    changed = True
    while changed:
        changed = False
        adj = {}
        for (u, v) in list(quads):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        for v in sorted(adj):
            around = sorted(adj[v])
            for u in around:
                for w in around:
                    if u >= w:
                        continue
                    implied = _compose(get(u, v), get(v, w), tmax)
                    old = get(u, w)
                    merged = implied if old is None else _merge(old, implied, tmax)
                    if merged[0] == merged[1] == tmax and \
                            merged[2] == merged[3] == tmax:
                        return PreprocessResult(
                            inst, False,
                            "dependency chain through %d forbids both "
                            "starting orders of (%d, %d)" % (v, u, w))
                    if old != merged:
                        # u < w and every stored key is ordered the same way
                        quads[(u, w)] = merged
                        changed = True

    deps = [TemporalDependency(u, v, *q) for (u, v), q in quads.items()]
    return PreprocessResult(inst.replace(dependencies=deps), True)


def tighten_td_windows(inst: Instance) -> PreprocessResult:
    """Window tightening from dependency parameters, run to a fixed point.

    Every dependency bounds b_v - b_u by the hull [lo, hi] of its
    diff_ranges, so alpha_u >= alpha_v - hi, beta_u <= beta_v - lo,
    alpha_v >= alpha_u + lo and beta_v <= beta_u + hi.
    """
    alpha = inst.alpha.copy()
    beta = inst.beta.copy()
    tmax = inst.tmax
    changed = True
    while changed:
        changed = False
        for d in inst.deps:
            u, v = d.u, d.v
            ranges = diff_ranges(
                (d.dmin_uv, d.dmax_uv, d.dmin_vu, d.dmax_vu), tmax)
            if not ranges:
                return PreprocessResult(inst, False,
                                        "both starting orders of (%d, %d) "
                                        "are forbidden" % (u, v))
            lo = min(r[0] for r in ranges)
            hi = max(r[1] for r in ranges)
            cand = ((u, max(alpha[u], alpha[v] - hi),
                     min(beta[u], beta[v] - lo)),
                    (v, max(alpha[v], alpha[u] + lo),
                     min(beta[v], beta[u] + hi)))
            for w, a, b in cand:
                if a > alpha[w]:
                    alpha[w] = a
                    changed = True
                if b < beta[w]:
                    beta[w] = b
                    changed = True
                if alpha[w] > beta[w]:
                    return PreprocessResult(
                        _with_windows(inst, alpha, beta), False,
                        "dependency (%d, %d) empties the window of task %d"
                        % (u, v, w))
    return PreprocessResult(_with_windows(inst, alpha, beta), True)


def preprocess(inst: Instance) -> PreprocessResult:
    """Runs all three tightenings; stops at the first infeasibility."""
    res = tighten_depot_windows(inst)
    if not res.feasible:
        return res
    res2 = close_dependencies(res.instance)
    if not res2.feasible:
        return res2
    return tighten_td_windows(res2.instance)

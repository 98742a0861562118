"""One workload, measured: set-up, timed rounds of solves, answer checks.

A run builds the workload's instances several times and keeps the median
set-up time.  It then solves every instance once per round, in an order
shuffled by the run's seed, for as many rounds as fit in the run's
seconds (at least ``MIN_ROUNDS``).  Every set-up pass and every solve is
timed between two runs of the reference computation (``reference``),
and its time is scaled by ``REFERENCE_S`` over their mean: the time it
would have taken at the reference speed, which takes out the drift in
the host's speed.  An instance's time is the median of its scaled
repetitions; the end-to-end times are sums over the instances.  Only
then, outside every timed region, does it solve each instance with the
arc MILP and check every answer against it.

A traced run spends half its seconds on untraced rounds and the rest on
traced ones, and reports the layer metrics of each instance's fastest
traced repetition, in seconds as measured.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import resource
import statistics
import traceback

from . import checks
from .reference import REFERENCE_S, Reference
from .tracer import Tracer
from .workloads import OUT, WORKLOADS, build

SETUP_REPEATS = 9
MIN_ROUNDS = 2

END_TO_END = (("solve_s", "s"), ("first_ub_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

LAYERS = ("driver", "preprocess", "pricing", "cuts", "scheduling", "master",
          "lpback", "enumeration")

PER_LAYER = (
    ("driver.lower_bound_s", "s"), ("driver.initial_ub_s", "s"),
    ("driver.enumerate_s", "s"), ("driver.reduce_s", "s"),
    ("driver.final_milp_s", "s"), ("driver.pricing_iterations", "count"),
    ("driver.gap_rounds", "count"), ("driver.fragments_enumerated", "count"),
    ("driver.cuts_fsec", "count"), ("driver.cuts_tifi", "count"),
    ("driver.cuts_tdifi", "count"), ("driver.cuts_rcc", "count"),
    ("pricing.solve_pricing.calls", "count"), ("pricing.solve_pricing.s", "s"),
    ("pricing.extend_label.calls", "count"),
    ("pricing.labels_completed", "count"), ("pricing.columns", "count"),
    ("pricing.column_yield", "ratio"),
    ("cuts.separate_fsec.s", "s"), ("cuts.vmin.calls", "count"),
    ("cuts.vmin.self_s", "s"), ("cuts.fsec_found", "count"),
    ("cuts.fsec_yield", "ratio"), ("cuts.separate_other.s", "s"),
    ("scheduling.schedule_routes.calls", "count"),
    ("scheduling.schedule_routes.s", "s"),
    ("scheduling.schedule_routes.ok_ratio", "ratio"),
    ("master.solve_relaxation.calls", "count"),
    ("master.solve_relaxation.self_s", "s"),
    ("master.solve_integer.calls", "count"),
    ("master.solve_integer.self_s", "s"), ("master.add_cut.s", "s"),
    ("master.add_fragments.s", "s"), ("master.columns_max", "count"),
    ("lpback.solve_lp.calls", "count"), ("lpback.solve_lp.s", "s"),
    ("lpback.solve_milp.calls", "count"), ("lpback.solve_milp.s", "s"),
    ("enumeration.enumerate_fragments.s", "s"),
    ("enumeration.extend_label.calls", "count"),
    ("enumeration.kept", "count"), ("enumeration.reduce_by_route_bound.s", "s"),
    ("enumeration.reduce_by_resolve.s", "s"),
    ("enumeration.survivors", "count"), ("enumeration.survival_ratio", "ratio"),
    ("preprocess.s", "s"),
    ("bench.generate_dependencies.s", "s"),
    ("bench.generate_dependencies.calls", "count"),
    ("trace.overhead_s", "s"), ("host.reference_s", "s"),
) + tuple(("%s.share" % layer, "ratio") for layer in LAYERS)

# Counted on every solve, traced or not, for the determinism guard.
ALWAYS_COUNTED = ("pricing.extend_label", "enumeration.extend_label",
                  "scheduling.schedule_routes")


def _wrap_points():
    """(owner, attribute, recorded name, layer, mode when traced).

    Each owner is where the caller looks the name up: ``driver`` imported
    most of its callees by name, ``cuts`` bound ``schedule_routes`` at
    import, ``pricing`` and ``enumeration`` each bound ``extend_label``,
    and ``master`` reaches ``lpback`` through the module.
    """
    from fragvrp import cuts, driver, enumeration, lpback, master, pricing

    mm = master.MasterModel
    return (
        (driver, "run", "driver.run", "driver", "span"),
        (driver, "preprocess", "preprocess", "preprocess", "span"),
        (driver, "compute_lower_bound", "driver.compute_lower_bound",
         "driver", "span"),
        (driver, "initial_upper_bound", "driver.initial_upper_bound",
         "driver", "span"),
        (driver, "solve_pricing", "pricing.solve_pricing", "pricing", "span"),
        (driver, "enumerate_fragments", "enumeration.enumerate_fragments",
         "enumeration", "span"),
        (driver, "reduce_by_route_bound", "enumeration.reduce_by_route_bound",
         "enumeration", "span"),
        (driver, "reduce_by_resolve", "enumeration.reduce_by_resolve",
         "enumeration", "span"),
        (driver, "schedule_routes", "scheduling.schedule_routes",
         "scheduling", "timed"),
        (cuts, "schedule_routes", "scheduling.schedule_routes",
         "scheduling", "timed"),
        (cuts, "separate_fsec", "cuts.separate_fsec", "cuts", "span"),
        (cuts, "separate_tifi", "cuts.separate_tifi", "cuts", "span"),
        (cuts, "separate_tdifi", "cuts.separate_tdifi", "cuts", "span"),
        (cuts, "separate_rcc", "cuts.separate_rcc", "cuts", "span"),
        (cuts.VminCalculator, "vmin", "cuts.vmin", "cuts", "timed"),
        (pricing, "labels_from", "pricing.labels_from", "pricing", "count"),
        (pricing, "extend_label", "pricing.extend_label", "pricing", "count"),
        (enumeration, "extend_label", "enumeration.extend_label",
         "enumeration", "count"),
        (mm, "solve_relaxation", "master.solve_relaxation", "master", "span"),
        (mm, "solve_integer", "master.solve_integer", "master", "span"),
        (mm, "add_cut", "master.add_cut", "master", "timed"),
        (mm, "add_fragments", "master.add_fragments", "master", "timed"),
        (lpback, "solve_lp", "lpback.solve_lp", "lpback", "span"),
        (lpback, "solve_milp", "lpback.solve_milp", "lpback", "span"),
    )


def _observers(tracer, stamps):
    def columns(args, result):
        tracer.peak("master.columns_max", len(args[0].fragments))

    def size(key):
        return lambda args, result: tracer.add(key, len(result))

    return {
        "driver.initial_upper_bound":
            lambda args, result: stamps.append(tracer.clock()),
        "pricing.solve_pricing": size("pricing.columns"),
        "pricing.labels_from": size("pricing.labels_completed"),
        "cuts.separate_fsec": size("cuts.fsec_found"),
        "scheduling.schedule_routes":
            lambda args, result: tracer.add("scheduling.ok", bool(result[0])),
        "enumeration.enumerate_fragments": size("enumeration.kept"),
        "enumeration.reduce_by_resolve":
            lambda args, result: tracer.add("enumeration.survivors",
                                            len(result[0])),
        "master.solve_relaxation": columns,
        "master.solve_integer": columns,
    }


def install(tracer, stamps, traced):
    """Wraps the solver for one phase of a run.

    Untraced, only the counts of the determinism guard and the time at
    which the first incumbent returns are taken."""
    observers = _observers(tracer, stamps)
    for owner, attribute, name, layer, mode in _wrap_points():
        if traced:
            tracer.wrap(owner, attribute, name, layer, mode,
                        observers.get(name))
        elif name in ALWAYS_COUNTED:
            tracer.wrap(owner, attribute, name, layer, "count")
        elif name == "driver.initial_upper_bound":
            tracer.wrap(owner, attribute, name, layer, "count",
                        observers[name])


@dataclasses.dataclass
class Solve:
    case: int
    traced: bool
    seconds: float
    first_ub_s: float
    state: object           # BoundsState, or None when the solve raised
    counts: dict
    snapshot: dict
    faults: list
    spans: tuple = (0, 0)   # slice of tracer.spans this solve made
    ref_s: float = 0.0      # mean of the reference runs around the solve

    def scaled(self, seconds) -> float:
        """``seconds`` at the reference speed."""
        return seconds * REFERENCE_S / self.ref_s


def work_counts(stats, calls) -> dict:
    """What a solve did, in counts that must repeat exactly."""
    cuts = stats.get("cuts_by_kind", {})
    out = {
        "gap_rounds": stats.get("iterations", 0),
        "pricing_iterations": stats.get("pricing_iterations", 0),
        "fragments_enumerated": stats.get("fragments_enumerated", 0),
    }
    for kind in ("FSEC", "TIFI", "TDIFI", "RCC"):
        out["cuts_" + kind.lower()] = cuts.get(kind, 0)
    for name in ALWAYS_COUNTED:
        out[name + ".calls"] = calls.get(name, 0)
    return out


def solve_once(inst, case, tracer, stamps, traced) -> Solve:
    """Solves one instance under the wrappers that ``install`` put in."""
    from fragvrp import driver

    tracer.reset()
    del stamps[:]
    first_span = len(tracer.spans)
    gc.collect()
    faults = []
    state = None
    start = tracer.clock()
    try:
        state = driver.run(inst)
    except Exception:   # noqa: BLE001 - a crash is one failed operation
        faults.append(traceback.format_exc(limit=3))
    seconds = tracer.clock() - start
    first_ub = stamps[0] - start if stamps else seconds
    snap = tracer.snapshot()
    stats = state.stats if state is not None else {}
    return Solve(case, traced, seconds, first_ub, state,
                 work_counts(stats, snap["calls"]), snap, faults,
                 (first_span, len(tracer.spans)))


def _rounds(insts, rng, tracer, traced, until, start, min_rounds, solves,
            reference):
    """Solves every instance once per round, each solve between two runs
    of ``reference``.  After ``min_rounds``, a round starts only if one
    as long as the last would end within ``until`` seconds of ``start``."""
    stamps = []
    install(tracer, stamps, traced)
    try:
        before = reference.run(tracer.clock)
        done, last = 0, 0.0
        while done < min_rounds or tracer.clock() - start + last < until:
            began = tracer.clock()
            order = list(range(len(insts)))
            rng.shuffle(order)
            for i in order:
                s = solve_once(insts[i], i, tracer, stamps, traced)
                after = reference.run(tracer.clock)
                s.ref_s = (before + after) / 2
                before = after
                solves.append(s)
            last = tracer.clock() - began
            done += 1
    finally:
        tracer.restore()


def _set_up(cases, dep_seed, tracer, traced, reference):
    """Builds the instances SETUP_REPEATS times; returns the last copies,
    the scaled set-up time of each pass and its generate_dependencies
    time as measured."""
    from fragvrp import bench

    OUT.mkdir(parents=True, exist_ok=True)
    times, gen = [], []
    if traced:
        tracer.wrap(bench, "generate_dependencies",
                    "bench.generate_dependencies", "bench", "span")
    try:
        before = reference.run(tracer.clock)
        for _ in range(SETUP_REPEATS):
            tracer.reset()
            start = tracer.clock()
            insts = [build(c, dep_seed, OUT) for c in cases]
            seconds = tracer.clock() - start
            after = reference.run(tracer.clock)
            times.append(seconds * REFERENCE_S * 2 / (before + after))
            before = after
            gen.append(tracer.total.get("bench.generate_dependencies", 0.0))
    finally:
        tracer.restore()
    return insts, times, gen


def _check(solves, insts, optima):
    """Fills in every solve's faults: answer checks against the arc-MILP
    optimum, and work counts against the instance's first solve."""
    first = {}
    for s in solves:
        inst = insts[s.case]
        if s.state is not None:
            s.faults += checks.answer_faults(s.state, inst, optima[s.case])
        ref = first.setdefault(s.case, s.counts)
        if s.counts != ref:
            diff = {k: (ref.get(k), v) for k, v in s.counts.items()
                    if ref.get(k) != v}
            s.faults.append("work counts differ from the first solve: %s"
                            % diff)


def _fastest(solves, case):
    mine = [s for s in solves if s.case == case and s.traced]
    return min(mine, key=lambda s: s.seconds)


def _median_scaled(solves, case, traced, attribute="seconds"):
    return statistics.median(s.scaled(getattr(s, attribute)) for s in solves
                             if s.case == case and s.traced == traced)


def _merge(snaps):
    out = {"calls": {}, "total": {}, "self": {}, "values": {}}
    for snap in snaps:
        for part, table in snap.items():
            for key, value in table.items():
                if key == "master.columns_max":
                    out[part][key] = max(out[part].get(key, 0), value)
                else:
                    out[part][key] = out[part].get(key, 0) + value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snaps, stats_list, layer_of) -> dict:
    """Per-layer metrics from the traced solves of a workload: sums over
    instances, with ratios taken from the sums."""
    m = _merge(snaps)
    calls, total, own, vals = m["calls"], m["total"], m["self"], m["values"]
    out = {}
    for phase in ("lower_bound", "initial_ub", "enumerate", "reduce",
                  "final_milp"):
        out["driver.%s_s" % phase] = sum(
            st.get("wall_times", {}).get(phase, 0.0) for st in stats_list)
    counts = [work_counts(st, {}) for st in stats_list]
    for key in ("pricing_iterations", "gap_rounds", "fragments_enumerated",
                "cuts_fsec", "cuts_tifi", "cuts_tdifi", "cuts_rcc"):
        out["driver." + key] = sum(c[key] for c in counts)
    for name in ("pricing.solve_pricing", "master.solve_relaxation",
                 "master.solve_integer", "lpback.solve_lp",
                 "lpback.solve_milp", "cuts.vmin",
                 "scheduling.schedule_routes", "pricing.extend_label",
                 "enumeration.extend_label"):
        out[name + ".calls"] = calls.get(name, 0)
    for name in ("pricing.solve_pricing", "cuts.separate_fsec",
                 "scheduling.schedule_routes", "master.add_cut",
                 "master.add_fragments", "lpback.solve_lp",
                 "lpback.solve_milp", "enumeration.enumerate_fragments",
                 "enumeration.reduce_by_route_bound",
                 "enumeration.reduce_by_resolve"):
        out[name + ".s"] = total.get(name, 0.0)
    for name in ("cuts.vmin", "master.solve_relaxation",
                 "master.solve_integer"):
        out[name + ".self_s"] = own.get(name, 0.0)
    out["preprocess.s"] = total.get("preprocess", 0.0)
    out["cuts.separate_other.s"] = sum(
        total.get("cuts." + k, 0.0)
        for k in ("separate_tifi", "separate_tdifi", "separate_rcc"))
    for key in ("pricing.labels_completed", "pricing.columns",
                "cuts.fsec_found", "enumeration.kept",
                "enumeration.survivors", "master.columns_max"):
        out[key] = vals.get(key, 0)
    out["pricing.column_yield"] = _ratio(out["pricing.columns"],
                                         out["pricing.labels_completed"])
    out["cuts.fsec_yield"] = _ratio(out["cuts.fsec_found"],
                                    out["cuts.vmin.calls"])
    out["scheduling.schedule_routes.ok_ratio"] = _ratio(
        vals.get("scheduling.ok", 0),
        out["scheduling.schedule_routes.calls"])
    out["enumeration.survival_ratio"] = _ratio(out["enumeration.survivors"],
                                               out["enumeration.kept"])
    busy = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in own.items():
        busy[layer_of[name]] += seconds
    for layer in LAYERS:
        out[layer + ".share"] = _ratio(busy[layer], total.get("driver.run"))
    return out


def run_workload(name, seed, seconds, traced, dep_seed=7):
    """Runs one workload; returns (result object, per-instance report)."""
    from fragvrp import oracle

    cases = WORKLOADS[name]
    tracer = Tracer()
    reference = Reference()
    insts, setup_times, gen_times = _set_up(cases, dep_seed, tracer, traced,
                                            reference)
    gen_calls = tracer.calls.get("bench.generate_dependencies", 0)

    rng = random.Random(seed)
    solves = []
    start = tracer.clock()
    _rounds(insts, rng, tracer, False, seconds / 2 if traced else seconds,
            start, MIN_ROUNDS, solves, reference)
    if traced:
        _rounds(insts, rng, tracer, True, seconds, start, 1, solves,
                reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the reference answers, outside every timed region
    optima, report, correct = [], [], True
    for case, inst in zip(cases, insts):
        start = tracer.clock()
        lb, ub, sol = oracle.arc_model_solve(inst)
        arc_s = tracer.clock() - start
        if sol is None or round(lb) != round(ub) or checks.violations(
                sol.routes, sol.start_times, sol.orders, inst):
            correct = False     # no trusted optimum to judge against
        optima.append(ub)
        report.append({"case": case.label, "dep_seed": dep_seed,
                       "arc_milp_optimum": ub, "arc_milp_s": arc_s})
    _check(solves, insts, optima)

    failed = [s for s in solves if s.faults]
    cases_i = range(len(cases))
    solve_s = [_median_scaled(solves, i, False) for i in cases_i]
    first_ub_s = [_median_scaled(solves, i, False, "first_ub_s")
                  for i in cases_i]
    for i, row in enumerate(report):
        mine = [s for s in solves if s.case == i and not s.traced]
        row.update(ub=mine[0].state.ub_sol if mine[0].state else None,
                   solve_s=solve_s[i], first_ub_s=first_ub_s[i],
                   wall_s=[s.seconds for s in mine],
                   reference_s=[s.ref_s for s in mine],
                   counts=mine[0].counts)
    if traced:
        fast = [_fastest(solves, i) for i in cases_i]
        metrics = layer_metrics([s.snapshot for s in fast],
                                [s.state.stats if s.state else {}
                                 for s in fast], tracer.layer)
        metrics["bench.generate_dependencies.s"] = statistics.median(
            gen_times)
        metrics["bench.generate_dependencies.calls"] = gen_calls
        metrics["trace.overhead_s"] = sum(
            _median_scaled(solves, i, True) for i in cases_i) - sum(solve_s)
        metrics["host.reference_s"] = statistics.median(
            s.ref_s for s in solves)
        units = dict(PER_LAYER)
        _write_trace(name, seed, cases, solves, tracer, fast)
    else:
        metrics = {
            "solve_s": sum(solve_s),
            "first_ub_s": sum(first_ub_s),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    result = {
        "correct": correct and not failed,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    faults = ["%s: %s" % (cases[s.case].label, f)
              for s in failed for f in s.faults]
    return result, report, faults


def _write_trace(name, seed, cases, solves, tracer, fastest):
    """Writes every traced solve's spans, once, at the end of the run."""
    doc = {"workload": name, "seed": seed, "solves": []}
    for s in solves:
        if not s.traced:
            continue
        spans = tracer.spans[s.spans[0]:s.spans[1]]
        base = spans[0][1] if spans else 0.0
        doc["solves"].append({
            "case": cases[s.case].label,
            "fastest": any(s is f for f in fastest),
            "seconds": s.seconds,
            "spans": [{"name": n, "start": a - base, "end": b - base,
                       "parent": None if p is None else p - s.spans[0]}
                      for n, a, b, p in spans],
        })
    path = OUT / ("trace-%s-seed%d.json" % (name, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

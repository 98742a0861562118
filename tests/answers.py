"""Answer fingerprints: what the solver answers on a fixed instance list.

    PYTHONPATH=src python tests/answers.py write OUT [--slice]
    PYTHONPATH=src python tests/answers.py diff A B [--answers]

``write`` solves every instance of the list with ``driver.run`` under the
default ``SolverConfig`` and writes one JSON file, a fingerprint per
solve: status, lb, ub, ``stats`` without ``wall_times`` and without each
round's ``milp_s``, the routes, and a digest of every
``lpback.solve_lp`` and ``lpback.solve_milp`` call, inputs and result,
taken by wrapping the two functions.  The MILP's ``time_limit``
argument, the time left to the deadline, is the one input left out.
Instances with at most ORACLE_MAX tasks are also solved by
``oracle.brute_force_optimal``; its optimum goes into the file, and
``write`` exits 1 when the solve's bracket does not hold it.  No time
enters the file, so two source trees that answer alike write the same
file.  ``diff`` prints each field that differs and exits 1 when any
does.  ``diff --answers`` compares only the answers (ANSWER: status,
lb, ub and the oracle's optimum), prints each that differs, and exits 1
only then; it also prints how many solves differ in their path (PATH:
stats, routes or LP digests), which a change to pricing or to the cuts
may move without moving an answer.

The list (LIST, ``--slice`` takes SLICE):

* the seven perfbench instances, dependency seed 7;
* S101-S103 x the six dependency kinds at sigma 0.2, n 20, seed 7;
* ``support.random_instance(default_rng(s), n)`` for n 6-8, s < 200.

The Solomon-based instances are built in memory the way
``perfbench.workloads.build`` builds them, with a JSON round trip in
place of its file.  Run the script from the tree it should measure: it
puts that tree's ``src`` first on the import path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _p in (str(ROOT), str(ROOT / "src"), str(ROOT / "tests")):
    if _p in sys.path:
        sys.path.remove(_p)
    sys.path.insert(0, _p)

import numpy as np  # noqa: E402

from fragvrp import bench, driver, lpback  # noqa: E402
from fragvrp.instance import (SolverConfig, instance_from_dict,  # noqa: E402
                              instance_to_dict)
from fragvrp.oracle import brute_force_optimal  # noqa: E402

import support  # noqa: E402

ORACLE_MAX = 8
ANSWER = ("status", "lb", "ub", "oracle")
PATH = ("stats", "routes", "lp")
DEP_SEED = 7
DATA = ROOT / "src" / "fragvrp" / "data"


def _solomon(solomon, kind, sigma, n):
    data = bench.load_solomon(DATA / ("%s.txt" % solomon))
    inst = bench.generate_dependencies(data.instance(take=n), kind, sigma,
                                       DEP_SEED)
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))


def _builders():
    """name -> zero-argument builder, in list order."""
    from perfbench.workloads import WORKLOADS

    out = {}
    for cases in WORKLOADS.values():
        for c in cases:
            out["perfbench %s" % c.label] = (
                lambda c=c: _solomon(c.solomon, c.kind, c.sigma, c.n))
    for solomon in ("S101", "S102", "S103"):
        for kind in support.SIX_KINDS:
            out["%s %s s0.2 n20" % (solomon, kind)] = (
                lambda s=solomon, k=kind: _solomon(s, k, 0.2, 20))
    for n in (6, 7, 8):
        for seed in range(200):
            out["random n%d seed %d" % (n, seed)] = (
                lambda n=n, s=seed: support.random_instance(
                    np.random.default_rng(s), n))
    return out


LIST = tuple(_builders())
# a tier-1 slice, each solve under 0.3 s: an integral LP, a MILP first
# incumbent, two with a gap round at ub - 1, an infeasible lower bound
SLICE = ("perfbench S101-synchronization-s0.5-n15", "random n6 seed 3",
         "random n7 seed 7", "random n7 seed 0", "random n8 seed 7")


def _feed(h, v):
    """Hashes v exactly: arrays by dtype, shape and bytes, floats by hex."""
    if isinstance(v, np.ndarray):
        h.update(b"nd%s%r" % (v.dtype.str.encode(), v.shape))
        h.update(np.ascontiguousarray(v).tobytes())
    elif isinstance(v, array):
        h.update(b"ar" + v.typecode.encode() + v.tobytes())
    elif isinstance(v, (list, tuple)):
        h.update(b"(%d" % len(v))
        for item in v:
            _feed(h, item)
        h.update(b")")
    elif isinstance(v, (float, np.floating)):
        h.update(b"f" + float(v).hex().encode())
    else:
        h.update(b"r" + repr(v).encode())


class _Digests:
    """Wraps lpback.solve_lp and solve_milp while active; per function,
    the call count and one running SHA-256 over inputs and results."""

    FIELDS = {"solve_lp": ("status", "objective", "x", "duals"),
              "solve_milp": ("status", "objective", "x", "best_bound")}

    def __enter__(self):
        self.saved = {}
        self.state = {}
        for name, fields in self.FIELDS.items():
            fn = self.saved[name] = getattr(lpback, name)
            h = hashlib.sha256()
            self.state[name] = [0, h]

            def wrapped(*args, _fn=fn, _name=name, _fields=fields, **kw):
                kw_in = {k: v for k, v in kw.items() if k != "time_limit"}
                res = _fn(*args, **kw)
                st = self.state[_name]
                st[0] += 1
                _feed(st[1], [list(args), sorted(kw_in.items()),
                              [getattr(res, f) for f in _fields]])
                return res

            setattr(lpback, name, wrapped)
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(lpback, name, fn)

    def result(self):
        return {name: {"calls": n, "sha256": h.hexdigest()}
                for name, (n, h) in self.state.items()}


def _num(x):
    return x if math.isfinite(x) else None


def fingerprint(inst):
    """One solve's fingerprint, with the oracle's optimum when the
    instance is small enough."""
    with _Digests() as dig:
        st = driver.run(inst, SolverConfig())
    stats = {k: v for k, v in st.stats.items() if k != "wall_times"}
    stats["rounds"] = [{k: v for k, v in r.items() if k != "milp_s"}
                       for r in stats.get("rounds", [])]
    fp = {"status": st.status, "lb": _num(st.lb_sol), "ub": _num(st.ub_sol),
          "stats": stats,
          "routes": [list(r) for r in st.incumbent.routes]
          if st.incumbent else None,
          "lp": dig.result()}
    if inst.n <= ORACLE_MAX:
        fp["oracle"] = _num(brute_force_optimal(inst)[0])
    return json.loads(json.dumps(fp))


def oracle_fault(fp):
    """Why the solve contradicts the oracle, or None when it agrees."""
    if "oracle" not in fp:
        return None
    opt = math.inf if fp["oracle"] is None else fp["oracle"]
    lb = math.inf if fp["lb"] is None else fp["lb"]
    ub = math.inf if fp["ub"] is None else fp["ub"]
    if fp["status"] == "optimal" and ub != opt:
        return "optimal at %s, oracle %s" % (ub, opt)
    if fp["status"] == "infeasible" and opt != math.inf:
        return "infeasible, oracle %s" % opt
    if not lb - 1e-6 <= opt <= ub:
        return "bracket [%s, %s] misses oracle %s" % (lb, ub, opt)
    return None


def fingerprints(names=LIST):
    build = _builders()
    return {name: fingerprint(build[name]()) for name in names}


def _walk(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            if k not in a or k not in b:
                out.append("%s.%s: %s" % (path, k,
                                          "only in B" if k in b else
                                          "only in A"))
            else:
                _walk(a[k], b[k], "%s.%s" % (path, k), out)
    elif a != b:
        out.append("%s: %s != %s" % (path, json.dumps(a), json.dumps(b)))


def diff(a, b):
    """One line per differing field of two fingerprint maps."""
    out = []
    _walk(a, b, "", out)
    return [line[1:] for line in out]


def answers_only(doc):
    """The fingerprint map cut down to the ANSWER fields."""
    return {name: {k: v for k, v in fp.items() if k in ANSWER}
            for name, fp in doc.items()}


def path_changes(a, b):
    """Per PATH field, how many solves of both maps differ in it."""
    both = a.keys() & b.keys()
    return {field: sum(a[name].get(field) != b[name].get(field)
                       for name in both)
            for field in PATH}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write")
    w.add_argument("out")
    w.add_argument("--slice", action="store_true")
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    d.add_argument("--answers", action="store_true",
                   help="compare status, lb, ub and the oracle optimum "
                        "only; count the solves whose path differs")
    args = ap.parse_args(argv)
    if args.cmd == "diff":
        docs = []
        for path in (args.a, args.b):
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        if args.answers:
            print("solves that differ: %s" % ", ".join(
                "%d in %s" % (n, field)
                for field, n in path_changes(*docs).items()))
            docs = [answers_only(doc) for doc in docs]
        lines = diff(*docs)
        for line in lines:
            print(line)
        print("%d differences" % len(lines), file=sys.stderr)
        return 1 if lines else 0
    names = SLICE if args.slice else LIST
    build = _builders()
    doc, faults = {}, 0
    for i, name in enumerate(names, 1):
        fp = doc[name] = fingerprint(build[name]())
        fault = oracle_fault(fp)
        if fault:
            faults += 1
            print("ORACLE %s: %s" % (name, fault), file=sys.stderr)
        if i % 50 == 0:
            print("%d/%d solved" % (i, len(names)), file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d solves, %d oracle faults" % (len(doc), faults),
          file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line frontend.

Exit codes: 0 solved or done, 1 stopped at a gap/time/fragment limit with
bounds emitted, 2 infeasible (or a failed verification), 3 input error,
4 internal error.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .bench import generate_dependencies, parse_solomon, run_batch
from .driver import check_solution, incumbent_from_json, run, \
    solution_to_json
from .instance import SolverConfig, load_instance, save_instance, \
    validate
from .oracle import arc_model_solve, brute_force_optimal

_LIMIT_STATUSES = ("gap-limit", "time-limit", "fragment-limit")


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    d = SolverConfig()
    p = _Parser(prog="fragvrp",
                description="Exact solver for capacitated routing with "
                            "time windows and temporal dependencies.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run the full bounded solver")
    s.add_argument("instance")
    s.add_argument("--time-limit", type=float, default=d.time_limit,
                   help="seconds for the whole solve")
    s.add_argument("--f-max", type=int, default=d.f_max,
                   help="fragments one enumeration may keep, at most; when "
                        "the pool at ub - 1 passes it, rounds fall back to "
                        "the gap schedule, and a round whose pool passes "
                        "it ends the solve with fragment-limit")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_solve)

    o = sub.add_parser("oracle", help="exhaustive reference solve")
    o.add_argument("instance")
    o.set_defaults(func=_cmd_oracle)

    a = sub.add_parser("arc", help="compact arc-variable MILP solve")
    a.add_argument("instance")
    a.set_defaults(func=_cmd_arc)

    g = sub.add_parser("generate",
                       help="build an instance from Solomon-style data")
    g.add_argument("--solomon", required=True)
    g.add_argument("--take", type=int, default=None)
    g.add_argument("--kind", required=True)
    g.add_argument("--sigma", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    v = sub.add_parser("verify", help="check a solution file")
    v.add_argument("instance")
    v.add_argument("solution")
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bench", help="run a manifest of instances")
    b.add_argument("manifest")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_bench)
    return p


def _load(path):
    try:
        inst = load_instance(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
        raise _InputError(f"cannot load instance {path}: {exc}") from exc
    problems = validate(inst)
    if problems:
        raise _InputError(f"invalid instance {path}: {problems[0]}")
    return inst


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _cmd_solve(args) -> int:
    inst = _load(args.instance)
    try:
        cfg = SolverConfig(**{f.name: getattr(args, f.name)
                              for f in dataclasses.fields(SolverConfig)})
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    st = run(inst, cfg)
    _emit(solution_to_json(st), args.out)
    if st.status == "optimal":
        return 0
    if st.status == "infeasible":
        return 2
    print(f"stopped: {st.status}, bounds [{st.lb_sol}, {st.ub_sol}]",
          file=sys.stderr)
    return 1


def _cmd_oracle(args) -> int:
    inst = _load(args.instance)
    try:
        cost, inc = brute_force_optimal(inst)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if inc is None:
        print("infeasible", file=sys.stderr)
        return 2
    doc = {"cost": cost,
           "routes": [list(r) for r in inc.routes],
           "start_times": {str(k): v for k, v in
                           sorted(inc.start_times.items())}}
    print(json.dumps(doc, indent=1))
    return 0


def _cmd_arc(args) -> int:
    inst = _load(args.instance)
    lb, ub, inc = arc_model_solve(inst)
    doc = {"lb": None if math.isinf(lb) else lb,
           "ub": None if math.isinf(ub) else ub,
           "routes": None if inc is None else [list(r) for r in inc.routes]}
    print(json.dumps(doc, indent=1))
    if math.isinf(lb) and math.isinf(ub):
        print("infeasible", file=sys.stderr)
        return 2
    return 0 if math.isfinite(ub) else 1


def _cmd_generate(args) -> int:
    try:
        with open(args.solomon, "r", encoding="utf-8") as fh:
            data = parse_solomon(fh.read())
        skel = data.instance(take=args.take)
        inst = generate_dependencies(skel, args.kind, args.sigma, args.seed)
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    save_instance(inst, args.out)
    print(f"wrote {args.out}: {inst.n} tasks, {len(inst.deps)} dependencies",
          file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    inst = _load(args.instance)
    doc = _read_json(args.solution)
    try:
        inc = incumbent_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"malformed solution file: {exc}") from exc
    if inst.n > 0 and not inc.routes:
        print("verification failed: no routes in solution", file=sys.stderr)
        return 2
    if not check_solution(inc, inst):
        print("verification failed: solution violates the instance",
              file=sys.stderr)
        return 2
    claimed = doc.get("ub")
    actual = sum(
        int(inst.c[0, r[0]]) + int(inst.c[r[-1], 0])
        + sum(int(inst.c[a, b]) for a, b in zip(r, r[1:]))
        for r in inc.routes if r)
    if claimed is not None and int(round(claimed)) != actual:
        print(f"verification failed: claimed cost {claimed}, "
              f"actual {actual}", file=sys.stderr)
        return 2
    print("verification passed")
    return 0


def _cmd_bench(args) -> int:
    try:
        table = run_batch(args.manifest)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise _InputError(f"cannot run manifest {args.manifest}: {exc}") \
            from exc
    _emit(table, args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:   # noqa: BLE001 - last-resort exit code mapping
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the fragvrp solver: time to a proven optimum.

    python3 perfbench/run.py --workload many-deps --seed 1 --seconds 36
    python3 perfbench/run.py --workload all

Run it from the root of a source tree.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones and writes the spans
to ``perfbench/out/``.  The last line of the output is one JSON object:
correct, attempted, failed and metrics.  The exit code is 0 when the run
finished, whatever its checks found; 2 when the tree cannot be
benchmarked.  ``--workload all`` runs every workload in its own process,
one after the other.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _args(argv):
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=7,
                    help="orders the solves within each round")
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="time spent on rounds of solves (at least two)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dep-seed", type=int, default=7,
                    help="seed of generate_dependencies for every instance")
    return ap.parse_args(argv)


def _run_all(args):
    from perfbench.workloads import WORKLOADS

    code = 0
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dep-seed", str(args.dep_seed)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None):
    # one thread per process; the solver is single threaded by design
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT))
    import perfbench  # noqa: F401 - puts the tree's src on the path

    args = _args(argv)
    if not (ROOT / "src" / "fragvrp" / "data").is_dir():
        print("perfbench: no fragvrp source tree at %s" % ROOT,
              file=sys.stderr)
        return 2
    try:
        from perfbench.measure import run_workload
        import fragvrp.driver  # noqa: F401
    except ImportError as exc:
        print("perfbench: cannot import the solver: %s" % exc,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    result, report, faults = run_workload(args.workload, args.seed,
                                          args.seconds, bool(args.trace),
                                          args.dep_seed)
    for fault in faults:
        print("FAILED %s" % fault, file=sys.stderr)
    for row in report:
        print("instance %s" % json.dumps(row, sort_keys=True))
    for key, m in result["metrics"].items():
        print("%-40s %14.6f %s" % (key, m["value"], m["unit"]))
    print("attempted %d, failed %d, correct %s"
          % (result["attempted"], result["failed"], result["correct"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the set-up that builds their instances.

Every instance is generated from a bundled Solomon file: keep the first
n tasks, then add dependencies with ``generate_dependencies``.  The
dependency seed is fixed per run (7 unless asked otherwise), so every run
solves the same instances: with an exact method the solve time moves by
a factor of six from one dependency draw to the next (S101
synchronization, sigma 0.5, n 20: 0.9 s to 5.2 s over seeds 1 to 6), far
beyond any bound a regression check could use.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "fragvrp" / "data"
OUT = ROOT / "perfbench" / "out"


@dataclasses.dataclass(frozen=True)
class Case:
    solomon: str
    kind: str
    sigma: float
    n: int

    @property
    def label(self) -> str:
        return "%s-%s-s%g-n%d" % (self.solomon, self.kind, self.sigma, self.n)


# Why each workload exists, and the layers it loads, is in README.md.
WORKLOADS = {
    "many-deps": (
        Case("S101", "synchronization", 0.5, 15),
        Case("S102", "min-diff", 0.5, 15),
        Case("S102", "max-diff", 0.5, 15),
    ),
    "few-deps": (
        Case("S102", "synchronization", 0.1, 25),
        Case("S101", "synchronization", 0.1, 25),
    ),
    "gap-loop": (
        Case("S101", "max-diff", 0.2, 22),
        Case("S101", "synchronization", 0.2, 20),
    ),
}


def build(case: Case, dep_seed: int, out_dir: Path):
    """Parses, truncates, adds dependencies, saves and reloads one
    instance; the solver only ever sees the reloaded copy."""
    from fragvrp import bench
    from fragvrp.instance import load_instance, save_instance

    data = bench.load_solomon(DATA / ("%s.txt" % case.solomon))
    inst = bench.generate_dependencies(data.instance(take=case.n), case.kind,
                                       case.sigma, dep_seed)
    path = out_dir / ("%s-seed%d.json" % (case.label, dep_seed))
    save_instance(inst, path)
    return load_instance(path)

"""Exact solver for the CVRPTW with temporal dependencies.

The solver works on fragments: task sequences whose endpoints are the depot
or tasks carrying a temporal dependency.  A lower bound comes from column
and row generation over a fragment master problem, an upper bound from a
restricted integer program, and optimality is certified by enumerating all
fragments whose reduced cost fits within the remaining gap.
"""

from .instance import (Instance, SolverConfig, Task, TemporalDependency,
                       dependency_from_type, load_instance, save_instance,
                       validate)
from .fragments import Fragment, Infeasible, build_fragment
from .preprocess import preprocess
from .driver import (BoundsState, check_solution, incumbent_from_json, run,
                     solution_to_json)
from .oracle import arc_model_solve, brute_force_optimal
from .bench import (SolomonData, SolomonFormatError, generate_dependencies,
                    load_solomon, parse_solomon, run_batch)

__all__ = [
    "Instance", "SolverConfig", "Task", "TemporalDependency",
    "dependency_from_type", "load_instance", "save_instance", "validate",
    "Fragment", "Infeasible", "build_fragment", "preprocess",
    "BoundsState", "check_solution", "incumbent_from_json", "run",
    "solution_to_json",
    "arc_model_solve", "brute_force_optimal",
    "SolomonData", "SolomonFormatError", "generate_dependencies",
    "load_solomon", "parse_solomon", "run_batch",
]

__version__ = "0.1.0"

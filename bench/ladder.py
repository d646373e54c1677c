"""Seeded instance ladder and the benchmark's workload definitions.

A ladder rung tiles the four periods of the G2 seed-1 oracle instance
``period_reps`` times and carries ``n_scenarios`` equiprobable scenarios that
cycle through the base scenarios. Demand gets independent +/-10% uniform
noise per (scenario, bus, period) drawn from the ladder seed; availability is
tiled unchanged.

Run as a script it performs the benchmark's set-up step: it imports the
solver, generates one workload's instance and writes it with
``storage.save_instance``::

    python3 bench/ladder.py --workload pha_s8t24 --ladder-seed 0 --out inst.json
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, "bench", "_runs")  # scratch space of runs; git-ignored


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_scenarios: int
    period_reps: int
    iterations: int  # PHA iteration budget
    relax: bool = False  # convex mode: PHAConfig(relax_integrality=True)

    @property
    def rung(self) -> str:
        """Instance key of the workload's instance."""
        return f"S{self.n_scenarios}T{4 * self.period_reps}"

    @property
    def reference_kind(self) -> str:
        """The extensive-form optimum that bounds are scored against: MILP or LP relaxation."""
        return "lp" if self.relax else "milp"


# PHA budgets include the first scheduled incumbent attempt (iteration 5) and
# end on another (the last iteration). Seven iterations keep an integer PHA
# solve under 20 s on two cores; its iteration-7 incumbent is the one PHA finds
# at iteration 10 (ub_ratio 1.23), while the iteration-5 candidate is 12x the
# optimum.
WORKLOADS = {w.name: w for w in (
    Workload("pha_s8t24", n_scenarios=8, period_reps=6, iterations=7),
    Workload("pha_convex_s4t168", n_scenarios=4, period_reps=42, iterations=6, relax=True),
)}


def import_flexcep():
    """Import the solver package from this checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import flexcep.oracle
    import flexcep.storage
    return flexcep


def scale_instance(base, n_scenarios: int, period_reps: int, seed: int):
    """Deterministic ladder rung built from ``base`` (see the module docstring)."""
    if n_scenarios < 1 or period_reps < 1:
        raise ValueError("a rung needs at least one scenario and one period block")
    from flexcep.core import Scenario

    rng = np.random.default_rng(seed)
    scenarios = []
    for k in range(n_scenarios):
        src = base.scenarios[k % len(base.scenarios)]
        demand = np.tile(src.demand, (1, period_reps))
        demand = demand * rng.uniform(0.9, 1.1, size=demand.shape)
        availability = np.tile(src.availability, (1, 1, period_reps))
        scenarios.append(Scenario(id=f"s{k + 1}", probability=1.0 / n_scenarios,
                                  demand=demand, availability=availability))
    name = f"{base.name}-S{n_scenarios}-T{base.num_periods * period_reps}-seed{seed}"
    return dataclasses.replace(base, name=name, scenarios=tuple(scenarios))


def workload_instance(workload: Workload, ladder_seed: int):
    fx = import_flexcep()
    return scale_instance(fx.oracle.generate("G2", 1), workload.n_scenarios,
                          workload.period_reps, ladder_seed)


def write_instance(workload: Workload, ladder_seed: int, path: str) -> None:
    import_flexcep().storage.save_instance(workload_instance(workload, ladder_seed), path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--ladder-seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    import_flexcep()
    import flexcep.cli  # noqa: F401  (the solve's imports count as set-up)

    write_instance(WORKLOADS[args.workload], args.ladder_seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference optima that the benchmark scores solves against.

One entry per (rung, kind, ladder seed): the extensive-form MILP optimum
(``milp``, for EF and integer PHA workloads) or the optimum of its LP
relaxation (``lp``, for convex-mode PHA). Each entry keeps the SHA-256 of the
instance file it was computed from, so a change to the generator or to the
instance format shows up as a stale entry instead of a wrong reference.

References are computed here, never inside a benchmark run. To add or refresh
one for another ladder seed::

    python3 bench/reference.py --workload pha_s8t24 --workload pha_convex_s4t168 \\
        --ladder-seed 3
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

from ladder import RUNS_DIR, WORKLOADS, Workload, import_flexcep, write_instance

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class MissingReference(LookupError):
    pass


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference_key(workload: Workload, ladder_seed: int) -> str:
    return f"{workload.rung}/{workload.reference_kind}/seed{ladder_seed}"


def load_references(path: str = REFERENCE_FILE) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def lookup(workload: Workload, ladder_seed: int, instance_sha: str,
           path: str = REFERENCE_FILE) -> float:
    """The cached optimum for this instance; raises MissingReference otherwise."""
    key = reference_key(workload, ladder_seed)
    entry = load_references(path).get(key)
    hint = (f"run: python3 bench/reference.py --workload {workload.name} "
            f"--ladder-seed {ladder_seed}")
    if entry is None:
        raise MissingReference(f"no reference optimum for {key}; {hint}")
    if entry["sha256"] != instance_sha:
        raise MissingReference(f"reference {key} was computed from another instance "
                               f"file (generator or format changed); {hint}")
    return float(entry["objective"])


def compute_reference(workload: Workload, ladder_seed: int) -> dict:
    """Solve the instance file's extensive form (relaxed for ``lp``) to optimality."""
    import_flexcep()
    from flexcep import storage
    from flexcep.build import build_extensive_form
    from flexcep.canonical import OPTIMAL, relax_integrality
    from flexcep.solvers import solve

    os.makedirs(RUNS_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        path = os.path.join(tmp, "instance.json")
        write_instance(workload, ladder_seed, path)
        sha = file_sha256(path)
        inst = storage.load_instance(path)
    model, _ = build_extensive_form(inst)
    if workload.reference_kind == "lp":
        model = relax_integrality(model)
    res = solve(model)
    if res.status != OPTIMAL:
        raise RuntimeError(f"reference solve for {workload.name} seed {ladder_seed} "
                           f"ended '{res.status}'")
    return {"objective": res.objective, "sha256": sha}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--ladder-seed", type=int, action="append", required=True)
    args = ap.parse_args(argv)
    refs = load_references()
    for name in args.workload:
        for seed in args.ladder_seed:
            workload = WORKLOADS[name]
            key = reference_key(workload, seed)
            refs[key] = compute_reference(workload, seed)
            print(f"{key}: {refs[key]['objective']!r}")
    with open(REFERENCE_FILE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Solve benchmark: time ``flexcep solve`` on ladder workloads, check its answers.

Each run drives ``flexcep.cli.cmd_solve(RunManifest(...))`` in-process, the
call ``flexcep solve`` makes, with the CLI defaults (rho 0.1, beta 0.1,
pha-gap 1e-3, one worker, single-threaded HiGHS). It solves the workload's
instance repeatedly for about ``--seconds`` (at least twice, so report
directories can be compared), checks every solve against the cached reference
optimum, and prints a summary followed by one JSON line::

    python3 bench/run.py --workload pha_s8t24 --seed 0 --seconds 55 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced solve and reports the per-layer metrics of the traced
ones (see ``spans.py``). The exit code is 1 when any check fails and 2 when
the benchmark cannot run at all (no ``src/flexcep`` next to it, or no
reference for the instance).
"""

from __future__ import annotations

import argparse
import dataclasses
import filecmp
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import reference
import spans
from ladder import RUNS_DIR, SRC, WORKLOADS, Workload, import_flexcep

LADDER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ladder.py")
# Set-ups are timed before the solves and again after them, so that their
# median samples the host's speed over the whole run, not over its first seconds.
SETUP_BEFORE, SETUP_AFTER = 4, 5
MIN_SOLVES = 2
REL_TOL = 1e-6
OK_CODES = (0, 3)

END_TO_END_UNITS = {
    "solve_s": "s", "first_incumbent_s": "s", "lb_ratio": "ratio", "ub_ratio": "ratio",
    "peak_rss_mb": "MB", "setup_s": "s",
}


@dataclasses.dataclass
class Solve:
    out_dir: str
    wall_s: float = 0.0
    first_bound_s: float | None = None
    code: int | None = None
    lower: float | None = None
    upper: float | None = None
    gap: float | None = None
    problems: list = dataclasses.field(default_factory=list)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(workload: Workload, ladder_seed: int, work: str,
           indices: range) -> tuple[list[float], list[str]]:
    """Generate and write the instance in a fresh interpreter once per index; time each.

    Every repeat writes its own file, so the caller can check they are byte-identical.
    """
    times, paths = [], []
    for i in indices:
        path = os.path.join(work, f"instance{i}.json")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, LADDER, "--workload", workload.name,
                               "--ladder-seed", str(ladder_seed), "--out", path],
                              capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        paths.append(path)
    return times, paths


# ---------------------------------------------------------------------------
# One solve
# ---------------------------------------------------------------------------


def make_manifest(workload: Workload, instance_path: str, out_dir: str, seed: int):
    from flexcep.cli import RunManifest
    from flexcep.pha import PHAConfig

    pha = PHAConfig(rho_scale=0.1, beta_scale=0.1, max_iterations=workload.iterations,
                    gap_threshold=1e-3, workers=1, relax_integrality=workload.relax)
    return RunManifest(instance_path=instance_path, method="pha",
                       out_dir=out_dir, seed=seed, pha=pha)


# The call whose first non-None return certifies the first bound pair.
FIRST_BOUND_HOOK = spans.Hook("flexcep.pha", "exact_candidate_evaluation", "first_bound")


_BOUNDS_LINE = re.compile(r"^bounds:\s+lower=(\S+) upper=(\S+) gap=(\S+)$", re.M)


def _num(text: str) -> float | None:
    return None if text == "n/a" else float(text)


def run_solve(workload: Workload, instance_path: str, out_dir: str, seed: int,
              tracer: spans.Tracer | None = None) -> tuple[Solve, object]:
    """One ``cmd_solve`` call. Untraced solves hook only the first-bound call;
    traced solves hook every layer. Returns the solve and the root span."""
    from flexcep.cli import cmd_solve

    solve = Solve(out_dir=out_dir)
    manifest = make_manifest(workload, instance_path, out_dir, seed)
    summary = io.StringIO()
    root = None
    if tracer is None:
        first = []

        def wrap(hook, original):
            def timed(*args, **kwargs):
                result = original(*args, **kwargs)
                if not first and result is not None:
                    first.append(time.perf_counter())
                return result
            return timed

        hooks, wrapper = [FIRST_BOUND_HOOK], wrap
    else:
        hooks, wrapper = spans.HOOKS, spans.span_wrapper(tracer)
    try:
        with spans.hooked(hooks, wrapper) as missing:
            if tracer is None and missing:
                solve.problems += [reason for _, reason in missing.values()]
            t0 = time.perf_counter()
            if tracer is None:
                solve.code = cmd_solve(manifest, out=summary)
            else:
                with tracer.span("cli.solve") as root:
                    root.attrs["missing"] = missing
                    solve.code = cmd_solve(manifest, out=summary)
            solve.wall_s = time.perf_counter() - t0
    except Exception as exc:  # a crash is a failed solve, not a benchmark crash
        traceback.print_exc()
        solve.problems.append(f"cmd_solve raised {type(exc).__name__}: {exc}")
        return solve, root
    if tracer is None:
        if first:
            solve.first_bound_s = first[0] - t0
        else:
            solve.problems.append("no candidate evaluation returned a bound")
    match = _BOUNDS_LINE.search(summary.getvalue())
    if match:
        solve.lower, solve.upper, solve.gap = (_num(g) for g in match.groups())
    return solve, root


def check_solve(solve: Solve, ref: float) -> list[str]:
    """Correctness of one solve against the reference optimum."""
    problems = []
    if solve.code not in OK_CODES:
        problems.append(f"exit code {solve.code}, expected one of {OK_CODES}")
    if solve.lower is None or solve.upper is None:
        return problems + ["the report has no lower/upper bound pair"]
    tol = REL_TOL * abs(ref)
    if not (solve.lower <= ref + tol and ref - tol <= solve.upper):
        problems.append(f"bounds [{solve.lower!r}, {solve.upper!r}] do not enclose "
                        f"the reference {ref!r}")
    return problems


def same_reports(a: str, b: str) -> bool:
    files_a, files_b = sorted(os.listdir(a)), sorted(os.listdir(b))
    if files_a != files_b:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, files_a, shallow=False)
    return not mismatch and not errors


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def solve_loop(workload, instance_path, work, seed, seconds, traced: bool):
    """Solve at least ``MIN_SOLVES`` times, then while another solve of the
    median length still ends within ``seconds``.

    Traced runs alternate untraced and traced solves of the same instance.
    Returns (solves, [(traced solve, tracer, root span)]).
    """
    solves, traced_solves = [], []
    begin = time.perf_counter()
    while len(solves) < MIN_SOLVES or (time.perf_counter() - begin
                                       + statistics.median(s.wall_s for s in solves)
                                       <= seconds):
        tracer = spans.Tracer() if traced and len(solves) % 2 else None
        solve, root = run_solve(workload, instance_path,
                                os.path.join(work, f"out{len(solves)}"), seed, tracer)
        solves.append(solve)
        if tracer is not None:
            traced_solves.append((solve, tracer, root))
    return solves, traced_solves


def check_all(solves, ref) -> None:
    for solve in solves:
        solve.problems += check_solve(solve, ref)
        if not solve.problems and not same_reports(solves[0].out_dir, solve.out_dir):
            solve.problems.append(f"report directory {solve.out_dir} differs from "
                                  f"{solves[0].out_dir}")


def end_to_end_metrics(solves, setup_times, ref) -> dict:
    ok = [s for s in solves if not s.problems] or solves
    first = ok[0]
    return {
        "solve_s": statistics.median(s.wall_s for s in ok),
        "first_incumbent_s": statistics.median(
            [s.first_bound_s for s in ok if s.first_bound_s is not None] or [0.0]),
        "lb_ratio": (first.lower or 0.0) / ref,
        "ub_ratio": (first.upper or 0.0) / ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def per_layer_metrics(traced_solves) -> dict:
    per_solve = [spans.layer_metrics(tracer, root, root.attrs["missing"])
                 for _, tracer, root in traced_solves]
    out = {}
    for name in spans.PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_solve]
        missing = [v for v in values if isinstance(v, spans.Missing)]
        out[name] = missing[0] if missing else statistics.median(values)
    span_cost = spans.span_cost_s()
    out["trace.overhead_s"] = statistics.median(
        (len(tracer.spans) - 1) * span_cost for _, tracer, _ in traced_solves)
    return out


def json_metrics(values: dict, units: dict) -> dict:
    """The result line's metrics. The line has no field for a missing metric,
    so it carries 0.0; the summary and standard error name the reason."""
    return {name: {"value": 0.0 if isinstance(value, spans.Missing) else float(value),
                   "unit": units[name]}
            for name, value in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="run seed, passed to the solver as its --seed")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ladder-seed", type=int, default=0,
                    help="instance noise seed (needs a cached reference)")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "flexcep")):
        print(f"error: no solver sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(RUNS_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as work:
        setup_times, setup_paths = set_up(workload, args.ladder_seed, work,
                                          range(SETUP_BEFORE))
        instance_path = setup_paths[0]
        import_flexcep()
        try:
            ref = reference.lookup(workload, args.ladder_seed,
                                   reference.file_sha256(instance_path))
        except reference.MissingReference as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        solves, traced_solves = solve_loop(workload, instance_path, work, args.seed,
                                           args.seconds, traced=bool(args.trace))
        check_all(solves, ref)
        more_times, more_paths = set_up(workload, args.ladder_seed, work,
                                        range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER))
        setup_times += more_times
        setup_problems = [] if all(filecmp.cmp(instance_path, p, shallow=False)
                                   for p in setup_paths[1:] + more_paths) else [
            "the ladder generator wrote different files for one seed"]
    failed = [s for s in solves if s.problems]
    for problem in setup_problems + [p for s in failed for p in s.problems]:
        print(f"FAILED: {problem}", file=sys.stderr)

    if args.trace:
        values = per_layer_metrics(traced_solves)
        units = {name: spec[0] for name, spec in spans.PER_LAYER.items()}
        trace_path = os.path.join(RUNS_DIR, f"spans-{workload.name}-seed{args.seed}.json")
        traced_solves[-1][1].dump(trace_path)
        print(f"spans of the last traced solve: {os.path.relpath(trace_path)}")
        print(f"self times of the named spans cover "
              f"{1.0 - values['cli.self_s'] / values['cli.solve_s']:.3%} of cli.solve_s")
    else:
        values = end_to_end_metrics(solves, setup_times, ref)
        units = END_TO_END_UNITS
    for name, value in values.items():
        if isinstance(value, spans.Missing):
            print(f"MISSING: {name}: {value.reason}", file=sys.stderr)
    print(f"workload {workload.name}: {workload.n_scenarios} scenarios x "
          f"{4 * workload.period_reps} periods, ladder seed {args.ladder_seed}, "
          f"reference {ref!r} ({workload.reference_kind})")
    gaps = sorted({s.gap for s in solves if s.gap is not None})
    print(f"  {'gap':<30} {gaps[0] if len(gaps) == 1 else gaps!r}")
    print(f"  {'failed_share':<30} {len(failed) / len(solves):g} "
          f"({len(failed)} of {len(solves)} solves)")
    print(f"  {'solve wall times':<30} {' '.join(f'{s.wall_s:.3f}' for s in solves)} s")
    for name, value in values.items():
        shown = f"missing ({value.reason})" if isinstance(value, spans.Missing) else f"{value:.6g}"
        print(f"  {name:<30} {shown} {units[name]}")
    correct = not failed and not setup_problems
    print(json.dumps({"correct": correct, "attempted": len(solves), "failed": len(failed),
                      "metrics": json_metrics(values, units)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

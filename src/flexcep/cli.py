"""Command-line entry points for batch planning studies.

Subcommands: ``validate`` an instance file, ``solve`` it with the extensive
form or the hedging engine and write the report set, and ``compare-flex`` to
re-solve one instance under alternative flexibility assumptions for a load
type.

Exit codes: 0 solved/converged (or valid), 1 invalid instance or setting,
2 I/O error, 3 stopped at a limit with an incumbent, 4 no feasible
incumbent/infeasible, 5 solver backend failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .build import build_extensive_form
from .canonical import FEASIBLE_WITH_GAP, INFEASIBLE, LIMIT_REACHED, OPTIMAL
from .core import (
    FULL_FLEX,
    INFLEXIBLE,
    InvalidInstanceError,
    TierSpec,
    compare_tiers,
)
from .pha import NO_INCUMBENT, PHAConfig, run_pha
from .report import SolveReport, TraceRow, report_from_solution
from .solvers import (BackendError, SolverConfig, proven_lower_bound, solve,
                      solver_output_to_stderr)
from . import storage

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_LIMIT = 3
EXIT_NO_INCUMBENT = 4
EXIT_BACKEND = 5


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Everything one planning run depends on; identical manifests reproduce."""

    instance_path: str
    method: str  # "ef" | "pha"
    out_dir: str
    seed: int = 0
    solver: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    pha: PHAConfig = dataclasses.field(default_factory=PHAConfig)
    timing: bool = False


def _load_instance(instance_path: str, out):
    """``(instance, EXIT_OK)``, or ``(None, exit code)`` after printing why not."""
    try:
        return storage.load_instance(instance_path), EXIT_OK
    except InvalidInstanceError as exc:
        for v in exc.violations:
            print(v, file=out)
        return None, EXIT_INVALID
    except storage.InstanceFormatError as exc:
        print(exc, file=out)
        return None, EXIT_INVALID
    except OSError as exc:
        print(f"cannot read '{instance_path}': {exc}", file=out)
        return None, EXIT_IO


def cmd_validate(instance_path: str, out=None) -> int:
    """Exit 0 iff the file parses and validates; violations print one per line."""
    return _load_instance(instance_path, sys.stdout if out is None else out)[1]


def _print_summary(report: SolveReport, out) -> None:
    def num(v):
        return "n/a" if v is None else storage.fmt_num(v)

    print(f"instance:    {report.instance_name}", file=out)
    print(f"method:      {report.method}", file=out)
    print(f"status:      {report.status}", file=out)
    print(f"termination: {report.termination}", file=out)
    print(f"objective:   {num(report.objective)}", file=out)
    print(f"bounds:      lower={num(report.lower_bound)} upper={num(report.upper_bound)} "
          f"gap={num(report.gap)}", file=out)
    print(f"incumbent:   {report.incumbent_source or 'n/a'}", file=out)
    for row in report.policies:
        print(f"policy {row.handle}: lhs={storage.fmt_num(row.lhs)} "
              f"threshold={storage.fmt_num(row.threshold)} "
              f"sigma_bar={storage.fmt_num(row.sigma_bar)}", file=out)


def cmd_solve(manifest: RunManifest, out=None) -> int:
    """Solve per the manifest, write the report set, print a summary."""
    out = sys.stdout if out is None else out
    inst, code = _load_instance(manifest.instance_path, out)
    if inst is None:
        return code

    if manifest.method not in ("ef", "pha"):
        print(f"unknown method '{manifest.method}'", file=out)
        return EXIT_INVALID
    solver = dataclasses.replace(manifest.solver, seed=manifest.seed)
    try:
        with solver_output_to_stderr():
            if manifest.method == "ef":
                report, code = _solve_ef(inst, solver)
            else:
                report, code = _solve_pha(inst, manifest.pha, solver, manifest.timing)
    except BackendError as exc:
        print(f"solver backend failure: {exc}", file=out)
        return EXIT_BACKEND
    try:
        storage.save_report(report, manifest.out_dir)
    except OSError as exc:
        print(f"cannot write reports to '{manifest.out_dir}': {exc}", file=out)
        return EXIT_IO
    _print_summary(report, out)
    return code


def _solve_ef(inst, solver: SolverConfig) -> tuple[SolveReport, int]:
    model, index = build_extensive_form(inst)
    res = solve(model, solver)
    termination = "solved" if res.status == OPTIMAL else res.status
    if res.status == OPTIMAL or res.status == FEASIBLE_WITH_GAP:
        lower = proven_lower_bound(res)
        report = report_from_solution(
            inst, index, res.x, method="ef", status=res.status,
            objective=res.objective, lower_bound=lower, upper_bound=res.objective,
            gap=res.mip_gap if res.status == FEASIBLE_WITH_GAP else 0.0,
            termination=termination, incumbent_source="extensive form",
            trace=[TraceRow(iteration=0, consensus=0.0, sigma_violation=0.0,
                            lower_bound=lower, upper_bound=res.objective)])
        return report, EXIT_OK if res.status == OPTIMAL else EXIT_LIMIT
    report = SolveReport(
        instance_name=inst.name, method="ef", status=res.status, objective=None,
        lower_bound=None, upper_bound=None, gap=None, termination=res.status,
        costs=None)
    code = EXIT_NO_INCUMBENT if res.status in (INFEASIBLE, LIMIT_REACHED) else EXIT_BACKEND
    return report, code


def _solve_pha(inst, cfg: PHAConfig, solver: SolverConfig,
               timing: bool) -> tuple[SolveReport, int]:
    report, _ = run_pha(inst, cfg, solver, collect_timing=timing)
    if report.status == NO_INCUMBENT:
        return report, EXIT_NO_INCUMBENT
    if report.termination in ("consensus", "bound_gap"):
        return report, EXIT_OK
    return report, EXIT_LIMIT


# ---------------------------------------------------------------------------
# Flexibility comparison
# ---------------------------------------------------------------------------

_NAMED_TIERS = {
    "inflexible": INFLEXIBLE,
    "fullflex": FULL_FLEX,
}


def parse_variant(text: str) -> tuple[str, TierSpec]:
    """Parse 'label=u1,u2,..;phi1,phi2,..' or a named shortcut."""
    if text in _NAMED_TIERS:
        return text, _NAMED_TIERS[text]
    if "=" not in text:
        raise ValueError(f"variant '{text}' is neither named nor label=u..;phi..")
    label, spec = text.split("=", 1)
    try:
        u_txt, phi_txt = spec.split(";")
        u = tuple(float(v) for v in u_txt.split(","))
        phi = tuple(float(v) for v in phi_txt.split(","))
    except ValueError as exc:
        raise ValueError(f"variant '{text}': {exc}") from exc
    return label, TierSpec(u=u, phi=phi)


def cmd_compare_flexibility(instance_path: str, load_tech: str,
                            variants: list[tuple[str, TierSpec]],
                            solver: SolverConfig | None = None,
                            out=None) -> int:
    """Solve the extensive form once per tier variant and tabulate the costs.

    Adjacent-and-comparable variants (same effective breakpoints, ordered
    reliabilities) are checked for cost monotonicity; a violation is a
    warning, not an error.
    """
    out = sys.stdout if out is None else out
    solver = solver or SolverConfig()
    inst, code = _load_instance(instance_path, out)
    if inst is None:
        return code
    if load_tech not in inst.load_ids:
        print(f"unknown load tech '{load_tech}'", file=out)
        return EXIT_INVALID

    results = []
    with solver_output_to_stderr():
        for label, tiers in variants:
            try:
                report, _ = _solve_ef(_with_tiers(inst, load_tech, tiers), solver)
            except InvalidInstanceError as exc:
                results.append((label, tiers, None, None, f"invalid: {exc.violations[0]}"))
                continue
            except BackendError as exc:
                results.append((label, tiers, None, None, f"backend failure: {exc}"))
                continue
            if report.objective is None:
                results.append((label, tiers, None, None, report.status))
                continue
            emissions = sum(r.lhs for r in report.policies)
            results.append((label, tiers, report.objective, emissions,
                            _build_summary(report)))

    print(f"{'variant':<16} {'total_cost':>16} {'emissions':>14}  build_summary", file=out)
    for label, _, cost, emissions, summary in results:
        cost_s = storage.fmt_num(cost) if cost is not None else "n/a"
        emi_s = storage.fmt_num(emissions) if emissions is not None else "n/a"
        print(f"{label:<16} {cost_s:>16} {emi_s:>14}  {summary}", file=out)

    for i in range(len(results)):
        for j in range(len(results)):
            if i == j:
                continue
            li, ti, ci = results[i][0], results[i][1], results[i][2]
            lj, tj, cj = results[j][0], results[j][1], results[j][2]
            if ci is None or cj is None:
                continue
            order = compare_tiers(ti, tj)
            if order is None:
                if i < j:
                    print(f"note: variants '{li}' and '{lj}' are not comparable; "
                          "no monotonicity check", file=out)
                continue
            if order == 1 and ci < cj - 1e-6:
                print(f"warning: '{lj}' relaxes '{li}' but costs more "
                      f"({storage.fmt_num(cj)} > {storage.fmt_num(ci)})", file=out)
    if any(cost is None for _, _, cost, _, _ in results):
        return EXIT_NO_INCUMBENT
    return EXIT_OK


def _with_tiers(inst, load_tech: str, tiers: TierSpec):
    loads = tuple(dataclasses.replace(d, tiers=tiers) if d.id == load_tech else d
                  for d in inst.load_techs)
    return dataclasses.replace(inst, load_techs=loads)


def _build_summary(report: SolveReport) -> str:
    parts = []
    for row in report.buildout:
        if row.built <= 1e-6:
            continue
        if row.kind == "line":
            parts.append(f"{row.tech}")
        elif row.kind == "load":
            parts.append(f"{row.bus}:{row.tech}x{storage.fmt_num(row.built)}")
        else:
            parts.append(f"{row.bus}:{row.tech}+{storage.fmt_num(row.built_mw)}MW")
    return " ".join(parts) if parts else "(nothing built)"


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    default = SolverConfig()
    p.add_argument("--solver", choices=["inproc", "subprocess"], default=default.backend)
    p.add_argument("--solver-bin", default=None,
                   help="subprocess solver binary (overrides FLEXCEP_LP_SOLVER)")
    p.add_argument("--time-limit", type=float, default=default.time_limit_s)
    p.add_argument("--gap", type=float, default=default.mip_gap, help="MIP gap target")
    p.add_argument("--seed", type=int, default=default.seed)


def _solver_from_args(args) -> SolverConfig:
    return SolverConfig(backend=args.solver, time_limit_s=args.time_limit,
                        mip_gap=args.gap, seed=args.seed,
                        solver_bin=args.solver_bin)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="flexcep", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate an instance file")
    p_val.add_argument("--instance", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance, write reports")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--method", choices=["ef", "pha"], default="ef")
    p_solve.add_argument("--out", required=True, help="report output directory")
    _add_solver_args(p_solve)
    pha_default = PHAConfig()
    # differs from PHAConfig.rho_scale (1.0): aligning them changes the
    # results of every run on either default, so it is a change of its own
    p_solve.add_argument("--rho", type=float, default=0.1,
                         help="proximal cost-scale factor (pha)")
    p_solve.add_argument("--beta", type=float, default=pha_default.beta_scale,
                         help="multiplier step scale factor (pha)")
    p_solve.add_argument("--max-iters", type=int, default=pha_default.max_iterations)
    p_solve.add_argument("--pha-gap", type=float, default=pha_default.gap_threshold,
                         help="bound-gap stop threshold (pha)")
    p_solve.add_argument("--workers", type=int, default=pha_default.workers)
    p_solve.add_argument("--timing", action="store_true",
                         help="record wall times in trace.csv (breaks byte-level "
                              "reproducibility of report directories)")

    p_cmp = sub.add_parser("compare-flex", help="solve tier variants of a load tech")
    p_cmp.add_argument("--instance", required=True)
    p_cmp.add_argument("--load-tech", required=True)
    p_cmp.add_argument("--variant", action="append", required=True,
                       help="'label=u1,..;phi1,..' or 'inflexible'/'fullflex'; repeatable")
    _add_solver_args(p_cmp)

    args = ap.parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.instance)
    try:  # out-of-range settings and malformed variants
        solver = _solver_from_args(args)
        if args.command == "solve":
            pha = PHAConfig(rho_scale=args.rho, beta_scale=args.beta,
                            max_iterations=args.max_iters, gap_threshold=args.pha_gap,
                            workers=args.workers)
        else:
            variants = [parse_variant(v) for v in args.variant]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.command == "solve":
        return cmd_solve(RunManifest(
            instance_path=args.instance, method=args.method, out_dir=args.out,
            seed=args.seed, solver=solver, pha=pha, timing=args.timing))
    return cmd_compare_flexibility(args.instance, args.load_tech, variants, solver)


if __name__ == "__main__":
    sys.exit(main())

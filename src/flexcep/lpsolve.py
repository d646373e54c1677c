"""Standalone LP/MILP solver over LP files, used as the subprocess backend.

Invocation contract (any external binary honoring it can replace this shim
via the ``FLEXCEP_LP_SOLVER`` environment variable)::

    <solver> <model.lp> <solution.out> [--time-limit S] [--mip-gap G]

The solution file is plain text: a ``status`` line, ``objective`` and
optionally ``mip_gap`` lines, a ``columns N`` block of ``name value`` pairs,
then ``end``. This shim writes no row values; the parser still accepts a
``rows M`` block of ``name value`` pairs from an external solver and skips it.
"""

from __future__ import annotations

import argparse
import sys

from . import lpfile
from .solvers import SolverConfig, _solve_inproc_milp


def _write_solution(path: str, model, res) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"status {res.status}\n")
        if res.objective is not None:
            fh.write(f"objective {res.objective!r}\n")
        if res.mip_gap is not None:
            fh.write(f"mip_gap {res.mip_gap!r}\n")
        if res.x is not None:
            fh.write(f"columns {model.num_vars}\n")
            for name, val in zip(model.var_names, res.x):
                fh.write(f"{name} {float(val)!r}\n")
        fh.write("end\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="flexcep-lpsolve", description=__doc__)
    ap.add_argument("lp_path")
    ap.add_argument("sol_path")
    default = SolverConfig()
    ap.add_argument("--time-limit", type=float, default=default.time_limit_s)
    ap.add_argument("--mip-gap", type=float, default=default.mip_gap)
    args = ap.parse_args(argv)
    try:
        model = lpfile.parse_lp_file(args.lp_path)
    except (OSError, lpfile.LpParseError) as exc:
        print(f"flexcep-lpsolve: cannot read model: {exc}", file=sys.stderr)
        return 2
    cfg = SolverConfig(time_limit_s=args.time_limit, mip_gap=args.mip_gap)
    # objectives from the solve include the model's constant offset already
    _write_solution(args.sol_path, model, _solve_inproc_milp(model, cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Uniform solve interface over interchangeable LP/MILP backends.

Two backends share one contract: an in-process backend on scipy's HiGHS
bindings, and a subprocess backend that writes the model as an LP file,
invokes an external solver binary and parses its solution file. The binary
defaults to this package's own ``flexcep-lpsolve`` shim (run as
``python -m flexcep.lpsolve``) and can be overridden per config or with the
``FLEXCEP_LP_SOLVER`` environment variable.

Diagonal quadratic objective terms are linearized here: backends receive a
piecewise-linear outer approximation (tangent cuts on an epigraph variable,
``PWL_SEGMENTS`` per term), and the reported objective is always re-evaluated
against the original model so it is exact for the returned point.

In process, LPs and MILPs go through one ``scipy.optimize.milp`` call.
Two departures from HiGHS's defaults are decided here, by the kind of model:

- Every model with integer columns runs without HiGHS's feasibility-jump,
  RINS and RENS primal heuristics (``NO_PRIMAL_HEURISTICS``). The planning
  problem's integer columns are all first stage, so branch and bound proves
  its MILPs, scenario subproblems and extensive form alike, in a handful of
  nodes, while the heuristics would take most of each solve.
- ``solve(..., interior=True)`` runs an LP on HiGHS's interior-point method
  with crossover, which returns a vertex too; other LPs run on its dual
  simplex. Candidate boxes with a free coordinate, which couple every
  scenario block of the extensive form, are the only solves that ask for it
  (see :func:`flexcep.pha.exact_candidate_evaluation`).

scipy passes these options on to HiGHS verbatim and warns that it did not
recognize them. :func:`highs_option_passthrough` silences that warning, and
:func:`solve` enters it around such a call unless a caller's block is
already open. Warning filters are process-wide, so code that solves from
worker threads holds one block around all of them. The subprocess backend
ignores both departures: its binary picks its own algorithm.

HiGHS can print past ``sys.stdout`` on file descriptor 1;
:func:`solver_output_to_stderr` sends such lines to stderr around a run.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .canonical import (
    EQ,
    FEASIBLE_WITH_GAP,
    GE,
    INF,
    INFEASIBLE,
    LE,
    LIMIT_REACHED,
    OPTIMAL,
    UNBOUNDED,
    CanonicalModel,
    ModelError,
    SolveResult,
    objective_value,
)
from . import lpfile

INPROC = "inproc"
SUBPROCESS = "subprocess"

SOLVER_BIN_ENV = "FLEXCEP_LP_SOLVER"

PWL_SEGMENTS = 16  # proximal linearization fidelity of every quadratic solve

# HiGHS options of every model with integer columns; scipy does not know them
NO_PRIMAL_HEURISTICS = {"mip_heuristic_run_feasibility_jump": False,
                        "mip_heuristic_run_rins": False,
                        "mip_heuristic_run_rens": False}


class BackendError(RuntimeError):
    """Base class for solver backend failures."""


class BackendUnavailableError(BackendError):
    pass


class BackendCrashError(BackendError):
    pass


class ModelWriteError(BackendError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    backend: str = INPROC
    time_limit_s: float = 300.0
    mip_gap: float = 0.0
    seed: int = 0
    solver_bin: str | None = None

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise ValueError("time limit must be > 0")
        if not (0.0 <= self.mip_gap < 1.0):
            raise ValueError("mip gap target must lie in [0, 1)")


# ---------------------------------------------------------------------------
# Quadratic linearization
# ---------------------------------------------------------------------------


def _tangent_points(lo: float, hi: float, anchor: float, segments: int,
                    is_integer: bool) -> list[float]:
    """Cut locations for one quadratic term: the box ends plus a geometric
    grid around the anchor, where the proximal minimum will land."""
    if hi - lo < 1e-12:
        return [lo]
    if is_integer and hi - lo <= segments:
        return [float(v) for v in np.arange(np.ceil(lo), np.floor(hi) + 1.0)]
    span = hi - lo
    a = min(max(anchor, lo), hi)
    pts = {lo, hi, a}
    for j in range(1, max(1, segments // 2) + 1):
        off = span * 2.0 ** (-j)
        pts.add(min(hi, a + off))
        pts.add(max(lo, a - off))
    return sorted(pts)


def expand_quadratic(model: CanonicalModel, segments: int = PWL_SEGMENTS) -> CanonicalModel:
    """Outer-approximate each ``coef*(x-a)^2`` term with tangent cuts.

    Adds one epigraph column per term plus one cut row per tangent point.
    Tangents sit at the box ends and on a geometric grid around the anchor
    (exact integer lattices for small integer ranges), so the approximation is
    tight where the term is near its minimum. It underestimates the true
    quadratic everywhere, is exact at the tangent points, and requires the
    column's box to be finite. The model's own columns and rows are kept as
    they are; the new ones are appended to its arrays, so the work is
    proportional to the number of cuts.
    """
    if not model.quad:
        return model
    n = model.num_vars
    cut_term: list[int] = []  # quad term of each cut row
    cut_slope: list[float] = []
    cut_rhs: list[float] = []
    cut_names: list[str] = []
    for j, term in enumerate(model.quad):
        lo, hi = float(model.var_lb[term.col]), float(model.var_ub[term.col])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ModelError(
                f"quadratic term on unbounded column '{model.var_names[term.col]}' "
                "cannot be linearized")
        points = _tangent_points(lo, hi, term.anchor, segments,
                                 bool(model.var_integer[term.col]))
        for k, p in enumerate(points):
            # z >= (x-a)^2 linearized at x=p: z - slope*x >= a^2 - p^2
            cut_term.append(j)
            cut_slope.append(2.0 * (p - term.anchor))
            cut_rhs.append(term.anchor * term.anchor - p * p)
            cut_names.append(f"qcut{j}_{k}__")

    # each cut row holds (x, -slope) then (z, 1); a zero slope drops the x entry
    terms = np.array(cut_term, dtype=np.int64)
    slope = np.array(cut_slope, dtype=float)
    has_x = slope != 0.0
    x_cols = np.array([t.col for t in model.quad], dtype=np.int64)[terms]
    length = 1 + has_x.astype(np.int64)
    start = int(model.a_indptr[-1])
    ends = start + np.cumsum(length)
    z_pos = ends - 1
    x_pos = (z_pos - 1)[has_x]
    cut_indices = np.empty(int(length.sum()), dtype=np.int64)
    cut_data = np.empty(cut_indices.size, dtype=float)
    cut_indices[z_pos - start] = n + terms
    cut_data[z_pos - start] = 1.0
    cut_indices[x_pos - start] = x_cols[has_x]
    cut_data[x_pos - start] = -slope[has_x]

    n_quad = len(model.quad)
    expanded = CanonicalModel(
        var_lb=_frozen_concat(model.var_lb, np.zeros(n_quad)),
        var_ub=_frozen_concat(model.var_ub, np.full(n_quad, INF)),
        var_integer=_frozen_concat(model.var_integer, np.zeros(n_quad, dtype=bool)),
        var_names=model.var_names + tuple(f"qz{j}__" for j in range(n_quad)),
        row_names=model.row_names + tuple(cut_names),
        a_indptr=_frozen_concat(model.a_indptr, ends),
        a_indices=_frozen_concat(model.a_indices, cut_indices),
        a_data=_frozen_concat(model.a_data, cut_data),
        row_sense=_frozen_concat(model.row_sense, np.full(len(cut_rhs), GE, dtype=np.int8)),
        row_rhs=_frozen_concat(model.row_rhs, np.array(cut_rhs, dtype=float)),
        obj=_frozen_concat(model.obj, np.array([t.coef for t in model.quad], dtype=float)),
        obj_offset=float(model.obj_offset),
        name=model.name,
    )
    expanded.check()
    return expanded


def _frozen_concat(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    arr = np.concatenate([head, tail]).astype(tail.dtype, copy=False)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# In-process backend (scipy / HiGHS)
# ---------------------------------------------------------------------------


def _row_bounds(model: CanonicalModel) -> tuple[np.ndarray, np.ndarray]:
    lo = np.where(model.row_sense == GE, model.row_rhs, -np.inf)
    lo = np.where(model.row_sense == EQ, model.row_rhs, lo)
    hi = np.where(model.row_sense == LE, model.row_rhs, np.inf)
    hi = np.where(model.row_sense == EQ, model.row_rhs, hi)
    return lo, hi


_open_passthroughs: list[None] = []  # one per open block; append and pop are atomic


@contextlib.contextmanager
def highs_option_passthrough():
    """Let scipy pass HiGHS options it does not know without warning.

    scipy's ``milp`` forwards such options to HiGHS verbatim and raises a
    RuntimeWarning that it did. Warning filters are process-wide state, so
    enter this from the thread that starts the solves, around all of them,
    never around single solves that worker threads make concurrently. While
    a block is open, :func:`solve` enters none of its own.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Unrecognized options detected",
                                category=RuntimeWarning)
        _open_passthroughs.append(None)
        try:
            yield
        finally:
            _open_passthroughs.pop()


def _solve_inproc_milp(model: CanonicalModel, cfg: SolverConfig,
                       interior: bool = False) -> SolveResult:
    kwargs = {}
    if model.num_rows:
        lo, hi = _row_bounds(model)
        kwargs["constraints"] = LinearConstraint(model.matrix(), lo, hi)
    options = {"time_limit": cfg.time_limit_s, "mip_rel_gap": cfg.mip_gap,
               "presolve": True}
    if model.var_integer.any():
        options.update(NO_PRIMAL_HEURISTICS)
    elif interior:
        options["solver"] = "ipm"
    unknown_to_scipy = len(options) > 3  # scipy warns that it passes them on
    with (highs_option_passthrough() if unknown_to_scipy and not _open_passthroughs
          else contextlib.nullcontext()):
        res = milp(c=model.obj, integrality=model.var_integer.astype(np.uint8),
                   bounds=Bounds(model.var_lb, model.var_ub), options=options, **kwargs)
    gap = getattr(res, "mip_gap", None)
    if res.status == 0:
        status = OPTIMAL if not gap or gap <= 1e-9 else FEASIBLE_WITH_GAP
    elif res.status == 1:
        status = FEASIBLE_WITH_GAP if res.x is not None else LIMIT_REACHED
    elif res.status == 2:
        return SolveResult(status=INFEASIBLE)
    elif res.status == 3:
        return SolveResult(status=UNBOUNDED)
    else:
        raise BackendCrashError(f"scipy.milp failed: {res.message}")
    x = np.asarray(res.x, dtype=float) if res.x is not None else None
    objective = float(res.fun) + model.obj_offset if res.fun is not None else None
    return SolveResult(status=status, objective=objective, x=x,
                       mip_gap=float(gap) if gap is not None else None)


# ---------------------------------------------------------------------------
# Subprocess backend
# ---------------------------------------------------------------------------


def _solver_command(cfg: SolverConfig) -> tuple[list[str], dict[str, str] | None]:
    """The solver command line and the environment to run it in (None: inherit)."""
    if cfg.solver_bin:
        return shlex.split(cfg.solver_bin), None
    configured = os.environ.get(SOLVER_BIN_ENV)
    if configured:
        return shlex.split(configured), None
    # the bundled shim imports this package, which need not be installed:
    # put the directory holding it first on the child's import path
    parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(p for p in (parent, os.environ.get("PYTHONPATH")) if p)
    return [sys.executable, "-m", "flexcep.lpsolve"], {**os.environ, "PYTHONPATH": path}


def _solve_subprocess(model: CanonicalModel, cfg: SolverConfig) -> SolveResult:
    with tempfile.TemporaryDirectory(prefix="flexcep_solve_") as tmp:
        lp_path = os.path.join(tmp, "model.lp")
        sol_path = os.path.join(tmp, "model.sol")
        try:
            lpfile.write_lp_file(model, lp_path)
        except OSError as exc:
            raise ModelWriteError(f"cannot write LP file: {exc}") from exc
        cmd, env = _solver_command(cfg)
        cmd += [lp_path, sol_path, "--time-limit", repr(cfg.time_limit_s),
                "--mip-gap", repr(cfg.mip_gap)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=cfg.time_limit_s * 3 + 60)
        except FileNotFoundError as exc:
            raise BackendUnavailableError(f"solver binary not found: {cmd[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            raise BackendCrashError(f"solver subprocess timed out: {cmd[0]}") from exc
        if proc.returncode != 0:
            raise BackendCrashError(
                f"solver subprocess failed (exit {proc.returncode}): "
                f"{proc.stderr.strip() or proc.stdout.strip()}")
        try:
            with open(sol_path, "r", encoding="utf-8") as fh:
                parsed = _parse_solution_file(fh.read())
        except OSError as exc:
            raise BackendCrashError(f"solver wrote no solution file: {exc}") from exc
    status, objective, gap, col_values = parsed
    x = None
    if col_values is not None:
        name_to_col = {name: i for i, name in enumerate(model.var_names)}
        x = np.zeros(model.num_vars)
        for name, val in col_values.items():
            if name not in name_to_col:
                raise BackendCrashError(f"solution references unknown column '{name}'")
            x[name_to_col[name]] = val
    return SolveResult(status=status, objective=objective, x=x, mip_gap=gap)


def _block(lines, count: int) -> list[str]:
    block = list(itertools.islice(lines, count))
    if len(block) < count:
        raise BackendCrashError("solution file ends inside a block")
    return block


def _parse_solution_file(text: str):
    """``(status, objective, mip_gap, {column: value} or None)`` of a solution
    file. A ``rows M`` block, which an external solver may still write, is
    skipped whole so that none of its lines is read as a key."""
    status = None
    objective = None
    gap = None
    col_values = None
    lines = iter(text.splitlines())
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        key = parts[0].lower()
        if key == "status":
            status = parts[1]
        elif key == "objective":
            objective = float(parts[1])
        elif key == "mip_gap":
            gap = float(parts[1])
        elif key == "columns":
            col_values = {}
            for row in _block(lines, int(parts[1])):
                name, val = row.split()
                col_values[name] = float(val)
        elif key == "rows":
            _block(lines, int(parts[1]))
        elif key == "end":
            break
    if status is None:
        raise BackendCrashError("solution file has no status line")
    known = {OPTIMAL, FEASIBLE_WITH_GAP, INFEASIBLE, UNBOUNDED, LIMIT_REACHED}
    if status not in known:
        raise BackendCrashError(f"solution file has unknown status '{status}'")
    return status, objective, gap, col_values


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def solver_output_to_stderr():
    """Point fd 1 at fd 2 while solvers run, then restore it.

    The HiGHS library inside scipy can print straight to file descriptor 1,
    past ``sys.stdout``; while this is active such lines land on stderr and
    cannot mix with what the caller writes to stdout. Descriptors belong to
    the process, so enter it once around a whole run from the main thread,
    never around single solves that worker threads may make concurrently.
    """
    saved = None
    try:
        saved = os.dup(1)
        sys.stdout.flush()
        os.dup2(2, 1)
    except OSError:  # stdout or stderr is closed: leave the descriptors alone
        if saved is not None:
            os.close(saved)
            saved = None
    try:
        yield
    finally:
        if saved is not None:
            sys.stdout.flush()
            os.dup2(saved, 1)
            os.close(saved)


def proven_lower_bound(res: SolveResult) -> float | None:
    """A value provably at or below the solved model's optimum: the objective
    less its reported gap, the optimum itself without one, else None (an LP
    stopped at its time limit reports no gap and proves nothing)."""
    if res.mip_gap is not None:
        return res.objective - abs(res.objective) * res.mip_gap
    return res.objective if res.status == OPTIMAL else None


def solve(model: CanonicalModel, cfg: SolverConfig | None = None,
          interior: bool = False) -> SolveResult:
    """Solve an LP/MILP; quadratic terms are linearized transparently.

    The reported objective is re-evaluated against ``model`` at the returned
    point, so it always matches ``objective_value(model, result.x)``.

    In process, a MILP runs without HiGHS's feasibility-jump, RINS and RENS
    heuristics, and ``interior`` runs an LP on its interior-point method,
    crossover on, for a vertex still; it pays on LPs that couple many blocks,
    such as banded candidate boxes (see ``pha.exact_candidate_evaluation``),
    and a MILP raises ValueError. The subprocess backend's binary picks its
    own algorithm. This call silences scipy's warning about these options
    unless a caller's :func:`highs_option_passthrough` block is open; code
    that solves from worker threads holds one block around all of them, as it
    holds :func:`solver_output_to_stderr`, since both are process-wide.
    """
    cfg = cfg or SolverConfig()
    model.check()
    if interior and model.var_integer.any():
        raise ValueError("the interior-point method solves LPs only; "
                         "the model has integer columns")
    solved = expand_quadratic(model, PWL_SEGMENTS) if model.quad else model
    if cfg.backend == INPROC:
        res = _solve_inproc_milp(solved, cfg, interior)
    elif cfg.backend == SUBPROCESS:
        res = _solve_subprocess(solved, cfg)
    else:
        raise BackendUnavailableError(f"unknown backend '{cfg.backend}'")
    if model.quad and res.x is not None:
        x = res.x[: model.num_vars].copy()
        res = replace(res, x=x, objective=objective_value(model, x))
    return res

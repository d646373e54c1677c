"""The solve interface: LPs and MILPs on scipy's HiGHS bindings, in process.

Diagonal quadratic objective terms are linearized here: HiGHS receives a
piecewise-linear outer approximation (tangent cuts on an epigraph variable,
``PWL_SEGMENTS`` per term), and the reported objective is always re-evaluated
against the original model so it is exact for the returned point.

LPs and MILPs alike go through one ``scipy.optimize.milp`` call in
:func:`solve`. The one other entry point, :func:`solve_warm_lp`, is for LPs
that are solved again and again with new prices, such as the dual spoke's
relaxed sweeps: it drives scipy's private HiGHS binding
(``scipy.optimize._highspy``) directly, so that a re-solve can start from
the last optimal basis, and it builds a fresh HiGHS instance for every call.
This module is the only one that reads the binding; when it is missing,
:func:`solve_warm_lp` falls back to :func:`solve` itself.
Two departures from HiGHS's defaults are decided here, by the kind of model:

- Every model with integer columns runs without HiGHS's primal heuristics
  (``NO_PRIMAL_HEURISTICS``): feasibility jump, RINS, RENS and the root
  reduced-cost sub-MIP. The planning problem's integer columns are all first
  stage, so branch and bound proves its MILPs, scenario subproblems and
  extensive form alike, in a handful of nodes, while the heuristics would
  take most of each solve.
- ``solve(..., interior=True)`` runs an LP on HiGHS's interior-point method
  with crossover, which returns a vertex too; other LPs run on its dual
  simplex. Candidate boxes with a free coordinate, which couple every
  scenario block of the extensive form, are the only solves that ask for it
  (see :func:`flexcep.pha.exact_candidate_evaluation`).

scipy passes these options on to HiGHS verbatim and warns that it did not
recognize them. :func:`highs_option_passthrough` silences that warning, and
:func:`solve` enters it around such a call unless a caller's block is
already open. Warning filters are process-wide, so code that solves from
worker threads holds one block around all of them.

HiGHS can print past ``sys.stdout`` on file descriptor 1;
:func:`solver_output_to_stderr` sends such lines to stderr around a run.
"""

from __future__ import annotations

import contextlib
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

try:  # scipy's private binding; without it every LP goes through milp
    from scipy.optimize._highspy import _core as _highspy
except ImportError:
    _highspy = None

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
    read_only_array,
)

PWL_SEGMENTS = 16  # proximal linearization fidelity of every quadratic solve

# HiGHS options of every model with integer columns; scipy does not know them
NO_PRIMAL_HEURISTICS = {"mip_heuristic_run_feasibility_jump": False,
                        "mip_heuristic_run_rins": False,
                        "mip_heuristic_run_rens": False,
                        "mip_heuristic_run_root_reduced_cost": False}


class BackendCrashError(RuntimeError):
    """HiGHS failed to solve a model (scipy.milp status 4)."""


@dataclass(frozen=True)
class SolverConfig:
    time_limit_s: float = 300.0
    mip_gap: float = 0.0

    def __post_init__(self):
        if not self.time_limit_s > 0:  # NaN fails too; inf means no limit
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
    they are; the cut rows are stacked under its matrix as one block.
    """
    if not model.quad:
        return model
    n = model.num_vars
    cut_term: list[int] = []  # quad term of each cut row
    cut_slope: list[float] = []
    cut_rhs: list[float] = []
    for j, term in enumerate(model.quad):
        lo, hi = float(model.var_lb[term.col]), float(model.var_ub[term.col])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ModelError(f"quadratic term on unbounded column {term.col} cannot be linearized")
        points = _tangent_points(lo, hi, term.anchor, segments,
                                 bool(model.var_integer[term.col]))
        for p in points:
            # z >= (x-a)^2 linearized at x=p: z - slope*x >= a^2 - p^2
            cut_term.append(j)
            cut_slope.append(2.0 * (p - term.anchor))
            cut_rhs.append(term.anchor * term.anchor - p * p)

    # each cut row holds (x, -slope) and (z, 1); a zero slope drops the x entry
    n_quad, rows = len(model.quad), np.arange(len(cut_term))
    terms = np.array(cut_term, dtype=np.int64)
    slope = np.array(cut_slope, dtype=float)
    has_x = slope != 0.0
    x_cols = np.array([t.col for t in model.quad], dtype=np.int64)[terms]
    cuts = sparse.csr_array(
        (np.r_[-slope[has_x], np.ones(rows.size)],
         (np.r_[rows[has_x], rows], np.r_[x_cols[has_x], n + terms])),
        shape=(rows.size, n + n_quad))
    widened = sparse.hstack([model.a, sparse.csr_array((model.num_rows, n_quad))])
    expanded = CanonicalModel(
        var_lb=_frozen_concat(model.var_lb, np.zeros(n_quad)),
        var_ub=_frozen_concat(model.var_ub, np.full(n_quad, INF)),
        var_integer=_frozen_concat(model.var_integer, np.zeros(n_quad, dtype=bool)),
        a=sparse.vstack([widened, cuts], format="csr"),
        row_sense=_frozen_concat(model.row_sense, np.full(len(cut_rhs), GE, dtype=np.int8)),
        row_rhs=_frozen_concat(model.row_rhs, np.array(cut_rhs, dtype=float)),
        obj=_frozen_concat(model.obj, np.array([t.coef for t in model.quad], dtype=float)),
        name=model.name,
    )
    expanded.check()
    return expanded


def _frozen_concat(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    return read_only_array(np.concatenate([head, tail]), tail.dtype)


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
        kwargs["constraints"] = LinearConstraint(model.a, lo, hi)
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
    objective = float(res.fun) if res.fun is not None else None
    return SolveResult(status=status, objective=objective, x=x,
                       mip_gap=float(gap) if gap is not None else None)


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

    A MILP runs without HiGHS's primal heuristics (``NO_PRIMAL_HEURISTICS``),
    and ``interior`` runs an LP on its interior-point method, crossover on,
    for a vertex still; it pays on LPs that couple many blocks, such as
    banded candidate boxes (see ``pha.exact_candidate_evaluation``), and a
    MILP raises ValueError. A failure inside HiGHS raises
    :class:`BackendCrashError`. This call silences
    scipy's warning about these options unless a caller's
    :func:`highs_option_passthrough` block is open; code that solves from
    worker threads holds one block around all of them, as it holds
    :func:`solver_output_to_stderr`, since both are process-wide.
    """
    cfg = cfg or SolverConfig()
    model.check()
    if interior and model.var_integer.any():
        raise ValueError("the interior-point method solves LPs only; "
                         "the model has integer columns")
    solved = expand_quadratic(model, PWL_SEGMENTS) if model.quad else model
    res = _solve_inproc_milp(solved, cfg, interior)
    if model.quad and res.x is not None:
        x = res.x[: model.num_vars].copy()
        res = replace(res, x=x, objective=objective_value(model, x))
    return res


def solve_warm_lp(model: CanonicalModel, cfg: SolverConfig | None = None,
                  basis=None) -> tuple[SolveResult, object | None]:
    """Solve an LP on HiGHS's simplex from ``basis``; return the result and the optimal basis.

    ``basis`` is one this function returned for an LP of the same shape,
    typically the same LP before it was re-priced, or None for a cold start
    with presolve, as in :func:`solve`. Each call makes its own HiGHS
    instance through scipy's private binding and drops it before it
    returns; the basis it hands back is a copy, so calls from worker threads
    share nothing. Statuses map as in :func:`solve`, and the basis is None
    unless the LP is optimal. HiGHS logs nothing, so nothing reaches fd 1.
    Without scipy's private binding the LP goes through :func:`solve`, cold,
    and the basis is None.

    Raises ValueError for a model with integer columns or quadratic terms
    and for a basis that does not fit the model, and
    :class:`BackendCrashError` when HiGHS fails.
    """
    cfg = cfg or SolverConfig()
    model.check()
    if model.var_integer.any() or model.quad:
        raise ValueError("a warm start solves LPs only; the model has integer "
                         "columns or quadratic terms")
    h = _highspy
    if h is None:
        return solve(model, cfg), None
    highs = h._Highs()
    for option, value in (("output_flag", False), ("time_limit", cfg.time_limit_s),
                          ("presolve", "on")):
        highs.setOptionValue(option, value)
    (lo, hi), a, n = _row_bounds(model), model.a, model.num_vars
    loaded = highs.passModel(
        n, model.num_rows, a.nnz, int(h.MatrixFormat.kRowwise), int(h.ObjSense.kMinimize),
        0.0, model.obj, model.var_lb, model.var_ub, lo, hi,
        a.indptr[:-1], a.indices, a.data, np.zeros(n, dtype=np.int32))
    if loaded == h.HighsStatus.kError:
        raise BackendCrashError("HiGHS rejected the model")
    # a valid basis also skips presolve
    if basis is not None and highs.setBasis(basis) == h.HighsStatus.kError:
        raise ValueError("the basis does not fit the model")
    ran = highs.run()
    status = highs.getModelStatus()
    ended = {h.HighsModelStatus.kOptimal: OPTIMAL,
             h.HighsModelStatus.kTimeLimit: LIMIT_REACHED,
             h.HighsModelStatus.kIterationLimit: LIMIT_REACHED,
             h.HighsModelStatus.kInfeasible: INFEASIBLE,
             h.HighsModelStatus.kUnbounded: UNBOUNDED}
    if ran == h.HighsStatus.kError or status not in ended:
        raise BackendCrashError(f"HiGHS failed: {highs.modelStatusToString(status)}")
    if ended[status] != OPTIMAL:
        return SolveResult(status=ended[status]), None
    optimal = highs.getBasis()
    res = SolveResult(status=OPTIMAL, objective=float(highs.getInfo().objective_function_value),
                      x=np.array(highs.getSolution().col_value))
    return res, optimal if optimal.valid else None

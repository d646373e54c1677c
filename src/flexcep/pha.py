"""Augmented progressive hedging over scenarios with dualized expectations.

One iteration is three steps over the shared :class:`PHAState`. The hub step
solves every scenario's subproblem (optionally in a thread pool), averages
the first-stage copies, updates the non-anticipativity weights
``w_w += rho * (x_w - x_bar)`` and takes a projected subgradient step
``lam_c = max(0, lam_c + beta_c * sigma_bar_c)`` on the expectation
multipliers; its first sweep has no weight and proximal terms. The dual step
gives the lower bound. Every bound is one Lagrangian sweep: the
probability-weighted proven optima of the scenario subproblems at some
``(lam, w)`` with ``lam >= 0`` and ``sum_w pi_w w_w = 0``, which is valid
for the extensive form. The sweeps come from a dual spoke (mpi-sppy's
Lagrangian spoke, stabilized as a box-trust-region bundle method) that keeps
its own multipliers and cuts; the hub never reads it:

- iteration 1: the hub's first sweep, which is Lagrangian at ``(0, 0)``, so
  the first bound is free;
- integer mode, from iteration 2: an LP phase of up to
  ``LP_SWEEPS_PER_ITERATION`` sweeps of the relaxed subproblems per
  iteration at the bundle's trial points (a relaxed sweep bounds the integer
  one from below, so it is a valid bound too); when the bundle's model
  predicts no more ascent or after ``LP_SWEEP_CAP`` LP sweeps, or in place
  of the final iteration's LP sweeps, one MILP sweep at the bundle centre,
  then one MILP sweep per iteration at the trial point;
- convex mode, from iteration 2: one LP sweep per iteration at the trial
  point.

The candidate step gives the upper bound: first-stage boxes ``(lo, hi)``
evaluated on the relaxed extensive form, which is built once and re-bounded
per evaluation. In integer mode it consumes the hub sweep scenario by
scenario: each scenario's box is evaluated as soon as that scenario's hub
solve returns, before the next one is solved (or, in a thread pool, while
the workers solve the rest), as mpi-sppy's xhat spokes try a scenario's
solution once the hub publishes it. In convex mode it runs once after the
whole sweep, since its box spans every scenario. Either way it runs before
the dual step, and neither the hub nor the dual step reads it, so an
incumbent never waits for the iteration's lower-bound sweeps.

Every scenario model is assembled once per run. Each scenario's Lagrangian
model is built before the first iteration; every hedging and lower-bound
solve then re-prices it (or, for an LP sweep, its relaxation) without
touching its rows. An LP sweep's re-priced relaxations differ from the last
sweep's in their costs only, so the dual spoke keeps each scenario's last
optimal basis and starts that scenario's next LP from it
(``solvers.solve_warm_lp``, a fresh HiGHS instance per solve); hub sweeps,
MILP sweeps, master LPs and candidate LPs are solved cold by ``solve``.
Only the dual spoke's master, a small LP over the multipliers, weights and
cut values, is assembled anew at each of its steps. Every hedging quantity
is a numpy array in model column order (see :mod:`flexcep.build`; shapes in
:class:`PHAState`): first-stage vectors, the rows of the copies ``x`` and
weights ``w`` included, follow the models' leading columns, so a solution's
first stage is ``x[:n]``; the multipliers ``lam`` and expected slacks
``sigma_bar`` follow its slack tail.

Boxes follow one rule per mode. In integer mode, every iteration takes each
scenario's own first stage, in scenario order, as its hub solve returns;
its box (``_scenario_box``) pins the integer part as the scenario MILP
solved it (rounding drops only the solver's round-off) and leaves every
continuous coordinate free in its bounds, so the extensive form optimizes
the rest (the inner bound of mpi-sppy's xhat spokes). In convex mode, on
``INCUMBENT_SCHEDULE``, at convergence and at the last iteration, the
consensus box (``_consensus_band``) is the band ``x_bar +- max_s |x_s -
x_bar|``. Each box restricts the extensive form, so its LP optimum is a
valid upper bound, and that LP is the one judge of a box: a box with no
feasible completion gives no bound. A box is tried at most once per run,
so each integer part costs at most one LP, and a tie keeps the incumbent
found first. A band that frees columns the extensive form marks integer runs
on HiGHS's interior-point method; a box with its integer part pinned stays
on dual simplex (see ``exact_candidate_evaluation``). The method is a
heuristic on the mixed-integer problem; results are always reported as an
incumbent with a gap, never as proven optimal.
"""

from __future__ import annotations

import contextlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .build import (
    FirstStageInfo,
    build_extensive_form,
    build_scenario_subproblem,
    first_stage_info,
    price_scenario_subproblem,
)
from .canonical import (
    EQ,
    FEASIBLE_WITH_GAP,
    INF,
    INFEASIBLE,
    LE,
    OPTIMAL,
    CanonicalModel,
    relax_integrality,
    restrict_bounds,
)
from .core import (
    TIER_RELIABILITY,
    InvalidInstanceError,
    PlanningInstance,
    enumerate_expectation_constraints,
    validate_instance,
)
from .report import SolveReport, TraceRow, report_from_solution
from .solvers import (BackendCrashError, SolverConfig, highs_option_passthrough,
                      proven_lower_bound, solve, solve_warm_lp, solver_output_to_stderr)

NO_INCUMBENT = "no_feasible_incumbent"

INCUMBENT_SCHEDULE = (5, 10, 20, 40, 80, 160, 320, 640, 1280)  # convex consensus boxes


class PHAError(RuntimeError):
    """Engine failure: an infeasible or failed scenario subproblem."""


# Stop tests, fixed for every run.
EPS_CONSENSUS = 1e-3  # MW-scaled consensus metric tolerance
EPS_SIGMA = 1e-4  # expected-slack violation tolerance


@dataclass(frozen=True)
class PHAConfig:
    """Tunables of the hedging loop; defaults are cost-scaled heuristics."""

    rho_scale: float = 1.0  # proximal weight = rho_scale * unit fixed cost
    beta_scale: float = 0.1  # multiplier step = beta_scale * price/sigma scale
    max_iterations: int = 100
    gap_threshold: float = 1e-3  # relative bound gap stop
    workers: int = 1  # scenario solves run serially unless > 1
    relax_integrality: bool = False  # drop integrality everywhere (convex mode)

    def __post_init__(self):
        if not (0 < self.rho_scale < math.inf and 0 < self.beta_scale < math.inf):
            raise ValueError("rho_scale and beta_scale must be finite and > 0")
        if not 0 < self.gap_threshold < math.inf:
            raise ValueError("gap_threshold must be finite and > 0")
        for name in ("max_iterations", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.relax_integrality, bool):
            raise ValueError(f"relax_integrality must be True or False, "
                             f"got {self.relax_integrality!r}")


def _relative_gap(lower: float | None, upper: float | None) -> float | None:
    """``(upper - lower) / max(|upper|, 1)``, or None while either bound is missing."""
    if lower is None or upper is None:
        return None
    return (upper - lower) / max(abs(upper), 1.0)


@dataclass
class PHAState:
    """The run state the hedging steps share; returned at the end.

    With ``S`` scenarios, ``n`` first-stage coordinates and ``m`` expectation
    constraints: ``probabilities`` has shape (S,), ``x`` and ``w`` (S, n),
    ``mw_scale`` and ``x_bar`` (n,), ``lam`` and ``sigma_bar`` (m,).
    ``x_bar`` is None until the first hub sweep completes.
    """

    mw_scale: np.ndarray
    probabilities: np.ndarray
    x: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    sigma_bar: np.ndarray
    iteration: int = 0
    x_bar: np.ndarray | None = None
    best_lower: float | None = None
    incumbent: tuple | None = None  # (objective, index, x, source) of the best candidate
    termination: str = ""
    sweep_error: str = ""  # the PHAError message behind termination "sweep_failed"

    @property
    def best_upper(self) -> float | None:
        return None if self.incumbent is None else self.incumbent[0]


def consensus_metric(state: PHAState) -> float:
    """Probability-weighted RMS spread of MW-scaled first-stage copies."""
    if state.x_bar is None:
        return math.inf
    acc = 0.0
    for p, xv in zip(state.probabilities, state.x):
        dev = state.mw_scale * (xv - state.x_bar)
        acc += p * float(dev @ dev)
    return math.sqrt(acc)


def sigma_violation(sigma_bar: np.ndarray) -> float:
    """One-sided violation norm: satisfied constraints (sigma <= 0) count as 0."""
    return float(np.max(sigma_bar, initial=0.0))


# ---------------------------------------------------------------------------
# Step-size scales
# ---------------------------------------------------------------------------


def _rho_vector(cfg: PHAConfig, info: FirstStageInfo) -> np.ndarray:
    return cfg.rho_scale * np.maximum(info.unit_cost, 1.0)


def _beta_scales(cfg: PHAConfig, inst: PlanningInstance) -> np.ndarray:
    """Per-constraint subgradient steps: price ceiling over slack scale."""
    prices, sigma_scales = _price_scales(inst)
    return cfg.beta_scale * prices / sigma_scales


def _price_scales(inst: PlanningInstance) -> tuple[np.ndarray, np.ndarray]:
    """``(price ceilings, slack scales)``, one entry per constraint in slack-tail order.

    For a tranche handle the slack is horizon energy (MWh); the price ceiling
    is the annualized shed cost. For a policy handle the slack is in the
    policy metric, so the price is divided by the largest coefficient and the
    slack scale estimated from buildable energy.
    """
    annual = inst.annualization_days
    tau_t = inst.period_length_h * inst.num_periods
    price_energy = annual * max(inst.shed_cost, 1.0)
    prices, sigma_scales = [], []
    for spec in enumerate_expectation_constraints(inst):
        if spec.kind == TIER_RELIABILITY:
            d = inst.load_tech(spec.load_tech)
            width = d.tiers.widths()[spec.tier - 1]
            phi = d.tiers.phi[spec.tier - 1]
            units = inst.bus(spec.bus).build_limit_load.get(spec.load_tech, 0.0)
            sigma_scale = max(phi * width * d.unit_size_mw * tau_t * units, 1.0)
            prices.append(price_energy)
        else:
            max_coef = max([abs(v) for v in (*spec.q.values(), *spec.r.values())] or [1.0])
            gen_mw = sum(b.build_limit_gen.get(g.id, b.existing_gen.get(g.id, 0.0))
                         for b in inst.buses for g in inst.gen_techs)
            load_mw = sum(b.build_limit_load.get(d.id, 0.0) * d.unit_size_mw
                          for b in inst.buses for d in inst.load_techs)
            sigma_scale = max(abs(spec.threshold), max_coef * (gen_mw + load_mw) * tau_t, 1.0)
            prices.append(price_energy / max(max_coef, 1e-9))
        sigma_scales.append(sigma_scale)
    return np.array(prices), np.array(sigma_scales)


# ---------------------------------------------------------------------------
# Subproblem solving helpers
# ---------------------------------------------------------------------------


def _scenario_bases(inst: PlanningInstance) -> list[tuple]:
    """One Lagrangian model per scenario, in scenario order, built once and
    re-priced per solve."""
    return [build_scenario_subproblem(inst, s.id) for s in inst.scenarios]


def _solve_scenarios(inst, bases: list[tuple], lam: np.ndarray, w: np.ndarray,
                     solver: SolverConfig, workers: int,
                     anchor: np.ndarray | None = None, rho: np.ndarray | None = None,
                     warm: list | None = None):
    """Price every scenario's base and solve it; yield the results in scenario order.

    ``w`` has one row of weights per scenario; ``anchor`` and ``rho``, when
    given, add the proximal term. ``warm``, for relaxed bases only, holds one
    start basis (or None) per scenario: each LP is then solved from its
    scenario's basis by ``solve_warm_lp``, and once the whole sweep has been
    solved ``warm`` holds the new optimal bases; a sweep that raises leaves it
    as it was, so a pooled sweep starts where a serial one would.
    Results are handed over one at a time: serially, each scenario is solved
    when the caller asks for its result; in a thread pool, the workers go on
    with the remaining scenarios while the caller handles a result. A caller
    that may stop early closes the generator (``contextlib.closing``), which
    ends the pool and the warning block at once.

    Scenario MILPs run without HiGHS's primal heuristics (see
    :mod:`flexcep.solvers`). The sweep holds one :func:`highs_option_passthrough`
    block, so no worker thread enters a warning filter: ``filterwarnings``
    removes and re-inserts its filter, and another thread's warning could
    escape between.
    """
    found = [None] * len(bases)  # each worker writes its own scenario's slot

    def run_one(i: int, scen, base: tuple, w_s: np.ndarray):
        model = price_scenario_subproblem(inst, *base, lam, w_s, anchor, rho)
        if warm is not None:
            res, found[i] = solve_warm_lp(model, solver, warm[i])
        else:
            res = solve(model, solver)
        if res.status == INFEASIBLE:
            raise PHAError(
                f"scenario subproblem '{scen.id}' is infeasible; the relaxation "
                "should always be feasible, so the instance or model is inconsistent")
        if res.status not in (OPTIMAL, FEASIBLE_WITH_GAP):
            raise PHAError(f"scenario subproblem '{scen.id}' failed: {res.status}")
        return res

    with highs_option_passthrough():
        if workers > 1 and len(bases) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                yield from pool.map(run_one, range(len(bases)), inst.scenarios, bases, w)
        else:
            yield from map(run_one, range(len(bases)), inst.scenarios, bases, w)
    if warm is not None:
        warm[:] = found


def _sweep_lower(inst: PlanningInstance, solved: list) -> float | None:
    """Probability-weighted proven bounds of a Lagrangian sweep, or None
    when some scenario's solve proves none."""
    bounds = [proven_lower_bound(res) for res in solved]
    if None in bounds:
        return None
    return sum(s.probability * lb for s, lb in zip(inst.scenarios, bounds))


# ---------------------------------------------------------------------------
# Lagrangian lower bound
# ---------------------------------------------------------------------------


def lagrangian_lower_bound(inst: PlanningInstance, lam: np.ndarray, w: np.ndarray,
                           solver: SolverConfig | None = None,
                           workers: int = 1,
                           bases: list[tuple] | None = None,
                           warm: list | None = None,
                           ) -> tuple[float | None, list[np.ndarray | None]]:
    """Valid lower bound on the extensive form from dualized multipliers.

    Solves every scenario's Lagrangian subproblem (no proximal term) and
    returns ``(bound, solutions)``: the probability-weighted sum of their
    proven lower bounds, or None when some solve proves none (see
    ``solvers.proven_lower_bound``), and each scenario's solution vector (or
    None) in scenario order, first stage leading and slacks closing.
    ``lam`` (m,) holds multipliers >= 0 in slack-tail order; ``w`` (S, n)
    holds one row of weights per scenario and must be balanced,
    ``sum_s p_s w_s = 0``. ``bases`` lists the built subproblems in scenario
    order (as ``run_pha`` keeps them, relaxed in convex mode); when omitted
    they are built here. ``warm``, given with relaxed ``bases`` only, holds
    one simplex start basis (or None) per scenario; each LP then starts from
    its scenario's basis, and a sweep that succeeds leaves the new optimal
    bases in ``warm`` (see ``solvers.solve_warm_lp``; without scipy's HiGHS
    binding the LPs are solved cold by ``solve``). A warm start may end at
    another optimal vertex, so the solutions can differ, never the bound
    beyond round-off. A scenario solve that fails raises PHAError, as in a
    hedging sweep.
    """
    solver = solver or SolverConfig()
    _check_weight_balance(inst, w)
    if bases is None:
        bases = _scenario_bases(inst)
    elif len(bases) != len(inst.scenarios):
        raise ValueError(f"bases must list {len(inst.scenarios)} subproblems, one per "
                         f"scenario, got {len(bases)}")
    if warm is not None and len(warm) != len(bases):
        raise ValueError(f"warm must hold {len(bases)} bases, one per scenario, "
                         f"got {len(warm)}")
    solved = list(_solve_scenarios(inst, bases, lam, w, solver, workers, warm=warm))
    return _sweep_lower(inst, solved), [res.x for res in solved]


def _check_weight_balance(inst: PlanningInstance, w: np.ndarray) -> None:
    """Raise ValueError unless ``w`` has shape (S, n) and ``sum_s p_s w_s = 0``,
    relative to the largest weight. The sum runs one scenario at a time."""
    shape = (len(inst.scenarios), len(first_stage_info(inst).coords))
    if np.shape(w) != shape:
        raise ValueError(f"w must have shape {shape}, got shape {np.shape(w)}")
    total = sum(s.probability * w_s for s, w_s in zip(inst.scenarios, w))
    scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
    worst = float(np.max(np.abs(total), initial=0.0))
    if worst > 1e-8 * scale:
        raise ValueError(f"weights are not balanced: max |sum pi*w| = {worst!r}")


# ---------------------------------------------------------------------------
# Dual spoke
# ---------------------------------------------------------------------------

# The spoke's schedule and step rule, fixed for every run.
LP_SWEEPS_PER_ITERATION = 6  # integer mode's LP phase; six LP sweeps cost about one MILP sweep
LP_SWEEP_CAP = 36  # LP sweeps after which the integer phase starts
ASCENT_TOL = 1e-5  # predicted ascent, relative to the centre value, that ends a phase
BOX_START = 0.05  # trust-region half-width in scaled units (price ceilings, unit costs)
BOX_MAX = 2.0  # wider boxes let a scenario LP fail
SERIOUS_STEP = 0.1  # share of the predicted ascent a step must realize to move the centre
CUT_IDLE_LIMIT = 30  # master solves a cut may stay slack before it is dropped
ACTIVE_SLACK = 1e-6  # master row slack, in units of the centre value, that counts as active


class _DualSpoke:
    """Box-trust-region bundle method over the Lagrangian dual in ``(lam, w)``.

    Keeps its own centre, box and cut bundle, and never touches the hub's
    state. Scenario ``s``'s solution ``x`` at any point gives the cut
    ``theta_s <= f_s(x) + lam . sigma(x) + w_s . x[:n]``, where ``f_s`` is the
    unpriced base's objective; it bounds the Lagrangian from above at every
    ``(lam, w)``. Cuts from integer-feasible solutions hold for both the
    relaxed and the integer Lagrangian; cuts from relaxed sweeps in integer
    mode (``exact`` False) hold for the relaxed one only.

    Bounds come from sweeps only (``best``), never from the master.
    """

    def __init__(self, inst: PlanningInstance, info: FirstStageInfo,
                 bases: list[tuple], solver: SolverConfig, workers: int):
        self.inst, self.solver, self.workers = inst, solver, workers
        self.bases = bases
        self.integer = bool(info.integer.any())
        self.relaxed = [(relax_integrality(model), index) for model, index in bases]
        self.warm = [None] * len(bases)  # each relaxed LP's last optimal basis
        self.lam_scale, _ = _price_scales(inst)
        self.w_scale = np.maximum(info.unit_cost, 1.0)
        self.p = np.array([s.probability for s in inst.scenarios])
        n_scen, n = len(inst.scenarios), len(info.coords)
        self.lam = np.zeros(self.lam_scale.size)  # the centre
        self.w = np.zeros((n_scen, n))
        self.value: float | None = None  # proven bound at the centre, in this phase
        self.best: float | None = None  # best bound any sweep proved
        self.box = BOX_START
        self.lp_phase = self.integer  # convex mode's function is the relaxed one
        self.lp_sweeps = 0
        self.started = False
        # the bundle: cut k bounds scenario scen[k] by const + g_lam . lam + g_w . w_scen
        self.scen = np.zeros(0, dtype=np.int64)
        self.const = np.zeros(0)
        self.g_lam = np.zeros((0, self.lam.size))
        self.g_w = np.zeros((0, n))
        self.exact = np.zeros(0, dtype=bool)
        self.idle = np.zeros(0, dtype=np.int64)

    # -- one iteration --------------------------------------------------------

    def advance(self, hub_solved: list, final: bool) -> None:
        """Spend this iteration's sweeps; ``final`` when the hub will stop after it.

        The hub's first sweep has no weight, multiplier or proximal term, so it
        is the spoke's sweep at its start ``(0, 0)`` and costs nothing. In
        integer mode the LP phase then takes up to ``LP_SWEEPS_PER_ITERATION``
        relaxed steps per iteration. When its model predicts no more ascent,
        or after ``LP_SWEEP_CAP`` LP sweeps, or in place of the final
        iteration's LP steps, it drops the relaxed cuts and sweeps the centre
        with MILPs. From then on, and in convex mode throughout, each
        iteration takes one step. No iteration spends more than one MILP
        sweep or its LP equivalent, plus at most one MILP sweep in the
        iteration where the LP phase ends early.
        """
        if not self.started:
            self.started = True
            self._add_cuts([res.x for res in hub_solved], exact=True)
            self.best = _sweep_lower(self.inst, hub_solved)
            if not self.lp_phase:
                self.value = self.best
            return
        if not self.lp_phase:
            self._step()
            return
        if not final:
            for _ in range(LP_SWEEPS_PER_ITERATION):
                if self.lp_sweeps >= LP_SWEEP_CAP or not self._step():
                    break
            else:
                return
        # relaxed cuts need not bound the integer Lagrangian
        self.lp_phase = False
        self._keep_cuts(self.exact)
        self.value = None
        self._step()

    def _step(self) -> bool:
        """One bundle step; False when the model predicts no ascent worth a sweep.

        While the centre's value is unknown the step sweeps the centre. Else
        it sweeps the master's trial point: a serious step (actual ascent at
        least ``SERIOUS_STEP`` of the predicted one) moves the centre there
        and doubles the box; a null step, a failed sweep or a failed master
        halves the box and keeps the centre.
        """
        if self.value is None:
            self.value = self._sweep(self.lam, self.w)
            return True
        trial = self._master()
        if trial is None:
            self.box /= 2.0
            return True
        lam, w, predicted = trial
        if predicted < ASCENT_TOL * max(abs(self.value), 1.0):
            return False
        bound = self._sweep(lam, w)
        if bound is not None and bound - self.value >= SERIOUS_STEP * predicted:
            self.lam, self.w, self.value = lam, w, bound
            self.box = min(2.0 * self.box, BOX_MAX)
        else:
            self.box /= 2.0
        return True

    # -- sweeps and cuts ------------------------------------------------------

    def _sweep(self, lam: np.ndarray, w: np.ndarray) -> float | None:
        """One ``lagrangian_lower_bound`` call at ``(lam, w)``; its bound, or None.

        The sweep is relaxed in the LP phase and in convex mode; it then
        starts each scenario's LP from its basis in ``self.warm`` and leaves
        the new ones there. Only the LP phase's sweeps count as LP sweeps and
        give inexact cuts. A sweep that fails keeps the last bound and bases:
        the hub and the incumbent do not depend on it, so it must not end
        the run.
        """
        relaxed = self.lp_phase or not self.integer
        if self.lp_phase:
            self.lp_sweeps += 1
        try:
            bound, xs = lagrangian_lower_bound(
                self.inst, lam, w, self.solver, self.workers,
                bases=self.relaxed if relaxed else self.bases,
                warm=self.warm if relaxed else None)
        except (PHAError, BackendCrashError):
            return None
        self._add_cuts(xs, exact=not self.lp_phase)
        if bound is not None:
            self.best = bound if self.best is None else max(self.best, bound)
        return bound

    def _add_cuts(self, xs: list, exact: bool) -> None:
        n, n_lam = self.g_w.shape[1], self.lam.size
        for i, ((base, _), x) in enumerate(zip(self.bases, xs)):
            if x is None:
                continue
            self.scen = np.append(self.scen, i)
            self.const = np.append(self.const, float(base.obj @ x))
            self.g_lam = np.vstack([self.g_lam, x[x.size - n_lam:]])
            self.g_w = np.vstack([self.g_w, x[:n]])
            self.exact = np.append(self.exact, exact)
            self.idle = np.append(self.idle, 0)

    def _keep_cuts(self, keep: np.ndarray) -> None:
        self.scen, self.const, self.g_lam, self.g_w, self.exact, self.idle = (
            self.scen[keep], self.const[keep], self.g_lam[keep], self.g_w[keep],
            self.exact[keep], self.idle[keep])

    # -- the master -----------------------------------------------------------

    def _master(self):
        """``(lam, w, predicted ascent)`` maximizing the cut model in the box, or None.

        The master LP is centre-translated and scaled: its columns are
        ``dlam = (lam - lam_c) / lam_scale``, ``dw_s = (w_s - w_c,s) / w_scale``
        and ``t_s = (theta_s - theta_c,s) / T``, where ``theta_c,s`` is the
        model's value at the centre and ``T`` the centre value's magnitude.
        The balance ``sum_s p_s dw_s = 0`` keeps the weights balanced; the
        trial is projected onto exact balance after the solve. A solve that
        returns no optimum gives None.
        """
        n_scen, n = self.w.shape
        n_lam, n_cut = self.lam.size, len(self.const)
        at_centre = (self.const + self.g_lam @ self.lam
                     + np.einsum("ki,ki->k", self.g_w, self.w[self.scen]))
        theta = np.full(n_scen, np.inf)
        np.minimum.at(theta, self.scen, at_centre)
        scale = max(abs(self.value), 1.0)
        t0, rows = n_lam + n_scen * n, np.arange(n_cut)
        a = np.zeros((n_cut + n, t0 + n_scen))
        a[:n_cut, :n_lam] = -self.g_lam * (self.lam_scale / scale)
        a[rows[:, None], n_lam + self.scen[:, None] * n + np.arange(n)] = \
            -self.g_w * (self.w_scale / scale)
        a[rows, t0 + self.scen] = 1.0
        a[n_cut + np.arange(n), n_lam + np.arange(n_scen)[:, None] * n + np.arange(n)] = \
            self.p[:, None]
        rhs = np.concatenate([(at_centre - theta[self.scen]) / scale, np.zeros(n)])
        # a move that no cut values stays at the centre, not at a corner of the box
        lam_box = np.where(np.any(self.g_lam, axis=0), self.box, 0.0)
        seen = np.zeros((n_scen, n), dtype=bool)
        np.logical_or.at(seen, self.scen, self.g_w != 0)
        box = np.where(seen, self.box, 0.0).ravel()
        lam_floor = -self.lam / self.lam_scale
        model = CanonicalModel(
            var_lb=np.concatenate([np.maximum(-lam_box, lam_floor), -box,
                                   np.full(n_scen, -INF)]),
            var_ub=np.concatenate([lam_box, box, np.full(n_scen, INF)]),
            var_integer=np.zeros(t0 + n_scen, dtype=bool),
            a=sparse.csr_array(a),
            row_sense=np.r_[np.full(n_cut, LE), np.full(n, EQ)].astype(np.int8),
            row_rhs=rhs, obj=np.r_[np.zeros(t0), -self.p],
            name=f"{self.inst.name}-dual-master")
        try:
            res = solve(model, self.solver)
        except BackendCrashError:
            return None
        if res.status != OPTIMAL:
            return None
        z = res.x
        active = rhs[:n_cut] - a[:n_cut] @ z <= ACTIVE_SLACK
        self.idle = np.where(active, 0, self.idle + 1)
        lam = np.maximum(self.lam + self.lam_scale * z[:n_lam], 0.0)
        w = self.w + self.w_scale * z[n_lam:t0].reshape(n_scen, n)
        w -= self.p @ w
        predicted = float(self.p @ (theta + scale * z[t0:])) - self.value
        self._keep_cuts(self.idle <= CUT_IDLE_LIMIT)
        return lam, w, predicted


# ---------------------------------------------------------------------------
# Candidates and their evaluation
# ---------------------------------------------------------------------------


def _scenario_box(info: FirstStageInfo, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer mode's box ``(lo, hi)`` of a scenario's first stage ``x``: the
    integer part pinned as its MILP solved it, which satisfies the first-stage
    bounds, integrality and mandate rows, and ``[info.lb, info.ub]`` elsewhere."""
    # + 0.0 turns -0.0 into 0.0: the tried set keys boxes by their raw bytes
    pinned = np.round(x) + 0.0
    return np.where(info.integer, pinned, info.lb), np.where(info.integer, pinned, info.ub)


def _consensus_band(state: PHAState) -> tuple[np.ndarray, np.ndarray]:
    """Convex mode's box ``(lo, hi)``: a trust region spanning the scenario
    disagreement, ``x_bar +- max_s |x_s - x_bar|``, so near-consensus residue
    cannot push the evaluation over a feasibility cliff."""
    spread = np.max(np.abs(state.x - state.x_bar), axis=0)
    return state.x_bar - spread, state.x_bar + spread


def exact_candidate_evaluation(inst: PlanningInstance, lo: np.ndarray, hi: np.ndarray,
                               solver: SolverConfig | None = None,
                               ef: tuple | None = None):
    """Certify a first-stage box on the relaxed extensive form (hard expectations).

    ``lo`` and ``hi`` are vectors in ``first_stage_info(inst).coords`` order
    that narrow the extensive form's leading columns; ``lo == hi`` pins a
    coordinate. With every integer coordinate pinned to an integral value the
    LP is a restriction of the extensive form, so its optimum is a valid
    upper bound. ``ef`` is a ``build_extensive_form`` result to re-bound; when
    omitted it is built here. Returns ``(objective, index, primal)`` or None
    when no feasible completion exists.

    A box that frees a column the extensive form marks integer (the convex
    band) is solved by the interior-point method with crossover: the free
    first stage and the hard expectation rows link all scenario blocks, and
    on such LPs it beats dual simplex (3.5x on the banded convex candidates
    of the S=4, T=168 benchmark rung, 2 vCPUs). A box with every integer
    column pinned stays on simplex, which solved the S=8, T=24 rung's
    integer-part boxes about 2x faster (2 vCPUs).
    """
    solver = solver or SolverConfig()
    n = len(first_stage_info(inst).coords)
    if np.shape(lo) != (n,) or np.shape(hi) != (n,):
        raise ValueError(f"lo and hi must have one entry per first-stage coordinate "
                         f"({n}), got shapes {np.shape(lo)} and {np.shape(hi)}")
    model, index = ef if ef is not None else build_extensive_form(inst)
    lp = restrict_bounds(relax_integrality(model), dict(enumerate(zip(lo, hi))))
    res = solve(lp, solver, interior=bool(np.any((lo < hi) & model.var_integer[:n])))
    if res.status != OPTIMAL:
        return None
    return float(res.objective), index, res.x


# ---------------------------------------------------------------------------
# The main loop
# ---------------------------------------------------------------------------


def run_pha(inst: PlanningInstance, cfg: PHAConfig | None = None,
            solver: SolverConfig | None = None,
            collect_timing: bool = False) -> tuple[SolveReport, PHAState]:
    """Run the augmented progressive hedging loop and assemble a report.

    Terminates on (consensus AND expected-slack feasibility), on the relative
    bound gap falling below the threshold, or on the iteration cap. The
    report's solution is the best incumbent found; when no candidate was ever
    accepted the report says so instead of inventing one. A hub sweep whose
    scenario solve fails raises PHAError while there is no incumbent; once
    there is one, the run stops with termination ``sweep_failed`` and returns
    it, with the trace of the iterations completed before and the PHAError's
    message in ``PHAState.sweep_error``. Output that HiGHS
    prints past ``sys.stdout`` goes to stderr for the whole run.
    """
    # one redirect around the run: per-solve ones would race in worker threads
    with solver_output_to_stderr():
        return _hedge(inst, cfg or PHAConfig(), solver or SolverConfig(), collect_timing)


def _hedge(inst: PlanningInstance, cfg: PHAConfig, solver: SolverConfig,
           collect_timing: bool) -> tuple[SolveReport, PHAState]:
    """The hedging loop of :func:`run_pha`: per iteration the hub, candidate
    and dual steps, one trace row and the stop tests.

    In integer mode the candidate step consumes the hub sweep scenario by
    scenario, from inside the hub step, so the first bound waits for one
    scenario MILP, not the whole sweep. In convex mode it runs once after
    the sweep, when the consensus band is known.
    """
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)

    info = first_stage_info(inst)
    bases = _scenario_bases(inst)  # before any worker thread starts
    if cfg.relax_integrality:
        # convex mode is decided here once: everything below reads
        # ``info.integer`` or the models' own integrality flags
        continuous = np.zeros_like(info.integer)
        continuous.setflags(write=False)
        info = replace(info, integer=continuous)
        bases = [(relax_integrality(model), index) for model, index in bases]
    rho = _rho_vector(cfg, info)
    beta = _beta_scales(cfg, inst)
    first_stage = (len(inst.scenarios), len(info.coords))
    state = PHAState(mw_scale=info.mw_scale.copy(),
                     probabilities=np.array([s.probability for s in inst.scenarios]),
                     x=np.zeros(first_stage), w=np.zeros(first_stage),
                     lam=np.zeros(beta.size), sigma_bar=np.zeros(beta.size))
    ef = build_extensive_form(inst)
    spoke = _DualSpoke(inst, info, bases, solver, cfg.workers)
    tried: set[bytes] = set()  # every box seen this run, rejected and infeasible ones too
    trace: list[TraceRow] = []
    t_start = time.perf_counter()
    integer = bool(info.integer.any())

    def scenario_candidate(i: int) -> None:
        _candidate_step(inst, state, solver, tried, ef, f"scenario {inst.scenarios[i].id}",
                        *_scenario_box(info, state.x[i]))

    for _ in range(cfg.max_iterations):
        try:
            solved = _hub_step(inst, bases, state, rho, beta, solver, cfg.workers,
                               on_solved=scenario_candidate if integer else None)
        except PHAError as exc:
            if state.incumbent is None:
                raise
            # keep the certified incumbent, and say which scenario failed
            state.termination, state.sweep_error = "sweep_failed", str(exc)
            break
        metric, viol = consensus_metric(state), sigma_violation(state.sigma_bar)
        converged = metric < EPS_CONSENSUS and viol < EPS_SIGMA
        final = converged or state.iteration == cfg.max_iterations
        if not integer and (state.iteration in INCUMBENT_SCHEDULE or final):
            _candidate_step(inst, state, solver, tried, ef, "consensus",
                            *_consensus_band(state))
        _dual_step(spoke, state, solved, final)
        trace.append(TraceRow(
            iteration=state.iteration, consensus=metric, sigma_violation=viol,
            lower_bound=state.best_lower, upper_bound=state.best_upper,
            wall_time_s=(time.perf_counter() - t_start) if collect_timing else 0.0))
        gap = _relative_gap(state.best_lower, state.best_upper)
        if converged or (gap is not None and gap < cfg.gap_threshold):
            state.termination = "consensus" if converged else "bound_gap"
            break
    else:
        state.termination = "max_iterations"
    return _assemble_report(inst, state, trace), state


def _hub_step(inst: PlanningInstance, bases: list[tuple], state: PHAState,
              rho: np.ndarray, beta: np.ndarray, solver: SolverConfig,
              workers: int, on_solved=None) -> list:
    """Solve one hedging sweep; update ``iteration``, ``x``, ``x_bar``, ``w``,
    ``sigma_bar`` and ``lam``.

    ``state.iteration`` advances before the sweep. As each scenario's solve
    returns, in scenario order, row ``i`` of ``state.x`` takes its first
    stage and ``on_solved(i)``, when given, runs: integer mode's candidate
    step consumes the sweep scenario by scenario. The other updates wait for the
    whole sweep; a failed scenario solve raises PHAError and leaves them
    undone. Without a consensus to anchor on yet, the sweep has no proximal
    term.
    """
    state.iteration += 1
    sweep = _solve_scenarios(inst, bases, state.lam, state.w, solver, workers,
                             anchor=state.x_bar, rho=None if state.x_bar is None else rho)
    solved = []
    with contextlib.closing(sweep):
        for i, res in enumerate(sweep):
            solved.append(res)
            state.x[i] = res.x[:rho.size]
            if on_solved is not None:
                on_solved(i)
    m = state.lam.size
    state.sigma_bar = np.zeros(m)
    for p, res in zip(state.probabilities, solved):
        state.sigma_bar += p * res.x[res.x.size - m:]
    state.x_bar = sum(p * x for p, x in zip(state.probabilities, state.x))
    state.w = state.w + rho * (state.x - state.x_bar)
    state.lam = np.maximum(state.lam + beta * state.sigma_bar, 0.0)
    return solved


def _dual_step(spoke: _DualSpoke, state: PHAState, solved: list, final: bool) -> None:
    """Set ``state.best_lower`` to the best bound the dual spoke has proven.

    The spoke reads the hub's first sweep (``solved``) and nothing else of
    the hub; every later bound is one of its own sweeps (see
    :class:`_DualSpoke`), and ``spoke.best`` is their running maximum.
    ``final`` tells it the hub stops after this iteration.
    """
    spoke.advance(solved, final)
    state.best_lower = spoke.best


def _candidate_step(inst: PlanningInstance, state: PHAState, solver: SolverConfig,
                    tried: set[bytes], ef, source: str, lo: np.ndarray,
                    hi: np.ndarray) -> None:
    """Evaluate the box ``(lo, hi)`` unless it was tried; a strictly better
    result becomes the incumbent, labelled ``source @ iteration k``.

    In integer mode the hub step calls this once per scenario, as that
    scenario's solve returns; in convex mode it runs after the sweep on
    ``INCUMBENT_SCHEDULE`` and in the final iteration. ``ef`` is the
    extensive form to re-bound.
    """
    key = lo.tobytes() + hi.tobytes()
    if key in tried:
        return
    tried.add(key)
    evaluated = exact_candidate_evaluation(inst, lo, hi, solver, ef=ef)
    if evaluated is not None and (state.best_upper is None
                                  or evaluated[0] < state.best_upper):
        state.incumbent = (*evaluated, f"{source} @ iteration {state.iteration}")


def _assemble_report(inst, state: PHAState, trace) -> SolveReport:
    if state.incumbent is None:
        return SolveReport(
            instance_name=inst.name, method="pha", status=NO_INCUMBENT,
            objective=None, lower_bound=state.best_lower, gap=None,
            termination=state.termination, costs=None, trace=tuple(trace))
    _, index, x, source = state.incumbent
    return report_from_solution(
        inst, index, x, method="pha", status=FEASIBLE_WITH_GAP,
        objective=state.best_upper, lower_bound=state.best_lower,
        gap=_relative_gap(state.best_lower, state.best_upper), termination=state.termination,
        trace=trace, incumbent_source=source)

"""Builders translating a planning instance into solver-ready models.

Two builders share one assembly: the first stage, one operation block per
scenario, then the mandate rows. Each adds only its own tail.
:func:`build_extensive_form` is the MILP over all scenarios with the
expectation constraints kept hard. :func:`build_scenario_subproblem` is one
scenario's Lagrangian model: the expectation constraints become slack
columns, priced at zero when built. :func:`price_scenario_subproblem` is the
one place that writes prices into a scenario model: multipliers on the
slacks, weights on the first stage and, for progressive hedging, a proximal
term. Its vectors are numpy arrays in the column order below.

A model's column map (coordinate -> column, in column order) is its one
record of its columns: its ``VariableIndex`` is built from the map, and a
coordinate added twice raises ``ModelError``. Column layout, which readers
rely on: every model starts with the first-stage columns in
``first_stage_info(inst).coords`` order, so a first-stage vector ``v`` lines
up with columns ``0..n-1``; each scenario subproblem ends with its slack
columns in ``enumerate_expectation_constraints`` order.

Formulation notes that matter when reading the rows:

* Tranche semantics use tier widths: tranche k of a load caps consumption at
  ``(u[k]-u[k-1]) * unit_size * xD`` MW and its reliability row requires the
  expected served energy over the horizon to reach ``phi[k]`` times the
  tranche's maximum energy. Widths make the per-tranche caps sum to installed
  capacity.
* Variable domains and per-bus construction limits are encoded as column
  bounds; candidate-line disjunctions use big-M rows with
  ``M = |susceptance| * big_m_angle_spread`` which is valid because bus
  angles are boxed to half the spread.
* Storage levels are cyclic: the period-0 row wraps against the last period
  using period 0's charge and discharge.
* Per-scenario objectives are *not* probability-weighted; the caller applies
  scenario probabilities when aggregating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .canonical import (
    EQ,
    GE,
    INF,
    LE,
    CanonicalModel,
    Coord,
    ModelBuilder,
    ModelError,
    QuadTerm,
    VariableIndex,
    read_only_array,
)
from .core import (
    EXPECTED_OUTPUT,
    TIER_RELIABILITY,
    ExpectationConstraintSpec,
    InvalidInstanceError,
    PlanningInstance,
    Scenario,
    enumerate_expectation_constraints,
    validate_instance,
)


# ---------------------------------------------------------------------------
# First-stage metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstStageInfo:
    """Canonical first-stage coordinate order plus per-coordinate metadata."""

    coords: tuple[Coord, ...]
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray
    mw_scale: np.ndarray  # MW represented by one native unit of the coordinate
    unit_cost: np.ndarray  # annualized fixed cost of one native unit


def first_stage_info(inst: PlanningInstance) -> FirstStageInfo:
    # one (coord, lb, ub, integer, mw_scale, unit_cost) record per coordinate
    records: list[tuple[Coord, float, float, bool, float, float]] = []
    for l in inst.candidate_branches():
        records.append((("xL", l.id), 0.0, 1.0, True, l.capacity_mw, l.fixed_cost))
    for b in inst.buses:
        for g in inst.gen_techs:
            cap = b.build_limit_gen.get(g.id)
            existing = b.existing_gen.get(g.id, 0.0)
            room = max(0.0, (cap - existing)) if cap is not None else 0.0
            ub = float(np.floor(room / g.unit_size_mw + 1e-9)) if g.is_integer else room
            records.append((("xG", b.id, g.id), 0.0, ub, g.is_integer, g.capacity_per_unit,
                            g.fixed_cost * g.capacity_per_unit))
    for b in inst.buses:
        for s in inst.storage_techs:
            cap = b.build_limit_storage.get(s.id)
            existing = b.existing_storage.get(s.id, 0.0)
            room = max(0.0, (cap - existing)) if cap is not None else 0.0
            records.append((("xS", b.id, s.id), 0.0, room, False, 1.0, s.fixed_cost))
    for b in inst.buses:
        for d in inst.load_techs:
            units = b.build_limit_load.get(d.id, 0.0)
            records.append((("xD", b.id, d.id), 0.0, float(round(units)), True,
                            d.unit_size_mw, d.fixed_cost))

    coords, lb, ub, integer, scale, cost = zip(*records) if records else ((),) * 6
    return FirstStageInfo(coords=coords, lb=read_only_array(lb),
                          ub=read_only_array(ub), integer=read_only_array(integer, bool),
                          mw_scale=read_only_array(scale), unit_cost=read_only_array(cost))


# ---------------------------------------------------------------------------
# Expectation-constraint terms (canonical >= form)
# ---------------------------------------------------------------------------


def expectation_terms(inst: PlanningInstance, spec: ExpectationConstraintSpec):
    """Return (first-stage terms, per-scenario term factory, rhs) in >= form.

    A tier-reliability spec reads
    ``sum_w pi_w sum_t tau*pDK >= phi * width * unit_size * tau * |T| * xD``;
    an expected-output policy ``lhs <= E`` is stored negated.
    """
    tau = inst.period_length_h
    T = inst.num_periods
    if spec.kind == TIER_RELIABILITY:
        d = inst.load_tech(spec.load_tech)
        width = d.tiers.widths()[spec.tier - 1]
        phi = d.tiers.phi[spec.tier - 1]
        fs = [(("xD", spec.bus, spec.load_tech),
               -phi * width * d.unit_size_mw * tau * T)]

        def scen_terms(scen_id: str):
            return [(("pDK", spec.bus, spec.load_tech, spec.tier, t, scen_id), tau)
                    for t in range(T)]

        return fs, scen_terms, 0.0

    if spec.kind == EXPECTED_OUTPUT:
        def scen_terms(scen_id: str):
            terms = []
            for b in inst.buses:
                for g_id, q in spec.q.items():
                    if not q:
                        continue
                    for t in range(T):
                        terms.append((("pG", b.id, g_id, t, scen_id), -tau * q))
                for d_id, r in spec.r.items():
                    if not r:
                        continue
                    n_tiers = len(inst.load_tech(d_id).tiers)
                    for k in range(1, n_tiers + 1):
                        for t in range(T):
                            terms.append((("pDK", b.id, d_id, k, t, scen_id), -tau * r))
            return terms

        return [], scen_terms, -spec.threshold if spec.threshold else 0.0

    raise ModelError(f"unknown expectation constraint kind '{spec.kind}'")


# ---------------------------------------------------------------------------
# Shared assembly
# ---------------------------------------------------------------------------


def _require_valid(inst: PlanningInstance) -> None:
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)


def _add_col(mb: ModelBuilder, cols: dict[Coord, int], coord: Coord, **var) -> int:
    """Add ``coord``'s column to ``mb`` and to the column map ``cols``."""
    if coord in cols:
        raise ModelError(f"duplicate semantic coordinate {coord!r}")
    cols[coord] = col = mb.add_var(**var)
    return col


def _assemble(inst: PlanningInstance, name: str,
              blocks: list[tuple[Scenario, float]]) -> tuple[ModelBuilder, dict[Coord, int]]:
    """The part both builders share: the first stage, one operation block per
    ``(scenario, weight)`` in ``blocks`` and the mandate rows, in that order.

    A block's costs are scaled by its weight times the annualization factor.
    Returns the builder and the column map for the caller's tail.
    """
    mb = ModelBuilder(name=name)
    cols: dict[Coord, int] = {}
    info = first_stage_info(inst)
    for coord, lb, ub, integer, cost in zip(info.coords, info.lb, info.ub, info.integer,
                                            info.unit_cost):
        _add_col(mb, cols, coord, lb=lb, ub=ub, integer=integer, obj=cost)
    annual = inst.annualization_days * inst.period_length_h
    for scen, weight in blocks:
        _add_scenario_block(mb, inst, scen, cols, cost_scale=weight * annual)
    for d in inst.load_techs:
        if d.mandate is not None:
            mb.add_row([(cols[("xD", b.id, d.id)], 1.0) for b in inst.buses],
                       EQ if d.mandate.equality else GE, float(d.mandate.min_units))
    return mb, cols


def _add_scenario_block(mb: ModelBuilder, inst: PlanningInstance, scen: Scenario,
                        cols: dict[Coord, int], cost_scale: float) -> None:
    """Add scenario ``scen``'s operation variables, rows and objective terms.

    ``cost_scale`` multiplies every variable cost; it carries the annualization
    factor, the period length, and (for the extensive form) the scenario
    probability.
    """
    tau = inst.period_length_h
    T = inst.num_periods
    w = scen.id
    spread = inst.big_m_angle_spread
    ref_bus = inst.reference_bus

    def new_var(coord, **var):
        _add_col(mb, cols, coord, **var)

    for b in inst.buses:
        for g in inst.gen_techs:
            for t in range(T):
                new_var(("pG", b.id, g.id, t, w), obj=cost_scale * g.variable_cost)
    for kind in ("pS", "pSch", "pSdch"):  # level, charge, discharge: only discharge costs
        for b in inst.buses:
            for s in inst.storage_techs:
                cost = cost_scale * s.variable_cost if kind == "pSdch" else 0.0
                for t in range(T):
                    new_var((kind, b.id, s.id, t, w), obj=cost)
    for b in inst.buses:
        for d in inst.load_techs:
            for k in range(1, len(d.tiers) + 1):
                for t in range(T):
                    new_var(("pDK", b.id, d.id, k, t, w), obj=cost_scale * d.variable_cost)
    for bi, b in enumerate(inst.buses):
        for t in range(T):
            new_var(("psh", b.id, t, w), ub=float(scen.demand[bi, t]),
                    obj=cost_scale * inst.shed_cost)
    for l in inst.branches:
        for t in range(T):
            new_var(("f", l.id, t, w), lb=-l.capacity_mw, ub=l.capacity_mw)
    for b in inst.buses:
        for t in range(T):
            if b.id == ref_bus:
                new_var(("theta", b.id, t, w), lb=0.0, ub=0.0)
            else:
                new_var(("theta", b.id, t, w), lb=-spread / 2.0, ub=spread / 2.0)

    # generation availability caps
    for bi, b in enumerate(inst.buses):
        for gi, g in enumerate(inst.gen_techs):
            existing = b.existing_gen.get(g.id, 0.0)
            for t in range(T):
                alpha = float(scen.availability[bi, gi, t])
                mb.add_row([(cols[("pG", b.id, g.id, t, w)], 1.0),
                            (cols[("xG", b.id, g.id)], -alpha * g.capacity_per_unit)],
                           LE, alpha * existing)

    # storage power and energy caps, cyclic level dynamics
    for b in inst.buses:
        for s in inst.storage_techs:
            existing = b.existing_storage.get(s.id, 0.0)
            xs = cols[("xS", b.id, s.id)]
            for t in range(T):
                mb.add_row([(cols[("pSch", b.id, s.id, t, w)], 1.0), (xs, -1.0)], LE, existing)
                mb.add_row([(cols[("pSdch", b.id, s.id, t, w)], 1.0), (xs, -1.0)], LE, existing)
                mb.add_row([(cols[("pS", b.id, s.id, t, w)], 1.0), (xs, -s.duration_h)],
                           LE, s.duration_h * existing)
            for t in range(T):
                prev = (t - 1) % T
                mb.add_row([(cols[("pS", b.id, s.id, t, w)], 1.0),
                            (cols[("pS", b.id, s.id, prev, w)], -1.0),
                            (cols[("pSch", b.id, s.id, t, w)], -tau * s.eff_charge),
                            (cols[("pSdch", b.id, s.id, t, w)], tau)],
                           EQ, 0.0)

    # flow-angle coupling
    for l in inst.branches:
        for t in range(T):
            fterms = [(cols[("f", l.id, t, w)], 1.0),
                      (cols[("theta", l.from_bus, t, w)], -l.susceptance),
                      (cols[("theta", l.to_bus, t, w)], l.susceptance)]
            if not l.is_candidate:
                mb.add_row(fterms, EQ, 0.0)
            else:
                big_m = abs(l.susceptance) * spread
                xl = cols[("xL", l.id)]
                mb.add_row(fterms + [(xl, big_m)], LE, big_m)
                mb.add_row(fterms + [(xl, -big_m)], GE, -big_m)
                mb.add_row([(cols[("f", l.id, t, w)], 1.0), (xl, -l.capacity_mw)], LE, 0.0)
                mb.add_row([(cols[("f", l.id, t, w)], 1.0), (xl, l.capacity_mw)], GE, 0.0)

    # tranche caps
    for b in inst.buses:
        for d in inst.load_techs:
            widths = d.tiers.widths()
            xd = cols[("xD", b.id, d.id)]
            for k in range(1, len(d.tiers) + 1):
                cap = widths[k - 1] * d.unit_size_mw
                for t in range(T):
                    mb.add_row([(cols[("pDK", b.id, d.id, k, t, w)], 1.0), (xd, -cap)], LE, 0.0)

    # nodal balance
    for bi, b in enumerate(inst.buses):
        for t in range(T):
            terms: list[tuple[int, float]] = []
            for g in inst.gen_techs:
                terms.append((cols[("pG", b.id, g.id, t, w)], 1.0))
            for s in inst.storage_techs:
                terms.append((cols[("pSdch", b.id, s.id, t, w)], s.eff_discharge))
                terms.append((cols[("pSch", b.id, s.id, t, w)], -1.0))
            for l in inst.branches:
                if l.from_bus == b.id:
                    terms.append((cols[("f", l.id, t, w)], -1.0))
                if l.to_bus == b.id:
                    terms.append((cols[("f", l.id, t, w)], 1.0))
            terms.append((cols[("psh", b.id, t, w)], 1.0))
            for d in inst.load_techs:
                for k in range(1, len(d.tiers) + 1):
                    terms.append((cols[("pDK", b.id, d.id, k, t, w)], -1.0))
            mb.add_row(terms, EQ, float(scen.demand[bi, t]))


# ---------------------------------------------------------------------------
# Extensive form
# ---------------------------------------------------------------------------


def build_extensive_form(inst: PlanningInstance) -> tuple[CanonicalModel, VariableIndex]:
    """The monolithic MILP over all scenarios with hard expectation rows.

    Its leading columns are the first stage in ``first_stage_info`` order.
    """
    _require_valid(inst)
    mb, cols = _assemble(inst, f"{inst.name}-ef",
                         [(scen, scen.probability) for scen in inst.scenarios])
    for spec in enumerate_expectation_constraints(inst):
        fs_terms, scen_terms, rhs = expectation_terms(inst, spec)
        terms = [(cols[c], v) for c, v in fs_terms]
        for scen in inst.scenarios:
            terms.extend((cols[c], scen.probability * v) for c, v in scen_terms(scen.id))
        mb.add_row(terms, GE, rhs)
    return mb.freeze(), VariableIndex(coords=tuple(cols))


# ---------------------------------------------------------------------------
# Scenario subproblems
# ---------------------------------------------------------------------------


def build_scenario_subproblem(inst: PlanningInstance,
                              scenario_id: str) -> tuple[CanonicalModel, VariableIndex]:
    """One scenario's Lagrangian model with first-stage copies and slack columns.

    The slack column for handle ``c`` is defined by the equality
    ``sigma[c,w] = e_c - (f_c.x + h_c.y_w)``; the objective is
    ``C_inv + C_op_w``, with every slack priced at zero, so the model is named
    ``<instance>-lr-<scenario>``. The scenario probability is *not* applied
    here. The first-stage columns lead and the slack columns close the model.
    :func:`price_scenario_subproblem` writes multipliers, weights and the
    proximal term.
    """
    _require_valid(inst)
    try:
        scen = inst.scenario(scenario_id)
    except KeyError:
        raise ModelError(f"unknown scenario id '{scenario_id}'") from None

    mb, cols = _assemble(inst, f"{inst.name}-lr-{scen.id}", [(scen, 1.0)])
    for c_spec in enumerate_expectation_constraints(inst):
        fs_terms, scen_terms, rhs = expectation_terms(inst, c_spec)
        terms = [(_add_col(mb, cols, ("sigma", c_spec.handle, scen.id), lb=-INF), 1.0)]
        terms.extend((cols[c], v) for c, v in fs_terms)
        terms.extend((cols[c], v) for c, v in scen_terms(scen.id))
        mb.add_row(terms, EQ, rhs)

    return mb.freeze(), VariableIndex(coords=tuple(cols))


def price_scenario_subproblem(inst: PlanningInstance, model: CanonicalModel,
                              index: VariableIndex, lam: np.ndarray,
                              w: np.ndarray | None = None,
                              anchor: np.ndarray | None = None,
                              rho: np.ndarray | None = None) -> CanonicalModel:
    """``model`` with new prices; rows, bounds and operation costs are shared.

    ``model`` and ``index`` come from :func:`build_scenario_subproblem`; the
    scenario is read from ``index``. ``lam`` holds one multiplier (>= 0) per
    slack column and becomes the slack costs. ``w``, ``anchor`` and ``rho``
    are vectors in ``first_stage_info(inst).coords`` order: first-stage costs
    become unit cost plus ``w`` (no ``w`` means zero weights), and when ``anchor`` and ``rho`` are both given the proximal
    terms ``rho_i/2 (x_i - anchor_i)^2`` are added and the model is named
    ``-pha-``, else ``-lr-``. Pricing overwrites rather than adds, so
    re-pricing a priced model equals pricing the base. A model whose columns
    do not follow the layout above is rejected.
    """
    handles = enumerate_expectation_constraints(inst)
    info = first_stage_info(inst)
    n_fs = len(info.coords)
    for label, vec, size in (("lam", lam, len(handles)), ("w", w, n_fs),
                             ("anchor", anchor, n_fs), ("rho", rho, n_fs)):
        if vec is not None and np.shape(vec) != (size,):
            raise ModelError(f"{label} must have shape ({size},), got shape {np.shape(vec)}")
    negative = np.flatnonzero(np.asarray(lam) < 0)
    if negative.size:
        c = negative[0]
        raise ModelError(f"multiplier for '{handles[c].handle}' must be >= 0, "
                         f"got {float(lam[c])!r}")
    if (anchor is None) != (rho is None):
        raise ModelError("the proximal term needs both an anchor and rho")
    if rho is not None and not np.all(np.asarray(rho) > 0):
        raise ModelError("rho must be > 0 for every first-stage coordinate")

    n = len(index)
    last_block = index.coords[n - len(handles) - 1]
    scenario = last_block[-1]
    sigma = tuple(("sigma", h.handle, scenario) for h in handles)
    if (n != model.num_vars or index.coords[:n_fs] != info.coords
            or index.coords[n - len(sigma):] != sigma
            or last_block[0] == "sigma" or index.coords[n_fs][-1] != scenario):
        raise ModelError(f"model is not a scenario subproblem of instance '{inst.name}'")

    obj = model.obj.copy()
    obj[:n_fs] = info.unit_cost if w is None else info.unit_cost + w
    obj[n - len(sigma):] = lam

    quad: tuple[QuadTerm, ...] = ()
    mode = "lr"
    if rho is not None:
        quad = tuple(QuadTerm(col=col, coef=float(r) / 2.0, anchor=float(a))
                     for col, r, a in zip(range(n_fs), rho, anchor))
        mode = "pha"
    priced = model.with_objective(obj, quad)
    return replace(priced, name=f"{inst.name}-{mode}-{scenario}")

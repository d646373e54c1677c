"""Builders translating a planning instance into solver-ready models.

Two builders share one formulation core. :func:`build_extensive_form` is the
MILP over all scenarios with the expectation constraints kept hard.
:func:`build_scenario_subproblem` is one scenario's Lagrangian model: the
expectation constraints become slack columns, priced at zero when built.
:func:`price_scenario_subproblem` is the one place that writes prices into a
scenario model: multipliers on the slacks, weights on the first stage and,
for progressive hedging, a proximal term. Its vectors follow the coordinate
order of :func:`first_stage_info`.

Column layout, which readers rely on: every model starts with the
first-stage columns in ``first_stage_info(inst).coords`` order, so a
first-stage vector ``v`` lines up with columns ``0..n-1``; each scenario
subproblem ends with its slack columns in ``enumerate_expectation_constraints``
order.

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
from typing import Mapping

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
    coords: list[Coord] = []
    lb: list[float] = []
    ub: list[float] = []
    integer: list[bool] = []
    scale: list[float] = []
    cost: list[float] = []

    for l in inst.candidate_branches():
        coords.append(("xL", l.id))
        lb.append(0.0)
        ub.append(1.0)
        integer.append(True)
        scale.append(l.capacity_mw)
        cost.append(l.fixed_cost)
    for b in inst.buses:
        for g in inst.gen_techs:
            cap = b.build_limit_gen.get(g.id)
            existing = b.existing_gen.get(g.id, 0.0)
            room = max(0.0, (cap - existing)) if cap is not None else 0.0
            coords.append(("xG", b.id, g.id))
            lb.append(0.0)
            if g.is_integer:
                ub.append(float(np.floor(room / g.unit_size_mw + 1e-9)))
            else:
                ub.append(room)
            integer.append(g.is_integer)
            scale.append(g.capacity_per_unit)
            cost.append(g.fixed_cost * g.capacity_per_unit)
    for b in inst.buses:
        for s in inst.storage_techs:
            cap = b.build_limit_storage.get(s.id)
            existing = b.existing_storage.get(s.id, 0.0)
            room = max(0.0, (cap - existing)) if cap is not None else 0.0
            coords.append(("xS", b.id, s.id))
            lb.append(0.0)
            ub.append(room)
            integer.append(False)
            scale.append(1.0)
            cost.append(s.fixed_cost)
    for b in inst.buses:
        for d in inst.load_techs:
            units = b.build_limit_load.get(d.id, 0.0)
            coords.append(("xD", b.id, d.id))
            lb.append(0.0)
            ub.append(float(round(units)))
            integer.append(True)
            scale.append(d.unit_size_mw)
            cost.append(d.fixed_cost)

    return FirstStageInfo(coords=tuple(coords), lb=read_only_array(lb),
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


def _add_first_stage(mb: ModelBuilder, info: FirstStageInfo,
                     coords: list[Coord]) -> dict[Coord, int]:
    cols: dict[Coord, int] = {}
    for i, coord in enumerate(info.coords):
        col = mb.add_var(lb=float(info.lb[i]), ub=float(info.ub[i]),
                         integer=bool(info.integer[i]), obj=float(info.unit_cost[i]))
        cols[coord] = col
        coords.append(coord)
    return cols


def _add_mandate_rows(mb: ModelBuilder, inst: PlanningInstance, cols: dict[Coord, int]) -> None:
    for d in inst.load_techs:
        if d.mandate is None:
            continue
        terms = [(cols[("xD", b.id, d.id)], 1.0) for b in inst.buses]
        sense = EQ if d.mandate.equality else GE
        mb.add_row(terms, sense, float(d.mandate.min_units))


def _add_scenario_block(mb: ModelBuilder, inst: PlanningInstance, scen,
                        coords: list[Coord], cols: dict[Coord, int],
                        cost_scale: float) -> None:
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
    bus_idx = {b.id: i for i, b in enumerate(inst.buses)}
    gen_idx = {g.id: i for i, g in enumerate(inst.gen_techs)}

    def new_var(coord, lb=0.0, ub=INF, obj=0.0):
        col = mb.add_var(lb=lb, ub=ub, obj=obj)
        cols[coord] = col
        coords.append(coord)
        return col

    for b in inst.buses:
        for g in inst.gen_techs:
            for t in range(T):
                new_var(("pG", b.id, g.id, t, w), obj=cost_scale * g.variable_cost)
    for b in inst.buses:
        for s in inst.storage_techs:
            for t in range(T):
                new_var(("pS", b.id, s.id, t, w))
    for b in inst.buses:
        for s in inst.storage_techs:
            for t in range(T):
                new_var(("pSch", b.id, s.id, t, w))
    for b in inst.buses:
        for s in inst.storage_techs:
            for t in range(T):
                new_var(("pSdch", b.id, s.id, t, w), obj=cost_scale * s.variable_cost)
    for b in inst.buses:
        for d in inst.load_techs:
            for k in range(1, len(d.tiers) + 1):
                for t in range(T):
                    new_var(("pDK", b.id, d.id, k, t, w), obj=cost_scale * d.variable_cost)
    for b in inst.buses:
        for t in range(T):
            new_var(("psh", b.id, t, w), ub=float(scen.demand[bus_idx[b.id], t]),
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
    for b in inst.buses:
        bi = bus_idx[b.id]
        for g in inst.gen_techs:
            gi = gen_idx[g.id]
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
    for b in inst.buses:
        bi = bus_idx[b.id]
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
    info = first_stage_info(inst)
    mb = ModelBuilder(name=f"{inst.name}-ef")
    coords: list[Coord] = []
    cols = _add_first_stage(mb, info, coords)
    annual = inst.annualization_days * inst.period_length_h
    for scen in inst.scenarios:
        _add_scenario_block(mb, inst, scen, coords, cols,
                            cost_scale=scen.probability * annual)
    _add_mandate_rows(mb, inst, cols)
    for spec in enumerate_expectation_constraints(inst):
        fs_terms, scen_terms, rhs = expectation_terms(inst, spec)
        terms = [(cols[c], v) for c, v in fs_terms]
        for scen in inst.scenarios:
            terms.extend((cols[c], scen.probability * v) for c, v in scen_terms(scen.id))
        mb.add_row(terms, GE, rhs)
    return mb.freeze(), VariableIndex(coords=tuple(coords))


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

    info = first_stage_info(inst)
    mb = ModelBuilder(name=f"{inst.name}-lr-{scen.id}")
    coords: list[Coord] = []
    cols = _add_first_stage(mb, info, coords)
    annual = inst.annualization_days * inst.period_length_h
    _add_scenario_block(mb, inst, scen, coords, cols, cost_scale=annual)
    _add_mandate_rows(mb, inst, cols)

    for c_spec in enumerate_expectation_constraints(inst):
        fs_terms, scen_terms, rhs = expectation_terms(inst, c_spec)
        coord = ("sigma", c_spec.handle, scen.id)
        col = mb.add_var(lb=-INF, ub=INF)
        cols[coord] = col
        coords.append(coord)
        terms = [(col, 1.0)]
        terms.extend((cols[c], v) for c, v in fs_terms)
        terms.extend((cols[c], v) for c, v in scen_terms(scen.id))
        mb.add_row(terms, EQ, rhs)

    return mb.freeze(), VariableIndex(coords=tuple(coords))


def price_scenario_subproblem(inst: PlanningInstance, model: CanonicalModel,
                              index: VariableIndex, lam: Mapping[str, float],
                              w: np.ndarray | None = None,
                              anchor: np.ndarray | None = None,
                              rho: np.ndarray | None = None) -> CanonicalModel:
    """``model`` with new prices; rows, bounds and operation costs are shared.

    ``model`` and ``index`` come from :func:`build_scenario_subproblem`; the
    scenario is read from ``index``. ``lam`` maps expectation handles to
    multipliers (>= 0, missing ones are 0) and becomes the slack costs. ``w``,
    ``anchor`` and ``rho`` are vectors in ``first_stage_info(inst).coords``
    order: first-stage costs become unit cost plus ``w`` (no ``w`` means zero
    weights), and when ``anchor`` and ``rho`` are both given the proximal
    terms ``rho_i/2 (x_i - anchor_i)^2`` are added and the model is named
    ``-pha-``, else ``-lr-``. Pricing overwrites rather than adds, so
    re-pricing a priced model equals pricing the base. A model whose columns
    do not follow the layout above is rejected.
    """
    handles = enumerate_expectation_constraints(inst)
    known = {h.handle for h in handles}
    for handle, val in lam.items():
        if handle not in known:
            raise ModelError(f"multiplier for unknown constraint handle '{handle}'")
        if val < 0:
            raise ModelError(f"multiplier for '{handle}' must be >= 0, got {val!r}")
    info = first_stage_info(inst)
    n_fs = len(info.coords)
    for label, vec in (("w", w), ("anchor", anchor), ("rho", rho)):
        if vec is not None and np.shape(vec) != (n_fs,):
            raise ModelError(f"{label} must have one entry per first-stage coordinate "
                             f"({n_fs}), got shape {np.shape(vec)}")
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
    obj[n - len(sigma):] = [float(lam.get(h.handle, 0.0)) for h in handles]

    quad: tuple[QuadTerm, ...] = ()
    mode = "lr"
    if rho is not None:
        quad = tuple(QuadTerm(col=col, coef=float(r) / 2.0, anchor=float(a))
                     for col, r, a in zip(range(n_fs), rho, anchor))
        mode = "pha"
    priced = model.with_objective(obj, quad)
    return replace(priced, name=f"{inst.name}-{mode}-{scenario}")

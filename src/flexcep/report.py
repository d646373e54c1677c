"""Solution reporting: cost decomposition, reliability audit, policy totals.

Everything here is recomputed from the instance and a primal vector rather
than read back from the solver objective, so reports double as an independent
consistency check on the optimization layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .canonical import VariableIndex
from .core import PlanningInstance
from .build import expectation_terms


@dataclass(frozen=True)
class CostBreakdown:
    invest_transmission: float = 0.0
    invest_generation: float = 0.0
    invest_storage: float = 0.0
    invest_load: float = 0.0
    op_shedding: float = 0.0
    op_generation: float = 0.0
    op_storage: float = 0.0
    op_load: float = 0.0

    @property
    def investment(self) -> float:
        return (self.invest_transmission + self.invest_generation
                + self.invest_storage + self.invest_load)

    @property
    def operation(self) -> float:
        return self.op_shedding + self.op_generation + self.op_storage + self.op_load

    @property
    def total(self) -> float:
        return self.investment + self.operation


@dataclass(frozen=True)
class BuildoutRow:
    bus: str  # empty for branch rows
    kind: str  # gen | storage | load | line
    tech: str  # tech id, or branch id for lines
    existing: float
    built: float  # MW for gen/storage, units for loads, 0/1 for lines
    built_mw: float


@dataclass(frozen=True)
class ReliabilityRow:
    bus: str
    tech: str
    tier: int
    required_phi: float
    achieved: float
    width: float
    units: float


@dataclass(frozen=True)
class PolicyRow:
    handle: str
    lhs: float  # expected output in the policy's original <= orientation
    threshold: float
    sigma_bar: float  # lhs - threshold; <= 0 means satisfied


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    consensus: float
    sigma_violation: float
    lower_bound: float | None
    upper_bound: float | None
    wall_time_s: float = 0.0


@dataclass(frozen=True)
class SolveReport:
    """Results of one planning run, ready for serialization."""

    instance_name: str
    method: str  # "ef" | "pha"
    status: str
    objective: float | None  # the incumbent's cost, which is the upper bound
    lower_bound: float | None
    gap: float | None
    termination: str
    costs: CostBreakdown | None
    buildout: tuple[BuildoutRow, ...] = ()
    reliability: tuple[ReliabilityRow, ...] = ()
    policies: tuple[PolicyRow, ...] = ()
    trace: tuple[TraceRow, ...] = ()
    incumbent_source: str | None = None  # e.g. "scenario s3 @ iteration 5"


# ---------------------------------------------------------------------------
# Cost evaluation
# ---------------------------------------------------------------------------


def cost_breakdown(inst: PlanningInstance, x_first: Mapping, value) -> CostBreakdown:
    """Annualized investment cost of the first-stage assignment ``x_first`` (by
    coordinate) and probability-weighted annualized operation cost of the
    scenarios, whose primals ``value(coord)`` reads."""
    buses, periods = inst.buses, range(inst.num_periods)
    costs = {
        "invest_transmission": sum(l.fixed_cost * x_first.get(("xL", l.id), 0.0)
                                   for l in inst.candidate_branches()),
        "invest_generation": sum(
            g.fixed_cost * g.capacity_per_unit * x_first.get(("xG", b.id, g.id), 0.0)
            for b in buses for g in inst.gen_techs),
        "invest_storage": sum(s.fixed_cost * x_first.get(("xS", b.id, s.id), 0.0)
                              for b in buses for s in inst.storage_techs),
        "invest_load": sum(d.fixed_cost * x_first.get(("xD", b.id, d.id), 0.0)
                           for b in buses for d in inst.load_techs),
        "op_shedding": 0.0, "op_generation": 0.0, "op_storage": 0.0, "op_load": 0.0,
    }
    scale = inst.annualization_days * inst.period_length_h
    for scen in inst.scenarios:
        w = scen.id
        shed = gen = sto = load = 0.0
        for b in buses:
            for t in periods:
                shed += inst.shed_cost * value(("psh", b.id, t, w))
            for g in inst.gen_techs:
                for t in periods:
                    gen += g.variable_cost * value(("pG", b.id, g.id, t, w))
            for s in inst.storage_techs:
                for t in periods:
                    sto += s.variable_cost * value(("pSdch", b.id, s.id, t, w))
            for d in inst.load_techs:
                for k in range(1, len(d.tiers) + 1):
                    for t in periods:
                        load += d.variable_cost * value(("pDK", b.id, d.id, k, t, w))
        for key, total in zip(("op_shedding", "op_generation", "op_storage", "op_load"),
                              (shed, gen, sto, load)):
            costs[key] += scen.probability * (scale * total)
    return CostBreakdown(**costs)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


def buildout_rows(inst: PlanningInstance, x_first: Mapping) -> tuple[BuildoutRow, ...]:
    rows: list[BuildoutRow] = []
    for b in inst.buses:
        for g in inst.gen_techs:
            built = x_first.get(("xG", b.id, g.id), 0.0)
            rows.append(BuildoutRow(bus=b.id, kind="gen", tech=g.id,
                                    existing=b.existing_gen.get(g.id, 0.0),
                                    built=built, built_mw=built * g.capacity_per_unit))
        for s in inst.storage_techs:
            built = x_first.get(("xS", b.id, s.id), 0.0)
            rows.append(BuildoutRow(bus=b.id, kind="storage", tech=s.id,
                                    existing=b.existing_storage.get(s.id, 0.0),
                                    built=built, built_mw=built))
        for d in inst.load_techs:
            built = x_first.get(("xD", b.id, d.id), 0.0)
            rows.append(BuildoutRow(bus=b.id, kind="load", tech=d.id, existing=0.0,
                                    built=built, built_mw=built * d.unit_size_mw))
    for l in inst.candidate_branches():
        built = x_first.get(("xL", l.id), 0.0)
        rows.append(BuildoutRow(bus="", kind="line", tech=l.id, existing=0.0,
                                built=built, built_mw=built * l.capacity_mw))
    return tuple(rows)


def reliability_rows(inst: PlanningInstance, x_first: Mapping,
                     value) -> tuple[ReliabilityRow, ...]:
    """Achieved vs required expected capacity factor per built tranche.

    The achieved factor is the probability-weighted served energy divided by
    the tranche's maximum energy over the horizon; zero-width filler tranches
    are reported as fully served.
    """
    tau = inst.period_length_h
    T = inst.num_periods
    rows: list[ReliabilityRow] = []
    for b in inst.buses:
        for d in inst.load_techs:
            units = x_first.get(("xD", b.id, d.id), 0.0)
            if units <= 1e-9:
                continue
            widths = d.tiers.widths()
            for k in range(1, len(d.tiers) + 1):
                width = widths[k - 1]
                cap_energy = width * d.unit_size_mw * tau * T * units
                served = 0.0
                for scen in inst.scenarios:
                    served += scen.probability * sum(
                        tau * value(("pDK", b.id, d.id, k, t, scen.id)) for t in range(T))
                achieved = served / cap_energy if cap_energy > 1e-12 else 1.0
                rows.append(ReliabilityRow(bus=b.id, tech=d.id, tier=k,
                                           required_phi=d.tiers.phi[k - 1],
                                           achieved=achieved, width=width, units=units))
    return tuple(rows)


def policy_rows(inst: PlanningInstance, x_first: Mapping,
                value) -> tuple[PolicyRow, ...]:
    """Expected-output policy totals in their original <= orientation."""
    rows: list[PolicyRow] = []
    for spec in inst.expectation_policies:
        fs_terms, scen_terms, _ = expectation_terms(inst, spec)
        ge = sum(v * x_first.get(c, 0.0) for c, v in fs_terms)
        for scen in inst.scenarios:
            ge += scen.probability * sum(v * value(c) for c, v in scen_terms(scen.id))
        lhs = -ge  # the >= form is the policy negated; negating back is exact
        rows.append(PolicyRow(handle=spec.handle, lhs=lhs, threshold=spec.threshold,
                              sigma_bar=lhs - spec.threshold))
    return tuple(rows)


def extract_first_stage(index: VariableIndex, x: np.ndarray) -> dict:
    """First-stage coordinate -> value map from a full primal vector."""
    out = {}
    for col in index.columns_of_kind("xL", "xG", "xS", "xD"):
        out[index.coord(col)] = float(x[col])
    return out


def value_reader(index: VariableIndex, x: np.ndarray):
    """``value(coord)``: the primal value of a coordinate in ``x``."""
    def value(coord) -> float:
        return float(x[index.column(coord)])
    return value


def report_from_solution(inst: PlanningInstance, index: VariableIndex, x: np.ndarray,
                         method: str, status: str, objective: float | None,
                         lower_bound: float | None = None,
                         gap: float | None = None,
                         termination: str = "",
                         trace: Sequence[TraceRow] = (),
                         incumbent_source: str | None = None) -> SolveReport:
    """Assemble the full report for a solved model's primal vector."""
    x_first = extract_first_stage(index, x)
    value = value_reader(index, x)
    return SolveReport(
        instance_name=inst.name,
        method=method,
        status=status,
        objective=objective,
        lower_bound=lower_bound,
        gap=gap,
        termination=termination,
        costs=cost_breakdown(inst, x_first, value),
        buildout=buildout_rows(inst, x_first),
        reliability=reliability_rows(inst, x_first, value),
        policies=policy_rows(inst, x_first, value),
        trace=tuple(trace),
        incumbent_source=incumbent_source,
    )

"""Domain model for nodal capacity expansion planning with large-load siting.

Immutable description of the network, technology catalogs, candidate
investments, operational scenarios, load flexibility tiers and incentive
policies, plus the structural validation every optimization layer relies on.

Conventions: power in MW, energy in MWh, money in $/y for fixed costs and
$/MWh for variable costs, emissions or service output in the units of the
policy coefficients. Periods are 0-based within a representative horizon.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Mapping, Sequence

import numpy as np

# Identifiers are embedded in CSV headers (``bus:tech`` columns) and in the
# ``tier[bus,tech,k]`` handles, so the charset is restricted; ':' and ',' and
# brackets stay available as separators.
_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")

PROBABILITY_TOL = 1e-9

INTEGER_UNITS = "integer_units"
CONTINUOUS = "continuous"

TIER_RELIABILITY = "tier_reliability"
EXPECTED_OUTPUT = "expected_output"


def _freeze(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Violation:
    """One structural defect found by :func:`validate_instance`."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class InvalidInstanceError(ValueError):
    """The instance violates structural invariants; ``violations`` has all of them."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"instance is invalid: {lines}{more}")


@dataclass(frozen=True)
class TierSpec:
    """Reliability tranches of a large load.

    Tranche k covers the fraction ``u[k] - u[k-1]`` of installed capacity
    (with ``u[-1] = 0`` implied) and must be served with an expected capacity
    factor of at least ``phi[k]``. Breakpoints are non-decreasing and end at
    1; zero-width tranches are legal filler used to align tier counts.
    """

    u: tuple[float, ...]
    phi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(v) for v in self.u))
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))

    def __len__(self) -> int:
        return len(self.u)

    def widths(self) -> tuple[float, ...]:
        prev = 0.0
        out = []
        for v in self.u:
            out.append(v - prev)
            prev = v
        return tuple(out)


INFLEXIBLE = TierSpec(u=(1.0,), phi=(1.0,))
FULL_FLEX = TierSpec(u=(1.0,), phi=(0.0,))


@dataclass(frozen=True)
class GenTech:
    """Generation technology, expanded in integer units or continuous MW."""

    id: str
    integrality: str  # INTEGER_UNITS or CONTINUOUS
    fixed_cost: float  # $/MW/y
    variable_cost: float  # $/MWh
    emission_factor: float = 0.0  # output-metric units per MWh generated
    unit_size_mw: float | None = None  # required iff integer_units

    @property
    def is_integer(self) -> bool:
        return self.integrality == INTEGER_UNITS

    @property
    def capacity_per_unit(self) -> float:
        """MW of capacity added per unit of the investment variable."""
        return float(self.unit_size_mw) if self.is_integer else 1.0


@dataclass(frozen=True)
class StorageTech:
    id: str
    fixed_cost: float  # $/MW/y of power conversion capacity
    variable_cost: float  # $/MWh on discharge
    duration_h: float  # energy capacity = duration_h * power capacity
    eff_charge: float
    eff_discharge: float


@dataclass(frozen=True)
class Mandate:
    """System-wide buildout floor for a load type; equality pins it exactly."""

    min_units: int
    equality: bool = False


@dataclass(frozen=True)
class LargeLoadTech:
    """Sited large load (datacenter, capture facility) built in whole units."""

    id: str
    unit_size_mw: float
    fixed_cost: float  # $/unit/y
    variable_cost: float  # $/MWh consumed; < 0 only with an equality mandate
    tiers: TierSpec
    capture_factor: float = 0.0  # output-metric units per MWh consumed
    mandate: Mandate | None = None


EXISTING = "existing"
CANDIDATE = "candidate"


@dataclass(frozen=True)
class Branch:
    id: str
    from_bus: str
    to_bus: str
    susceptance: float  # MW per radian of angle difference
    capacity_mw: float
    status: str = EXISTING  # EXISTING or CANDIDATE
    fixed_cost: float = 0.0  # $/y, candidates only

    @property
    def is_candidate(self) -> bool:
        return self.status == CANDIDATE


@dataclass(frozen=True)
class Bus:
    """Network node with existing capacity and per-technology build limits.

    A technology absent from a build-limit map cannot be expanded at the bus;
    existing capacity is unaffected by that.
    """

    id: str
    existing_gen: Mapping[str, float] = field(default_factory=dict)  # tech -> MW
    existing_storage: Mapping[str, float] = field(default_factory=dict)  # tech -> MW
    build_limit_gen: Mapping[str, float] = field(default_factory=dict)  # tech -> MW cap incl. existing
    build_limit_storage: Mapping[str, float] = field(default_factory=dict)  # tech -> MW cap incl. existing
    build_limit_load: Mapping[str, float] = field(default_factory=dict)  # tech -> max units

    def __post_init__(self):
        for name in ("existing_gen", "existing_storage", "build_limit_gen",
                     "build_limit_storage", "build_limit_load"):
            object.__setattr__(self, name, dict(getattr(self, name)))


@dataclass(frozen=True)
class Scenario:
    """One operational scenario: a representative horizon of demand and availability.

    ``demand`` has shape (n_buses, n_periods) and ``availability`` shape
    (n_buses, n_gen_techs, n_periods), both indexed in the declaration order
    of the instance's buses and generation technologies.
    """

    id: str
    probability: float
    demand: np.ndarray
    availability: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "demand", _freeze(self.demand))
        object.__setattr__(self, "availability", _freeze(self.availability))

    @property
    def num_periods(self) -> int:
        return int(self.demand.shape[-1])


@dataclass(frozen=True)
class ExpectationConstraintSpec:
    """A cross-scenario expectation constraint, in its canonical >= form.

    Two kinds exist. ``tier_reliability`` specs are generated per
    (bus, load tech, tranche) and are never user-authored. ``expected_output``
    specs carry coefficient maps ``q`` (per generation tech, applied to MWh
    generated) and ``r`` (per load tech, applied to MWh consumed) and bound
    the probability-weighted sum ``sum_w pi_w sum_t tau (q.pG + r.pD)`` above
    by ``threshold``, measured over one representative horizon.
    """

    kind: str
    handle: str
    bus: str | None = None
    load_tech: str | None = None
    tier: int | None = None  # 1-based tranche index
    q: Mapping[str, float] = field(default_factory=dict)
    r: Mapping[str, float] = field(default_factory=dict)
    threshold: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", dict(self.q))
        object.__setattr__(self, "r", dict(self.r))


def tier_handle(bus_id: str, tech_id: str, k: int) -> str:
    return f"tier[{bus_id},{tech_id},{k}]"


@dataclass(frozen=True)
class PlanningInstance:
    """Immutable planning problem: network, catalogs, scenarios and policies."""

    name: str
    buses: tuple[Bus, ...]
    gen_techs: tuple[GenTech, ...]
    storage_techs: tuple[StorageTech, ...]
    load_techs: tuple[LargeLoadTech, ...]
    branches: tuple[Branch, ...]
    scenarios: tuple[Scenario, ...]
    period_length_h: float
    shed_cost: float  # $/MWh
    annualization_days: float = 365.0
    expectation_policies: tuple[ExpectationConstraintSpec, ...] = ()
    big_m_angle_spread: float = 2.0 * np.pi  # radians; angles boxed to +/- half of this

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "gen_techs", tuple(self.gen_techs))
        object.__setattr__(self, "storage_techs", tuple(self.storage_techs))
        object.__setattr__(self, "load_techs", tuple(self.load_techs))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "expectation_policies", tuple(self.expectation_policies))
        scenarios = tuple(self.scenarios)
        total = sum(s.probability for s in scenarios)
        if scenarios and abs(total - 1.0) <= PROBABILITY_TOL and total != 1.0:
            # Renormalize exactly so downstream expectation arithmetic is drift-free.
            scenarios = tuple(replace(s, probability=s.probability / total) for s in scenarios)
        object.__setattr__(self, "scenarios", scenarios)

    # -- ordered id views ---------------------------------------------------

    @property
    def bus_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.buses)

    @property
    def gen_ids(self) -> tuple[str, ...]:
        return tuple(g.id for g in self.gen_techs)

    @property
    def storage_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.storage_techs)

    @property
    def load_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.load_techs)

    @property
    def scenario_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.scenarios)

    @property
    def num_periods(self) -> int:
        return self.scenarios[0].num_periods if self.scenarios else 0

    def bus(self, bus_id: str) -> Bus:
        return _by_id(self.buses, bus_id)

    def load_tech(self, tech_id: str) -> LargeLoadTech:
        return _by_id(self.load_techs, tech_id)

    def scenario(self, scen_id: str) -> Scenario:
        return _by_id(self.scenarios, scen_id)

    @property
    def reference_bus(self) -> str:
        """Angle reference: the lowest-ordered bus id."""
        return min(self.bus_ids)

    def candidate_branches(self) -> tuple[Branch, ...]:
        return tuple(l for l in self.branches if l.is_candidate)


def _by_id(items, item_id):
    for it in items:
        if it.id == item_id:
            return it
    raise KeyError(item_id)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check_id(out, path, value):
    if not isinstance(value, str) or not _ID_RE.match(value or ""):
        out.append(Violation(path, "identifier must be non-empty and match [A-Za-z0-9_.-]+"))
        return False
    return True


def _check_unique(out, path, ids, what):
    seen = set()
    for i in ids:
        if i in seen:
            out.append(Violation(f"{path}[{i}]", f"duplicate {what} id"))
        seen.add(i)


def _check_finite(out, path, value):
    """One violation per numeric field under ``value`` holding NaN or an infinity."""
    if isinstance(value, np.ndarray):
        if not np.all(np.isfinite(value)):
            out.append(Violation(path, "must be finite"))
    elif isinstance(value, float):
        if not math.isfinite(value):
            out.append(Violation(path, "must be finite"))
    elif isinstance(value, Mapping):
        for key, v in value.items():
            _check_finite(out, f"{path}[{key}]", v)
    elif isinstance(value, tuple):  # items with an id are named by it, as elsewhere
        for i, v in enumerate(value):
            _check_finite(out, f"{path}[{getattr(v, 'id', i)}]", v)
    elif is_dataclass(value):
        for f in fields(value):
            _check_finite(out, f"{path}.{f.name}" if path else f.name, getattr(value, f.name))


def _validate_tiers(out, path, tiers: TierSpec):
    if len(tiers.u) != len(tiers.phi):
        out.append(Violation(path, "u and phi must have the same length"))
        return
    if len(tiers.u) < 1:
        out.append(Violation(path, "at least one tier is required"))
        return
    prev = 0.0
    for k, v in enumerate(tiers.u):
        if not (0.0 < v <= 1.0):
            out.append(Violation(f"{path}.u[{k}]", "breakpoints must lie in (0, 1]"))
        if v < prev:
            out.append(Violation(f"{path}.u[{k}]", "breakpoints must be non-decreasing"))
        prev = v
    if tiers.u and abs(tiers.u[-1] - 1.0) > 1e-12:
        out.append(Violation(f"{path}.u[{len(tiers.u) - 1}]", "last breakpoint must equal 1"))
    prev_phi = None
    for k, p in enumerate(tiers.phi):
        if not (0.0 <= p <= 1.0):
            out.append(Violation(f"{path}.phi[{k}]", "reliabilities must lie in [0, 1]"))
        if prev_phi is not None and p > prev_phi + 1e-12:
            out.append(Violation(f"{path}.phi[{k}]", "phi non-increasing"))
        prev_phi = p


def validate_instance(inst: PlanningInstance) -> list[Violation]:
    """Check every structural invariant, and that every number is finite; an
    empty list means the instance is valid.

    Violations are data, not errors: all of them are collected and returned in
    deterministic order (lexicographic by path, then message).
    """
    out: list[Violation] = []
    _check_finite(out, "", inst)

    if not inst.buses:
        out.append(Violation("buses", "at least one bus is required"))
    if not inst.scenarios:
        out.append(Violation("scenarios", "at least one scenario is required"))
    if inst.period_length_h <= 0:
        out.append(Violation("period_length_h", "must be > 0"))
    if inst.shed_cost < 0:
        out.append(Violation("shed_cost", "must be >= 0"))
    if inst.annualization_days <= 0:
        out.append(Violation("annualization_days", "must be > 0"))
    if inst.big_m_angle_spread <= 0:
        out.append(Violation("big_m_angle_spread", "must be > 0"))

    _check_unique(out, "buses", inst.bus_ids, "bus")
    _check_unique(out, "gen_techs", inst.gen_ids, "generation tech")
    _check_unique(out, "storage_techs", inst.storage_ids, "storage tech")
    _check_unique(out, "load_techs", inst.load_ids, "load tech")
    _check_unique(out, "branches", [l.id for l in inst.branches], "branch")
    _check_unique(out, "scenarios", inst.scenario_ids, "scenario")

    gen_ids = set(inst.gen_ids)
    storage_ids = set(inst.storage_ids)
    load_ids = set(inst.load_ids)
    bus_ids = set(inst.bus_ids)

    for g in inst.gen_techs:
        path = f"gen_techs[{g.id}]"
        _check_id(out, path + ".id", g.id)
        if g.integrality not in (INTEGER_UNITS, CONTINUOUS):
            out.append(Violation(path + ".integrality",
                                 f"must be '{INTEGER_UNITS}' or '{CONTINUOUS}'"))
        if g.is_integer:
            if g.unit_size_mw is None or g.unit_size_mw <= 0:
                out.append(Violation(path + ".unit_size_mw",
                                     "integer-units techs need unit_size_mw > 0"))
        elif g.unit_size_mw is not None:
            out.append(Violation(path + ".unit_size_mw",
                                 "continuous techs must not set unit_size_mw"))
        if g.fixed_cost < 0:
            out.append(Violation(path + ".fixed_cost", "must be >= 0"))

    for s in inst.storage_techs:
        path = f"storage_techs[{s.id}]"
        _check_id(out, path + ".id", s.id)
        if s.duration_h <= 0:
            out.append(Violation(path + ".duration_h", "must be > 0"))
        if not (0.0 < s.eff_charge <= 1.0):
            out.append(Violation(path + ".eff_charge", "must lie in (0, 1]"))
        if not (0.0 < s.eff_discharge <= 1.0):
            out.append(Violation(path + ".eff_discharge", "must lie in (0, 1]"))
        if s.fixed_cost < 0:
            out.append(Violation(path + ".fixed_cost", "must be >= 0"))

    for d in inst.load_techs:
        path = f"load_techs[{d.id}]"
        _check_id(out, path + ".id", d.id)
        if d.unit_size_mw <= 0:
            out.append(Violation(path + ".unit_size_mw", "must be > 0"))
        if d.fixed_cost < 0:
            out.append(Violation(path + ".fixed_cost", "must be >= 0"))
        _validate_tiers(out, path + ".tiers", d.tiers)
        if d.mandate is not None and d.mandate.min_units < 0:
            out.append(Violation(path + ".mandate.min_units", "must be >= 0"))
        if d.variable_cost < 0 and not (d.mandate is not None and d.mandate.equality):
            out.append(Violation(path + ".variable_cost",
                                 "negative variable cost requires an equality mandate"))
        if d.mandate is not None:
            buildable = sum(b.build_limit_load.get(d.id, 0.0) for b in inst.buses)
            if d.mandate.min_units > buildable:
                out.append(Violation(path + ".mandate.min_units",
                                     f"mandate of {d.mandate.min_units} exceeds total "
                                     f"buildable units ({buildable:g})"))

    for l in inst.branches:
        path = f"branches[{l.id}]"
        _check_id(out, path + ".id", l.id)
        if l.from_bus not in bus_ids:
            out.append(Violation(path + ".from_bus", f"unknown bus '{l.from_bus}'"))
        if l.to_bus not in bus_ids:
            out.append(Violation(path + ".to_bus", f"unknown bus '{l.to_bus}'"))
        if l.from_bus == l.to_bus:
            out.append(Violation(path, "from_bus and to_bus must differ"))
        if l.capacity_mw <= 0:
            out.append(Violation(path + ".capacity_mw", "must be > 0"))
        if l.susceptance == 0:
            out.append(Violation(path + ".susceptance", "must be nonzero"))
        if l.status not in (EXISTING, CANDIDATE):
            out.append(Violation(path + ".status", f"must be '{EXISTING}' or '{CANDIDATE}'"))
        if l.is_candidate and l.fixed_cost < 0:
            out.append(Violation(path + ".fixed_cost", "must be >= 0"))

    for b in inst.buses:
        path = f"buses[{b.id}]"
        _check_id(out, path + ".id", b.id)
        _validate_bus_maps(out, path, b, gen_ids, storage_ids, load_ids, inst)

    n_bus, n_gen = len(inst.buses), len(inst.gen_techs)
    period_counts = {s.num_periods for s in inst.scenarios}
    if len(period_counts) > 1:
        out.append(Violation("scenarios", "all scenarios must share the same period count"))
    total_p = 0.0
    for s in inst.scenarios:
        path = f"scenarios[{s.id}]"
        _check_id(out, path + ".id", s.id)
        total_p += s.probability
        if not (0.0 < s.probability <= 1.0):
            out.append(Violation(path + ".probability", "must lie in (0, 1]"))
        if s.demand.ndim != 2 or s.demand.shape[0] != n_bus:
            out.append(Violation(path + ".demand",
                                 f"expected shape ({n_bus}, n_periods), got {s.demand.shape}"))
        elif np.any(s.demand < 0):
            out.append(Violation(path + ".demand", "must be >= 0"))
        if s.availability.ndim != 3 or s.availability.shape[:2] != (n_bus, n_gen):
            out.append(Violation(path + ".availability",
                                 f"expected shape ({n_bus}, {n_gen}, n_periods), "
                                 f"got {s.availability.shape}"))
        else:
            if s.availability.shape[2] != s.demand.shape[-1]:
                out.append(Violation(path + ".availability",
                                     "period count differs from demand"))
            if np.any(s.availability < 0) or np.any(s.availability > 1):
                out.append(Violation(path + ".availability", "must lie in [0, 1]"))
    if inst.scenarios and abs(total_p - 1.0) > PROBABILITY_TOL:
        out.append(Violation("scenarios.probability",
                             f"probabilities must sum to 1 (got {total_p!r})"))

    handles = set()
    for i, pol in enumerate(inst.expectation_policies):
        path = f"expectation_policies[{i}]"
        if pol.kind != EXPECTED_OUTPUT:
            out.append(Violation(path + ".kind",
                                 "user policies must be expected_output; tier specs are generated"))
        _check_id(out, path + ".handle", pol.handle)
        if pol.handle in handles:
            out.append(Violation(path + ".handle", f"duplicate handle '{pol.handle}'"))
        handles.add(pol.handle)
        for tech in pol.q:
            if tech not in gen_ids:
                out.append(Violation(path + f".q[{tech}]", "unknown generation tech"))
        for tech in pol.r:
            if tech not in load_ids:
                out.append(Violation(path + f".r[{tech}]", "unknown load tech"))

    out.sort(key=lambda v: (v.path, v.message))
    return out


def _validate_bus_maps(out, path, b: Bus, gen_ids, storage_ids, load_ids, inst):
    def check_map(name, mapping, known, what):
        for tech, val in mapping.items():
            if tech not in known:
                out.append(Violation(f"{path}.{name}[{tech}]", f"unknown {what} tech"))
            if val < 0:
                out.append(Violation(f"{path}.{name}[{tech}]", "must be >= 0"))

    check_map("existing_gen", b.existing_gen, gen_ids, "generation")
    check_map("existing_storage", b.existing_storage, storage_ids, "storage")
    check_map("build_limit_gen", b.build_limit_gen, gen_ids, "generation")
    check_map("build_limit_storage", b.build_limit_storage, storage_ids, "storage")
    check_map("build_limit_load", b.build_limit_load, load_ids, "load")
    for tech, cap in b.build_limit_gen.items():
        if tech in gen_ids and b.existing_gen.get(tech, 0.0) > cap:
            out.append(Violation(f"{path}.build_limit_gen[{tech}]",
                                 "build limit below existing capacity"))
    for tech, cap in b.build_limit_storage.items():
        if tech in storage_ids and b.existing_storage.get(tech, 0.0) > cap:
            out.append(Violation(f"{path}.build_limit_storage[{tech}]",
                                 "build limit below existing capacity"))
    for tech, cap in b.build_limit_load.items():
        if tech in load_ids and math.isfinite(cap) and abs(cap - round(cap)) > 1e-9:
            out.append(Violation(f"{path}.build_limit_load[{tech}]",
                                 "load build limits are unit counts and must be integral"))


def _phi_on_grid(tiers: TierSpec, grid: Sequence[float]) -> list[float]:
    out = []
    for right in grid:
        k = next(i for i, u in enumerate(tiers.u) if u >= right - 1e-12)
        out.append(tiers.phi[k])
    return out


def compare_tiers(a: TierSpec, b: TierSpec) -> int | None:
    """Order tier specs by strictness on a common refined breakpoint grid.

    Returns 1 when ``a`` is stricter (phi_a >= phi_b everywhere, so ``b`` is a
    relaxation of ``a``), -1 for the reverse, 0 when equivalent, and None when
    the reliabilities cross. Splitting a tranche into same-phi parts does not
    change the feasible set, so refinement compares exactly.
    """
    grid = sorted({*a.u, *b.u})
    grid = [g for g in grid if g > 1e-12]
    prev = 0.0
    rights = []
    for g in grid:
        if g - prev > 1e-12:  # zero-width tranches carry no load
            rights.append(g)
        prev = g
    pa = _phi_on_grid(a, rights)
    pb = _phi_on_grid(b, rights)
    a_ge = all(x >= y - 1e-12 for x, y in zip(pa, pb))
    b_ge = all(y >= x - 1e-12 for x, y in zip(pa, pb))
    if a_ge and b_ge:
        return 0
    if a_ge:
        return 1
    if b_ge:
        return -1
    return None


def enumerate_expectation_constraints(inst: PlanningInstance) -> tuple[ExpectationConstraintSpec, ...]:
    """All expectation constraints of the instance, in stable handle order.

    One tier-reliability spec per (bus, load tech, tranche) triple at buses
    where the tech is buildable, followed by the user expected-output
    policies. Pure function of the instance.
    """
    specs: list[ExpectationConstraintSpec] = []
    for b in inst.buses:
        for d in inst.load_techs:
            if b.build_limit_load.get(d.id, 0.0) <= 0:
                continue
            for k in range(1, len(d.tiers) + 1):
                specs.append(ExpectationConstraintSpec(
                    kind=TIER_RELIABILITY,
                    handle=tier_handle(b.id, d.id, k),
                    bus=b.id,
                    load_tech=d.id,
                    tier=k,
                ))
    specs.extend(inst.expectation_policies)
    return tuple(specs)

"""Desk-scale ground truth: synthetic instances and an exhaustive optimizer.

The generators build three families of small planning problems whose integer
first-stage lattice is enumerable, and ``brute_force_optimum`` certifies the
optimum by fixing every lattice point and solving the remaining LP with the
expectation constraints kept hard, a code path independent of both
branch-and-bound and the dualized machinery.

* G1: two buses joined by one candidate line; integer gas units, continuous
  solar, one battery tech, one capture-like flexible load with mid-flex
  tranches, a net-zero expected-output policy, two scenarios, four periods.
* G2: G1 plus a datacenter-like load with an equality mandate and a negative
  energy cost.
* G3: three radial buses with the load siting choice between the two far ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .build import build_extensive_form, first_stage_info
from .canonical import INFEASIBLE, OPTIMAL, UNBOUNDED, relax_integrality, restrict_bounds
from .core import (
    CANDIDATE,
    CONTINUOUS,
    EXISTING,
    EXPECTED_OUTPUT,
    INTEGER_UNITS,
    Branch,
    Bus,
    ExpectationConstraintSpec,
    GenTech,
    LargeLoadTech,
    Mandate,
    PlanningInstance,
    Scenario,
    StorageTech,
    TierSpec,
    validate_instance,
)
from .solvers import SolverConfig, solve

GENERATORS = ("G1", "G2", "G3")

DAC_MID_FLEX = TierSpec(u=(0.5, 0.75, 1.0), phi=(1.0, 0.5, 0.0))
DATACENTER_MID_FLEX = TierSpec(u=(0.5, 0.9, 1.0), phi=(1.0, 0.85, 0.0))

LATTICE_LIMIT = 10_000


@dataclass(frozen=True)
class BruteForceResult:
    status: str  # "optimal" | "infeasible"
    objective: float | None
    assignment: dict  # first-stage coordinate -> value (lexicographic tie-break)
    points_total: int
    points_feasible: int


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def _noisy(rng: np.random.Generator, base, lo: float, hi: float) -> np.ndarray:
    arr = np.asarray(base, dtype=float)
    return arr * rng.uniform(lo, hi, size=arr.shape)


def _gas() -> GenTech:
    return GenTech(id="gas", integrality=INTEGER_UNITS, unit_size_mw=50.0,
                   fixed_cost=90_000.0, variable_cost=60.0, emission_factor=0.4)


def _solar() -> GenTech:
    return GenTech(id="solar", integrality=CONTINUOUS,
                   fixed_cost=70_000.0, variable_cost=0.0, emission_factor=0.0)


def _battery() -> StorageTech:
    return StorageTech(id="battery", fixed_cost=25_000.0, variable_cost=1.0,
                       duration_h=4.0, eff_charge=0.9, eff_discharge=0.9)


def _dac(tiers: TierSpec = DAC_MID_FLEX) -> LargeLoadTech:
    return LargeLoadTech(id="dac", unit_size_mw=10.0, fixed_cost=300_000.0,
                         variable_cost=3.0, tiers=tiers, capture_factor=0.5)


def _net_zero(threshold: float = 0.0) -> ExpectationConstraintSpec:
    # emissions from gas minus capture by the dac fleet must stay <= threshold
    return ExpectationConstraintSpec(kind=EXPECTED_OUTPUT, handle="netzero",
                                     q={"gas": 0.4}, r={"dac": -0.5},
                                     threshold=threshold)


def _scenarios_2bus(rng: np.random.Generator) -> tuple[Scenario, Scenario]:
    # period length 6h, 4 periods: night, morning, afternoon, evening
    d_b1 = np.array([44.0, 72.0, 62.0, 48.0])
    d_b2 = np.array([10.0, 18.0, 15.0, 11.0])
    a_solar_b1 = np.array([0.0, 0.65, 0.9, 0.1])
    a_solar_b2 = np.array([0.0, 0.75, 0.95, 0.15])
    ones = np.ones(4)

    def build(scen_id, prob, demand_mult, solar_mult):
        demand = np.vstack([
            _noisy(rng, d_b1 * demand_mult, 0.9, 1.1),
            _noisy(rng, d_b2 * demand_mult, 0.9, 1.1),
        ])
        avail = np.zeros((2, 2, 4))
        avail[0, 0] = ones  # gas at B1
        avail[1, 0] = ones  # gas at B2 (not buildable there, availability moot)
        avail[0, 1] = np.clip(_noisy(rng, a_solar_b1 * solar_mult, 0.85, 1.0), 0.0, 1.0)
        avail[1, 1] = np.clip(_noisy(rng, a_solar_b2 * solar_mult, 0.85, 1.0), 0.0, 1.0)
        return Scenario(id=scen_id, probability=prob, demand=demand, availability=avail)

    return build("s1", 0.6, 1.0, 1.0), build("s2", 0.4, 1.1, 0.7)


def _generate_g1(seed: int, tiers: TierSpec = DAC_MID_FLEX,
                 policy_threshold: float = 0.0) -> PlanningInstance:
    rng = np.random.default_rng(seed)
    s1, s2 = _scenarios_2bus(rng)
    return PlanningInstance(
        name=f"G1-seed{seed}",
        buses=(
            Bus(id="B1", existing_gen={"gas": 20.0},
                build_limit_gen={"gas": 120.0, "solar": 150.0},
                build_limit_storage={"battery": 35.0},
                build_limit_load={"dac": 3.0}),
            Bus(id="B2",
                build_limit_gen={"solar": 150.0},
                build_limit_storage={"battery": 20.0},
                build_limit_load={"dac": 3.0}),
        ),
        gen_techs=(_gas(), _solar()),
        storage_techs=(_battery(),),
        load_techs=(_dac(tiers),),
        branches=(Branch(id="L12", from_bus="B1", to_bus="B2", susceptance=300.0,
                         capacity_mw=60.0, status=CANDIDATE, fixed_cost=900_000.0),),
        scenarios=(s1, s2),
        period_length_h=6.0,
        shed_cost=8_000.0,
        expectation_policies=(_net_zero(policy_threshold),),
    )


def _generate_g2(seed: int) -> PlanningInstance:
    base = _generate_g1(seed)
    datacenter = LargeLoadTech(
        id="datacenter", unit_size_mw=40.0, fixed_cost=900_000.0,
        variable_cost=-4.0, tiers=DATACENTER_MID_FLEX,
        mandate=Mandate(min_units=1, equality=True))
    buses = (
        Bus(id="B1", existing_gen=base.buses[0].existing_gen,
            build_limit_gen=base.buses[0].build_limit_gen,
            build_limit_storage=base.buses[0].build_limit_storage,
            build_limit_load={"dac": 3.0, "datacenter": 1.0}),
        Bus(id="B2",
            build_limit_gen=base.buses[1].build_limit_gen,
            build_limit_storage=base.buses[1].build_limit_storage,
            build_limit_load={"dac": 3.0, "datacenter": 1.0}),
    )
    return PlanningInstance(
        name=f"G2-seed{seed}",
        buses=buses,
        gen_techs=base.gen_techs,
        storage_techs=base.storage_techs,
        load_techs=(base.load_techs[0], datacenter),
        branches=base.branches,
        scenarios=base.scenarios,
        period_length_h=base.period_length_h,
        shed_cost=base.shed_cost,
        expectation_policies=base.expectation_policies,
    )


def _generate_g3(seed: int) -> PlanningInstance:
    rng = np.random.default_rng(seed)
    d_base = {
        "B1": np.array([22.0, 38.0, 33.0, 24.0]),
        "B2": np.array([38.0, 58.0, 50.0, 40.0]),
        "B3": np.array([8.0, 14.0, 12.0, 7.0]),
    }
    a_solar = np.array([0.0, 0.7, 0.9, 0.1])
    scenarios = []
    for scen_id, prob, dm, sm in (("s1", 0.5, 1.0, 1.0), ("s2", 0.5, 1.1, 0.6)):
        demand = np.vstack([_noisy(rng, d_base[b] * dm, 0.9, 1.1)
                            for b in ("B1", "B2", "B3")])
        avail = np.zeros((3, 2, 4))
        avail[:, 0, :] = 1.0  # gas
        for i in range(3):
            avail[i, 1] = np.clip(_noisy(rng, a_solar * sm, 0.85, 1.0), 0.0, 1.0)
        scenarios.append(Scenario(id=scen_id, probability=prob,
                                  demand=demand, availability=avail))
    dac = LargeLoadTech(id="dac", unit_size_mw=15.0, fixed_cost=500_000.0,
                        variable_cost=2.0, tiers=DAC_MID_FLEX, capture_factor=0.5,
                        mandate=Mandate(min_units=1, equality=True))
    return PlanningInstance(
        name=f"G3-seed{seed}",
        buses=(
            Bus(id="B1", build_limit_gen={"solar": 140.0}),
            Bus(id="B2", existing_gen={"gas": 40.0},
                build_limit_gen={"gas": 190.0},
                build_limit_storage={"battery": 30.0},
                build_limit_load={"dac": 1.0}),
            Bus(id="B3", build_limit_storage={"battery": 20.0},
                build_limit_load={"dac": 1.0}),
        ),
        gen_techs=(_gas(), _solar()),
        storage_techs=(_battery(),),
        load_techs=(dac,),
        branches=(
            Branch(id="L12", from_bus="B1", to_bus="B2", susceptance=400.0,
                   capacity_mw=120.0, status=EXISTING),
            Branch(id="L23", from_bus="B2", to_bus="B3", susceptance=300.0,
                   capacity_mw=60.0, status=EXISTING),
        ),
        scenarios=tuple(scenarios),
        period_length_h=6.0,
        shed_cost=10_000.0,
    )


def generate(name: str, seed: int) -> PlanningInstance:
    """Deterministic synthetic instance for (generator, seed); always valid."""
    if name == "G1":
        inst = _generate_g1(seed)
    elif name == "G2":
        inst = _generate_g2(seed)
    elif name == "G3":
        inst = _generate_g3(seed)
    else:
        raise ValueError(f"unknown oracle generator '{name}'")
    violations = validate_instance(inst)
    if violations:  # a generator bug, not a user error
        raise AssertionError(f"generated instance is invalid: {violations[:3]}")
    return inst


def g1_variant(seed: int, tiers: TierSpec = DAC_MID_FLEX,
               policy_threshold: float = 0.0) -> PlanningInstance:
    """G1 with substituted load tranches or policy threshold, for studies."""
    return _generate_g1(seed, tiers=tiers, policy_threshold=policy_threshold)


def emit_fixtures(root, seeds=(1, 2, 3)) -> list[str]:
    """Write instance files for every generator/seed pair under ``root``.

    Layout: ``<root>/<generator>/seed<N>.json``. Returns the written paths.
    """
    import os

    from .storage import save_instance

    paths = []
    for name in GENERATORS:
        gen_dir = os.path.join(root, name)
        os.makedirs(gen_dir, exist_ok=True)
        for seed in seeds:
            path = os.path.join(gen_dir, f"seed{seed}.json")
            save_instance(generate(name, seed), path)
            paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def integer_lattice(inst: PlanningInstance):
    """Integer first-stage coordinates and their enumerable ranges."""
    info = first_stage_info(inst)
    coords = []
    ranges = []
    for i, coord in enumerate(info.coords):
        if info.integer[i]:
            coords.append(coord)
            ranges.append(range(int(info.lb[i]), int(info.ub[i]) + 1))
    size = 1
    for r in ranges:
        size *= len(r)
    return coords, ranges, size


def brute_force_optimum(inst: PlanningInstance, solver: SolverConfig | None = None,
                        lattice_limit: int = LATTICE_LIMIT) -> BruteForceResult:
    """Certified optimum by enumerating the integer lattice and solving LPs.

    Every integer/binary first-stage point is fixed and the remaining LP
    (continuous first-stage variables still free, expectation constraints
    hard) is solved; the minimum over feasible points is the MILP optimum.
    Lexicographically smallest optimal assignments win ties.
    """
    solver = solver or SolverConfig()
    coords, ranges, size = integer_lattice(inst)
    if size > lattice_limit:
        raise ValueError(f"first-stage lattice has {size} points, "
                         f"above the enumeration limit {lattice_limit}")
    model, index = build_extensive_form(inst)
    lp_template = relax_integrality(model)
    cols = [index.column(c) for c in coords]

    best_obj = None
    best_assign: dict = {}
    feasible = 0
    for point in itertools.product(*ranges):
        lp = restrict_bounds(lp_template, {c: (v, v) for c, v in zip(cols, point)})
        res = solve(lp, solver)
        if res.status == INFEASIBLE:
            continue
        if res.status == UNBOUNDED:
            raise RuntimeError("lattice LP unbounded; the model is malformed")
        if res.status != OPTIMAL:
            raise RuntimeError(f"lattice LP ended with status '{res.status}'")
        feasible += 1
        if best_obj is None or res.objective < best_obj - 1e-9:
            best_obj = res.objective
            best_assign = {c: float(v) for c, v in zip(coords, point)}
            info = first_stage_info(inst)
            for i, coord in enumerate(info.coords):
                if not info.integer[i]:
                    best_assign[coord] = float(res.x[index.column(coord)])
    if best_obj is None:
        return BruteForceResult(status="infeasible", objective=None, assignment={},
                                points_total=size, points_feasible=0)
    return BruteForceResult(status="optimal", objective=best_obj,
                            assignment=best_assign, points_total=size,
                            points_feasible=feasible)

import numpy as np
import pytest

from flexcep.core import validate_instance
from flexcep.oracle import (
    brute_force_optimum,
    generate,
    g1_variant,
    integer_lattice,
)
from flexcep.build import build_extensive_form
from flexcep.solvers import solve
from flexcep.core import Bus, GenTech, PlanningInstance, Scenario, Branch


class TestGenerate:
    def test_same_seed_identical(self):
        a = generate("G1", 7)
        b = generate("G1", 7)
        assert np.array_equal(a.scenarios[0].demand, b.scenarios[0].demand)
        assert np.array_equal(a.scenarios[1].availability, b.scenarios[1].availability)

    def test_different_seeds_differ(self):
        a = generate("G1", 7)
        b = generate("G1", 8)
        assert not np.array_equal(a.scenarios[0].demand, b.scenarios[0].demand)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            generate("G9", 1)

    def test_g2_has_equality_mandated_negative_cost_datacenter(self):
        inst = generate("G2", 3)
        dc = inst.load_tech("datacenter")
        assert dc.variable_cost < 0
        assert dc.mandate is not None and dc.mandate.equality
        assert validate_instance(inst) == []

    def test_g3_is_radial_with_siting_choice(self):
        inst = generate("G3", 3)
        assert len(inst.branches) == len(inst.buses) - 1
        buildable = [b.id for b in inst.buses
                     if b.build_limit_load.get("dac", 0.0) > 0]
        assert len(buildable) == 2

    def test_lattice_within_enumeration_limit(self):
        for gen in ("G1", "G2", "G3"):
            _, _, size = integer_lattice(generate(gen, 1))
            assert size <= 10_000

    def test_emit_fixtures_round_trips(self, tmp_path):
        from flexcep.oracle import emit_fixtures
        from flexcep.storage import load_instance
        paths = emit_fixtures(tmp_path, seeds=(4,))
        assert len(paths) == 3
        for p in paths:
            inst = load_instance(p)
            assert validate_instance(inst) == []

    def test_committed_fixtures_match_generators(self):
        # fixtures/ is regenerated from the seeded generators; keep it in sync
        import pathlib
        from flexcep.storage import load_instance
        root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
        for gen in ("G1", "G2", "G3"):
            p = root / gen / "seed1.json"
            assert p.exists(), f"missing fixture {p}"
            inst = load_instance(p)
            fresh = generate(gen, 1)
            assert inst.name == fresh.name
            assert np.allclose(inst.scenarios[0].demand, fresh.scenarios[0].demand,
                               rtol=1e-8)


class TestBruteForce:
    def test_single_binary_line_two_point_lattice(self, solver_cfg):
        inst = PlanningInstance(
            name="line-only",
            buses=(Bus(id="B1", build_limit_gen={"solar": 100.0}),
                   Bus(id="B2")),
            gen_techs=(GenTech(id="solar", integrality="continuous",
                               fixed_cost=100.0, variable_cost=0.0),),
            storage_techs=(), load_techs=(),
            branches=(Branch(id="L", from_bus="B1", to_bus="B2", susceptance=100.0,
                             capacity_mw=50.0, status="candidate", fixed_cost=10.0),),
            scenarios=(Scenario(id="s1", probability=1.0,
                                demand=np.array([[0.0, 0.0], [5.0, 5.0]]),
                                availability=np.ones((2, 1, 2))),),
            period_length_h=6.0, shed_cost=1000.0)
        bf = brute_force_optimum(inst, solver_cfg)
        assert bf.points_total == 2
        assert bf.status == "optimal"
        assert bf.assignment[("xL", "L")] == 1.0  # building beats shedding

    def test_oversized_lattice_rejected(self, g1):
        with pytest.raises(ValueError, match="enumeration limit"):
            brute_force_optimum(g1, lattice_limit=10)

    def test_unreachable_policy_reported_infeasible(self, solver_cfg):
        inst = g1_variant(1, policy_threshold=-2000.0)
        bf = brute_force_optimum(inst, solver_cfg)
        assert bf.status == "infeasible"
        assert bf.objective is None
        assert bf.points_feasible == 0
        model, _ = build_extensive_form(inst)
        assert solve(model, solver_cfg).status == "infeasible"

    def test_assignment_achieves_reported_objective(self, g1, g1_oracle, solver_cfg):
        from flexcep.canonical import relax_integrality, restrict_bounds
        model, index = build_extensive_form(g1)
        cols = [index.column(c) for c in g1_oracle.assignment]
        # continuous values clipped, so each pin lies in its box
        x = np.clip(list(g1_oracle.assignment.values()), model.var_lb[cols], model.var_ub[cols])
        res = solve(restrict_bounds(relax_integrality(model),
                                    {c: (v, v) for c, v in zip(cols, x)}), solver_cfg)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(g1_oracle.objective, rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 6])
    def test_flexibility_monotone_in_oracle_optima(self, seed, solver_cfg):
        from flexcep.core import FULL_FLEX, INFLEXIBLE
        from flexcep.oracle import DAC_MID_FLEX
        optima = []
        for tiers in (INFLEXIBLE, DAC_MID_FLEX, FULL_FLEX):
            bf = brute_force_optimum(g1_variant(seed, tiers=tiers), solver_cfg)
            assert bf.status == "optimal"
            optima.append(bf.objective)
        assert optima[0] >= optima[1] - 1e-6
        assert optima[1] >= optima[2] - 1e-6

    def test_lexicographic_tie_break_is_first_minimum(self, solver_cfg):
        # two symmetric line candidates with equal cost: the all-else-equal
        # optimum must report the lexicographically smallest build vector
        inst = PlanningInstance(
            name="tie",
            buses=(Bus(id="B1", build_limit_gen={"solar": 100.0}), Bus(id="B2")),
            gen_techs=(GenTech(id="solar", integrality="continuous",
                               fixed_cost=100.0, variable_cost=0.0),),
            storage_techs=(), load_techs=(),
            branches=(
                Branch(id="La", from_bus="B1", to_bus="B2", susceptance=100.0,
                       capacity_mw=50.0, status="candidate", fixed_cost=10.0),
                Branch(id="Lb", from_bus="B1", to_bus="B2", susceptance=100.0,
                       capacity_mw=50.0, status="candidate", fixed_cost=10.0),
            ),
            scenarios=(Scenario(id="s1", probability=1.0,
                                demand=np.array([[0.0, 0.0], [5.0, 5.0]]),
                                availability=np.ones((2, 1, 2))),),
            period_length_h=6.0, shed_cost=1000.0)
        bf = brute_force_optimum(inst, solver_cfg)
        # (0,1) precedes (1,0) lexicographically in (La, Lb) order
        assert (bf.assignment[("xL", "La")], bf.assignment[("xL", "Lb")]) == (0.0, 1.0)

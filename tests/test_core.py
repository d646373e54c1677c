import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexcep.core import (
    EXPECTED_OUTPUT,
    FULL_FLEX,
    INFLEXIBLE,
    TIER_RELIABILITY,
    Bus,
    ExpectationConstraintSpec,
    GenTech,
    LargeLoadTech,
    Mandate,
    PlanningInstance,
    Scenario,
    StorageTech,
    TierSpec,
    Violation,
    compare_tiers,
    enumerate_expectation_constraints,
    validate_instance,
)
from flexcep.cli import EXIT_INVALID, main
from flexcep.oracle import DAC_MID_FLEX, generate
from flexcep import storage

G2_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "fixtures", "G2", "seed1.json")


def _tiny_instance(**overrides):
    """One bus, one continuous tech, one scenario; the smallest valid instance."""
    fields = dict(
        name="tiny",
        buses=(Bus(id="B1", build_limit_gen={"solar": 10.0}),),
        gen_techs=(GenTech(id="solar", integrality="continuous",
                           fixed_cost=1000.0, variable_cost=0.0),),
        storage_techs=(),
        load_techs=(),
        branches=(),
        scenarios=(Scenario(id="s1", probability=1.0,
                            demand=np.zeros((1, 2)),
                            availability=np.ones((1, 1, 2))),),
        period_length_h=6.0,
        shed_cost=1000.0,
    )
    fields.update(overrides)
    return PlanningInstance(**fields)


def _with_load(tiers, mandate=None, variable_cost=1.0, buses=None):
    load = LargeLoadTech(id="dac", unit_size_mw=10.0, fixed_cost=100.0,
                         variable_cost=variable_cost, tiers=tiers, mandate=mandate)
    buses = buses or (Bus(id="B1", build_limit_gen={"solar": 10.0},
                          build_limit_load={"dac": 2.0}),)
    return _tiny_instance(load_techs=(load,), buses=buses)


class TestValidation:
    def test_mid_flex_tiers_valid(self):
        inst = _with_load(TierSpec(u=(0.5, 0.75, 1.0), phi=(1.0, 0.5, 0.0)))
        assert validate_instance(inst) == []

    def test_inflexible_and_full_flex_valid(self):
        assert validate_instance(_with_load(INFLEXIBLE)) == []
        assert validate_instance(_with_load(FULL_FLEX)) == []

    def test_phi_must_be_non_increasing(self):
        inst = _with_load(TierSpec(u=(0.5, 1.0), phi=(0.5, 1.0)))
        bad = validate_instance(inst)
        assert any("phi non-increasing" in v.message for v in bad)

    def test_probabilities_must_sum_to_one(self):
        scen = Scenario(id="s1", probability=0.9, demand=np.zeros((1, 2)),
                        availability=np.ones((1, 1, 2)))
        inst = _tiny_instance(scenarios=(scen,))
        bad = validate_instance(inst)
        assert any("sum to 1" in v.message for v in bad)

    def test_dummy_tiers_accepted(self):
        # zero-width tranches are legal filler
        inst = _with_load(TierSpec(u=(0.5, 0.5, 1.0), phi=(1.0, 0.6, 0.2)))
        assert validate_instance(inst) == []

    def test_breakpoints_must_end_at_one(self):
        inst = _with_load(TierSpec(u=(0.5, 0.9), phi=(1.0, 0.5)))
        assert any("must equal 1" in v.message for v in validate_instance(inst))

    def test_zero_breakpoint_rejected(self):
        inst = _with_load(TierSpec(u=(0.0, 1.0), phi=(1.0, 0.5)))
        assert any("(0, 1]" in v.message for v in validate_instance(inst))

    def test_negative_cost_needs_equality_mandate(self):
        inst = _with_load(INFLEXIBLE, variable_cost=-2.0)
        assert any("equality mandate" in v.message for v in validate_instance(inst))
        ok = _with_load(INFLEXIBLE, variable_cost=-2.0,
                        mandate=Mandate(min_units=1, equality=True))
        assert validate_instance(ok) == []

    def test_mandate_above_buildable_flagged(self):
        inst = _with_load(INFLEXIBLE, mandate=Mandate(min_units=5))
        assert any("exceeds total buildable" in v.message for v in validate_instance(inst))

    def test_build_limit_below_existing_flagged(self):
        bus = Bus(id="B1", existing_gen={"solar": 20.0}, build_limit_gen={"solar": 10.0})
        inst = _tiny_instance(buses=(bus,))
        assert any("below existing" in v.message for v in validate_instance(inst))

    def test_unknown_tech_reference_flagged(self):
        bus = Bus(id="B1", build_limit_gen={"wind": 10.0})
        inst = _tiny_instance(buses=(bus,))
        assert any("unknown generation tech" in v.message for v in validate_instance(inst))

    def test_violations_sorted_by_path(self):
        scen = Scenario(id="s1", probability=0.5, demand=-np.ones((1, 2)),
                        availability=2 * np.ones((1, 1, 2)))
        inst = _tiny_instance(scenarios=(scen,))
        bad = validate_instance(inst)
        assert len(bad) >= 3
        assert [v.path for v in bad] == sorted(v.path for v in bad)

    def test_generated_instances_are_valid(self):
        for name in ("G1", "G2", "G3"):
            assert validate_instance(generate(name, 3)) == []

    def test_probabilities_renormalized_exactly(self):
        scens = tuple(Scenario(id=f"s{i}", probability=1.0 / 3.0,
                               demand=np.zeros((1, 2)),
                               availability=np.ones((1, 1, 2))) for i in range(3))
        inst = _tiny_instance(scenarios=scens)
        assert sum(s.probability for s in inst.scenarios) == 1.0


def _put(*keys, value):
    """Mutation setting ``doc[k0][k1]...[kn] = value``."""
    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return mutate


def _append_first(section):
    """Mutation appending a copy of ``doc[section][0]``."""
    return lambda doc: doc[section].append(json.loads(json.dumps(doc[section][0])))


def _clear(section):
    return lambda doc: doc[section].clear()


def _drop_last_period(*fields):
    """Mutation shortening scenario s2's series in ``fields`` by one period."""
    def mutate(doc):
        def cut(node):
            return node[:-1] if isinstance(node, list) else {k: cut(v) for k, v in node.items()}
        for name in fields:
            doc["scenarios"][1][name] = cut(doc["scenarios"][1][name])
    return mutate


# One case per message of core.validate_instance, each a mutation of G2 seed 1's
# file; ``path: message`` is the line `flexcep validate` must print.
FILE_CASES = [
    (_put("shed_cost", value=float("nan")), "shed_cost", "must be finite"),
    (_put("scenarios", 0, "demand", "B1", 0, value=float("inf")),
     "scenarios[s1].demand", "must be finite"),
    (_put("branches", 0, "id", value="L 12"), "branches[L 12].id",
     "identifier must be non-empty and match [A-Za-z0-9_.-]+"),
    (_append_first("storage_techs"), "storage_techs[battery]", "duplicate storage tech id"),
    (_append_first("branches"), "branches[L12]", "duplicate branch id"),
    (_put("load_techs", 0, "tiers", "phi", value=[1.0, 0.5]), "load_techs[dac].tiers",
     "u and phi must have the same length"),
    (_put("load_techs", 0, "tiers", value={"u": [], "phi": []}), "load_techs[dac].tiers",
     "at least one tier is required"),
    (_put("load_techs", 0, "tiers", "u", 0, value=0.0), "load_techs[dac].tiers.u[0]",
     "breakpoints must lie in (0, 1]"),
    (_put("load_techs", 0, "tiers", "u", 1, value=0.25), "load_techs[dac].tiers.u[1]",
     "breakpoints must be non-decreasing"),
    (_put("load_techs", 0, "tiers", "u", 2, value=0.9), "load_techs[dac].tiers.u[2]",
     "last breakpoint must equal 1"),
    (_put("load_techs", 0, "tiers", "phi", 0, value=1.5), "load_techs[dac].tiers.phi[0]",
     "reliabilities must lie in [0, 1]"),
    (_put("load_techs", 0, "tiers", "phi", 2, value=0.75), "load_techs[dac].tiers.phi[2]",
     "phi non-increasing"),
    (_clear("buses"), "buses", "at least one bus is required"),
    (_clear("scenarios"), "scenarios", "at least one scenario is required"),
    (_put("period_length_h", value=0.0), "period_length_h", "must be > 0"),
    (_put("shed_cost", value=-1.0), "shed_cost", "must be >= 0"),
    (_put("annualization_days", value=0.0), "annualization_days", "must be > 0"),
    (_put("big_m_angle_spread", value=0.0), "big_m_angle_spread", "must be > 0"),
    (_put("gen_techs", 0, "integrality", value="lumpy"), "gen_techs[gas].integrality",
     "must be 'integer_units' or 'continuous'"),
    (_put("gen_techs", 0, "unit_size_mw", value=0.0), "gen_techs[gas].unit_size_mw",
     "integer-units techs need unit_size_mw > 0"),
    (_put("gen_techs", 1, "unit_size_mw", value=10.0), "gen_techs[solar].unit_size_mw",
     "continuous techs must not set unit_size_mw"),
    (_put("gen_techs", 0, "fixed_cost", value=-1.0), "gen_techs[gas].fixed_cost",
     "must be >= 0"),
    (_put("storage_techs", 0, "duration_h", value=0.0), "storage_techs[battery].duration_h",
     "must be > 0"),
    (_put("storage_techs", 0, "eff_charge", value=0.0), "storage_techs[battery].eff_charge",
     "must lie in (0, 1]"),
    (_put("storage_techs", 0, "eff_discharge", value=1.5),
     "storage_techs[battery].eff_discharge", "must lie in (0, 1]"),
    (_put("storage_techs", 0, "fixed_cost", value=-1.0), "storage_techs[battery].fixed_cost",
     "must be >= 0"),
    (_put("load_techs", 0, "unit_size_mw", value=0.0), "load_techs[dac].unit_size_mw",
     "must be > 0"),
    (_put("load_techs", 0, "fixed_cost", value=-1.0), "load_techs[dac].fixed_cost",
     "must be >= 0"),
    (_put("load_techs", 1, "mandate", "min_units", value=-1),
     "load_techs[datacenter].mandate.min_units", "must be >= 0"),
    (_put("load_techs", 0, "variable_cost", value=-1.0), "load_techs[dac].variable_cost",
     "negative variable cost requires an equality mandate"),
    (_put("load_techs", 1, "mandate", "min_units", value=5),
     "load_techs[datacenter].mandate.min_units",
     "mandate of 5 exceeds total buildable units (2)"),
    (_put("branches", 0, "from_bus", value="B9"), "branches[L12].from_bus", "unknown bus 'B9'"),
    (_put("branches", 0, "to_bus", value="B9"), "branches[L12].to_bus", "unknown bus 'B9'"),
    (_put("branches", 0, "to_bus", value="B1"), "branches[L12]",
     "from_bus and to_bus must differ"),
    (_put("branches", 0, "capacity_mw", value=0.0), "branches[L12].capacity_mw", "must be > 0"),
    (_put("branches", 0, "susceptance", value=0.0), "branches[L12].susceptance",
     "must be nonzero"),
    (_put("branches", 0, "status", value="planned"), "branches[L12].status",
     "must be 'existing' or 'candidate'"),
    (_put("branches", 0, "fixed_cost", value=-1.0), "branches[L12].fixed_cost", "must be >= 0"),
    (_drop_last_period("demand", "availability"), "scenarios",
     "all scenarios must share the same period count"),
    (_put("scenarios", 0, "probability", value=0.0), "scenarios[s1].probability",
     "must lie in (0, 1]"),
    (_put("scenarios", 0, "demand", "B1", 0, value=-1.0), "scenarios[s1].demand",
     "must be >= 0"),
    (_drop_last_period("availability"), "scenarios[s2].availability",
     "period count differs from demand"),
    (_put("scenarios", 0, "availability", "B1", "solar", 1, value=1.5),
     "scenarios[s1].availability", "must lie in [0, 1]"),
    (_put("scenarios", 0, "probability", value=0.5), "scenarios.probability",
     "probabilities must sum to 1 (got 0.9)"),
    (_append_first("policies"), "expectation_policies[1].handle", "duplicate handle 'netzero'"),
    (_put("policies", 0, "q", "coal", value=1.0), "expectation_policies[0].q[coal]",
     "unknown generation tech"),
    (_put("policies", 0, "r", "heat", value=1.0), "expectation_policies[0].r[heat]",
     "unknown load tech"),
    (_put("buses", 0, "existing_storage", "flywheel", value=1.0),
     "buses[B1].existing_storage[flywheel]", "unknown storage tech"),
    (_put("buses", 0, "existing_gen", "gas", value=-1.0), "buses[B1].existing_gen[gas]",
     "must be >= 0"),
    (_put("buses", 0, "build_limit_gen", "gas", value=10.0), "buses[B1].build_limit_gen[gas]",
     "build limit below existing capacity"),
    (_put("buses", 0, "existing_storage", "battery", value=50.0),
     "buses[B1].build_limit_storage[battery]", "build limit below existing capacity"),
    (_put("buses", 0, "build_limit_load", "dac", value=2.5), "buses[B1].build_limit_load[dac]",
     "load build limits are unit counts and must be integral"),
]


class TestValidationMessages:
    def test_the_unmutated_file_is_valid(self, capsys):
        assert main(["validate", "--instance", G2_PATH]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mutate,path,message", FILE_CASES,
                             ids=[f"{p}: {m}" for _, p, m in FILE_CASES])
    def test_validate_reports_the_violation(self, tmp_path, capsys, mutate, path, message):
        with open(G2_PATH) as fh:
            doc = json.load(fh)
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--instance", str(bad)]) == EXIT_INVALID
        assert f"{path}: {message}" in capsys.readouterr().out.splitlines()

    # The file format cannot express these: the loader builds every series per
    # bus and tech, and every policy it reads is expected_output.
    @pytest.mark.parametrize("field,value,path,message", [
        ("demand", np.zeros(4), "scenarios[s1].demand",
         "expected shape (2, n_periods), got (4,)"),
        ("availability", np.zeros((2, 4)), "scenarios[s1].availability",
         "expected shape (2, 2, n_periods), got (2, 4)"),
    ])
    def test_scenario_shapes(self, field, value, path, message):
        inst = generate("G2", 1)
        s1 = dataclasses.replace(inst.scenarios[0], **{field: value})
        inst = dataclasses.replace(inst, scenarios=(s1, *inst.scenarios[1:]))
        assert Violation(path, message) in validate_instance(inst)

    def test_tier_specs_are_not_user_policies(self):
        inst = generate("G2", 1)
        policy = dataclasses.replace(inst.expectation_policies[0], kind=TIER_RELIABILITY)
        inst = dataclasses.replace(inst, expectation_policies=(policy,))
        assert Violation("expectation_policies[0].kind",
                         "user policies must be expected_output; tier specs are generated"
                         ) in validate_instance(inst)

    @pytest.mark.parametrize("section,key", [
        (section, key) for section, keys in storage._IDENTIFIER_FIELDS for key in keys])
    def test_unhashable_identifier_of_an_instance_built_in_python(self, section, key):
        # a file's unhashable identifier is a format error (storage._check_identifiers)
        attribute = {"policies": "expectation_policies"}.get(section, section)
        inst = generate("G2", 1)
        items = getattr(inst, attribute)
        first = dataclasses.replace(items[0], **{key: ["B1"]})
        inst = dataclasses.replace(inst, **{attribute: (first, *items[1:])})
        assert validate_instance(inst) == [
            Violation(f"{attribute}[0].{key}",
                      "identifier must be non-empty and match [A-Za-z0-9_.-]+")]

    def test_non_finite_numbers_of_instances_built_in_python(self):
        inst = generate("G2", 1)
        gas = dataclasses.replace(inst.gen_techs[0], variable_cost=float("nan"))
        inst = dataclasses.replace(inst, gen_techs=(gas, *inst.gen_techs[1:]),
                                   period_length_h=float("inf"))
        assert validate_instance(inst) == [
            Violation("gen_techs[gas].variable_cost", "must be finite"),
            Violation("period_length_h", "must be finite")]


class TestEnumerate:
    def test_two_buses_three_tiers_plus_policy(self):
        load = LargeLoadTech(id="dac", unit_size_mw=10.0, fixed_cost=100.0,
                             variable_cost=1.0, tiers=DAC_MID_FLEX)
        buses = (Bus(id="B1", build_limit_load={"dac": 1.0}),
                 Bus(id="B2", build_limit_load={"dac": 1.0}))
        policy = ExpectationConstraintSpec(kind=EXPECTED_OUTPUT, handle="cap",
                                           r={"dac": -0.5}, threshold=0.0)
        inst = _tiny_instance(buses=buses, load_techs=(load,),
                              expectation_policies=(policy,))
        specs = enumerate_expectation_constraints(inst)
        assert len(specs) == 2 * 3 + 1
        assert specs[-1].handle == "cap"

    def test_no_loads_no_policies_empty(self):
        assert enumerate_expectation_constraints(_tiny_instance()) == ()

    def test_zero_buildable_generates_no_tier_specs(self):
        load = LargeLoadTech(id="dac", unit_size_mw=10.0, fixed_cost=100.0,
                             variable_cost=1.0, tiers=DAC_MID_FLEX)
        policy = ExpectationConstraintSpec(kind=EXPECTED_OUTPUT, handle="cap",
                                           r={"dac": -0.5}, threshold=0.0)
        inst = _tiny_instance(
            buses=(Bus(id="B1", build_limit_gen={"solar": 10.0},
                       build_limit_load={"dac": 0.0}),),
            load_techs=(load,), expectation_policies=(policy,))
        specs = enumerate_expectation_constraints(inst)
        assert len(specs) == 1
        assert specs[0].kind == EXPECTED_OUTPUT

    def test_pure_function_of_instance(self, g1):
        a = enumerate_expectation_constraints(g1)
        b = enumerate_expectation_constraints(g1)
        assert repr(a) == repr(b)

    def test_dummy_tiers_generate_zero_width_specs(self):
        inst = _with_load(TierSpec(u=(0.5, 0.5, 1.0), phi=(1.0, 0.6, 0.2)))
        specs = enumerate_expectation_constraints(inst)
        assert [s.tier for s in specs if s.kind == TIER_RELIABILITY] == [1, 2, 3]
        d = inst.load_techs[0]
        assert d.tiers.widths()[1] == 0.0

    def test_handles_stable_across_serialization(self, g1, tmp_path):
        p = tmp_path / "g1.json"
        storage.save_instance(g1, p)
        again = storage.load_instance(p)
        assert [s.handle for s in enumerate_expectation_constraints(again)] == \
            [s.handle for s in enumerate_expectation_constraints(g1)]
        assert validate_instance(again) == []


class TestCompareTiers:
    def test_inflexible_stricter_than_mid_flex(self):
        assert compare_tiers(INFLEXIBLE, DAC_MID_FLEX) == 1
        assert compare_tiers(DAC_MID_FLEX, INFLEXIBLE) == -1

    def test_mid_flex_stricter_than_full_flex(self):
        assert compare_tiers(DAC_MID_FLEX, FULL_FLEX) == 1

    def test_equivalent_after_refinement(self):
        split = TierSpec(u=(0.25, 0.5, 0.75, 1.0), phi=(1.0, 1.0, 0.5, 0.0))
        merged = TierSpec(u=(0.5, 0.75, 1.0), phi=(1.0, 0.5, 0.0))
        assert compare_tiers(split, merged) == 0

    def test_crossing_reliabilities_incomparable(self):
        a = TierSpec(u=(0.5, 1.0), phi=(1.0, 0.0))
        b = TierSpec(u=(0.5, 1.0), phi=(0.8, 0.3))
        assert compare_tiers(a, b) is None

    @given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_relaxing_phi_orders_specs(self, raw_u, data):
        u = []
        total = 0.0
        for w in raw_u:
            total = min(1.0, total + w / sum(raw_u))
            u.append(round(total, 6))
        u[-1] = 1.0
        u = tuple(dict.fromkeys(u))  # drop duplicates, keep order
        phi = []
        prev = 1.0
        for _ in u:
            prev = data.draw(st.floats(0.0, prev))
            phi.append(prev)
        a = TierSpec(u=u, phi=tuple(phi))
        weaker = TierSpec(u=u, phi=tuple(p * 0.5 for p in phi))
        assert compare_tiers(a, weaker) in (0, 1)

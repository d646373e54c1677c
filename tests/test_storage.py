import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexcep.build import build_extensive_form
from flexcep.core import (
    Branch,
    InvalidInstanceError,
    PlanningInstance,
    enumerate_expectation_constraints,
    validate_instance,
)
from flexcep.oracle import g1_variant, generate
from flexcep.core import INFLEXIBLE
from flexcep.report import report_from_solution
from flexcep.solvers import SolverConfig, solve
from flexcep.storage import (
    InstanceFormatError,
    fmt_num,
    instance_to_dict,
    load_instance,
    save_instance,
    save_report,
)


class TestNumberFormat:
    def test_nine_significant_digits(self):
        assert fmt_num(1.0 / 3.0) == "0.333333333"
        assert fmt_num(6.0) == "6"
        assert fmt_num(-0.0) == "0"
        assert fmt_num(12500000000.0) == "1.25e+10"
        assert fmt_num(3) == "3"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fmt_num(float("inf"))


class TestInstanceRoundTrip:
    def test_save_load_fixed_point(self, g1, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_instance(g1, p1)
        inst2 = load_instance(p1)
        save_instance(inst2, p2)
        assert p1.read_text() == p2.read_text()
        assert validate_instance(inst2) == []

    def test_g1_fixture_shape(self, g1, tmp_path):
        p = tmp_path / "g1.json"
        save_instance(g1, p)
        inst = load_instance(p)
        assert len(inst.buses) == 2
        assert len(inst.scenarios) == 2
        assert len(enumerate_expectation_constraints(inst)) == 7

    def test_all_generators_round_trip(self, tmp_path):
        for name in ("G1", "G2", "G3"):
            inst = generate(name, 5)
            p = tmp_path / f"{name}.json"
            save_instance(inst, p)
            again = load_instance(p)
            assert again.name == inst.name
            a, _ = build_extensive_form(inst)
            b, _ = build_extensive_form(again)
            # the schema carries 9 significant digits, so models agree to 1e-8
            assert np.allclose(a.obj, b.obj, rtol=1e-8, atol=1e-12)
            assert np.allclose(a.row_rhs, b.row_rhs, rtol=1e-8, atol=1e-12)
            assert np.allclose(a.a.data, b.a.data, rtol=1e-8, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(gen=st.sampled_from(["G1", "G2", "G3"]), seed=st.integers(0, 10_000),
           scale=st.floats(0.5, 2.0))
    def test_save_load_save_is_a_fixed_point(self, gen, seed, scale):
        base = generate(gen, seed)
        inst = dataclasses.replace(base, scenarios=tuple(
            dataclasses.replace(s, demand=s.demand * scale) for s in base.scenarios))
        assume(validate_instance(inst) == [])
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            save_instance(inst, first)
            save_instance(load_instance(first), second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()

    def test_every_optional_field_off_its_default_round_trips(self, tmp_path):
        # the fixtures leave threshold, annualization_days and
        # big_m_angle_spread at core's defaults, so this instance moves them
        # and every other optional field; numbers keep 9 significant digits
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        base = load_instance(os.path.join(root, "fixtures", "G2", "seed1.json"))
        rep = dataclasses.replace
        inst = rep(
            base, annualization_days=300.0, big_m_angle_spread=3.0,
            gen_techs=tuple(rep(g, emission_factor=0.5) for g in base.gen_techs),
            load_techs=tuple(rep(d, capture_factor=0.25) for d in base.load_techs),
            branches=(*base.branches, Branch(id="L12x", from_bus="B1", to_bus="B2",
                                             susceptance=50.0, capacity_mw=40.0)),
            buses=(rep(base.buses[0], existing_storage={"battery": 5.0}), *base.buses[1:]),
            expectation_policies=tuple(rep(p, threshold=-1500.0)
                                       for p in base.expectation_policies))
        assert validate_instance(inst) == []
        assert {g.integrality for g in inst.gen_techs} == {"integer_units", "continuous"}
        assert {l.status for l in inst.branches} == {"existing", "candidate"}
        assert any(d.mandate is not None and d.mandate.equality for d in inst.load_techs)
        p = tmp_path / "inst.json"
        save_instance(inst, p)
        again = load_instance(p)
        for f in dataclasses.fields(PlanningInstance):
            if f.name != "scenarios":
                assert getattr(again, f.name) == getattr(inst, f.name), f.name
        for a, b in zip(again.scenarios, inst.scenarios, strict=True):
            assert (a.id, a.probability) == (b.id, b.probability)
            assert np.array_equal(a.demand, b.demand)
            assert np.array_equal(a.availability, b.availability)

    def test_schema_version_mismatch(self, g1, tmp_path):
        p = tmp_path / "g1.json"
        save_instance(g1, p)
        doc = json.loads(p.read_text())
        doc["schema_version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="schema_version"):
            load_instance(p)

    def test_missing_name_defaults_to_instance(self, g1, tmp_path):
        doc = instance_to_dict(g1)
        del doc["name"]
        p = tmp_path / "unnamed.json"
        p.write_text(json.dumps(doc))
        assert load_instance(p).name == "instance"

    def test_parse_error_reports_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"schema_version": 1,\n  "name": oops}')
        with pytest.raises(InstanceFormatError, match="line 2"):
            load_instance(p)

    def test_validation_violations_aggregated(self, g1, tmp_path):
        doc = instance_to_dict(g1)
        doc["shed_cost"] = -5.0
        doc["load_techs"][0]["tiers"]["phi"] = [0.5, 1.0, 0.0]
        p = tmp_path / "invalid.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InvalidInstanceError) as err:
            load_instance(p)
        assert len(err.value.violations) >= 2

    @pytest.mark.parametrize("section,key", [("buses", "existing_gen"), ("policies", "q")])
    def test_map_given_as_a_list_is_malformed(self, g1, tmp_path, section, key):
        doc = instance_to_dict(g1)
        entry = doc[section][0]
        entry[key] = list(entry[key].values())
        p = tmp_path / "listed.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="malformed instance"):
            load_instance(p)

    def test_wrong_period_count_names_table(self, g1, tmp_path):
        doc = instance_to_dict(g1)
        doc["scenarios"][0]["demand"]["B1"] = [1.0, 2.0]  # 2 periods instead of 4
        p = tmp_path / "ragged.json"
        p.write_text(json.dumps(doc))
        with pytest.raises((InstanceFormatError, InvalidInstanceError)) as err:
            load_instance(p)
        assert "demand" in str(err.value)

    def test_csv_time_series_equivalent_to_inline(self, g1, tmp_path):
        doc = instance_to_dict(g1)
        scen = g1.scenarios[0]
        demand_csv = tmp_path / "demand_s1.csv"
        lines = [",".join(g1.bus_ids)]
        for t in range(g1.num_periods):
            lines.append(",".join(repr(float(scen.demand[i, t]))
                                  for i in range(len(g1.buses))))
        demand_csv.write_text("\n".join(lines) + "\n")
        avail_csv = tmp_path / "avail_s1.csv"
        header = [f"{b}:{g}" for b in g1.bus_ids for g in g1.gen_ids]
        rows = [",".join(header)]
        for t in range(g1.num_periods):
            cells = [repr(float(scen.availability[i, j, t]))
                     for i in range(len(g1.buses)) for j in range(len(g1.gen_techs))]
            rows.append(",".join(cells))
        avail_csv.write_text("\n".join(rows) + "\n")
        doc["scenarios"][0]["demand"] = {"csv": "demand_s1.csv"}
        doc["scenarios"][0]["availability"] = {"csv": "avail_s1.csv"}
        p = tmp_path / "with_csv.json"
        p.write_text(json.dumps(doc))
        inst = load_instance(p)
        assert np.allclose(inst.scenarios[0].demand, scen.demand)
        assert np.allclose(inst.scenarios[0].availability, scen.availability)

    def test_csv_wrong_columns_rejected(self, g1, tmp_path):
        doc = instance_to_dict(g1)
        bad_csv = tmp_path / "demand.csv"
        bad_csv.write_text("B1,WRONG\n1,2\n1,2\n1,2\n1,2\n")
        doc["scenarios"][0]["demand"] = {"csv": "demand.csv"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="columns"):
            load_instance(p)


@pytest.fixture(scope="module")
def inflexible_report():
    inst = g1_variant(1, tiers=INFLEXIBLE)
    model, index = build_extensive_form(inst)
    res = solve(model, SolverConfig())
    return inst, report_from_solution(inst, index, res.x, "ef", res.status,
                                      res.objective)


class TestReportFiles:
    def test_file_set_written(self, inflexible_report, tmp_path):
        _, report = inflexible_report
        paths = save_report(report, tmp_path / "out")
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["buildout.csv", "costs.csv", "emissions.csv",
                         "reliability.csv", "trace.csv"]

    def test_buildout_row_count(self, g1, g1_ef, g1_ef_solution, tmp_path):
        model, index = g1_ef
        report = report_from_solution(g1, index, g1_ef_solution.x, "ef",
                                      "optimal", g1_ef_solution.objective)
        save_report(report, tmp_path)
        rows = (tmp_path / "buildout.csv").read_text().strip().splitlines()
        B = len(g1.buses)
        expected = B * (len(g1.gen_techs) + len(g1.storage_techs) + len(g1.load_techs))
        expected += len(g1.candidate_branches())
        assert len(rows) - 1 == expected  # minus the header

    def test_costs_total_matches_objective(self, g1, g1_ef, g1_ef_solution, tmp_path):
        model, index = g1_ef
        report = report_from_solution(g1, index, g1_ef_solution.x, "ef",
                                      "optimal", g1_ef_solution.objective)
        assert report.costs.total == pytest.approx(g1_ef_solution.objective, rel=1e-9)
        save_report(report, tmp_path)
        total_line = [ln for ln in (tmp_path / "costs.csv").read_text().splitlines()
                      if ln.startswith("total,")]
        assert len(total_line) == 1
        assert float(total_line[0].split(",")[1]) == pytest.approx(
            g1_ef_solution.objective, rel=1e-8)

    @pytest.mark.parametrize("gen", ["G1", "G2", "G3"])
    def test_each_cost_component_matches_the_objective_by_column_kind(self, gen):
        # the total alone would not notice two components trading places
        inst = generate(gen, 1)
        model, index = build_extensive_form(inst)
        res = solve(model, SolverConfig())
        costs = report_from_solution(inst, index, res.x, "ef", res.status,
                                     res.objective).costs
        priced = model.obj * res.x
        kinds = {"invest_transmission": "xL", "invest_generation": "xG",
                 "invest_storage": "xS", "invest_load": "xD", "op_shedding": "psh",
                 "op_generation": "pG", "op_storage": "pSdch", "op_load": "pDK"}
        for field, kind in kinds.items():
            expected = priced[index.columns_of_kind(kind)].sum()
            assert getattr(costs, field) == pytest.approx(expected, rel=1e-9), field
        others = np.ones(model.num_vars, dtype=bool)
        others[index.columns_of_kind(*kinds.values())] = False
        assert not model.obj[others].any()

    def test_inflexible_reliability_audit(self, inflexible_report, tmp_path):
        _, report = inflexible_report
        assert report.reliability, "built loads must produce audit rows"
        for row in report.reliability:
            assert row.achieved >= row.required_phi - 1e-6
            assert row.required_phi == 1.0

    def test_achieved_factor_recomputation(self, g1, g1_ef, g1_ef_solution):
        # the audit must match a from-scratch recomputation of served energy
        model, index = g1_ef
        report = report_from_solution(g1, index, g1_ef_solution.x, "ef",
                                      "optimal", g1_ef_solution.objective)
        assert report.reliability
        tau, T = g1.period_length_h, g1.num_periods
        for row in report.reliability:
            d = g1.load_tech(row.tech)
            served = 0.0
            for scen in g1.scenarios:
                for t in range(T):
                    served += scen.probability * tau * float(
                        g1_ef_solution.x[index.column(
                            ("pDK", row.bus, row.tech, row.tier, t, scen.id))])
            cap = row.width * d.unit_size_mw * tau * T * row.units
            expected = served / cap if cap > 1e-12 else 1.0
            assert row.achieved == pytest.approx(expected, abs=1e-9)

    def test_zero_demand_zero_costs(self, tmp_path):
        from test_build import _one_bus_trivial
        inst = _one_bus_trivial()
        model, index = build_extensive_form(inst)
        res = solve(model, SolverConfig())
        report = report_from_solution(inst, index, res.x, "ef", res.status,
                                      res.objective)
        assert report.costs.total == pytest.approx(0.0, abs=1e-9)
        save_report(report, tmp_path)
        lines = (tmp_path / "costs.csv").read_text().splitlines()
        assert all(ln.split(",")[1] == "0" for ln in lines[1:])

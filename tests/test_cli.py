import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import flexcep
import flexcep.pha as pha_module
from flexcep.build import first_stage_info
from flexcep.canonical import LIMIT_REACHED, SolveResult
from flexcep.cli import (
    EXIT_BACKEND,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_LIMIT,
    EXIT_NO_INCUMBENT,
    EXIT_OK,
    RunManifest,
    cmd_compare_flexibility,
    cmd_solve,
    cmd_validate,
    main,
    parse_variant,
)
from flexcep.core import FULL_FLEX, INFLEXIBLE, Mandate
from flexcep.oracle import DAC_MID_FLEX, generate
from flexcep.pha import PHAConfig
from flexcep.solvers import BackendCrashError
from flexcep.storage import instance_to_dict, load_instance, save_instance

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")


@pytest.fixture(scope="module")
def g1_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("inst") / "g1.json"
    save_instance(generate("G1", 1), p)
    return str(p)


class TestValidate:
    def test_valid_instance_exit_zero(self, g1_path):
        out = io.StringIO()
        assert cmd_validate(g1_path, out=out) == EXIT_OK
        assert out.getvalue() == ""

    def test_phi_ordering_violation_named(self, tmp_path):
        doc = instance_to_dict(generate("G1", 1))
        doc["load_techs"][0]["tiers"]["phi"] = [0.5, 1.0, 0.0]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        out = io.StringIO()
        assert cmd_validate(str(p), out=out) == EXIT_INVALID
        lines = out.getvalue().strip().splitlines()
        assert any("dac" in ln and "phi" in ln for ln in lines)

    def test_missing_file_exit_two(self, tmp_path):
        out = io.StringIO()
        assert cmd_validate(str(tmp_path / "missing.json"), out=out) == EXIT_IO

    def test_infeasible_mandate_caught_at_validation(self, tmp_path):
        inst = generate("G1", 1)
        big = dataclasses.replace(inst.load_techs[0],
                                  mandate=Mandate(min_units=99))
        inst = dataclasses.replace(inst, load_techs=(big,))
        p = tmp_path / "mandate.json"
        save_instance(inst, p)
        out = io.StringIO()
        assert cmd_validate(str(p), out=out) == EXIT_INVALID
        assert "exceeds total buildable" in out.getvalue()

    @pytest.mark.parametrize("shape", [[], {"a": 1}], ids=["array", "object"])
    @pytest.mark.parametrize("section,key", [
        ("storage_techs", "id"), ("load_techs", "id"), ("branches", "id"),
        ("scenarios", "id"), ("policies", "handle"), ("branches", "from_bus"),
        ("branches", "to_bus")])
    def test_unhashable_identifier_exits_invalid_with_one_line(self, tmp_path, capsys,
                                                               section, key, shape):
        with open(os.path.join(FIXTURES, "G1", "seed1.json")) as fh:
            doc = json.load(fh)
        doc[section][0][key] = shape
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", "--instance", str(p)]) == EXIT_INVALID
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and f"{section}[0].{key}" in lines[0], lines


    @pytest.mark.parametrize("edit,line", [
        (lambda doc: doc.update(shed_cost=math.nan), "shed_cost: must be finite"),
        (lambda doc: doc.update(period_length_h=math.nan), "period_length_h: must be finite"),
        (lambda doc: doc["gen_techs"][0].update(fixed_cost=math.inf),
         "gen_techs[gas].fixed_cost: must be finite"),
        (lambda doc: doc["load_techs"][0].update(mandate={"min_units": math.inf}),
         "malformed instance: cannot convert float infinity to integer"),
    ], ids=["nan_shed_cost", "nan_period_length", "infinite_fixed_cost", "infinite_mandate"])
    def test_non_finite_number_is_invalid(self, tmp_path, capsys, edit, line):
        with open(os.path.join(FIXTURES, "G1", "seed1.json")) as fh:
            doc = json.load(fh)
        edit(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))  # NaN and Infinity, as json.load accepts them
        for argv in (["validate"], ["solve", "--out", str(tmp_path / "out")]):
            assert main([*argv, "--instance", str(p)]) == EXIT_INVALID
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1 and lines[0].endswith(line), lines
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit,line", [
        (lambda doc: doc.update(shed_cost=True), "shed_cost: must be a JSON number"),
        (lambda doc: doc.update(shed_cost="8e3"), "shed_cost: must be a JSON number"),
        (lambda doc: doc["scenarios"][0].update(probability="0.5"),
         "scenarios[s1].probability: must be a JSON number"),
        (lambda doc: doc["load_techs"][0]["tiers"]["u"].__setitem__(-1, True),
         "load_techs[dac].tiers.u: must be a JSON number"),
        (lambda doc: doc["scenarios"][1]["demand"]["B2"].__setitem__(0, None),
         "scenarios[s2].demand.B2: must be a JSON number"),
        (lambda doc: doc["load_techs"][0].update(mandate={"min_units": 1.6}),
         "load_techs[dac].mandate.min_units: must be a whole number"),
        (lambda doc: doc["load_techs"][0].update(mandate={"min_units": 1, "equality": "no"}),
         "load_techs[dac].mandate.equality: must be true or false"),
        (lambda doc: doc.update(name=[1]), "name: must be a JSON string"),
        (lambda doc: doc.update(name=5), "name: must be a JSON string"),
    ], ids=["true_shed_cost", "string_shed_cost", "string_probability", "true_tier_breakpoint",
            "null_demand", "fractional_min_units", "string_equality", "array_name",
            "number_name"])
    def test_non_number_is_invalid(self, tmp_path, capsys, edit, line):
        with open(os.path.join(FIXTURES, "G1", "seed1.json")) as fh:
            doc = json.load(fh)
        edit(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", "--instance", str(p)]) == EXIT_INVALID
        assert capsys.readouterr().out.splitlines() == [f"{p}: {line}"]

    def test_whole_float_min_units_is_valid(self, tmp_path):
        with open(os.path.join(FIXTURES, "G1", "seed1.json")) as fh:
            doc = json.load(fh)
        doc["load_techs"][0]["mandate"] = {"min_units": 1.0}
        p = tmp_path / "whole.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", "--instance", str(p)]) == EXIT_OK

    def test_non_finite_csv_cell_is_invalid(self, tmp_path, capsys):
        with open(os.path.join(FIXTURES, "G1", "seed1.json")) as fh:
            doc = json.load(fh)
        demand = doc["scenarios"][0]["demand"]
        rows = [",".join(map(str, cells)) for cells in zip(demand["B1"], demand["B2"])]
        rows[1] = "nan," + rows[1].split(",")[1]
        (tmp_path / "demand.csv").write_text("\n".join(["B1,B2", *rows]) + "\n")
        doc["scenarios"][0]["demand"] = {"csv": "demand.csv"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", "--instance", str(p)]) == EXIT_INVALID
        assert capsys.readouterr().out.splitlines() == ["scenarios[s1].demand: must be finite"]

    @pytest.mark.parametrize("field,header,lines", [
        ("demand", ["B1", "B2"],
         ["scenarios: all scenarios must share the same period count",
          "scenarios[s1].availability: period count differs from demand",
          "scenarios[s1].demand: at least one period is required"]),
        ("availability", ["B1:gas", "B1:solar", "B2:gas", "B2:solar"],
         ["scenarios[s1].availability: period count differs from demand"]),
    ])
    def test_header_only_csv_is_invalid(self, tmp_path, capsys, field, header, lines):
        with open(os.path.join(FIXTURES, "G1", "seed1.json")) as fh:
            doc = json.load(fh)
        (tmp_path / "series.csv").write_text(",".join(header) + "\n")
        doc["scenarios"][0][field] = {"csv": "series.csv"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", "--instance", str(p)]) == EXIT_INVALID
        assert capsys.readouterr().out.splitlines() == lines

    def test_zero_periods_are_invalid(self, tmp_path, capsys):
        with open(os.path.join(FIXTURES, "G1", "seed1.json")) as fh:
            doc = json.load(fh)
        scen = doc["scenarios"][0]
        scen.update(probability=1.0, demand={b: [] for b in scen["demand"]},
                    availability={b: {g: [] for g in gens}
                                  for b, gens in scen["availability"].items()})
        doc["scenarios"] = [scen]
        p = tmp_path / "empty.json"
        p.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        for argv in (["validate"], ["solve", "--method", "ef", "--out", out],
                     ["solve", "--method", "pha", "--out", out]):
            assert main([*argv, "--instance", str(p)]) == EXIT_INVALID
            assert capsys.readouterr().out.splitlines() == [
                "scenarios[s1].demand: at least one period is required"]
        assert not os.path.exists(out)

    def test_instance_without_generation_techs(self, tmp_path, capsys):
        # storage, shedding and large loads only: availability has no columns
        with open(os.path.join(FIXTURES, "G1", "seed1.json")) as fh:
            doc = json.load(fh)
        doc["gen_techs"] = []
        for bus in doc["buses"]:
            bus.update(existing_gen={}, build_limit_gen={})
        for scen in doc["scenarios"]:
            scen["availability"] = {b: {} for b in scen["availability"]}
        for policy in doc["policies"]:
            policy["q"] = {}
        p = tmp_path / "no-gen.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", "--instance", str(p)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        out = str(tmp_path / "out")
        assert main(["solve", "--instance", str(p), "--method", "ef", "--out", out]) == EXIT_OK
        inst = load_instance(str(p))
        assert inst.scenarios[0].availability.shape == (2, 0, inst.num_periods)
        save_instance(inst, tmp_path / "a.json")
        save_instance(load_instance(str(tmp_path / "a.json")), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_instance_without_first_stage_coordinates(self, tmp_path, capsys):
        # no techs, no policies and an existing branch: nothing to build
        with open(os.path.join(FIXTURES, "G1", "seed1.json")) as fh:
            doc = json.load(fh)
        for key in ("gen_techs", "storage_techs", "load_techs", "policies"):
            doc[key] = []
        for bus in doc["buses"]:
            bus.update(existing_gen={}, existing_storage={}, build_limit_gen={},
                       build_limit_storage={}, build_limit_load={})
        for scen in doc["scenarios"]:
            scen["availability"] = {b: {} for b in scen["availability"]}
        for branch in doc["branches"]:
            branch["status"] = "existing"
        p = tmp_path / "no-first-stage.json"
        p.write_text(json.dumps(doc))
        inst = load_instance(str(p))
        info = first_stage_info(inst)
        assert info.coords == ()
        for field, dtype in (("lb", float), ("ub", float), ("integer", bool),
                             ("mw_scale", float), ("unit_cost", float)):
            assert getattr(info, field).shape == (0,) and getattr(info, field).dtype == dtype
        assert main(["validate", "--instance", str(p)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        for method in ("ef", "pha"):
            argv = ["solve", "--instance", str(p), "--method", method,
                    "--out", str(tmp_path / method)]
            assert main(argv + (["--max-iters", "5"] if method == "pha" else [])) == EXIT_OK
        save_instance(inst, tmp_path / "a.json")
        save_instance(load_instance(str(tmp_path / "a.json")), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_latin1_byte_is_invalid(self, tmp_path, capsys):
        with open(os.path.join(FIXTURES, "G1", "seed1.json"), "rb") as fh:
            raw = fh.read().replace(b'"G1-seed1"', b'"G1-seed1 caf\xe9"', 1)
        p = tmp_path / "latin1.json"
        p.write_bytes(raw)
        for argv in (["validate"], ["solve", "--out", str(tmp_path / "out")]):
            assert main([*argv, "--instance", str(p)]) == EXIT_INVALID
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1 and "not UTF-8 text" in lines[0], lines


def _half_unit(v: float) -> float:
    """Largest rounding error of ``storage.fmt_num``'s 9 significant digits at ``v``."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 8) if v else 0.0


class TestSolve:
    def test_ef_writes_reports_and_matches_costs(self, g1_path, tmp_path):
        out_dir = tmp_path / "run"
        out = io.StringIO()
        manifest = RunManifest(instance_path=g1_path, method="ef",
                               out_dir=str(out_dir))
        assert cmd_solve(manifest, out=out) == EXIT_OK
        summary = out.getvalue()
        objective = [ln for ln in summary.splitlines() if ln.startswith("objective")][0]
        total_line = [ln for ln in (out_dir / "costs.csv").read_text().splitlines()
                      if ln.startswith("total,")][0]
        assert objective.split()[-1] == total_line.split(",")[1]

    def test_pha_exit_and_trace_consistency(self, g1_path, tmp_path):
        out_dir = tmp_path / "pha"
        out = io.StringIO()
        manifest = RunManifest(
            instance_path=g1_path, method="pha", out_dir=str(out_dir),
            pha=PHAConfig(max_iterations=6, gap_threshold=0.05, beta_scale=0.2))
        code = cmd_solve(manifest, out=out)
        assert code in (EXIT_OK, 3)
        trace = (out_dir / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == ("iteration,consensus_metric,max_abs_sigma_bar,"
                            "lower_bound,upper_bound,wall_time_s")
        assert len(trace) >= 2
        last = trace[-1].split(",")
        assert last[3] and last[4], "final trace row must carry both bounds"
        bounds = re.fullmatch(r"bounds:\s+lower=(\S+) upper=(\S+) gap=(\S+)", [
            ln for ln in out.getvalue().splitlines() if ln.startswith("bounds:")][0])
        assert bounds.group(1, 2) == (last[3], last[4])
        # both sides round the same unrounded gap to 9 significant digits, so
        # compare them to the precision the rounded bounds carry
        lower, upper, gap = (float(v) for v in bounds.groups())
        recomputed = (upper - lower) / max(abs(upper), 1.0)
        carried = (_half_unit(lower) + _half_unit(upper)) / max(abs(upper), 1.0) \
            * (1.0 + abs(recomputed)) + _half_unit(gap)
        assert abs(gap - recomputed) <= carried <= 1e-8
        assert all(row.split(",")[5] == "0" for row in trace[1:])  # timing off

    def test_summary_names_the_incumbent_source(self, g1_path, tmp_path):
        summaries = {}
        for method, cfg in (("ef", PHAConfig()),
                            ("pha", PHAConfig(max_iterations=3, gap_threshold=1e-9))):
            out = io.StringIO()
            manifest = RunManifest(instance_path=g1_path, method=method,
                                   out_dir=str(tmp_path / method), pha=cfg)
            assert cmd_solve(manifest, out=out) in (EXIT_OK, 3)
            lines = out.getvalue().splitlines()
            assert lines[5].startswith("bounds:")
            summaries[method] = lines[6]
        assert summaries["ef"] == "incumbent:   extensive form"
        assert re.fullmatch(r"incumbent:   (scenario s[12]|consensus) @ iteration [123]",
                            summaries["pha"])

    def test_no_incumbent_has_no_source(self, tmp_path):
        from flexcep.oracle import g1_variant
        p = tmp_path / "hard.json"
        save_instance(g1_variant(1, policy_threshold=-2000.0), p)
        out = io.StringIO()
        manifest = RunManifest(instance_path=str(p), method="pha",
                               out_dir=str(tmp_path / "out"),
                               pha=PHAConfig(max_iterations=2, gap_threshold=1e-9))
        assert cmd_solve(manifest, out=out) == EXIT_NO_INCUMBENT
        assert "incumbent:   n/a" in out.getvalue().splitlines()

    def test_identical_manifests_byte_identical_reports(self, g1_path, tmp_path):
        runs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            manifest = RunManifest(instance_path=g1_path, method="ef",
                                   out_dir=str(out_dir), seed=7)
            assert cmd_solve(manifest, out=io.StringIO()) == EXIT_OK
            runs.append({f: (out_dir / f).read_bytes()
                         for f in sorted(os.listdir(out_dir))})
        assert runs[0] == runs[1]

    def test_timing_flag_records_wall_times(self, g1_path, tmp_path):
        out_dir = tmp_path / "timed"
        manifest = RunManifest(
            instance_path=g1_path, method="pha", out_dir=str(out_dir),
            pha=PHAConfig(max_iterations=3, gap_threshold=1e-9), timing=True)
        assert cmd_solve(manifest, out=io.StringIO()) in (EXIT_OK, 3)
        trace = (out_dir / "trace.csv").read_text().strip().splitlines()
        assert any(float(row.split(",")[5]) > 0.0 for row in trace[1:])

    def test_unreachable_policy_ef_reports_no_incumbent(self, tmp_path):
        from flexcep.oracle import g1_variant
        inst = g1_variant(1, policy_threshold=-2000.0)
        p = tmp_path / "hard.json"
        save_instance(inst, p)
        manifest = RunManifest(instance_path=str(p), method="ef",
                               out_dir=str(tmp_path / "out"))
        assert cmd_solve(manifest, out=io.StringIO()) == EXIT_NO_INCUMBENT

    def test_missing_instance_exit_two(self, tmp_path):
        manifest = RunManifest(instance_path=str(tmp_path / "none.json"),
                               method="ef", out_dir=str(tmp_path / "o"))
        assert cmd_solve(manifest, out=io.StringIO()) == EXIT_IO


class TestCompareFlex:
    def test_variants_parse(self):
        label, tiers = parse_variant("midflex=0.5,0.75,1;1,0.5,0")
        assert label == "midflex"
        assert tiers.u == (0.5, 0.75, 1.0)
        assert parse_variant("inflexible")[1] == INFLEXIBLE
        assert parse_variant("fullflex")[1] == FULL_FLEX
        with pytest.raises(ValueError):
            parse_variant("nonsense")

    def test_three_variant_costs_non_increasing(self, g1_path):
        out = io.StringIO()
        code = cmd_compare_flexibility(
            g1_path, "dac",
            [("inflexible", INFLEXIBLE), ("midflex", DAC_MID_FLEX),
             ("fullflex", FULL_FLEX)],
            out=out)
        assert code == EXIT_OK
        text = out.getvalue()
        assert "warning" not in text
        costs = []
        for label in ("inflexible", "midflex", "fullflex"):
            row = [ln for ln in text.splitlines() if ln.startswith(label)][0]
            costs.append(float(row.split()[1]))
        assert costs == sorted(costs, reverse=True)

    def test_single_variant_no_warnings(self, g1_path):
        out = io.StringIO()
        assert cmd_compare_flexibility(g1_path, "dac",
                                       [("midflex", DAC_MID_FLEX)], out=out) == EXIT_OK
        assert "warning" not in out.getvalue()
        assert "note:" not in out.getvalue()

    def test_incomparable_variants_noted(self, g1_path):
        from flexcep.core import TierSpec
        a = TierSpec(u=(0.5, 1.0), phi=(1.0, 0.0))
        b = TierSpec(u=(0.5, 1.0), phi=(0.8, 0.3))
        out = io.StringIO()
        assert cmd_compare_flexibility(g1_path, "dac", [("a", a), ("b", b)],
                                       out=out) == EXIT_OK
        assert "not comparable" in out.getvalue()

    def test_gap_limited_variants_exit_at_the_limit(self, capsys):
        # at --gap 0.3 both extensive forms stop short of the optimum, as
        # solve --method ef does on the same instance (exit 3)
        code = main(["compare-flex", "--instance", os.path.join(FIXTURES, "G2", "seed1.json"),
                     "--load-tech", "dac", "--variant", "inflexible", "--variant", "fullflex",
                     "--gap", "0.3"])
        assert code == EXIT_LIMIT
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.startswith("variant")
        assert [row.split()[0] for row in rows] == ["inflexible", "fullflex"]
        for row in rows:
            gap = float(re.fullmatch(r".* \(stopped at gap (\S+)\)", row).group(1))
            assert 0 < gap <= 0.3

    def test_unknown_load_tech_rejected(self, g1_path):
        out = io.StringIO()
        assert cmd_compare_flexibility(g1_path, "nope", [("a", INFLEXIBLE)],
                                       out=out) == EXIT_INVALID

    def test_unreadable_instance_reported_like_the_other_commands(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        malformed = tmp_path / "bad.json"
        malformed.write_text("{not json")
        for path, code in ((missing, EXIT_IO), (str(malformed), EXIT_INVALID)):
            outs = [io.StringIO() for _ in range(3)]
            assert cmd_compare_flexibility(path, "dac", [("a", INFLEXIBLE)],
                                           out=outs[0]) == code
            assert cmd_validate(path, out=outs[1]) == code
            assert cmd_solve(RunManifest(instance_path=path, method="ef",
                                         out_dir=str(tmp_path / "out")),
                             out=outs[2]) == code
            assert outs[0].getvalue() == outs[1].getvalue() == outs[2].getvalue() != ""


class TestMainEntry:
    def test_validate_subcommand(self, g1_path):
        assert main(["validate", "--instance", g1_path]) == EXIT_OK

    def test_solve_subcommand(self, g1_path, tmp_path):
        code = main(["solve", "--instance", g1_path, "--method", "ef",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_solve_summary_follows_redirected_stdout(self, g1_path, tmp_path):
        expected = io.StringIO()
        cmd_solve(RunManifest(instance_path=g1_path, method="ef",
                              out_dir=str(tmp_path / "direct")), out=expected)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main(["solve", "--instance", g1_path, "--method", "ef",
                         "--out", str(tmp_path / "redirected")])
        assert code == EXIT_OK
        assert captured.getvalue().startswith("instance:")
        assert captured.getvalue() == expected.getvalue()

    def test_highs_failure_exits_backend_failure(self, g1_path, tmp_path, crashing_highs,
                                                 capsys):
        out_dir = tmp_path / "x"
        code = main(["solve", "--instance", g1_path, "--method", "ef",
                     "--out", str(out_dir)])
        assert code == EXIT_BACKEND == 5
        assert capsys.readouterr().out.splitlines() == [
            "solver backend failure: scipy.milp failed: Solve error"]
        assert not out_dir.exists()

    def test_highs_failure_is_a_compare_flex_row(self, g1_path, crashing_highs, capsys):
        code = main(["compare-flex", "--instance", g1_path, "--load-tech", "dac",
                     "--variant", "fullflex"])
        assert code == EXIT_NO_INCUMBENT == 4
        header, row = capsys.readouterr().out.splitlines()
        assert header.startswith("variant")
        assert row.split()[:3] == ["fullflex", "n/a", "n/a"]
        assert row.endswith("  backend failure: scipy.milp failed: Solve error")

    def test_failed_hedging_sweep_exits_backend_failure(self, g1_path, tmp_path,
                                                        monkeypatch, capsys):
        # every scenario solve stops at its limit, as a tiny --time-limit makes
        # it do, but deterministically
        monkeypatch.setattr(pha_module, "solve",
                            lambda *args, **kwargs: SolveResult(status=LIMIT_REACHED))
        out_dir = tmp_path / "x"
        code = main(["solve", "--instance", g1_path, "--method", "pha",
                     "--out", str(out_dir), "--max-iters", "3"])
        assert code == EXIT_BACKEND
        assert capsys.readouterr().out.splitlines() == [
            "hedging failure: scenario subproblem 's1' failed: limit_reached"]
        assert not out_dir.exists()

    def test_failed_hedging_sweep_after_an_incumbent_writes_the_reports(
            self, tmp_path, monkeypatch, capsys):
        # only the proximal sweeps, from iteration 2 on, stop at their limit:
        # iteration 1 certifies a candidate first
        original = pha_module.solve

        def failing(model, cfg=None, **kwargs):
            if "-pha-" in model.name:
                return SolveResult(status=LIMIT_REACHED)
            return original(model, cfg, **kwargs)
        monkeypatch.setattr(pha_module, "solve", failing)
        out_dir = tmp_path / "x"
        code = main(["solve", "--instance", os.path.join(FIXTURES, "G1", "seed1.json"),
                     "--method", "pha", "--out", str(out_dir)])
        assert code == EXIT_LIMIT
        lines = capsys.readouterr().out.splitlines()
        # the failed scenario is named ahead of the summary
        assert lines[0] == "hedging failure: scenario subproblem 's1' failed: limit_reached"
        assert lines[1].startswith("instance:")
        assert "termination: sweep_failed" in lines
        assert "incumbent:   scenario s1 @ iteration 1" in lines
        assert sorted(os.listdir(out_dir)) == ["buildout.csv", "costs.csv", "emissions.csv",
                                               "reliability.csv", "trace.csv"]
        # one row: the iteration completed before the failure
        assert len((out_dir / "trace.csv").read_text().splitlines()) == 2

    def test_highs_crash_in_a_later_hub_sweep_keeps_the_incumbent(
            self, tmp_path, monkeypatch, capsys):
        # HiGHS crashes in the proximal sweeps, from iteration 2 on: iteration
        # 1 certifies a candidate first
        original = pha_module.solve

        def crashing(model, cfg=None, **kwargs):
            if "-pha-" in model.name:
                raise BackendCrashError("scipy.milp failed: Solve error")
            return original(model, cfg, **kwargs)
        monkeypatch.setattr(pha_module, "solve", crashing)
        out_dir = tmp_path / "x"
        code = main(["solve", "--instance", os.path.join(FIXTURES, "G1", "seed1.json"),
                     "--method", "pha", "--out", str(out_dir)])
        assert code == EXIT_LIMIT
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "hedging failure: scipy.milp failed: Solve error"
        assert "termination: sweep_failed" in lines
        assert "incumbent:   scenario s1 @ iteration 1" in lines
        assert sorted(os.listdir(out_dir)) == ["buildout.csv", "costs.csv", "emissions.csv",
                                               "reliability.csv", "trace.csv"]
        assert len((out_dir / "trace.csv").read_text().splitlines()) == 2

    def test_highs_crash_in_a_later_candidate_keeps_the_incumbent(
            self, tmp_path, monkeypatch, capsys):
        # the first candidate is certified; evaluating the second crashes HiGHS
        original = pha_module.exact_candidate_evaluation
        calls = []

        def crashing(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise BackendCrashError("scipy.milp failed: Solve error")
            return original(*args, **kwargs)
        monkeypatch.setattr(pha_module, "exact_candidate_evaluation", crashing)
        out_dir = tmp_path / "x"
        code = main(["solve", "--instance", os.path.join(FIXTURES, "G1", "seed1.json"),
                     "--method", "pha", "--out", str(out_dir)])
        assert code == EXIT_LIMIT
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "hedging failure: scipy.milp failed: Solve error"
        assert "termination: sweep_failed" in lines
        assert "incumbent:   scenario s1 @ iteration 1" in lines
        assert sorted(os.listdir(out_dir)) == ["buildout.csv", "costs.csv", "emissions.csv",
                                               "reliability.csv", "trace.csv"]


SETTING_ERRORS = [
    ["solve", "--method", "pha", "--rho", "0"],
    ["solve", "--method", "pha", "--beta", "0"],
    ["solve", "--method", "pha", "--max-iters", "0"],
    ["solve", "--method", "pha", "--pha-gap", "0"],
    ["solve", "--method", "pha", "--workers", "0"],
    ["solve", "--method", "pha", "--rho", "nan"],
    ["solve", "--method", "pha", "--rho", "inf"],
    ["solve", "--method", "pha", "--beta", "nan"],
    ["solve", "--method", "pha", "--beta", "inf"],
    ["solve", "--method", "pha", "--pha-gap", "inf"],
    ["solve", "--time-limit", "0"],
    ["solve", "--time-limit", "nan"],
    ["solve", "--gap", "1"],
    ["compare-flex", "--load-tech", "dac", "--variant", "fullflex", "--time-limit", "0"],
]


class TestSettingErrors:
    @pytest.mark.parametrize("argv", SETTING_ERRORS, ids=lambda a: "_".join(a[:1] + a[-2:]))
    def test_out_of_range_setting_exits_invalid_with_one_line(self, g1_path, tmp_path, argv):
        out_dir = tmp_path / "out"
        argv = [argv[0], "--instance", g1_path, *argv[1:]]
        if argv[0] == "solve":
            argv += ["--out", str(out_dir)]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(flexcep.__file__))}
        proc = subprocess.run([sys.executable, "-m", "flexcep.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_INVALID
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert not out_dir.exists()


class TestUsageErrors:
    """A malformed command line exits 1 (invalid setting), not argparse's 2,
    which is the I/O error code here."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--instance", "f.json"],
        ["solve", "--instance", "f.json", "--out", "o", "--max-iters", "abc"],
    ], ids=["missing_required_flag", "non_integer_value"])
    def test_usage_error_exits_invalid(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("flexcep solve: error: ")

    def test_help_exits_ok(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--help"])
        assert exit_info.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: flexcep solve")


class TestSolverOutputKeptOffStdout:
    """Lines a solver library prints straight to fd 1 go to stderr, so stdout
    holds only the summary."""

    NOISE = b"solver library noise on fd 1\n"

    def _noisy(self, monkeypatch, name):
        import flexcep.cli as cli_module
        original = getattr(cli_module, name)

        def noisy(*args, **kwargs):
            os.write(1, self.NOISE)
            return original(*args, **kwargs)
        monkeypatch.setattr(cli_module, name, noisy)

    def _assert_kept_apart(self, capfd, first_word):
        os.write(1, b"after\n")  # fd 1 is stdout again once the command returns
        captured = capfd.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith(first_word)
        assert lines[-1] == "after"
        assert self.NOISE.decode().strip() not in captured.out
        assert self.NOISE.decode() in captured.err

    def test_solve(self, g1_path, tmp_path, monkeypatch, capfd):
        self._noisy(monkeypatch, "run_pha")
        manifest = RunManifest(instance_path=g1_path, method="pha",
                               out_dir=str(tmp_path / "o"),
                               pha=PHAConfig(max_iterations=2))
        assert cmd_solve(manifest, out=sys.stdout) in (EXIT_OK, 3)
        self._assert_kept_apart(capfd, "instance:")

    def test_compare_flex(self, g1_path, monkeypatch, capfd):
        self._noisy(monkeypatch, "solve")
        assert cmd_compare_flexibility(g1_path, "dac", [("midflex", DAC_MID_FLEX)],
                                       out=sys.stdout) == EXIT_OK
        self._assert_kept_apart(capfd, "variant")

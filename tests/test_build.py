import dataclasses

import numpy as np
import pytest

from flexcep.build import (
    build_extensive_form,
    build_scenario_subproblem,
    first_stage_info,
    price_scenario_subproblem,
)
from flexcep.canonical import (
    GE,
    ModelBuilder,
    ModelError,
    QuadTerm,
    objective_value,
    restrict_bounds,
)
from flexcep.core import (
    Bus,
    GenTech,
    INFLEXIBLE,
    InvalidInstanceError,
    PlanningInstance,
    Scenario,
    enumerate_expectation_constraints,
)
from flexcep.oracle import generate, g1_variant
from flexcep.report import extract_first_stage
from flexcep.solvers import solve

from invariants import (
    assert_same_model,
    check_expectation_rows,
    check_solution_invariants,
    row_coeffs,
)


def expected_column_count(inst):
    B, G = len(inst.buses), len(inst.gen_techs)
    S, D = len(inst.storage_techs), len(inst.load_techs)
    L = len(inst.branches)
    Lc = len(inst.candidate_branches())
    T, W = inst.num_periods, len(inst.scenarios)
    sum_k = sum(len(d.tiers) for d in inst.load_techs)
    per_period = B * G + 3 * B * S + B * sum_k + 2 * B
    return Lc + B * G + B * S + B * D + W * T * (per_period + L)


def expected_ef_row_count(inst):
    B, G = len(inst.buses), len(inst.gen_techs)
    S = len(inst.storage_techs)
    Le = sum(1 for l in inst.branches if not l.is_candidate)
    Lc = len(inst.candidate_branches())
    T, W = inst.num_periods, len(inst.scenarios)
    sum_k = sum(len(d.tiers) for d in inst.load_techs)
    per_scen = T * (B * G + 4 * B * S + Le + 4 * Lc + B * sum_k + B)
    tier_rows = sum(len(d.tiers) for b in inst.buses for d in inst.load_techs
                    if b.build_limit_load.get(d.id, 0.0) > 0)
    mandates = sum(1 for d in inst.load_techs if d.mandate is not None)
    return W * per_scen + tier_rows + mandates + len(inst.expectation_policies)


def _one_bus_trivial():
    return PlanningInstance(
        name="trivial",
        buses=(Bus(id="B1", build_limit_gen={"solar": 10.0}),),
        gen_techs=(GenTech(id="solar", integrality="continuous",
                           fixed_cost=1000.0, variable_cost=0.0),),
        storage_techs=(), load_techs=(), branches=(),
        scenarios=(Scenario(id="s1", probability=1.0, demand=np.zeros((1, 2)),
                            availability=np.ones((1, 1, 2))),),
        period_length_h=6.0, shed_cost=1000.0)


class TestExtensiveForm:
    def test_trivial_columns_and_zero_objective(self):
        inst = _one_bus_trivial()
        model, index = build_extensive_form(inst)
        kinds = sorted({c[0] for c in index.coords})
        assert kinds == ["pG", "psh", "theta", "xG"]
        assert len(index.columns_of_kind("pG")) == 2
        assert len(index.columns_of_kind("psh")) == 2
        assert len(index.columns_of_kind("theta")) == 2
        res = solve(model)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(res.x[index.columns_of_kind("xG")], 0.0)

    @pytest.mark.parametrize("gen,seed", [("G1", 1), ("G2", 2), ("G3", 3)])
    def test_counts_match_closed_form(self, gen, seed):
        inst = generate(gen, seed)
        model, index = build_extensive_form(inst)
        assert model.num_vars == expected_column_count(inst) == len(index)
        assert model.num_rows == expected_ef_row_count(inst)

    def test_invalid_instance_rejected(self):
        inst = _one_bus_trivial()
        bad = dataclasses.replace(inst, shed_cost=-1.0)
        with pytest.raises(InvalidInstanceError):
            build_extensive_form(bad)

    def test_solution_invariants_hold(self, g1, g1_ef, g1_ef_solution):
        model, index = g1_ef
        check_solution_invariants(g1, index, g1_ef_solution.x)
        check_expectation_rows(g1, index, g1_ef_solution.x)

    def test_inflexible_built_loads_run_flat_out(self, solver_cfg):
        inst = g1_variant(1, tiers=INFLEXIBLE)
        model, index = build_extensive_form(inst)
        res = solve(model, solver_cfg)
        assert res.status == "optimal"
        x_first = extract_first_stage(index, res.x)
        built = {(c[1], c[2]): v for c, v in x_first.items()
                 if c[0] == "xD" and v > 0.5}
        assert built, "fixture must build at least one load site"
        d = inst.load_techs[0]
        for (b, _), units in built.items():
            for scen in inst.scenarios:
                for t in range(inst.num_periods):
                    served = res.x[index.column(("pDK", b, "dac", 1, t, scen.id))]
                    assert served == pytest.approx(units * d.unit_size_mw, rel=1e-6)

    def test_flexibility_relaxation_never_costs_more(self, solver_cfg):
        # pointwise-weaker phi on the same breakpoints relaxes the model
        strict = g1_variant(4)
        weaker_tiers = dataclasses.replace(
            strict.load_techs[0].tiers,
            phi=tuple(p * 0.5 for p in strict.load_techs[0].tiers.phi))
        weaker = dataclasses.replace(
            strict, load_techs=(dataclasses.replace(strict.load_techs[0],
                                                    tiers=weaker_tiers),))
        obj_strict = solve(build_extensive_form(strict)[0], solver_cfg).objective
        obj_weaker = solve(build_extensive_form(weaker)[0], solver_cfg).objective
        assert obj_weaker <= obj_strict + 1e-6


class TestSubproblems:
    def test_unknown_scenario_rejected(self, g1):
        with pytest.raises(ModelError, match="scenario"):
            build_scenario_subproblem(g1, "nope")

    def test_unknown_handle_rejected(self, g1):
        base, index = build_scenario_subproblem(g1, "s1")
        with pytest.raises(ModelError, match="handle"):
            price_scenario_subproblem(g1, base, index, {"bogus": 1.0})

    def test_negative_multiplier_rejected(self, g1):
        base, index = build_scenario_subproblem(g1, "s1")
        handle = enumerate_expectation_constraints(g1)[0].handle
        with pytest.raises(ModelError, match=">= 0"):
            price_scenario_subproblem(g1, base, index, {handle: -1.0})

    def test_pha_needs_full_rho_and_anchor(self, g1):
        base, index = build_scenario_subproblem(g1, "s1")
        n = len(first_stage_info(g1).coords)
        ones = np.ones(n)
        bad = [
            ("anchor must have one entry", {"anchor": np.ones(n - 1), "rho": ones}),
            ("rho must have one entry", {"anchor": ones, "rho": np.ones(n - 1)}),
            ("rho must have one entry", {"anchor": ones, "rho": np.ones((n, 1))}),
            ("both an anchor and rho", {"anchor": ones}),
            ("both an anchor and rho", {"rho": ones}),
        ]
        for match, prices in bad:
            with pytest.raises(ModelError, match=match):
                price_scenario_subproblem(g1, base, index, {}, **prices)

    def test_ef_closes_with_expectation_rows(self, g1, g1_ef):
        # one >= row per handle, in handle order; re-derived from the data:
        # a tranche row holds -phi * width * unit_size * tau * T on its xD and
        # its own tranche's pDK, a policy row no first-stage term but pG and pDK
        model, index = g1_ef
        handles = enumerate_expectation_constraints(g1)
        n_fs = len(first_stage_info(g1).coords)
        rows = row_coeffs(model)[model.num_rows - len(handles):]
        horizon = g1.period_length_h * g1.num_periods
        assert {h.kind for h in handles} == {"tier_reliability", "expected_output"}
        for spec, row, sense in zip(handles, rows, model.row_sense[-len(handles):]):
            want = np.zeros(n_fs)
            if spec.kind == "tier_reliability":
                d, k = g1.load_tech(spec.load_tech), spec.tier
                u = (0.0,) + tuple(d.tiers.u)
                want[index.column(("xD", spec.bus, d.id))] = (
                    -d.tiers.phi[k - 1] * (u[k] - u[k - 1]) * d.unit_size_mw * horizon)
            got = np.zeros(n_fs)
            for col, val in row:
                if col < n_fs:
                    got[col] = val
            np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=spec.handle)
            assert sense == GE, spec.handle
            ops = {index.coord(col)[:4] for col, _ in row if col >= n_fs}
            if spec.kind == "tier_reliability":
                assert ops == {("pDK", spec.bus, spec.load_tech, spec.tier)}, spec.handle
            else:
                assert {op[0] for op in ops} == {"pG", "pDK"}, spec.handle

    def test_sigma_columns_follow_handles(self, g1):
        model, index = build_scenario_subproblem(g1, "s1")
        handles = enumerate_expectation_constraints(g1)
        sig_cols = index.columns_of_kind("sigma")
        assert len(sig_cols) == len(handles) == 7
        for h in handles:
            assert ("sigma", h.handle, "s1") in index

    def test_zero_multiplier_sum_matches_ef_without_expectations(
            self, g1, g1_ef, g1_ef_solution, solver_cfg):
        # drop the expectation rows (the EF's last rows, see
        # test_ef_closes_with_expectation_rows) from the EF, solve, then force
        # its first stage into each lambda=0 subproblem: probability-weighted
        # optima must reproduce the stripped objective
        model, index = g1_ef
        n_keep = model.num_rows - len(enumerate_expectation_constraints(g1))
        mb = ModelBuilder(name="stripped")
        for i in range(model.num_vars):
            mb.add_var(lb=float(model.var_lb[i]), ub=float(model.var_ub[i]),
                       integer=bool(model.var_integer[i]), obj=float(model.obj[i]))
        rows = row_coeffs(model)
        for i in range(n_keep):
            mb.add_row(rows[i], int(model.row_sense[i]), float(model.row_rhs[i]))
        stripped = mb.freeze()
        res = solve(stripped, solver_cfg)
        assert res.status == "optimal"
        # integer values rounded and continuous ones clipped, so each pin lies in its box
        x = np.clip(res.x, stripped.var_lb, stripped.var_ub)
        x_first = extract_first_stage(index, np.where(stripped.var_integer, np.round(x), x))

        total = 0.0
        for scen in g1.scenarios:
            sub, sub_index = build_scenario_subproblem(g1, scen.id)
            fixed = restrict_bounds(sub, {sub_index.column(c): (v, v)
                                          for c, v in x_first.items()})
            sub_res = solve(fixed, solver_cfg)
            assert sub_res.status == "optimal"
            total += scen.probability * sub_res.objective
        assert total == pytest.approx(res.objective, rel=1e-7)

    def test_proximal_vanishes_at_anchor(self, g1, solver_cfg):
        lr_model, lr_index = build_scenario_subproblem(g1, "s1")
        lr_res = solve(lr_model, solver_cfg)
        info = first_stage_info(g1)
        anchor = np.array([lr_res.x[lr_index.column(c)] for c in info.coords])
        rho = np.full(len(info.coords), 123.0)
        pha_model = price_scenario_subproblem(g1, lr_model, lr_index, {},
                                              anchor=anchor, rho=rho)
        assert objective_value(pha_model, lr_res.x) == pytest.approx(
            objective_value(lr_model, lr_res.x), rel=1e-12)

    def test_weak_duality_at_uniform_tier_multipliers(self, g1, g1_ef_solution,
                                                      solver_cfg):
        lam = {h.handle: 0.1 for h in enumerate_expectation_constraints(g1)}
        total = 0.0
        for scen in g1.scenarios:
            base, index = build_scenario_subproblem(g1, scen.id)
            res = solve(price_scenario_subproblem(g1, base, index, lam), solver_cfg)
            total += scen.probability * res.objective
        assert total <= g1_ef_solution.objective + 1e-6


class TestColumnLayout:
    @pytest.mark.parametrize("gen", ["G1", "G2", "G3"])
    def test_first_stage_leads_and_slacks_close(self, gen):
        inst = generate(gen, 1)
        fs = first_stage_info(inst).coords
        handles = enumerate_expectation_constraints(inst)
        _, ef_index = build_extensive_form(inst)
        assert ef_index.coords[:len(fs)] == fs
        for scen in inst.scenarios:
            _, index = build_scenario_subproblem(inst, scen.id)
            assert index.coords[:len(fs)] == fs
            assert index.coords[len(index) - len(handles):] == tuple(
                ("sigma", h.handle, scen.id) for h in handles)


def _prices(inst, mode, seed):
    """Nonzero multipliers and weights, plus in-box anchors and rho for "pha"."""
    rng = np.random.default_rng(seed)
    info = first_stage_info(inst)
    handles = enumerate_expectation_constraints(inst)
    lam = {h.handle: float(rng.uniform(0.0, 5e3)) for h in handles}
    prices = {"w": rng.normal(0.0, 1e3, len(info.coords))}
    if mode == "pha":
        prices["anchor"] = rng.uniform(info.lb, info.ub)
        prices["rho"] = rng.uniform(1.0, 50.0, len(info.coords))
    return lam, prices


class TestRepricing:
    @pytest.mark.parametrize("gen", ["G1", "G2"])
    @pytest.mark.parametrize("mode", ["lr", "pha"])
    def test_written_terms_equal_the_inputs(self, gen, mode):
        inst = generate(gen, 1)
        info = first_stage_info(inst)
        handles = enumerate_expectation_constraints(inst)
        for n, scen in enumerate(inst.scenarios):
            base, index = build_scenario_subproblem(inst, scen.id)
            assert base.name == f"{inst.name}-lr-{scen.id}" and base.quad == ()
            lam, prices = _prices(inst, mode, seed=n)
            priced = price_scenario_subproblem(inst, base, index, lam, **prices)

            fs = [index.column(c) for c in info.coords]
            assert np.array_equal(priced.obj[fs], info.unit_cost + prices["w"])
            assert [priced.obj[index.column(("sigma", h.handle, scen.id))]
                    for h in handles] == [lam[h.handle] for h in handles]
            rest = np.ones(base.num_vars, dtype=bool)
            rest[fs] = False
            rest[index.columns_of_kind("sigma")] = False
            assert np.array_equal(priced.obj[rest], base.obj[rest])
            expected_quad = () if mode == "lr" else tuple(
                QuadTerm(col=col, coef=prices["rho"][i] / 2.0, anchor=prices["anchor"][i])
                for i, col in enumerate(fs))
            assert priced.quad == expected_quad
            assert priced.name == f"{inst.name}-{mode}-{scen.id}"
            for f in ("var_lb", "var_ub", "var_integer", "a", "row_sense", "row_rhs"):
                assert getattr(priced, f) is getattr(base, f), f  # shared, not copied

    @pytest.mark.parametrize("gen", ["G1", "G2"])
    @pytest.mark.parametrize("mode", ["lr", "pha"])
    def test_repriced_base_equals_fresh_build(self, gen, mode):
        # pricing overwrites: a base priced once and then re-priced equals a
        # fresh build priced once
        inst = generate(gen, 1)
        for n, scen in enumerate(inst.scenarios):
            base, index = build_scenario_subproblem(inst, scen.id)
            other_lam, other = _prices(inst, "pha", seed=100 + n)
            priced = price_scenario_subproblem(inst, base, index, other_lam, **other)
            lam, prices = _prices(inst, mode, seed=n)
            fresh, fresh_index = build_scenario_subproblem(inst, scen.id)
            assert fresh_index.coords == index.coords
            assert_same_model(price_scenario_subproblem(inst, priced, index, lam, **prices),
                              price_scenario_subproblem(inst, fresh, index, lam, **prices))

    def test_pricing_with_nothing_returns_the_base(self, g1):
        base, index = build_scenario_subproblem(g1, "s1")
        assert_same_model(price_scenario_subproblem(g1, base, index, {}), base)

    def test_spec_errors_raise_on_the_repricing_path(self, g1):
        base, index = build_scenario_subproblem(g1, "s1")
        n = len(first_stage_info(g1).coords)
        ones = np.ones(n)
        handle = enumerate_expectation_constraints(g1)[0].handle
        bad = [
            ("handle", {"bogus": 1.0}, {}),
            (">= 0", {handle: -1.0}, {}),
            ("w must have one entry", {}, {"w": np.ones(n + 1)}),
            ("rho must be > 0", {}, {"anchor": ones, "rho": np.r_[0.0, np.ones(n - 1)]}),
            ("rho must be > 0", {}, {"anchor": ones, "rho": -ones}),
        ]
        for match, lam, prices in bad:
            with pytest.raises(ModelError, match=match):
                price_scenario_subproblem(g1, base, index, lam, **prices)

    def test_extensive_form_is_not_a_scenario_subproblem(self, g1, g1_ef):
        model, index = g1_ef
        with pytest.raises(ModelError, match="not a scenario subproblem"):
            price_scenario_subproblem(g1, model, index, {})

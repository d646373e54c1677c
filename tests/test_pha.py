import dataclasses
import filecmp
import functools
import io
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flexcep.pha as pha_module
import flexcep.solvers as solvers_module
from flexcep import storage
from flexcep.build import build_extensive_form, first_stage_info
from flexcep.canonical import FEASIBLE_WITH_GAP, LIMIT_REACHED, SolveResult, relax_integrality
from flexcep.cli import RunManifest, cmd_compare_flexibility, cmd_solve, parse_variant
from flexcep.core import Scenario, enumerate_expectation_constraints
from flexcep.oracle import brute_force_optimum, g1_variant, generate
from flexcep.pha import (
    LP_SWEEPS_PER_ITERATION,
    NO_INCUMBENT,
    PHAConfig,
    PHAError,
    PHAState,
    check_first_stage_candidate,
    consensus_metric,
    exact_candidate_evaluation,
    lagrangian_lower_bound,
    run_pha,
    round_and_repair,
    sigma_violation,
)
from flexcep.solvers import NO_PRIMAL_HEURISTICS, BackendCrashError, SolverConfig, solve

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")


def _single_scenario_inflexible(seed=1):
    """|Omega| = 1, no policies, inflexible tiers: no cross-scenario coupling."""
    base = g1_variant(seed)
    inflexible = dataclasses.replace(
        base.load_techs[0],
        tiers=dataclasses.replace(base.load_techs[0].tiers, u=(1.0,), phi=(1.0,)))
    scen = dataclasses.replace(base.scenarios[0], probability=1.0)
    return dataclasses.replace(base, load_techs=(inflexible,), scenarios=(scen,),
                               expectation_policies=())


class TestConsensusMetric:
    def _state(self, xs, probs, scales=None):
        n = len(next(iter(xs.values())))
        state = PHAState(mw_scale=np.array(scales or [1.0] * n), probabilities=probs)
        state.x = {k: np.asarray(v, dtype=float) for k, v in xs.items()}
        state.x_bar = sum(probs[k] * state.x[k] for k in xs)
        return state

    def test_identical_copies_give_zero(self):
        state = self._state({"a": [2.0, 3.0], "b": [2.0, 3.0]}, {"a": 0.5, "b": 0.5})
        assert consensus_metric(state) == 0.0

    def test_two_equiprobable_scalars(self):
        state = self._state({"a": [0.0], "b": [2.0]}, {"a": 0.5, "b": 0.5})
        assert consensus_metric(state) == pytest.approx(1.0)

    def test_mw_scaling_applies(self):
        state = self._state({"a": [0.0], "b": [2.0]}, {"a": 0.5, "b": 0.5},
                            scales=[10.0])
        assert consensus_metric(state) == pytest.approx(10.0)

    def test_sigma_violation_one_sided(self):
        assert sigma_violation({"a": -5.0, "b": -1.0}) == 0.0
        assert sigma_violation({"a": -5.0, "b": 0.25}) == 0.25
        assert sigma_violation({}) == 0.0


class TestSingleScenario:
    def test_converges_immediately_to_ef_optimum(self, solver_cfg):
        inst = _single_scenario_inflexible()
        from flexcep.build import build_extensive_form
        from flexcep.solvers import solve
        ef = solve(build_extensive_form(inst)[0], solver_cfg)
        report, state = run_pha(inst, PHAConfig(max_iterations=5), solver_cfg)
        assert state.iteration == 1
        assert state.termination in ("consensus", "bound_gap")
        assert consensus_metric(state) == pytest.approx(0.0, abs=1e-9)
        assert report.objective == pytest.approx(ef.objective, rel=1e-6)
        assert report.status != "optimal"  # heuristic honesty


class TestWeightBalance:
    def test_balance_holds_each_iteration(self, g1, solver_cfg):
        # every lower-bound sweep checks the balance; re-check the final state
        report, state = run_pha(g1, PHAConfig(max_iterations=4, gap_threshold=1e-9),
                                solver_cfg)
        total = sum(state.probabilities[s] * state.w[s] for s in state.w)
        assert float(np.max(np.abs(total))) <= 1e-8 * max(
            1.0, max(float(np.max(np.abs(state.w[s]))) for s in state.w))
        assert all(v >= 0.0 for v in state.lam.values())


class TestLagrangianBound:
    def test_single_scenario_zero_multipliers_equals_ef(self, solver_cfg):
        inst = _single_scenario_inflexible()
        from flexcep.build import build_extensive_form
        from flexcep.solvers import solve
        ef = solve(build_extensive_form(inst)[0], solver_cfg)
        lb, _ = lagrangian_lower_bound(inst, {}, {}, solver_cfg)
        assert lb == pytest.approx(ef.objective, rel=1e-7)
        assert lb <= ef.objective + 1e-6

    def test_zero_multipliers_bound_g1(self, g1, g1_ef_solution, solver_cfg):
        lb, _ = lagrangian_lower_bound(g1, {}, {}, solver_cfg)
        assert lb <= g1_ef_solution.objective + 1e-6

    def test_negative_multiplier_rejected(self, g1):
        with pytest.raises(ValueError, match=">= 0"):
            lagrangian_lower_bound(g1, {"netzero": -1.0}, {})

    def test_unbalanced_weights_rejected(self, g1):
        n = len(first_stage_info(g1).coords)
        w = {"s1": np.r_[100.0, np.zeros(n - 1)], "s2": np.r_[100.0, np.zeros(n - 1)]}
        with pytest.raises(ValueError, match="balanced"):
            lagrangian_lower_bound(g1, {}, w)

    def test_weights_for_unknown_scenario_rejected(self, g1):
        w = {"nope": np.zeros(len(first_stage_info(g1).coords))}
        with pytest.raises(ValueError, match="unknown scenario 'nope'"):
            lagrangian_lower_bound(g1, {}, w)

    def test_random_draw_sweep_stays_below_optimum(self, g1, g1_oracle, solver_cfg):
        rng = np.random.default_rng(11)
        info = first_stage_info(g1)
        handles = [h.handle for h in enumerate_expectation_constraints(g1)]
        probs = {s.id: s.probability for s in g1.scenarios}
        for _ in range(5):
            lam = {h: float(rng.uniform(0.0, 5e4)) for h in handles}
            draw = {sid: rng.normal(0.0, 1e3, len(info.coords)) for sid in probs}
            mean = sum(probs[sid] * draw[sid] for sid in probs)
            w = {sid: draw[sid] - mean for sid in probs}
            lb, _ = lagrangian_lower_bound(g1, lam, w, solver_cfg)
            assert lb <= g1_oracle.objective + 1e-6

    def test_a_solve_stopped_without_a_gap_proves_no_bound(self, g1, tmp_path):
        # a stopped solve's objective is an upper value, not a bound from below
        script = tmp_path / "solver.py"
        script.write_text(
            "import sys\n"
            "with open(sys.argv[2], 'w') as fh:\n"
            "    fh.write('status feasible_with_gap\\nobjective 1e15\\nend\\n')\n")
        cfg = SolverConfig(backend="subprocess", solver_bin=f"{sys.executable} {script}")
        assert lagrangian_lower_bound(g1, {}, {}, cfg)[0] is None

        # neither the hub's first sweep nor any spoke sweep proves a bound
        spoke = pha_module._DualSpoke(g1, first_stage_info(g1), pha_module._scenario_bases(g1),
                                      cfg, 1)
        state = PHAState(mw_scale=np.ones(1), probabilities={"s1": 0.5, "s2": 0.5},
                         iteration=1)
        stopped = [SolveResult(status=FEASIBLE_WITH_GAP, objective=1e15)] * 2
        pha_module._dual_step(spoke, state, stopped, final=False)
        assert state.best_lower is None
        # a bound an earlier sweep proved survives a sweep that proves none
        state.iteration, spoke.best = 2, 5.0
        pha_module._dual_step(spoke, state, stopped, final=True)
        assert state.best_lower == 5.0


def _tiled(gen: str, seed: int, n_scenarios: int, period_reps: int):
    """A rung past oracle size: ``n_scenarios`` scenarios cycling through the
    base instance's, each period tiled ``period_reps`` times with +/-10% demand noise."""
    base = generate(gen, seed)
    rng = np.random.default_rng(0)
    scenarios = []
    for k in range(n_scenarios):
        src = base.scenarios[k % len(base.scenarios)]
        demand = np.tile(src.demand, (1, period_reps))
        scenarios.append(Scenario(
            id=f"s{k + 1}", probability=1.0 / n_scenarios,
            demand=demand * rng.uniform(0.9, 1.1, size=demand.shape),
            availability=np.tile(src.availability, (1, 1, period_reps))))
    return dataclasses.replace(base, scenarios=tuple(scenarios))


@functools.cache
def _tiled_with_optimum(gen: str, n_scenarios: int, period_reps: int):
    inst = _tiled(gen, 1, n_scenarios, period_reps)
    ef = solve(build_extensive_form(inst)[0])
    assert ef.status == "optimal"
    return inst, ef.objective


def _failing_spoke_sweeps(monkeypatch, failure):
    """Make every scenario solve of the dual spoke's sweeps fail after the
    hub's first sweep: return ``LIMIT_REACHED``, or raise as HiGHS's
    "Solve error" does."""
    original = pha_module.solve
    lagrangian = []

    def failing(model, cfg=None, **kwargs):
        if "-lr-" in model.name:
            lagrangian.append(model.name)
            if len(lagrangian) > 2:  # past the hub's first sweep of two scenarios
                if failure == "limit":
                    return SolveResult(status=LIMIT_REACHED)
                raise BackendCrashError("scipy.milp failed: Solve error")
        return original(model, cfg, **kwargs)
    monkeypatch.setattr(pha_module, "solve", failing)
    return lagrangian


class TestDualSpoke:
    @pytest.mark.parametrize("failure", ["limit", "crash"])
    @pytest.mark.parametrize("relax", [False, True], ids=["integer", "convex"])
    def test_a_failed_sweep_keeps_the_last_bound(self, g1, solver_cfg, monkeypatch,
                                                 relax, failure):
        cfg = PHAConfig(max_iterations=4, gap_threshold=1e-9, relax_integrality=relax)
        report, state = run_pha(g1, cfg, solver_cfg)
        lagrangian = _failing_spoke_sweeps(monkeypatch, failure)
        failed, f_state = run_pha(g1, cfg, solver_cfg)
        assert len(lagrangian) > 2  # the spoke swept from iteration 2 on and failed
        first = failed.trace[0].lower_bound
        assert first == report.trace[0].lower_bound
        assert [row.lower_bound for row in failed.trace] == [first] * 4
        assert report.trace[-1].lower_bound > first
        # the hub and the incumbent do not depend on the spoke
        assert failed.upper_bound == report.upper_bound
        assert np.array_equal(f_state.x_bar, state.x_bar)
        assert f_state.termination == "max_iterations"

    def test_hub_sweeps_still_raise(self, g1, solver_cfg, monkeypatch):
        original = pha_module.solve

        def failing(model, cfg=None, **kwargs):
            if "-pha-" in model.name:
                return SolveResult(status=LIMIT_REACHED)
            return original(model, cfg, **kwargs)
        monkeypatch.setattr(pha_module, "solve", failing)
        with pytest.raises(PHAError, match="failed: limit_reached"):
            run_pha(g1, PHAConfig(max_iterations=2, gap_threshold=1e-9), solver_cfg)

    @pytest.mark.parametrize("relax", [False, True], ids=["integer", "convex"])
    def test_every_spoke_sweep_is_one_lagrangian_lower_bound_call(self, g1, solver_cfg,
                                                                  monkeypatch, relax):
        # the benchmark times the lower bound by hooking this module global
        calls, scenario_solves = [], []
        original, solve_original = pha_module.lagrangian_lower_bound, pha_module.solve

        def counting(*args, **kwargs):
            calls.append(kwargs["bases"])
            return original(*args, **kwargs)

        def solving(model, cfg=None, **kwargs):
            if "-lr-" in model.name:
                scenario_solves.append(model.name)
            return solve_original(model, cfg, **kwargs)
        monkeypatch.setattr(pha_module, "lagrangian_lower_bound", counting)
        monkeypatch.setattr(pha_module, "solve", solving)
        run_pha(g1, PHAConfig(max_iterations=4, gap_threshold=1e-9,
                              relax_integrality=relax), solver_cfg)
        n_scen = len(g1.scenarios)
        # every Lagrangian solve but the hub's first sweep is a spoke sweep
        assert len(scenario_solves) == n_scen * (1 + len(calls))
        relaxed = [not any(model.var_integer.any() for model, _ in bases.values())
                   for bases in calls]
        if relax:
            assert relaxed == [True] * 3  # one LP sweep in each of iterations 2-4
        else:
            assert relaxed[-1] is False and relaxed.count(False) == 1
            assert relaxed.count(True) >= LP_SWEEPS_PER_ITERATION

    def test_integer_sweep_at_the_lp_centre_is_at_least_the_lp_sweep(self, solver_cfg,
                                                                     monkeypatch):
        # Geoffrion: the integer Lagrangian is at least the relaxed one at every
        # point; at the centre of the LP phase it is the run's bound
        inst, optimum = _tiled_with_optimum("G2", 3, 2)
        spokes = []
        advance = pha_module._DualSpoke.advance

        def capturing(spoke, *args, **kwargs):
            spokes.append(spoke)
            return advance(spoke, *args, **kwargs)
        monkeypatch.setattr(pha_module._DualSpoke, "advance", capturing)
        _, state = run_pha(inst, PHAConfig(rho_scale=0.1, beta_scale=0.1, max_iterations=3,
                                           gap_threshold=1e-9), solver_cfg)
        spoke = spokes[-1]
        assert not spoke.lp_phase
        lam = dict(zip(spoke.handles, spoke.lam))
        w = {s.id: spoke.w[i] for i, s in enumerate(inst.scenarios)}
        relaxed, _ = lagrangian_lower_bound(inst, lam, w, solver_cfg, bases=spoke.relaxed)
        integer, _ = lagrangian_lower_bound(inst, lam, w, solver_cfg, bases=spoke.bases)
        assert relaxed <= integer + 1e-9 * abs(integer)
        assert state.best_lower >= integer - 1e-9 * abs(integer)
        assert integer <= optimum * (1 + 1e-9)


class TestWeakDualityPastOracleSize:
    @given(data=st.data())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_random_multipliers_stay_below_the_ef_optimum(self, data):
        gen = data.draw(st.sampled_from(["G1", "G2"]))
        n_scen = data.draw(st.integers(2, 3))
        reps = data.draw(st.integers(1, 2))
        inst, optimum = _tiled_with_optimum(gen, n_scen, reps)
        info = first_stage_info(inst)
        handles = [h.handle for h in enumerate_expectation_constraints(inst)]
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        lam = {h: float(rng.uniform(0.0, 1e5)) * data.draw(st.sampled_from([0.0, 1.0]))
               for h in handles}
        raw = rng.normal(0.0, 1.0, (n_scen, len(info.coords)))
        raw *= np.maximum(info.unit_cost, 1.0)
        raw -= np.mean(raw, axis=0)  # equiprobable scenarios: sum_s p_s w_s = 0
        w = {s.id: raw[i] for i, s in enumerate(inst.scenarios)}
        lb, solutions = lagrangian_lower_bound(inst, lam, w)
        assert lb <= optimum + 1e-9 * abs(optimum)
        assert len(solutions) == n_scen and all(x is not None for x in solutions)


def _dc(info, x_hat, bus):
    return x_hat[info.coords.index(("xD", bus, "datacenter"))]


class TestRoundAndRepair:
    def test_rounding_and_mandate_repair(self):
        inst = generate("G2", 1)
        info = first_stage_info(inst)
        x_bar = np.zeros(len(info.coords))
        x_hat = round_and_repair(inst, info, x_bar)
        dc_total = sum(v for c, v in zip(info.coords, x_hat)
                       if c[0] == "xD" and c[2] == "datacenter")
        assert dc_total == 1.0  # equality mandate restored at the cheapest site
        assert _dc(info, x_hat, "B1") == 1.0

    def test_equality_mandate_trims_excess(self):
        inst = generate("G2", 1)
        info = first_stage_info(inst)
        x_bar = np.zeros(len(info.coords))
        for i, c in enumerate(info.coords):
            if c[0] == "xD" and c[2] == "datacenter":
                x_bar[i] = 1.0  # both sites at 1 violates the equality mandate
        x_hat = round_and_repair(inst, info, x_bar)
        dc_total = sum(v for c, v in zip(info.coords, x_hat)
                       if c[0] == "xD" and c[2] == "datacenter")
        assert dc_total == 1.0

    def test_binary_threshold(self, g1):
        info = first_stage_info(g1)
        x_bar = np.zeros(len(info.coords))
        li = info.coords.index(("xL", "L12"))
        x_bar[li] = 0.49
        assert round_and_repair(g1, info, x_bar)[li] == 0.0
        x_bar[li] = 0.51
        assert round_and_repair(g1, info, x_bar)[li] == 1.0

    def test_relaxed_info_keeps_fractions_and_repairs_without_flooring(self):
        # convex mode marks every coordinate continuous: nothing is rounded,
        # the equality mandate (1 datacenter) is met by fractional moves
        inst = generate("G2", 1)
        info = first_stage_info(inst)
        relaxed = dataclasses.replace(info, integer=np.zeros_like(info.integer))
        li = info.coords.index(("xL", "L12"))
        for b1, b2, want_b1, want_b2 in ((0.0, 0.4, 0.6, 0.4),   # raised
                                         (0.7, 0.7, 0.7, 0.3)):  # trimmed
            x_bar = np.zeros(len(info.coords))
            x_bar[li] = 0.49
            x_bar[info.coords.index(("xD", "B1", "datacenter"))] = b1
            x_bar[info.coords.index(("xD", "B2", "datacenter"))] = b2
            x_hat = round_and_repair(inst, relaxed, x_bar)
            assert x_hat[li] == 0.49
            assert _dc(info, x_hat, "B1") == pytest.approx(want_b1)
            assert _dc(info, x_hat, "B2") == pytest.approx(want_b2)
            check_first_stage_candidate(inst, relaxed, x_hat)
            with pytest.raises(PHAError, match="integral"):
                check_first_stage_candidate(inst, info, x_hat)
            rounded = round_and_repair(inst, info, x_bar)
            assert rounded[li] == 0.0
            assert _dc(info, rounded, "B1") + _dc(info, rounded, "B2") == 1.0


_FIXTURE_INSTANCES = {gen: generate(gen, 1) for gen in ("G1", "G2", "G3")}


class TestRoundAndRepairProperty:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), gen=st.sampled_from(sorted(_FIXTURE_INSTANCES)),
           relaxed=st.booleans())
    def test_repaired_candidate_passes_the_checks(self, data, gen, relaxed):
        # validation guarantees every mandate fits the build limits, so any
        # consensus, even one outside the boxes, rounds to a valid candidate
        inst = _FIXTURE_INSTANCES[gen]
        info = first_stage_info(inst)
        if relaxed:
            info = dataclasses.replace(info, integer=np.zeros_like(info.integer))
        unit = data.draw(st.lists(st.floats(-0.5, 1.5, allow_nan=False),
                                  min_size=len(info.coords), max_size=len(info.coords)))
        x_bar = info.lb + np.array(unit) * np.maximum(info.ub - info.lb, 1.0)
        x_hat = round_and_repair(inst, info, x_bar)
        check_first_stage_candidate(inst, info, x_hat)


def _vector(info, assignment):
    return np.array([assignment[c] for c in info.coords])


class TestExactCandidateEvaluation:
    def test_oracle_first_stage_reproduces_optimum(self, g1, g1_oracle, solver_cfg):
        info = first_stage_info(g1)
        x_hat = _vector(info, g1_oracle.assignment)
        check_first_stage_candidate(g1, info, x_hat)
        objective, _, _ = exact_candidate_evaluation(g1, x_hat, x_hat, solver_cfg)
        assert objective == pytest.approx(g1_oracle.objective, rel=1e-9)

    def test_infeasible_candidate_rejected_before_solving(self):
        inst = generate("G2", 1)
        info = first_stage_info(inst)
        x_hat = np.zeros(len(info.coords))  # violates the datacenter mandate
        with pytest.raises(PHAError, match="mandate"):
            check_first_stage_candidate(inst, info, x_hat)

    def test_mandate_minimum_build_yields_large_bound(self, solver_cfg):
        # mandate satisfied with bare-bones generation: feasible but expensive
        inst = dataclasses.replace(generate("G2", 1), expectation_policies=())
        oracle = brute_force_optimum(inst)
        info = first_stage_info(inst)
        x_hat = np.zeros(len(info.coords))
        x_hat[info.coords.index(("xD", "B1", "datacenter"))] = 1.0
        x_hat[info.coords.index(("xG", "B1", "gas"))] = 2.0  # enough committed power for the tranches
        check_first_stage_candidate(inst, info, x_hat)
        objective, _, _ = exact_candidate_evaluation(inst, x_hat, x_hat, solver_cfg)
        assert objective >= oracle.objective - 1e-6
        assert objective > 2.0 * oracle.objective  # shed-heavy plan

    def test_unreachable_policy_has_no_bound(self, g1_oracle, solver_cfg):
        inst = g1_variant(1, policy_threshold=-2000.0)
        x_hat = _vector(first_stage_info(inst), g1_oracle.assignment)
        assert exact_candidate_evaluation(inst, x_hat, x_hat, solver_cfg) is None

    @pytest.mark.parametrize("gen", ["G1", "G2", "G3"])
    @pytest.mark.parametrize("relaxed", [False, True], ids=["integer", "convex"])
    def test_banded_box_by_interior_point_matches_simplex(self, gen, relaxed,
                                                         solver_cfg, monkeypatch):
        # a box around the (relaxed) EF optimum's first stage: integer
        # coordinates pinned in integer mode, every other one banded
        inst = generate(gen, 1)
        info = first_stage_info(inst)
        model, _ = build_extensive_form(inst)
        optimum = solve(relax_integrality(model) if relaxed else model, solver_cfg)
        centre = optimum.x[:len(info.coords)]
        pinned = info.integer & (not relaxed)
        band = 0.25 * np.abs(centre) + 0.5
        lo = np.where(pinned, np.round(centre), np.maximum(info.lb, centre - band))
        hi = np.where(pinned, np.round(centre), np.minimum(info.ub, centre + band))
        assert np.any(lo < hi)
        original = pha_module.solve  # the same box on each method, whatever the rule picks
        monkeypatch.setattr(pha_module, "solve", lambda model, cfg=None, **kwargs:
                            original(model, cfg, interior=True))
        interior = exact_candidate_evaluation(inst, lo, hi, solver_cfg)
        monkeypatch.setattr(pha_module, "solve",
                            lambda model, cfg=None, **kwargs: original(model, cfg))
        simplex = exact_candidate_evaluation(inst, lo, hi, solver_cfg)
        assert interior is not None and simplex is not None
        assert interior[0] == pytest.approx(simplex[0], rel=1e-9)

    @pytest.mark.parametrize("case", ["unreachable policy", "unmet mandate"])
    def test_infeasible_banded_box_has_no_bound(self, case, solver_cfg):
        if case == "unreachable policy":
            inst = g1_variant(1, policy_threshold=-2000.0)
            info = first_stage_info(inst)
            lo, hi = info.lb, info.ub
        else:  # no datacenter site may be built, everything else is free
            inst = generate("G2", 1)
            info = first_stage_info(inst)
            lo, hi = info.lb, np.where(info.integer, info.lb, info.ub)
        assert np.any(lo < hi)
        assert exact_candidate_evaluation(inst, lo, hi, solver_cfg) is None

    def test_wrong_length_candidate_or_box_rejected(self, g1):
        info = first_stage_info(g1)
        short = np.zeros(len(info.coords) - 1)
        with pytest.raises(PHAError, match="one entry per first-stage coordinate"):
            check_first_stage_candidate(g1, info, short)
        full = np.zeros(len(info.coords))
        for lo, hi in ((short, full), (full, short), (full, full[:, None])):
            with pytest.raises(ValueError, match="one entry per first-stage coordinate"):
                exact_candidate_evaluation(g1, lo, hi)


class TestRunPha:
    def test_milp_bound_sandwich(self, g1, g1_oracle, solver_cfg):
        cfg = PHAConfig(max_iterations=12, gap_threshold=5e-3, beta_scale=0.2)
        report, state = run_pha(g1, cfg, solver_cfg)
        assert state.best_lower <= g1_oracle.objective + 1e-6
        if state.best_upper is not None:
            assert g1_oracle.objective <= state.best_upper + 1e-6
            assert report.gap == pytest.approx(
                (state.best_upper - state.best_lower) / max(abs(state.best_upper), 1.0))
        assert report.status != "optimal"
        assert len(report.trace) == state.iteration

    def test_deterministic_traces(self, g1, solver_cfg):
        cfg = PHAConfig(max_iterations=4, gap_threshold=1e-9)
        r1, s1 = run_pha(g1, cfg, solver_cfg)
        r2, s2 = run_pha(g1, cfg, solver_cfg)
        assert r1.trace == r2.trace
        assert s1.lam == s2.lam
        assert np.array_equal(s1.x_bar, s2.x_bar)

    def test_hub_and_dual_steps_ignore_the_candidate_step(self, g1, solver_cfg, monkeypatch):
        cfg = PHAConfig(max_iterations=4, gap_threshold=1e-9)
        full, s_full = run_pha(g1, cfg, solver_cfg)
        assert s_full.incumbent is not None
        assert s_full.best_upper == s_full.incumbent[0]
        assert full.incumbent_source == s_full.incumbent[3]
        monkeypatch.setattr(pha_module, "_candidate_step", lambda *args, **kwargs: None)
        bare, s_bare = run_pha(g1, cfg, solver_cfg)
        assert [r.lower_bound for r in bare.trace] == [r.lower_bound for r in full.trace]
        assert s_bare.lam == s_full.lam
        assert np.array_equal(s_bare.x_bar, s_full.x_bar)
        assert bare.status == NO_INCUMBENT
        assert s_bare.best_upper is None

    @pytest.mark.parametrize("relax", [False, True], ids=["integer", "convex"])
    @pytest.mark.parametrize("path", ["G1/seed1.json", "G2/seed2.json"])
    def test_hub_and_candidates_ignore_the_dual_step(self, path, relax, solver_cfg,
                                                     monkeypatch):
        # the hub never reads the dual spoke, so the primal side of a run is
        # the same program without it
        inst = storage.load_instance(os.path.join(FIXTURES, path))
        cfg = PHAConfig(max_iterations=4, gap_threshold=1e-9, relax_integrality=relax)
        full, s_full = run_pha(inst, cfg, solver_cfg)
        monkeypatch.setattr(pha_module, "_dual_step", lambda *args, **kwargs: None)
        bare, s_bare = run_pha(inst, cfg, solver_cfg)
        assert s_full.best_lower is not None and s_bare.best_lower is None
        assert np.array_equal(s_bare.x_bar, s_full.x_bar)
        assert s_bare.w.keys() == s_full.w.keys()
        assert all(np.array_equal(s_bare.w[sid], s_full.w[sid]) for sid in s_full.w)
        assert s_bare.lam == s_full.lam
        assert s_full.incumbent is not None
        assert s_bare.incumbent[0] == s_full.incumbent[0]
        assert np.array_equal(s_bare.incumbent[2], s_full.incumbent[2])
        assert s_bare.incumbent[3] == s_full.incumbent[3]
        assert bare.incumbent_source == full.incumbent_source
        assert [r.upper_bound for r in bare.trace] == [r.upper_bound for r in full.trace]

    def test_convex_consensus_metric_decreases(self, g1, solver_cfg):
        cfg = PHAConfig(max_iterations=30, gap_threshold=1e-9,
                        relax_integrality=True, beta_scale=0.2)
        report, _ = run_pha(g1, cfg, solver_cfg)
        history = [row.consensus for row in report.trace]
        assert history[-1] < history[0]
        assert min(history) < 0.5 * history[0]

    @pytest.mark.parametrize("relax", [False, True], ids=["integer", "convex"])
    def test_integrality_of_every_solve_follows_the_mode(self, g1, solver_cfg,
                                                          monkeypatch, relax):
        seen = []
        original = pha_module.solve

        def recording(model, cfg=None, **kwargs):
            seen.append((model.name, bool(model.var_integer.any())))
            return original(model, cfg, **kwargs)
        monkeypatch.setattr(pha_module, "solve", recording)
        cfg = PHAConfig(max_iterations=3, gap_threshold=1e-9, relax_integrality=relax)
        run_pha(g1, cfg, solver_cfg)
        n_scen = len(g1.scenarios)

        def kinds(tag):
            return [mip for name, mip in seen if tag in name]
        # the hub's sweeps in iterations 2 and 3 carry the proximal term
        assert kinds("-pha-") == [not relax] * 2 * n_scen
        lagrangian = kinds("-lr-")  # the hub's first sweep, then the dual spoke's sweeps
        masters = kinds("-dual-master")  # one LP per step of the spoke past its centre
        if relax:
            # one LP sweep at the master's trial point in each of iterations 2 and 3
            assert lagrangian == [False] * 3 * n_scen
            assert masters == [False] * 2
        else:
            # the LP phase takes six relaxed steps in iteration 2: its centre,
            # then five trial points; the final iteration sweeps the centre
            # with MILPs instead
            assert lagrangian == [True] * n_scen + [False] * 6 * n_scen + [True] * n_scen
            assert masters == [False] * 5
        # every candidate (the scenarios' own first stages each iteration in
        # integer mode, the consensus box at the last in convex mode) is an LP
        assert kinds("-ef") and set(kinds("-ef")) == {False}
        assert len(seen) == len(kinds("-pha-") + lagrangian + masters + kinds("-ef"))

    @pytest.mark.parametrize("relax", [False, True], ids=["integer", "convex"])
    def test_interior_point_exactly_on_candidates_with_a_free_coordinate(
            self, g1, solver_cfg, monkeypatch, relax):
        # a free coordinate is one the extensive form marks integer: the
        # convex band frees some, an integer-mode box frees only continuous ones
        seen = []  # (candidate box frees an integer column, or None, and the solver option)
        banded, opened = [], []
        integer = build_extensive_form(g1)[0].var_integer[:len(first_stage_info(g1).coords)]
        original_milp = solvers_module.milp
        evaluate = pha_module.exact_candidate_evaluation

        def recording_milp(*args, options, **kwargs):
            seen.append((banded[-1] if banded else None, options.get("solver")))
            return original_milp(*args, options=options, **kwargs)

        def evaluating(inst, lo, hi, *args, **kwargs):
            banded.append(bool(np.any((lo < hi) & integer)))
            opened.append(bool(np.any(lo < hi)))
            try:
                return evaluate(inst, lo, hi, *args, **kwargs)
            finally:
                banded.pop()
        monkeypatch.setattr(solvers_module, "milp", recording_milp)
        monkeypatch.setattr(pha_module, "exact_candidate_evaluation", evaluating)
        run_pha(g1, PHAConfig(max_iterations=5, gap_threshold=1e-9,
                              relax_integrality=relax), solver_cfg)
        assert all((solver == "ipm") == bool(free) for free, solver in seen)
        assert {free for free, _ in seen} == ({None, True} if relax else {None, False})
        assert opened and all(opened)  # every box frees some column

    def test_solver_output_on_fd1_goes_to_stderr(self, g1, solver_cfg, monkeypatch,
                                                 capfd):
        original = pha_module.solve

        def noisy(model, cfg=None, **kwargs):
            os.write(1, b"printed by the solver library\n")
            return original(model, cfg, **kwargs)
        monkeypatch.setattr(pha_module, "solve", noisy)
        run_pha(g1, PHAConfig(max_iterations=2, workers=2), solver_cfg)
        print("after the run")
        out, err = capfd.readouterr()
        assert out == "after the run\n"
        assert "printed by the solver library" in err

    def test_library_run_leaves_stdout_empty(self, capfd):
        # a long library run leaves stdout empty; what HiGHS prints on fd 1
        # goes to stderr, as test_solver_output_on_fd1_goes_to_stderr checks
        inst = storage.load_instance(os.path.join(FIXTURES, "G2", "seed3.json"))
        run_pha(inst, PHAConfig(rho_scale=0.1, beta_scale=0.1, max_iterations=75))
        assert capfd.readouterr().out == ""

    def test_thread_pool_matches_serial(self, g1, solver_cfg):
        serial, s1 = run_pha(g1, PHAConfig(max_iterations=3, gap_threshold=1e-9),
                             solver_cfg)
        pooled, s2 = run_pha(g1, PHAConfig(max_iterations=3, gap_threshold=1e-9,
                                           workers=2), solver_cfg)
        assert serial.trace == pooled.trace
        assert s1.lam == s2.lam

    def test_unreachable_policy_keeps_multiplier_growing(self, solver_cfg):
        inst = g1_variant(1, policy_threshold=-2000.0)
        cfg = PHAConfig(max_iterations=6, gap_threshold=1e-9)
        report, state = run_pha(inst, cfg, solver_cfg)
        assert report.status == NO_INCUMBENT
        assert state.best_upper is None
        assert state.sigma_bar["netzero"] > 100.0
        assert state.lam["netzero"] > 0.0
        assert all(np.isfinite(t.lower_bound) for t in report.trace)

    def test_lower_bound_monotone_in_state(self, g1, solver_cfg):
        cfg = PHAConfig(max_iterations=6, gap_threshold=1e-9)
        report, _ = run_pha(g1, cfg, solver_cfg)
        lows = [row.lower_bound for row in report.trace]
        assert all(low is not None for low in lows)
        assert lows == sorted(lows)


class TestHighsOptions:
    """Every MILP runs without HiGHS's primal heuristics; every LP gets the
    defaults, and IPM when its box frees an integer column (convex mode only)."""

    DEFAULT = {"time_limit": 300.0, "mip_rel_gap": 0.0, "presolve": True}
    INTERIOR = {**DEFAULT, "solver": "ipm"}

    def _record(self, monkeypatch):
        seen = []  # (model has integer columns, options, scipy result) per backend call
        original = solvers_module.milp

        def recording(*args, options, integrality, **kwargs):
            res = original(*args, options=options, integrality=integrality, **kwargs)
            seen.append((bool(np.any(integrality)), dict(options), res))
            return res
        monkeypatch.setattr(solvers_module, "milp", recording)
        return seen

    @staticmethod
    def _record_spoke_lps(monkeypatch):
        """Record the dual spoke's LPs: its relaxed sweeps' scenario solves and its masters."""
        names = []  # appended from worker threads: list.append is atomic
        original = pha_module.solve

        def recording(model, cfg=None, **kwargs):
            if not model.var_integer.any() and not model.name.endswith("-ef"):
                names.append(model.name)
            return original(model, cfg, **kwargs)
        monkeypatch.setattr(pha_module, "solve", recording)
        return names

    @pytest.mark.parametrize("fixture", ["G1/seed1.json", "G2/seed2.json"])
    def test_integer_mode(self, fixture, solver_cfg, monkeypatch, tmp_path):
        path = os.path.join(FIXTURES, fixture)
        inst = storage.load_instance(path)
        seen = self._record(monkeypatch)
        run_pha(inst, PHAConfig(max_iterations=5, gap_threshold=1e-9), solver_cfg)
        sweeps = [(options, res) for mip, options, res in seen if mip]
        # the hub's five sweeps, then the dual spoke's one integer sweep at the
        # centre of its LP phase, in the final iteration
        assert len(sweeps) == 6 * len(inst.scenarios)
        assert all(options == {**self.DEFAULT, **NO_PRIMAL_HEURISTICS}
                   for options, _ in sweeps)
        # the options change the speed, never the proof: the gap is round-off
        assert all(res.status == 0 and res.mip_gap <= 1e-12 for _, res in sweeps)
        # every LP, candidate boxes with their integer part pinned included,
        # runs on dual simplex
        lps = [options for mip, options, _ in seen if not mip]
        assert lps and all(options == self.DEFAULT for options in lps)

        seen.clear()
        manifest = RunManifest(instance_path=path, method="ef", out_dir=str(tmp_path))
        assert cmd_solve(manifest, out=io.StringIO()) == 0
        assert [(mip, options) for mip, options, _ in seen] == [
            (True, {**self.DEFAULT, **NO_PRIMAL_HEURISTICS})]

    def test_pooled_run_and_flexibility_comparison(self, solver_cfg, monkeypatch):
        path = os.path.join(FIXTURES, "G2", "seed2.json")
        inst = storage.load_instance(path)
        seen = self._record(monkeypatch)
        calls = _record_evaluations(monkeypatch)
        spoke_lps = self._record_spoke_lps(monkeypatch)
        run_pha(inst, PHAConfig(max_iterations=5, gap_threshold=1e-9, workers=2), solver_cfg)
        milp = {**self.DEFAULT, **NO_PRIMAL_HEURISTICS}
        assert [options for mip, options, _ in seen if mip] == [milp] * 6 * len(inst.scenarios)
        # the dual spoke's LPs run on the defaults; every other LP is a
        # candidate box that pins its integer part and frees the rest, and
        # runs on dual simplex too
        lps = [options for mip, options, _ in seen if not mip]
        integer = first_stage_info(inst).integer
        assert spoke_lps and calls
        assert all(np.array_equal(lo[integer], hi[integer]) and np.any(lo < hi)
                   for _, lo, hi, _ in calls)
        assert len(lps) == len(spoke_lps) + len(calls)
        assert lps.count(self.INTERIOR) == 0
        assert lps.count(self.DEFAULT) == len(spoke_lps) + len(calls)

        seen.clear()
        variants = [parse_variant("inflexible"), parse_variant("fullflex")]
        assert cmd_compare_flexibility(path, inst.load_techs[0].id, variants, solver_cfg,
                                       out=io.StringIO()) == 0
        assert [(mip, options) for mip, options, _ in seen] == [(True, milp)] * 2

    def test_no_worker_thread_enters_a_warning_filter(self, g1, solver_cfg, monkeypatch):
        # filterwarnings removes and re-inserts its filter; in between, a
        # warning from another thread would escape
        solving, filtering = set(), []
        original, catch_warnings = solvers_module.milp, warnings.catch_warnings

        def recording_solve(*args, **kwargs):
            solving.add(threading.current_thread())
            return original(*args, **kwargs)

        def recording_filter(*args, **kwargs):
            filtering.append(threading.current_thread())
            return catch_warnings(*args, **kwargs)
        monkeypatch.setattr(solvers_module, "milp", recording_solve)
        monkeypatch.setattr(warnings, "catch_warnings", recording_filter)
        run_pha(g1, PHAConfig(max_iterations=3, gap_threshold=1e-9, workers=2), solver_cfg)
        monkeypatch.undo()
        assert solving - {threading.main_thread()}  # the sweeps ran in the pool
        assert filtering and set(filtering) == {threading.main_thread()}

    def test_convex_mode_has_no_heuristic_option(self, g1, solver_cfg, monkeypatch):
        seen = self._record(monkeypatch)
        run_pha(g1, PHAConfig(max_iterations=5, gap_threshold=1e-9,
                              relax_integrality=True), solver_cfg)
        assert seen and not any(mip for mip, _, _ in seen)
        assert all(options in (self.DEFAULT, self.INTERIOR) for _, options, _ in seen)
        assert self.INTERIOR in [options for _, options, _ in seen]

    def test_pooled_sweeps_leak_no_warning_and_restore_the_filters(self, g1, solver_cfg):
        one = np.ones(len(first_stage_info(g1).coords))
        p1, p2 = (s.probability for s in g1.scenarios)
        weights = {"s1": 2.0 * p2 * one, "s2": -2.0 * p1 * one}  # sum_s p_s w_s = 0
        before = list(warnings.filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = list(warnings.filters)
            lagrangian_lower_bound(g1, {"netzero": 1.0}, weights, solver_cfg, workers=2)
            assert warnings.filters == inside
            run_pha(g1, PHAConfig(max_iterations=3, gap_threshold=1e-9, workers=2),
                    solver_cfg)
            assert warnings.filters == inside
        assert warnings.filters == before


def _record_evaluations(monkeypatch):
    """Record the next run's candidate evaluations as ``(source, lo, hi, result)``."""
    sources, calls = {}, []
    candidates = pha_module._candidates
    evaluate = pha_module.exact_candidate_evaluation

    def naming(*args):
        for source, x_hat, lo, hi in candidates(*args):
            sources.setdefault(lo.tobytes() + hi.tobytes(), source)
            yield source, x_hat, lo, hi

    def recording(inst, lo, hi, *args, **kwargs):
        result = evaluate(inst, lo, hi, *args, **kwargs)
        calls.append((sources[lo.tobytes() + hi.tobytes()], lo, hi, result))
        return result
    monkeypatch.setattr(pha_module, "_candidates", naming)
    monkeypatch.setattr(pha_module, "exact_candidate_evaluation", recording)
    return calls


TIE = 1e9


def _tie(result):
    """An evaluation result with its objective replaced by ``TIE``."""
    return None if result is None else (TIE, *result[1:])


class TestScenarioCandidates:
    """Every scenario's own first stage is a candidate in integer mode: its
    integer part pinned, the rest free."""

    def test_no_pinned_box_is_evaluated_twice(self, solver_cfg, monkeypatch):
        inst = generate("G2", 1)
        info = first_stage_info(inst)
        integer = info.integer
        offered = []
        candidates = pha_module._candidates

        def offering(*args):
            for candidate in candidates(*args):
                offered.append(candidate[2][integer].tobytes())
                yield candidate
        monkeypatch.setattr(pha_module, "_candidates", offering)
        calls = _record_evaluations(monkeypatch)
        # G2 seed 1 offers some integer parts again in later iterations
        run_pha(inst, PHAConfig(rho_scale=0.1, max_iterations=12, gap_threshold=1e-9),
                solver_cfg)
        assert len(set(offered)) < len(offered)
        assert calls and all(source.startswith("scenario ") for source, *_ in calls)
        for _, lo, hi, _ in calls:
            assert np.array_equal(lo[integer], hi[integer])
            assert np.array_equal(lo[~integer], info.lb[~integer])
            assert np.array_equal(hi[~integer], info.ub[~integer])
        pinned = [lo[integer].tobytes() for _, lo, _, _ in calls]
        assert len(set(pinned)) == len(pinned)

    def test_convex_mode_evaluates_only_the_scheduled_consensus_boxes(
            self, g1, solver_cfg, monkeypatch):
        calls = _record_evaluations(monkeypatch)
        report, state = run_pha(g1, PHAConfig(max_iterations=6, gap_threshold=1e-9,
                                              relax_integrality=True), solver_cfg)
        assert state.iteration == 6
        assert [source for source, *_ in calls] == ["consensus", "consensus"]
        # iterations 5 and 6
        assert [row.upper_bound is None for row in report.trace] == [True] * 4 + [False] * 2

    @pytest.mark.parametrize("path", [f"G{g}/seed{s}.json" for g in (1, 2, 3)
                                      for s in (1, 2, 3)])
    def test_first_upper_bound_by_iteration_two(self, path, solver_cfg):
        # the CLI defaults (--rho 0.1 --beta 0.1); the scenario candidates
        # give the bound
        inst = storage.load_instance(os.path.join(FIXTURES, path))
        report, _ = run_pha(inst, PHAConfig(rho_scale=0.1, beta_scale=0.1,
                                            max_iterations=3), solver_cfg)
        first = next(row.iteration for row in report.trace if row.upper_bound is not None)
        assert first <= 2

    def test_incumbent_is_the_first_best_candidate(self, g1, solver_cfg, monkeypatch):
        built = []
        original = pha_module.report_from_solution

        def capturing(inst, index, x, *args, **kwargs):
            built.append(x)
            return original(inst, index, x, *args, **kwargs)
        monkeypatch.setattr(pha_module, "report_from_solution", capturing)
        calls = _record_evaluations(monkeypatch)
        cfg = PHAConfig(rho_scale=0.1, max_iterations=6, gap_threshold=1e-9)
        report, state = run_pha(g1, cfg, solver_cfg)
        results = [result for *_, result in calls if result is not None]
        best = min(result[0] for result in results)
        assert report.objective == state.best_upper == best
        assert built[-1] is next(r for r in results if r[0] == best)[2]

        # every candidate ties: the first one evaluated stays the incumbent;
        # iteration 2 offers a second integer part
        evaluate = pha_module.exact_candidate_evaluation
        monkeypatch.setattr(pha_module, "exact_candidate_evaluation",
                            lambda *a, **kw: _tie(evaluate(*a, **kw)))
        del calls[:]
        report, _ = run_pha(g1, PHAConfig(rho_scale=0.1, max_iterations=2), solver_cfg)
        found = [(source, result) for source, _, _, result in calls if result is not None]
        assert len(found) >= 2
        assert report.objective == TIE
        assert built[-1] is found[0][1][2]
        assert report.incumbent_source == f"{found[0][0]} @ iteration 1"


class TestBuildOnce:
    """Each model is assembled once per run and re-priced or re-bounded after."""

    def _counted_run(self, monkeypatch, path, out_dir, workers):
        counts = {"build_scenario_subproblem": 0, "build_extensive_form": 0}
        for name in counts:
            original = getattr(pha_module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(pha_module, name, counting)
        calls = _record_evaluations(monkeypatch)
        cfg = PHAConfig(rho_scale=0.1, beta_scale=0.1, max_iterations=6,
                        gap_threshold=1e-9, workers=workers)
        code = cmd_solve(RunManifest(instance_path=path, method="pha", out_dir=out_dir,
                                     pha=cfg), out=io.StringIO())
        monkeypatch.undo()
        return code, counts, calls

    def test_g2_builds_each_model_once_serial_and_pooled(self, monkeypatch, tmp_path):
        inst = generate("G2", 1)
        path = str(tmp_path / "g2.json")
        storage.save_instance(inst, path)
        dirs, evaluated = {}, {}
        for workers in (1, 2):
            dirs[workers] = str(tmp_path / f"w{workers}")
            code, counts, calls = self._counted_run(monkeypatch, path, dirs[workers],
                                                    workers)
            assert code in (0, 3)
            assert counts["build_scenario_subproblem"] == len(inst.scenarios)
            assert counts["build_extensive_form"] == 1
            # the one EF evaluates every distinct accepted scenario candidate,
            # once each; integer mode offers no consensus box
            keys = [lo.tobytes() + hi.tobytes() for _, lo, hi, _ in calls]
            integer = first_stage_info(inst).integer
            assert calls and all(source.startswith("scenario ") for source, *_ in calls)
            assert all(np.array_equal(lo[integer], hi[integer]) for _, lo, hi, _ in calls)
            assert len(set(keys)) == len(keys)
            evaluated[workers] = keys
        assert evaluated[1] == evaluated[2]
        names = sorted(os.listdir(dirs[1]))
        assert names == sorted(os.listdir(dirs[2])) and names
        match, mismatch, errors = filecmp.cmpfiles(dirs[1], dirs[2], names, shallow=False)
        assert mismatch == [] and errors == []


def test_bounds_enclose_the_ef_optimum_past_oracle_size(solver_cfg):
    """S=8, T=24 tiled from G2 seed 1, too large for the brute-force oracle."""
    inst = _tiled("G2", 1, 8, 6)
    ef = solve(build_extensive_form(inst)[0], solver_cfg)
    assert ef.status == "optimal"
    # the CLI's step scales and the benchmark's budget; the dual spoke's LP
    # phase ends with an integer sweep at its centre in iteration 7
    report, state = run_pha(inst, PHAConfig(rho_scale=0.1, beta_scale=0.1, max_iterations=7,
                                            workers=2), solver_cfg)
    assert state.best_upper is not None
    assert state.best_lower <= ef.objective * (1 + 1e-9)
    assert ef.objective <= state.best_upper * (1 + 1e-9)
    assert report.gap <= 0.03

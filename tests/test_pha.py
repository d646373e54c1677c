import dataclasses
import filecmp
import functools
import io
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flexcep.pha as pha_module
import flexcep.solvers as solvers_module
from flexcep import storage
from flexcep.build import build_extensive_form, first_stage_info, price_scenario_subproblem
from flexcep.canonical import (FEASIBLE_WITH_GAP, LIMIT_REACHED, OPTIMAL, SolveResult,
                               relax_integrality)
from flexcep.cli import RunManifest, cmd_compare_flexibility, cmd_solve, parse_variant
from flexcep.core import Scenario, enumerate_expectation_constraints
from flexcep.oracle import brute_force_optimum, g1_variant, generate
from flexcep.pha import (
    LP_SWEEPS_PER_ITERATION,
    NO_INCUMBENT,
    PHAConfig,
    PHAError,
    PHAState,
    consensus_metric,
    exact_candidate_evaluation,
    lagrangian_lower_bound,
    run_pha,
    sigma_violation,
)
from flexcep.solvers import NO_PRIMAL_HEURISTICS, BackendCrashError, solve, solve_warm_lp

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


def _zero_prices(inst):
    """``(lam, w)`` at zero: shapes (m,) and (S, n)."""
    m = len(enumerate_expectation_constraints(inst))
    return np.zeros(m), np.zeros((len(inst.scenarios), len(first_stage_info(inst).coords)))


def _handle_index(inst, handle):
    return [h.handle for h in enumerate_expectation_constraints(inst)].index(handle)


class TestConsensusMetric:
    def _state(self, xs, probs, scales=None):
        x, p = np.asarray(xs, dtype=float), np.asarray(probs, dtype=float)
        state = PHAState(mw_scale=np.array(scales or [1.0] * x.shape[1]), probabilities=p,
                         x=x, w=np.zeros_like(x), lam=np.zeros(0), sigma_bar=np.zeros(0))
        state.x_bar = sum(p_s * x_s for p_s, x_s in zip(p, x))
        return state

    def test_identical_copies_give_zero(self):
        state = self._state([[2.0, 3.0], [2.0, 3.0]], [0.5, 0.5])
        assert consensus_metric(state) == 0.0

    def test_two_equiprobable_scalars(self):
        state = self._state([[0.0], [2.0]], [0.5, 0.5])
        assert consensus_metric(state) == pytest.approx(1.0)

    def test_mw_scaling_applies(self):
        state = self._state([[0.0], [2.0]], [0.5, 0.5], scales=[10.0])
        assert consensus_metric(state) == pytest.approx(10.0)

    def test_no_consensus_before_the_first_sweep(self):
        state = self._state([[0.0], [2.0]], [0.5, 0.5])
        state.x_bar = None
        assert consensus_metric(state) == math.inf

    def test_sigma_violation_one_sided(self):
        assert sigma_violation(np.array([-5.0, -1.0])) == 0.0
        assert sigma_violation(np.array([-5.0, 0.25])) == 0.25
        assert sigma_violation(np.zeros(0)) == 0.0


class TestPHAConfig:
    @pytest.mark.parametrize("setting", [
        {"relax_integrality": "no"}, {"relax_integrality": 0},
        {"relax_integrality": np.True_}, {"relax_integrality": None},
        {"max_iterations": 2.5}, {"max_iterations": 2.0}, {"max_iterations": True},
        {"max_iterations": "3"}, {"workers": 2.0}, {"workers": True},
        {"workers": np.float64(2)},
    ], ids=repr)
    def test_a_wrong_typed_setting_is_rejected_at_construction(self, setting):
        (name, value), = setting.items()
        with pytest.raises(ValueError, match=f"^{name} must be "):
            PHAConfig(**setting)

    def test_numpy_integers_count_as_integers(self):
        cfg = PHAConfig(max_iterations=np.int64(3), workers=np.int32(2))
        assert (cfg.max_iterations, cfg.workers) == (3, 2)


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
        n_scen, n = len(g1.scenarios), len(first_stage_info(g1).coords)
        assert state.w.shape == state.x.shape == (n_scen, n)
        total = sum(p * w for p, w in zip(state.probabilities, state.w))
        assert float(np.max(np.abs(total))) <= 1e-8 * max(1.0, float(np.max(np.abs(state.w))))
        assert state.lam.shape == state.sigma_bar.shape == (
            len(enumerate_expectation_constraints(g1)),)
        assert np.all(state.lam >= 0.0)


class TestLagrangianBound:
    def test_single_scenario_zero_multipliers_equals_ef(self, solver_cfg):
        inst = _single_scenario_inflexible()
        from flexcep.build import build_extensive_form
        from flexcep.solvers import solve
        ef = solve(build_extensive_form(inst)[0], solver_cfg)
        lb, _ = lagrangian_lower_bound(inst, *_zero_prices(inst), solver_cfg)
        assert lb == pytest.approx(ef.objective, rel=1e-7)
        assert lb <= ef.objective + 1e-6

    def test_zero_multipliers_bound_g1(self, g1, g1_ef_solution, solver_cfg):
        lb, _ = lagrangian_lower_bound(g1, *_zero_prices(g1), solver_cfg)
        assert lb <= g1_ef_solution.objective + 1e-6

    def test_negative_multiplier_rejected(self, g1):
        lam, w = _zero_prices(g1)
        lam[_handle_index(g1, "netzero")] = -1.0
        with pytest.raises(ValueError, match="'netzero' must be >= 0"):
            lagrangian_lower_bound(g1, lam, w)

    def test_unbalanced_weights_rejected(self, g1):
        lam, w = _zero_prices(g1)
        w[:, 0] = 100.0
        with pytest.raises(ValueError, match="balanced"):
            lagrangian_lower_bound(g1, lam, w)

    # wrong shapes for (lam, w) of shapes (m,) and (S, n); dicts keyed by
    # handle or scenario id have shape ()
    @pytest.mark.parametrize("wrong", [
        ("lam", lambda m, s, n: np.zeros(m + 1)),
        ("lam", lambda m, s, n: np.zeros((m, 1))),
        ("lam", lambda m, s, n: {"netzero": 1.0}),
        ("w", lambda m, s, n: np.zeros((s + 1, n))),
        ("w", lambda m, s, n: np.zeros((s, n - 1))),
        ("w", lambda m, s, n: np.zeros(n)),
        ("w", lambda m, s, n: {"nope": np.zeros(n)}),
    ], ids=["lam-longer", "lam-column", "lam-dict", "w-more-rows", "w-fewer-columns",
            "w-vector", "w-dict"])
    def test_wrong_shaped_prices_rejected(self, g1, wrong):
        label, make = wrong
        prices = dict(zip(("lam", "w"), _zero_prices(g1)))
        expected = str(prices[label].shape)
        prices[label] = make(*prices["lam"].shape, *prices["w"].shape)
        with pytest.raises(ValueError, match=f"^{label} must have shape {re.escape(expected)}"):
            lagrangian_lower_bound(g1, prices["lam"], prices["w"])

    def test_bases_must_list_every_scenario(self, g1):
        bases = pha_module._scenario_bases(g1)
        with pytest.raises(ValueError, match="bases must list 2 subproblems"):
            lagrangian_lower_bound(g1, *_zero_prices(g1), bases=bases[:1])

    def test_random_draw_sweep_stays_below_optimum(self, g1, g1_oracle, solver_cfg):
        rng = np.random.default_rng(11)
        info = first_stage_info(g1)
        handles = enumerate_expectation_constraints(g1)
        probs = [s.probability for s in g1.scenarios]
        for _ in range(5):
            lam = rng.uniform(0.0, 5e4, len(handles))
            draw = rng.normal(0.0, 1e3, (len(probs), len(info.coords)))
            w = draw - sum(p * d for p, d in zip(probs, draw))
            lb, _ = lagrangian_lower_bound(g1, lam, w, solver_cfg)
            assert lb <= g1_oracle.objective + 1e-6

    def test_a_solve_stopped_without_a_gap_proves_no_bound(self, g1, solver_cfg,
                                                           monkeypatch):
        # a stopped solve's objective is an upper value, not a bound from below
        stopped = SolveResult(status=FEASIBLE_WITH_GAP, objective=1e15)
        monkeypatch.setattr(pha_module, "solve", lambda *args, **kwargs: stopped)
        assert lagrangian_lower_bound(g1, *_zero_prices(g1), solver_cfg)[0] is None

        # neither the hub's first sweep nor any spoke sweep proves a bound
        info = first_stage_info(g1)
        spoke = pha_module._DualSpoke(g1, info, pha_module._scenario_bases(g1), solver_cfg, 1,
                                      pha_module._price_scales(g1)[0],
                                      np.maximum(info.unit_cost, 1.0))
        state = PHAState(mw_scale=np.ones(1), probabilities=np.full(2, 0.5),
                         x=np.zeros((2, 1)), w=np.zeros((2, 1)), lam=np.zeros(0),
                         sigma_bar=np.zeros(0), iteration=1)
        pha_module._dual_step(spoke, state, [stopped] * 2, final=False)
        assert state.best_lower is None
        # a bound an earlier sweep proved survives a sweep that proves none
        state.iteration, spoke.best = 2, 5.0
        pha_module._dual_step(spoke, state, [stopped] * 2, final=True)
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
    "Solve error" does. Cold solves and warm LP solves fail alike."""
    original, warm_original = pha_module.solve, pha_module.solve_warm_lp
    lagrangian = []

    def fails(model) -> bool:
        if "-lr-" in model.name:
            lagrangian.append(model.name)
            if len(lagrangian) > 2:  # past the hub's first sweep of two scenarios
                if failure == "limit":
                    return True
                raise BackendCrashError("scipy.milp failed: Solve error")
        return False

    def failing(model, cfg=None, **kwargs):
        if fails(model):
            return SolveResult(status=LIMIT_REACHED)
        return original(model, cfg, **kwargs)

    def failing_warm(model, cfg=None, basis=None):
        if fails(model):
            return SolveResult(status=LIMIT_REACHED), None
        return warm_original(model, cfg, basis)
    monkeypatch.setattr(pha_module, "solve", failing)
    monkeypatch.setattr(pha_module, "solve_warm_lp", failing_warm)
    return lagrangian


def _failing_hub_sweeps(monkeypatch, marker):
    """Make every scenario solve whose model name contains ``marker`` stop
    at its limit, as a tiny time limit would, but deterministically."""
    original = pha_module.solve

    def failing(model, cfg=None, **kwargs):
        if marker in model.name:
            return SolveResult(status=LIMIT_REACHED)
        return original(model, cfg, **kwargs)
    monkeypatch.setattr(pha_module, "solve", failing)


class TestHubSweepFailure:
    """A hub sweep that fails after a candidate was certified ends the run
    with that incumbent."""

    def test_the_incumbent_of_an_earlier_iteration_is_kept(self, g1, solver_cfg,
                                                           monkeypatch):
        one, _ = run_pha(g1, PHAConfig(max_iterations=1), solver_cfg)
        _failing_hub_sweeps(monkeypatch, "-pha-")  # every proximal sweep, from iteration 2
        report, state = run_pha(g1, PHAConfig(max_iterations=4, gap_threshold=1e-9),
                                solver_cfg)
        assert report.termination == state.termination == "sweep_failed"
        assert report.status == FEASIBLE_WITH_GAP
        assert state.iteration == 2
        # the trace holds the iterations completed before the failure
        assert report.trace == one.trace
        assert report.objective == one.objective is not None
        assert report.incumbent_source == one.incumbent_source
        assert report.incumbent_source.endswith("@ iteration 1")

    def test_the_incumbent_can_come_from_the_failing_sweep(self, solver_cfg, monkeypatch):
        # S=8, T=24: no iteration-1 box has a feasible completion, and the
        # first bound is scenario s1's box at iteration 2
        inst = _tiled("G2", 1, 8, 6)
        _failing_hub_sweeps(monkeypatch, "-pha-s2")
        report, state = run_pha(inst, PHAConfig(rho_scale=0.1, beta_scale=0.1,
                                                max_iterations=4), solver_cfg)
        assert state.termination == "sweep_failed"
        assert report.incumbent_source == "scenario s1 @ iteration 2"
        assert [row.upper_bound for row in report.trace] == [None]
        assert report.objective is not None
        assert report.lower_bound == report.trace[0].lower_bound <= report.objective


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
        assert failed.objective == report.objective
        assert np.array_equal(f_state.x_bar, state.x_bar)
        assert f_state.termination == "max_iterations"

    def test_hub_sweeps_still_raise(self, g1, solver_cfg, monkeypatch):
        # while no candidate is certified; TestHubSweepFailure has the rest
        _failing_hub_sweeps(monkeypatch, "-pha-")
        monkeypatch.setattr(pha_module, "exact_candidate_evaluation",
                            lambda *args, **kwargs: None)
        with pytest.raises(PHAError, match="failed: limit_reached"):
            run_pha(g1, PHAConfig(max_iterations=2, gap_threshold=1e-9), solver_cfg)

    @pytest.mark.parametrize("relax", [False, True], ids=["integer", "convex"])
    def test_every_spoke_sweep_is_one_lagrangian_lower_bound_call(self, g1, solver_cfg,
                                                                  monkeypatch, relax):
        # the benchmark times the lower bound by hooking this module global
        calls, scenario_solves = [], []
        original, solve_original = pha_module.lagrangian_lower_bound, pha_module.solve
        warm_original = pha_module.solve_warm_lp

        def counting(*args, **kwargs):
            calls.append(kwargs["bases"])
            return original(*args, **kwargs)

        def solving(model, cfg=None, **kwargs):
            if "-lr-" in model.name:
                scenario_solves.append(model.name)
            return solve_original(model, cfg, **kwargs)

        def solving_warm(model, cfg=None, basis=None):
            if "-lr-" in model.name:
                scenario_solves.append(model.name)
            return warm_original(model, cfg, basis)
        monkeypatch.setattr(pha_module, "lagrangian_lower_bound", counting)
        monkeypatch.setattr(pha_module, "solve", solving)
        monkeypatch.setattr(pha_module, "solve_warm_lp", solving_warm)
        run_pha(g1, PHAConfig(max_iterations=4, gap_threshold=1e-9,
                              relax_integrality=relax), solver_cfg)
        n_scen = len(g1.scenarios)
        # every Lagrangian solve but the hub's first sweep is a spoke sweep
        assert len(scenario_solves) == n_scen * (1 + len(calls))
        relaxed = [not any(model.var_integer.any() for model, _ in bases)
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
        lam, w = spoke.lam, spoke.w
        relaxed, _ = lagrangian_lower_bound(inst, lam, w, solver_cfg, bases=spoke.relaxed)
        integer, _ = lagrangian_lower_bound(inst, lam, w, solver_cfg, bases=spoke.bases)
        assert relaxed <= integer + 1e-9 * abs(integer)
        assert state.best_lower >= integer - 1e-9 * abs(integer)
        assert integer <= optimum * (1 + 1e-9)


FIXTURE_FILES = [f"{gen}/seed{seed}.json" for gen in ("G1", "G2", "G3") for seed in (1, 2, 3)]


def _price_walk(inst, steps: int):
    """``steps`` successive balanced ``(lam, w)`` points of a random walk from
    zero, each step 5% of the price ceilings and unit costs, as the dual
    spoke's trial points move."""
    info = first_stage_info(inst)
    p = np.array([s.probability for s in inst.scenarios])
    lam_scale, _ = pha_module._price_scales(inst)
    w_scale = np.maximum(info.unit_cost, 1.0)
    rng = np.random.default_rng(7)
    lam, w = _zero_prices(inst)
    for _ in range(steps):
        lam = np.maximum(lam + 0.05 * lam_scale * rng.normal(size=lam.shape), 0.0)
        w = w + 0.05 * w_scale * rng.normal(size=w.shape)
        w = w - p @ w
        yield lam, w


def _relaxed_fixture(path):
    inst = storage.load_instance(os.path.join(FIXTURES, path))
    return inst, [(relax_integrality(model), index)
                  for model, index in pha_module._scenario_bases(inst)]


class TestWarmSweeps:
    """The dual spoke's relaxed sweeps start each scenario LP from its last basis."""

    @pytest.mark.parametrize("path", FIXTURE_FILES)
    def test_warm_solves_match_cold_ones(self, path, solver_cfg):
        inst, relaxed = _relaxed_fixture(path)
        bases = [None] * len(relaxed)  # carried forward one scenario at a time
        warm = [None] * len(relaxed)  # carried forward by the sweeps
        for lam, w in _price_walk(inst, 4):
            for i, (model, index) in enumerate(relaxed):
                lp = price_scenario_subproblem(inst, model, index, lam, w[i])
                cold = solve(lp, solver_cfg)
                res, bases[i] = solve_warm_lp(lp, solver_cfg, bases[i])
                assert res.status == cold.status == OPTIMAL
                assert res.objective == pytest.approx(cold.objective, rel=1e-9)
            bound, _ = lagrangian_lower_bound(inst, lam, w, solver_cfg, bases=relaxed,
                                              warm=warm)
            cold_bound, _ = lagrangian_lower_bound(inst, lam, w, solver_cfg, bases=relaxed)
            assert bound == pytest.approx(cold_bound, rel=1e-9)
            assert None not in warm

    @pytest.mark.parametrize("path", FIXTURE_FILES)
    def test_without_the_binding_the_sweeps_go_through_solve(self, path, solver_cfg,
                                                             monkeypatch):
        inst, relaxed = _relaxed_fixture(path)
        points = list(_price_walk(inst, 3))
        warm = [None] * len(relaxed)
        expected = [lagrangian_lower_bound(inst, lam, w, solver_cfg, bases=relaxed,
                                           warm=warm)[0] for lam, w in points]
        monkeypatch.setattr(solvers_module, "_highspy", None)
        names = []
        original = solvers_module.solve

        def recording(model, cfg=None, **kwargs):
            names.append(model.name)
            return original(model, cfg, **kwargs)
        monkeypatch.setattr(solvers_module, "solve", recording)
        cold = [None] * len(relaxed)
        bounds = [lagrangian_lower_bound(inst, lam, w, solver_cfg, bases=relaxed,
                                         warm=cold)[0] for lam, w in points]
        assert bounds == pytest.approx(expected, rel=1e-9)
        assert len(names) == len(points) * len(relaxed)
        assert cold == [None] * len(relaxed)

    def test_a_failed_sweep_keeps_the_bases(self, solver_cfg, monkeypatch):
        inst, relaxed = _relaxed_fixture("G1/seed1.json")
        lam, w = next(_price_walk(inst, 1))
        warm = [None] * len(relaxed)
        lagrangian_lower_bound(inst, lam, w, solver_cfg, bases=relaxed, warm=warm)
        before = list(warm)
        original = pha_module.solve_warm_lp

        def failing_last(model, cfg=None, basis=None):
            if model.name.endswith(inst.scenarios[-1].id):
                return SolveResult(status=LIMIT_REACHED), None
            return original(model, cfg, basis)
        monkeypatch.setattr(pha_module, "solve_warm_lp", failing_last)
        with pytest.raises(PHAError, match="failed: limit_reached"):
            lagrangian_lower_bound(inst, lam, w, solver_cfg, bases=relaxed, warm=warm)
        assert all(a is b for a, b in zip(warm, before))

    def test_one_basis_slot_per_scenario(self, g1):
        with pytest.raises(ValueError, match="warm must hold 2 bases"):
            lagrangian_lower_bound(g1, *_zero_prices(g1), warm=[None])


class TestWeakDualityPastOracleSize:
    @given(data=st.data())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_random_multipliers_stay_below_the_ef_optimum(self, data):
        gen = data.draw(st.sampled_from(["G1", "G2"]))
        n_scen = data.draw(st.integers(2, 3))
        reps = data.draw(st.integers(1, 2))
        inst, optimum = _tiled_with_optimum(gen, n_scen, reps)
        info = first_stage_info(inst)
        handles = enumerate_expectation_constraints(inst)
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        lam = np.array([float(rng.uniform(0.0, 1e5)) * data.draw(st.sampled_from([0.0, 1.0]))
                        for _ in handles])
        w = rng.normal(0.0, 1.0, (n_scen, len(info.coords)))
        w *= np.maximum(info.unit_cost, 1.0)
        w -= np.mean(w, axis=0)  # equiprobable scenarios: sum_s p_s w_s = 0
        lb, solutions = lagrangian_lower_bound(inst, lam, w)
        assert lb <= optimum + 1e-9 * abs(optimum)
        assert len(solutions) == n_scen and all(x is not None for x in solutions)


def _vector(info, assignment):
    return np.array([assignment[c] for c in info.coords])


class TestExactCandidateEvaluation:
    def test_oracle_first_stage_reproduces_optimum(self, g1, g1_oracle, solver_cfg):
        info = first_stage_info(g1)
        x_hat = _vector(info, g1_oracle.assignment)
        objective, _, _ = exact_candidate_evaluation(g1, x_hat, x_hat, solver_cfg)
        assert objective == pytest.approx(g1_oracle.objective, rel=1e-9)

    def test_mandate_minimum_build_yields_large_bound(self, solver_cfg):
        # mandate satisfied with bare-bones generation: feasible but expensive
        inst = dataclasses.replace(generate("G2", 1), expectation_policies=())
        oracle = brute_force_optimum(inst)
        info = first_stage_info(inst)
        x_hat = np.zeros(len(info.coords))
        x_hat[info.coords.index(("xD", "B1", "datacenter"))] = 1.0
        x_hat[info.coords.index(("xG", "B1", "gas"))] = 2.0  # enough committed power for the tranches
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
        assert np.array_equal(s1.lam, s2.lam)
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
        assert np.array_equal(s_bare.lam, s_full.lam)
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
        assert np.array_equal(s_bare.w, s_full.w)
        assert np.array_equal(s_bare.lam, s_full.lam)
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
        original, warm_original = pha_module.solve, pha_module.solve_warm_lp

        def recording(model, cfg=None, **kwargs):
            seen.append((model.name, bool(model.var_integer.any())))
            return original(model, cfg, **kwargs)

        def recording_warm(model, cfg=None, basis=None):
            seen.append((model.name, bool(model.var_integer.any())))
            return warm_original(model, cfg, basis)
        monkeypatch.setattr(pha_module, "solve", recording)
        monkeypatch.setattr(pha_module, "solve_warm_lp", recording_warm)
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
        assert np.array_equal(s1.lam, s2.lam)

    def test_unreachable_policy_keeps_multiplier_growing(self, solver_cfg):
        inst = g1_variant(1, policy_threshold=-2000.0)
        cfg = PHAConfig(max_iterations=6, gap_threshold=1e-9)
        report, state = run_pha(inst, cfg, solver_cfg)
        assert report.status == NO_INCUMBENT
        assert state.best_upper is None
        netzero = _handle_index(inst, "netzero")
        assert state.sigma_bar[netzero] > 100.0
        assert state.lam[netzero] > 0.0
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
        weights = np.array([2.0 * p2 * one, -2.0 * p1 * one])  # sum_s p_s w_s = 0
        before = list(warnings.filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = list(warnings.filters)
            lam, _ = _zero_prices(g1)
            lam[_handle_index(g1, "netzero")] = 1.0
            lagrangian_lower_bound(g1, lam, weights, solver_cfg, workers=2)
            assert warnings.filters == inside
            run_pha(g1, PHAConfig(max_iterations=3, gap_threshold=1e-9, workers=2),
                    solver_cfg)
            assert warnings.filters == inside
        assert warnings.filters == before


def _record_evaluations(monkeypatch):
    """Record the next run's candidate evaluations as ``(source, lo, hi, result)``."""
    sources, calls = {}, []
    candidate_step = pha_module._candidate_step
    evaluate = pha_module.exact_candidate_evaluation

    def naming(inst, state, solver, tried, ef, source, lo, hi):
        sources.setdefault(lo.tobytes() + hi.tobytes(), source)
        candidate_step(inst, state, solver, tried, ef, source, lo, hi)

    def recording(inst, lo, hi, *args, **kwargs):
        result = evaluate(inst, lo, hi, *args, **kwargs)
        calls.append((sources[lo.tobytes() + hi.tobytes()], lo, hi, result))
        return result
    monkeypatch.setattr(pha_module, "_candidate_step", naming)
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
        scenario_box = pha_module._scenario_box

        def offering(info, x):
            lo, hi = scenario_box(info, x)
            offered.append(lo[integer].tobytes())
            return lo, hi
        monkeypatch.setattr(pha_module, "_scenario_box", offering)
        calls = _record_evaluations(monkeypatch)
        # G2 seed 1 offers some integer parts again in later iterations
        run_pha(inst, PHAConfig(rho_scale=0.1, max_iterations=12, gap_threshold=1e-9),
                solver_cfg)
        assert len(set(offered)) < len(offered)
        assert calls and all(source.startswith("scenario ") for source, *_ in calls)
        for _, lo, hi, _ in calls:
            assert np.array_equal(lo[integer], hi[integer])
            # the pinned part is integral and inside its bounds, with no -0.0
            # (the tried set keys boxes by their raw bytes)
            assert np.array_equal(lo[integer], np.round(lo[integer]))
            assert np.all(info.lb[integer] <= lo[integer])
            assert np.all(lo[integer] <= info.ub[integer])
            assert lo.tobytes() == (lo + 0.0).tobytes()
            assert hi.tobytes() == (hi + 0.0).tobytes()
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

    def test_each_box_is_evaluated_as_its_scenario_returns(self, solver_cfg, monkeypatch):
        inst = generate("G2", 1)
        steps, inside = [], []  # per hub step: its scenario solves and evaluations
        hub_step, solve_model = pha_module._hub_step, pha_module.solve

        def logging_hub_step(*args, **kwargs):
            steps.append([])
            inside.append(True)
            try:
                return hub_step(*args, **kwargs)
            finally:
                inside.pop()

        def logging_solve(model, cfg=None, **kwargs):
            if inside and not model.name.endswith("-ef"):
                steps[-1].append(("solve", model.name.rsplit("-", 1)[1]))
            return solve_model(model, cfg, **kwargs)
        monkeypatch.setattr(pha_module, "_hub_step", logging_hub_step)
        monkeypatch.setattr(pha_module, "solve", logging_solve)
        calls = _record_evaluations(monkeypatch)
        evaluate = pha_module.exact_candidate_evaluation

        def logging_evaluation(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            assert inside  # the hub step consumes the boxes
            steps[-1].append(("evaluate", calls[-1][0].removeprefix("scenario ")))
            return result
        monkeypatch.setattr(pha_module, "exact_candidate_evaluation", logging_evaluation)
        cfg = PHAConfig(rho_scale=0.1, max_iterations=6, gap_threshold=1e-9)
        report, state = run_pha(inst, cfg, solver_cfg)

        ids = [s.id for s in inst.scenarios]
        assert len(steps) == state.iteration
        assert sum(kind == "evaluate" for step in steps for kind, _ in step) == len(calls)
        for step in steps:
            assert [sid for kind, sid in step if kind == "solve"] == ids
            for k, (kind, sid) in enumerate(step):
                if kind == "evaluate":
                    assert step[k - 1] == ("solve", sid)
        # the first box is evaluated before the second scenario is solved
        assert steps[0][:3] == [("solve", ids[0]), ("evaluate", ids[0]), ("solve", ids[1])]

        # a pool hands the results over in the same order
        serial = [(source, lo.tobytes(), hi.tobytes(), result and result[0])
                  for source, lo, hi, result in calls]
        monkeypatch.undo()
        calls = _record_evaluations(monkeypatch)
        pooled, p_state = run_pha(inst, dataclasses.replace(cfg, workers=2), solver_cfg)
        assert [(source, lo.tobytes(), hi.tobytes(), result and result[0])
                for source, lo, hi, result in calls] == serial
        assert pooled.trace == report.trace
        assert p_state.incumbent[0] == state.incumbent[0]
        assert np.array_equal(p_state.incumbent[2], state.incumbent[2])
        assert p_state.incumbent[3] == state.incumbent[3]

    def test_convex_band_follows_the_whole_sweep(self, solver_cfg, monkeypatch):
        inst = generate("G2", 1)
        inside, evaluated = [], []
        hub_step, evaluate = pha_module._hub_step, pha_module.exact_candidate_evaluation

        def marking_hub_step(*args, **kwargs):
            inside.append(True)
            try:
                return hub_step(*args, **kwargs)
            finally:
                inside.pop()

        def marking_evaluation(*args, **kwargs):
            evaluated.append(bool(inside))
            return evaluate(*args, **kwargs)
        monkeypatch.setattr(pha_module, "_hub_step", marking_hub_step)
        monkeypatch.setattr(pha_module, "exact_candidate_evaluation", marking_evaluation)
        run_pha(inst, PHAConfig(max_iterations=6, gap_threshold=1e-9,
                                relax_integrality=True), solver_cfg)
        assert evaluated == [False, False]  # iterations 5 and 6, after their sweeps

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

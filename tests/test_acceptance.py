"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion alongside pytest's own outcome report.
"""

import functools
import io
import os
import time

import numpy as np
import pytest

from flexcep.build import build_extensive_form, first_stage_info
from flexcep.canonical import relax_integrality
from flexcep.cli import EXIT_NO_INCUMBENT, EXIT_OK, RunManifest, cmd_solve, \
    cmd_compare_flexibility
from flexcep.core import FULL_FLEX, INFLEXIBLE, enumerate_expectation_constraints
from flexcep.oracle import DAC_MID_FLEX, brute_force_optimum, g1_variant, generate
from flexcep.pha import NO_INCUMBENT, PHAConfig, lagrangian_lower_bound, run_pha
from flexcep.report import report_from_solution
from flexcep.solvers import SolverConfig, solve
from flexcep.storage import save_instance

from invariants import check_expectation_rows, check_solution_invariants

SEEDS = tuple(range(1, 11))
GENERATORS = ("G1", "G2", "G3")


def verdict(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nCRITERION {number} FAIL ({title})")
                raise
            print(f"\nCRITERION {number} PASS ({title}) "
                  f"[{time.perf_counter() - start:.1f}s]")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def solver():
    return SolverConfig()


@pytest.fixture(scope="module")
def oracle_sweep(solver):
    """EF vs brute force over 10 seeds x 3 generators, with full audits."""
    rows = []
    for gen in GENERATORS:
        for seed in SEEDS:
            inst = generate(gen, seed)
            model, index = build_extensive_form(inst)
            res = solve(model, solver)
            bf = brute_force_optimum(inst)
            assert res.status == "optimal" and bf.status == "optimal"
            check_solution_invariants(inst, index, res.x)
            check_expectation_rows(inst, index, res.x)
            report = report_from_solution(inst, index, res.x, "ef", res.status,
                                          res.objective)
            rows.append({
                "gen": gen, "seed": seed,
                "ef": res.objective, "oracle": bf.objective,
                "reliability": report.reliability,
            })
    return rows


@pytest.fixture(scope="module")
def milp_pha_runs(solver):
    """Engine runs on oracle MILPs with their certified optima."""
    out = []
    for gen, seed in (("G1", 1), ("G1", 6), ("G2", 2), ("G3", 5)):
        inst = generate(gen, seed)
        bf = brute_force_optimum(inst)
        cfg = PHAConfig(max_iterations=15, gap_threshold=5e-3, beta_scale=0.2)
        report, state = run_pha(inst, cfg, solver)
        out.append((gen, seed, bf, report, state))
    return out


@verdict(1, "oracle equivalence: EF matches brute force within 1e-6 relative")
def test_criterion_1(oracle_sweep):
    for row in oracle_sweep:
        rel = abs(row["ef"] - row["oracle"]) / max(abs(row["oracle"]), 1.0)
        assert rel <= 1e-6, (row["gen"], row["seed"], rel)


@verdict(2, "weak duality: 20 random multiplier draws stay below the EF optimum")
def test_criterion_2(g1, g1_ef_solution, solver):
    rng = np.random.default_rng(2024)
    info = first_stage_info(g1)
    handles = enumerate_expectation_constraints(g1)
    probs = [s.probability for s in g1.scenarios]
    for draw in range(20):
        lam = rng.uniform(0.0, 1e5, len(handles))
        raw = rng.normal(0.0, 2e3, (len(probs), len(info.coords)))
        w = raw - sum(p * r for p, r in zip(probs, raw))
        lb, _ = lagrangian_lower_bound(g1, lam, w, solver)
        assert lb <= g1_ef_solution.objective + 1e-6, (draw, lb)


@verdict(3, "convex convergence: relaxed G1 within 0.5% with tiny slack violation")
def test_criterion_3(g1, g1_ef, solver):
    model, _ = g1_ef
    reference = solve(relax_integrality(model), solver)
    assert reference.status == "optimal"
    cfg = PHAConfig(max_iterations=200, gap_threshold=2.5e-3,
                    relax_integrality=True, beta_scale=0.2)
    report, state = run_pha(g1, cfg, solver)
    assert state.iteration <= 200
    assert report.objective is not None
    rel = abs(report.objective - reference.objective) / abs(reference.objective)
    assert rel <= 5e-3, rel
    _, index, x, _ = state.incumbent
    check_expectation_rows(g1, index, x, tol=1e-4)


@verdict(4, "MILP bound sandwich with honest gaps, no optimality claims")
def test_criterion_4(milp_pha_runs):
    for gen, seed, bf, report, state in milp_pha_runs:
        assert state.best_lower <= bf.objective + 1e-6, (gen, seed)
        if state.best_upper is not None:
            assert bf.objective <= state.best_upper + 1e-6, (gen, seed)
            expected_gap = (state.best_upper - state.best_lower) / \
                max(abs(state.best_upper), 1.0)
            assert report.gap == pytest.approx(expected_gap, rel=1e-12)
        assert report.status in ("feasible_with_gap", NO_INCUMBENT)
        for row in report.trace:
            if row.upper_bound is not None:
                assert row.lower_bound <= row.upper_bound + 1e-6, (gen, seed, row)


def test_milp_upper_bounds_within_three_tenths_of_a_percent(milp_pha_runs):
    # a box that pins a scenario's integer part and frees the rest finds the
    # optimum's integer part within the criterion-4 budget
    for gen, seed, bf, report, state in milp_pha_runs:
        assert state.best_upper is not None, (gen, seed)
        assert state.best_upper <= 1.003 * bf.objective, (gen, seed,
                                                          state.best_upper / bf.objective)


@verdict(5, "flexibility monotonicity: inflexible >= mid-flex >= full-flex cost")
def test_criterion_5(g1, tmp_path_factory, solver):
    path = tmp_path_factory.mktemp("flex") / "g1.json"
    save_instance(g1, path)
    out = io.StringIO()
    code = cmd_compare_flexibility(
        str(path), "dac",
        [("inflexible", INFLEXIBLE), ("midflex", DAC_MID_FLEX),
         ("fullflex", FULL_FLEX)], solver, out=out)
    assert code == EXIT_OK
    text = out.getvalue()
    assert "warning" not in text
    costs = []
    for label in ("inflexible", "midflex", "fullflex"):
        row = [ln for ln in text.splitlines() if ln.startswith(label)][0]
        costs.append(float(row.split()[1]))
    for stricter, weaker in zip(costs, costs[1:]):
        assert weaker <= stricter + 1e-6, costs


@verdict(6, "reliability audit: achieved tranche factors reach required phi")
def test_criterion_6(oracle_sweep):
    audited = 0
    for row in oracle_sweep:
        for rel_row in row["reliability"]:
            audited += 1
            assert rel_row.achieved >= rel_row.required_phi - 1e-6, (
                row["gen"], row["seed"], rel_row)
    assert audited > 0, "the sweep must contain built large loads"


@verdict(7, "unreachable policy: EF infeasible, engine keeps finite diverging duals")
def test_criterion_7(solver):
    inst = g1_variant(1, policy_threshold=-2000.0)
    model, _ = build_extensive_form(inst)
    assert solve(model, solver).status == "infeasible"
    cfg = PHAConfig(max_iterations=8, gap_threshold=1e-9)
    report, state = run_pha(inst, cfg, solver)
    assert report.status == NO_INCUMBENT
    assert state.best_upper is None
    netzero = [h.handle for h in enumerate_expectation_constraints(inst)].index("netzero")
    assert state.sigma_bar[netzero] > 1.0  # bounded away from zero
    assert state.lam[netzero] > 0.0
    lams = [t.lower_bound for t in report.trace]
    assert all(np.isfinite(v) for v in lams)


@verdict(8, "determinism: identical manifests give byte-identical report sets")
def test_criterion_8(g1, tmp_path_factory):
    base = tmp_path_factory.mktemp("det")
    inst_path = base / "g1.json"
    save_instance(g1, inst_path)
    for method, pha_cfg in (("ef", PHAConfig()),
                            ("pha", PHAConfig(max_iterations=4, gap_threshold=1e-9,
                                              beta_scale=0.2))):
        snapshots = []
        for run in ("one", "two"):
            out_dir = base / f"{method}_{run}"
            manifest = RunManifest(instance_path=str(inst_path), method=method,
                                   out_dir=str(out_dir), seed=11, pha=pha_cfg)
            assert cmd_solve(manifest, out=io.StringIO()) in (EXIT_OK, 3)
            snapshots.append({name: (out_dir / name).read_bytes()
                              for name in sorted(os.listdir(out_dir))})
        assert snapshots[0] == snapshots[1], f"{method} reports differ"


@verdict(9, "solution invariants hold across every audited solve")
def test_criterion_9(oracle_sweep, milp_pha_runs, g1, solver):
    # balance residuals, storage cyclicity, tranche caps and big-M soundness
    # were asserted inside the criterion-1 sweep for all 30 EF solutions
    assert len(oracle_sweep) == len(SEEDS) * len(GENERATORS)
    # weight balance is asserted by the engine every iteration; re-check the
    # final states of the MILP runs here
    for gen, seed, bf, report, state in milp_pha_runs:
        total = sum(p * w for p, w in zip(state.probabilities, state.w))
        scale = max(1.0, float(np.max(np.abs(state.w))))
        assert float(np.max(np.abs(total))) <= 1e-8 * scale
    # tier-width bookkeeping: tranche caps sum exactly to installed capacity
    for d in g1.load_techs:
        assert sum(d.tiers.widths()) == pytest.approx(1.0, abs=1e-9)

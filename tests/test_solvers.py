import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning

from flexcep.build import build_extensive_form
from flexcep.canonical import (
    EQ,
    GE,
    INF,
    INFEASIBLE,
    LE,
    LIMIT_REACHED,
    OPTIMAL,
    UNBOUNDED,
    ModelBuilder,
    ModelError,
    QuadTerm,
    SolveResult,
    objective_value,
    relax_integrality,
)
import flexcep.solvers as solvers_module
from flexcep.solvers import (
    NO_PRIMAL_HEURISTICS,
    BackendCrashError,
    SolverConfig,
    _tangent_points,
    expand_quadratic,
    highs_option_passthrough,
    proven_lower_bound,
    solve,
    solve_warm_lp,
)
from flexcep.oracle import generate

from invariants import assert_same_model, row_coeffs


def _with_quad(model, *terms):
    """``model`` with the quadratic terms ``(col, coef, anchor)`` added."""
    return model.with_objective(model.obj, quad=tuple(QuadTerm(*term) for term in terms))


def _record_options(monkeypatch):
    """Record the options of every in-process backend call."""
    seen = []
    original = solvers_module.milp

    def recording(*args, options, **kwargs):
        seen.append(dict(options))
        return original(*args, options=options, **kwargs)
    monkeypatch.setattr(solvers_module, "milp", recording)
    return seen


def _min_x_geq(bound, integer=False):
    mb = ModelBuilder()
    x = mb.add_var(lb=0.0, ub=100.0, integer=integer, obj=1.0)
    mb.add_row([(x, 1.0)], GE, bound)
    return mb.freeze()


@pytest.fixture(params=[SolverConfig()], ids=["inproc"])
def config(request):
    """Default settings of the in-process HiGHS solve."""
    return request.param


class TestBasicSolves:
    def test_min_x_continuous(self, config):
        res = solve(_min_x_geq(3.0), config)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-8)

    def test_min_x_integer_rounds_up(self, config):
        res = solve(_min_x_geq(2.5, integer=True), config)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-8)

    def test_infeasible_toy(self, config):
        mb = ModelBuilder()
        x = mb.add_var(lb=0.0, ub=0.0, obj=1.0)
        mb.add_row([(x, 1.0)], GE, 1.0)
        res = solve(mb.freeze(), config)
        assert res.status == "infeasible"

    def test_backends_agree_on_g1(self, config, g1_ef, g1_ef_solution):
        model, _ = g1_ef
        res = solve(model, config)
        assert res.objective == pytest.approx(g1_ef_solution.objective, rel=1e-5)


def test_backends_agree_across_fixture_suite():
    """HiGHS's simplex and interior-point methods agree on the relaxed G2 and G3 EFs."""
    from flexcep.oracle import generate
    from flexcep.build import build_extensive_form
    for gen in ("G2", "G3"):
        lp = relax_integrality(build_extensive_form(generate(gen, 4))[0])
        a = solve(lp)
        b = solve(lp, interior=True)
        assert a.status == b.status == "optimal"
        assert b.objective == pytest.approx(a.objective, rel=1e-5)


@pytest.mark.parametrize("model", [_min_x_geq(2.5, integer=True), _min_x_geq(2.5)],
                         ids=["milp", "lp"])
def test_a_highs_failure_raises(model, crashing_highs):
    with pytest.raises(BackendCrashError, match="^scipy.milp failed: Solve error$"):
        solve(model)


class TestWarmLP:
    """``solve_warm_lp``: one HiGHS instance per call, started from a given basis."""

    def test_a_warm_restart_matches_the_cold_solve(self):
        lp = relax_integrality(build_extensive_form(generate("G3", 1))[0])
        cold = solve(lp)
        first, basis = solve_warm_lp(lp)
        again, basis_again = solve_warm_lp(lp, basis=basis)
        assert first.status == again.status == cold.status == OPTIMAL
        assert basis is not None and basis_again is not None
        for res in (first, again):
            assert res.objective == pytest.approx(cold.objective, rel=1e-9)
            assert res.objective == pytest.approx(objective_value(lp, res.x), rel=1e-9)
            assert proven_lower_bound(res) == res.objective

    def test_infeasible_and_unbounded(self):
        mb = ModelBuilder()
        x = mb.add_var(lb=0.0, ub=1.0, obj=1.0)
        y = mb.add_var(lb=0.0, ub=1.0, obj=1.0)
        mb.add_row([(x, 1.0), (y, 1.0)], GE, 3.0)
        assert solve_warm_lp(mb.freeze()) == (SolveResult(status=INFEASIBLE), None)
        mb = ModelBuilder()
        x = mb.add_var(lb=0.0, ub=INF, obj=-1.0)
        y = mb.add_var(lb=0.0, ub=1.0, obj=1.0)
        mb.add_row([(x, 1.0), (y, -1.0)], GE, 0.0)
        assert solve_warm_lp(mb.freeze()) == (SolveResult(status=UNBOUNDED), None)

    def test_a_time_limit_it_cannot_meet_proves_nothing(self):
        lp = relax_integrality(build_extensive_form(generate("G3", 1))[0])
        res, basis = solve_warm_lp(lp, SolverConfig(time_limit_s=1e-9))
        assert res.status == LIMIT_REACHED and basis is None
        assert proven_lower_bound(res) is None

    @pytest.mark.parametrize("how", ["run fails", "no model status"])
    def test_a_highs_failure_raises(self, how, monkeypatch):
        binding = solvers_module._highspy

        class Failing(binding._Highs):
            def run(self):
                if how == "run fails":
                    return binding.HighsStatus.kError
                return binding.HighsStatus.kOk  # never solved: status kNotset
        monkeypatch.setattr(solvers_module, "_highspy",
                            types.SimpleNamespace(**{**vars(binding), "_Highs": Failing}))
        with pytest.raises(BackendCrashError, match="^HiGHS failed: "):
            solve_warm_lp(_min_x_geq(2.5))

    def test_a_basis_that_does_not_fit_is_rejected(self):
        _, basis = solve_warm_lp(_min_x_geq(2.5))
        mb = ModelBuilder()
        x = mb.add_var(lb=0.0, ub=100.0, obj=1.0)
        y = mb.add_var(lb=0.0, ub=100.0, obj=1.0)
        mb.add_row([(x, 1.0), (y, 1.0)], GE, 2.5)
        with pytest.raises(ValueError, match="basis does not fit"):
            solve_warm_lp(mb.freeze(), basis=basis)  # one column too few
        _, wider = solve_warm_lp(mb.freeze())
        with pytest.raises(ValueError, match="basis does not fit"):
            solve_warm_lp(_min_x_geq(2.5), basis=wider)  # one column too many

    @pytest.mark.parametrize("model", [_min_x_geq(2.5, integer=True),
                                       _with_quad(_min_x_geq(2.5), (0, 1.0, 3.0))],
                             ids=["integer", "quadratic"])
    def test_only_lps(self, model):
        with pytest.raises(ValueError, match="LPs only"):
            solve_warm_lp(model)

    def test_nothing_reaches_fd1(self, capfd):
        lp = relax_integrality(build_extensive_form(generate("G1", 1))[0])
        _, basis = solve_warm_lp(lp)
        solve_warm_lp(lp, basis=basis)
        solve_warm_lp(lp, SolverConfig(time_limit_s=1e-9))
        assert capfd.readouterr().out == ""


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(time_limit_s=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mip_gap=1.0)


class TestQuadratic:
    def test_expand_requires_finite_box(self):
        mb = ModelBuilder()
        x = mb.add_var(lb=0.0, ub=INF, obj=1.0)
        with pytest.raises(ModelError, match="unbounded"):
            expand_quadratic(_with_quad(mb.freeze(), (x, 1.0, 0.0)))

    def test_prox_solve_lands_near_anchor(self):
        mb = ModelBuilder()
        x = mb.add_var(lb=0.0, ub=100.0, obj=1.0)
        m = _with_quad(mb.freeze(), (x, 50.0, 40.0))
        res = solve(m, SolverConfig())
        assert res.status == "optimal"
        # true minimizer of x + 50 (x-40)^2 is 39.99
        assert res.x[0] == pytest.approx(39.99, abs=0.2)
        assert res.objective == pytest.approx(objective_value(m, res.x), rel=1e-9)

    def test_integer_quadratic_exact_on_lattice(self):
        mb = ModelBuilder()
        x = mb.add_var(lb=0.0, ub=3.0, integer=True, obj=0.0)
        res = solve(_with_quad(mb.freeze(), (x, 10.0, 1.8)))
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_reported_objective_matches_original_model(self):
        mb = ModelBuilder()
        x = mb.add_var(lb=0.0, ub=10.0, obj=-1.0)
        m = _with_quad(mb.freeze(), (x, 3.0, 2.0))
        res = solve(m)
        assert res.objective == pytest.approx(objective_value(m, res.x), rel=1e-12)


class TestInteriorPoint:
    """``interior=True`` solves an LP with HiGHS's interior-point method."""

    def test_relaxed_ef_matches_simplex_without_a_warning(self, g1_ef):
        lp = relax_integrality(g1_ef[0])
        simplex = solve(lp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            interior = solve(lp, interior=True)
        assert interior.status == simplex.status == "optimal"
        assert interior.objective == pytest.approx(simplex.objective, rel=1e-9)
        assert interior.objective == pytest.approx(objective_value(lp, interior.x),
                                                   rel=1e-12)

    def test_only_the_interior_call_names_a_solver(self, monkeypatch):
        seen = _record_options(monkeypatch)
        solve(_min_x_geq(3.0))
        solve(_min_x_geq(3.0), interior=True)
        assert "solver" not in seen[0]
        assert seen[1] == {**seen[0], "solver": "ipm"}

    def test_milp_rejected(self, config):
        with pytest.raises(ValueError, match="integer columns"):
            solve(_min_x_geq(2.5, integer=True), config, interior=True)


class TestPrimalHeuristics:
    """Every model with integer columns runs without four HiGHS heuristics."""

    DEFAULT = {"time_limit": 300.0, "mip_rel_gap": 0.0, "presolve": True}

    def test_milp_gets_exactly_the_four_options(self, monkeypatch):
        seen = _record_options(monkeypatch)
        res = solve(_min_x_geq(2.5, integer=True))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-8)
        assert seen == [{**self.DEFAULT, **NO_PRIMAL_HEURISTICS}]
        assert set(NO_PRIMAL_HEURISTICS) == {"mip_heuristic_run_feasibility_jump",
                                             "mip_heuristic_run_rins",
                                             "mip_heuristic_run_rens",
                                             "mip_heuristic_run_root_reduced_cost"}
        assert not any(NO_PRIMAL_HEURISTICS.values())

    def test_highs_knows_every_option(self, monkeypatch):
        # scipy passes an option it does not know on to HiGHS; HiGHS drops a
        # name it does not know, and scipy then warns with an OptimizeWarning,
        # which the pytest configuration does not turn into an error
        with warnings.catch_warnings():
            warnings.simplefilter("error", OptimizeWarning)
            assert solve(_min_x_geq(2.5, integer=True)).status == "optimal"
            monkeypatch.setitem(NO_PRIMAL_HEURISTICS, "mip_heuristic_run_misspelt", False)
            with pytest.raises(OptimizeWarning, match="mip_heuristic_run_misspelt"):
                solve(_min_x_geq(2.5, integer=True))

    def test_lp_is_solved_as_without_it(self, monkeypatch):
        seen = _record_options(monkeypatch)
        solve(_min_x_geq(2.5))
        assert seen == [self.DEFAULT]

    @pytest.mark.parametrize("model", [_min_x_geq(2.5, integer=True), _min_x_geq(2.5)],
                             ids=["milp", "interior_lp"])
    def test_solve_holds_the_warning_filter_unless_a_block_is_open(self, model,
                                                                   monkeypatch):
        interior = not model.var_integer.any()
        entered = []
        catch_warnings = warnings.catch_warnings

        def counting(*args, **kwargs):
            entered.append(1)
            return catch_warnings(*args, **kwargs)
        before = list(warnings.filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = list(warnings.filters)
            monkeypatch.setattr(warnings, "catch_warnings", counting)
            res = solve(model, interior=interior)
            assert warnings.filters == inside
            assert len(entered) == 1
            with highs_option_passthrough():
                solve(model, interior=interior)
                solve(model, interior=interior)
            assert len(entered) == 2  # the caller's block only
            monkeypatch.undo()
        assert warnings.filters == before
        assert res.objective == pytest.approx(2.5 if interior else 3.0, abs=1e-8)


def _reference_expand(model, segments):
    """``expand_quadratic`` rebuilt row by row through ModelBuilder."""
    mb = ModelBuilder(name=model.name)
    for i in range(model.num_vars):
        mb.add_var(lb=float(model.var_lb[i]), ub=float(model.var_ub[i]),
                   integer=bool(model.var_integer[i]), obj=float(model.obj[i]))
    for i, coeffs in enumerate(row_coeffs(model)):
        mb.add_row(coeffs, int(model.row_sense[i]), float(model.row_rhs[i]))
    for term in model.quad:
        lo, hi = float(model.var_lb[term.col]), float(model.var_ub[term.col])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ModelError("unbounded")
        z = mb.add_var(lb=0.0, ub=INF, obj=term.coef)
        points = _tangent_points(lo, hi, term.anchor, segments,
                                 bool(model.var_integer[term.col]))
        for p in points:
            slope = 2.0 * (p - term.anchor)
            mb.add_row([(z, 1.0), (term.col, -slope)], GE, term.anchor * term.anchor - p * p)
    return mb.freeze()


@st.composite
def _quadratic_models(draw):
    """Small models mixing integer lattices, collapsed boxes, anchors on and off
    the tangent grid and, now and then, an unbounded quadratic column."""
    mb = ModelBuilder(name="prop")
    n = draw(st.integers(1, 4))
    for i in range(n):
        lo = draw(st.integers(-5, 5))
        width = draw(st.sampled_from([0, 0, 1, 2, 3, 7, 12, 30]))
        hi = INF if draw(st.integers(0, 15)) == 0 else float(lo + width)
        mb.add_var(lb=float(lo), ub=hi, integer=draw(st.booleans()),
                   obj=draw(st.sampled_from([0.0, 1.0, -2.5])))
    coef = st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0])
    for _ in range(draw(st.integers(0, 3))):
        mb.add_row([(c, draw(coef)) for c in range(n)],
                   draw(st.sampled_from([LE, EQ, GE])), draw(st.sampled_from([0.0, 4.0, -1.5])))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        col = draw(st.integers(0, n - 1))
        anchor = draw(st.one_of(
            st.integers(-8, 40).map(float),
            st.floats(-8.0, 40.0, allow_nan=False)))
        terms.append((col, draw(st.sampled_from([0.05, 1.0, 60.0])), anchor))
    model = mb.freeze()
    return model.with_objective(model.obj, tuple(QuadTerm(*term) for term in terms))


class TestExpandQuadraticProperty:
    @settings(max_examples=300, deadline=None)
    @given(model=_quadratic_models(), segments=st.integers(1, 16))
    def test_matches_row_by_row_reference(self, model, segments):
        try:
            reference = _reference_expand(model, segments)
        except ModelError:
            with pytest.raises(ModelError, match="unbounded"):
                expand_quadratic(model, segments)
            return
        assert_same_model(expand_quadratic(model, segments), reference)

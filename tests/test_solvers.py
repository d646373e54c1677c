import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexcep.canonical import (
    EQ,
    GE,
    INF,
    LE,
    ModelBuilder,
    ModelError,
    objective_value,
    relax_integrality,
)
import flexcep.solvers as solvers_module
from flexcep.solvers import (
    NO_PRIMAL_HEURISTICS,
    BackendCrashError,
    BackendError,
    BackendUnavailableError,
    SolverConfig,
    _parse_solution_file,
    _tangent_points,
    expand_quadratic,
    highs_option_passthrough,
    solve,
)

from invariants import assert_same_model

BACKENDS = ["inproc", "subprocess"]


def _min_x_geq(bound, integer=False):
    mb = ModelBuilder()
    x = mb.add_var("x", lb=0.0, ub=100.0, integer=integer, obj=1.0)
    mb.add_row("floor", [(x, 1.0)], GE, bound)
    return mb.freeze()


@pytest.mark.parametrize("backend", BACKENDS)
class TestBasicSolves:
    def test_min_x_continuous(self, backend):
        res = solve(_min_x_geq(3.0), SolverConfig(backend=backend))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-8)

    def test_min_x_integer_rounds_up(self, backend):
        res = solve(_min_x_geq(2.5, integer=True), SolverConfig(backend=backend))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-8)

    def test_infeasible_toy(self, backend):
        mb = ModelBuilder()
        x = mb.add_var("x", lb=0.0, ub=0.0, obj=1.0)
        mb.add_row("lo", [(x, 1.0)], GE, 1.0)
        res = solve(mb.freeze(), SolverConfig(backend=backend))
        assert res.status == "infeasible"

    def test_backends_agree_on_g1(self, backend, g1_ef, g1_ef_solution):
        model, _ = g1_ef
        res = solve(model, SolverConfig(backend=backend))
        assert res.objective == pytest.approx(g1_ef_solution.objective, rel=1e-5)


def test_backends_agree_across_fixture_suite():
    from flexcep.oracle import generate
    from flexcep.build import build_extensive_form
    for gen in ("G2", "G3"):
        model, _ = build_extensive_form(generate(gen, 4))
        a = solve(model, SolverConfig(backend="inproc"))
        b = solve(model, SolverConfig(backend="subprocess"))
        assert a.status == b.status == "optimal"
        assert b.objective == pytest.approx(a.objective, rel=1e-5)


class TestQuadratic:
    def test_expand_requires_finite_box(self):
        mb = ModelBuilder()
        x = mb.add_var("x", lb=0.0, ub=INF, obj=1.0)
        mb.add_quad(x, 1.0, 0.0)
        with pytest.raises(ModelError, match="unbounded"):
            expand_quadratic(mb.freeze())

    def test_prox_solve_lands_near_anchor(self):
        mb = ModelBuilder()
        x = mb.add_var("x", lb=0.0, ub=100.0, obj=1.0)
        mb.add_quad(x, 50.0, anchor=40.0)
        res = solve(mb.freeze(), SolverConfig())
        assert res.status == "optimal"
        # true minimizer of x + 50 (x-40)^2 is 39.99
        assert res.x[0] == pytest.approx(39.99, abs=0.2)
        assert res.objective == pytest.approx(objective_value(mb.freeze(), res.x), rel=1e-9)

    def test_integer_quadratic_exact_on_lattice(self):
        mb = ModelBuilder()
        x = mb.add_var("x", lb=0.0, ub=3.0, integer=True, obj=0.0)
        mb.add_quad(x, 10.0, anchor=1.8)
        res = solve(mb.freeze())
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_reported_objective_matches_original_model(self):
        mb = ModelBuilder()
        x = mb.add_var("x", lb=0.0, ub=10.0, obj=-1.0)
        mb.add_quad(x, 3.0, anchor=2.0)
        m = mb.freeze()
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
        seen = []
        original = solvers_module.milp

        def recording(*args, options, **kwargs):
            seen.append(dict(options))
            return original(*args, options=options, **kwargs)
        monkeypatch.setattr(solvers_module, "milp", recording)
        solve(_min_x_geq(3.0))
        solve(_min_x_geq(3.0), interior=True)
        assert "solver" not in seen[0]
        assert seen[1] == {**seen[0], "solver": "ipm"}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_milp_rejected(self, backend):
        with pytest.raises(ValueError, match="integer columns"):
            solve(_min_x_geq(2.5, integer=True), SolverConfig(backend=backend),
                  interior=True)

    def test_subprocess_backend_ignores_it(self):
        res = solve(_min_x_geq(3.0), SolverConfig(backend="subprocess"), interior=True)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-8)


class TestPrimalHeuristics:
    """``heuristics=False`` turns off three HiGHS heuristics on MILPs only."""

    def _recorded_options(self, monkeypatch, model):
        seen = []
        original = solvers_module.milp

        def recording(*args, options, **kwargs):
            seen.append(dict(options))
            return original(*args, options=options, **kwargs)
        monkeypatch.setattr(solvers_module, "milp", recording)
        with highs_option_passthrough():
            with_them = solve(model)
            without = solve(model, heuristics=False)
        assert without.status == with_them.status == "optimal"
        assert without.objective == with_them.objective
        return seen

    def test_milp_gets_exactly_the_three_options(self, monkeypatch):
        default, without = self._recorded_options(monkeypatch, _min_x_geq(2.5, integer=True))
        assert without == {**default, **NO_PRIMAL_HEURISTICS}
        assert set(NO_PRIMAL_HEURISTICS) == {"mip_heuristic_run_feasibility_jump",
                                             "mip_heuristic_run_rins",
                                             "mip_heuristic_run_rens"}
        assert not any(NO_PRIMAL_HEURISTICS.values())

    def test_lp_is_solved_as_without_it(self, monkeypatch):
        default, without = self._recorded_options(monkeypatch, _min_x_geq(2.5))
        assert without == default

    def test_the_caller_holds_the_warning_filter(self):
        model = _min_x_geq(2.5, integer=True)
        with pytest.warns(RuntimeWarning, match="Unrecognized options detected"):
            solve(model, heuristics=False)
        before = list(warnings.filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with highs_option_passthrough():
                res = solve(model, heuristics=False)
        assert warnings.filters == before
        assert res.objective == pytest.approx(3.0, abs=1e-8)

    def test_subprocess_backend_ignores_it(self):
        res = solve(_min_x_geq(2.5, integer=True), SolverConfig(backend="subprocess"),
                    heuristics=False)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-8)


class TestSubprocessProtocol:
    def test_missing_binary_is_unavailable(self, g1_ef):
        model, _ = g1_ef
        cfg = SolverConfig(backend="subprocess", solver_bin="/nonexistent/solver")
        with pytest.raises(BackendUnavailableError):
            solve(model, cfg)

    def test_env_var_overrides_binary(self, monkeypatch):
        from flexcep.solvers import SOLVER_BIN_ENV
        monkeypatch.setenv(SOLVER_BIN_ENV, "/nonexistent/from-env")
        with pytest.raises(BackendUnavailableError, match="from-env"):
            solve(_min_x_geq(1.0), SolverConfig(backend="subprocess"))

    def test_bundled_shim_runs_without_pythonpath(self, monkeypatch):
        # the package need not be installed: the shim finds it anyway
        monkeypatch.delenv("PYTHONPATH", raising=False)
        res = solve(_min_x_geq(3.0), SolverConfig(backend="subprocess"))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-8)

    def test_crashing_binary_reports_diagnostics(self, g1_ef):
        model, _ = g1_ef
        cfg = SolverConfig(backend="subprocess", solver_bin="/bin/false")
        with pytest.raises(BackendError, match="exit"):
            solve(model, cfg)

    def test_rows_block_is_skipped_not_read_as_keys(self, tmp_path):
        # an external solver may still write row values; a row named 'status'
        # must not overwrite the status line
        script = tmp_path / "solver.py"
        script.write_text(
            "import sys\n"
            "with open(sys.argv[2], 'w') as fh:\n"
            "    fh.write('status optimal\\nobjective 3.0\\ncolumns 1\\nx 3.0\\n'\n"
            "             'rows 2\\nfloor 1.0\\nstatus 1.0\\nend\\n')\n")
        cfg = SolverConfig(backend="subprocess", solver_bin=f"{sys.executable} {script}")
        res = solve(_min_x_geq(3.0), cfg)
        assert res.status == "optimal"
        assert res.objective == 3.0
        assert res.x.tolist() == [3.0]

    def test_truncated_block_is_a_crash(self):
        for block in ("columns 2\nx 3.0\n", "rows 2\nfloor 1.0\n"):
            with pytest.raises(BackendCrashError, match="ends inside"):
                _parse_solution_file("status optimal\n" + block)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(time_limit_s=0.0)
        with pytest.raises(ValueError):
            SolverConfig(mip_gap=1.0)


def _reference_expand(model, segments):
    """``expand_quadratic`` rebuilt row by row through ModelBuilder."""
    mb = ModelBuilder(name=model.name)
    for i in range(model.num_vars):
        mb.add_var(model.var_names[i], lb=float(model.var_lb[i]), ub=float(model.var_ub[i]),
                   integer=bool(model.var_integer[i]), obj=float(model.obj[i]))
    mb.add_obj_offset(model.obj_offset)
    for i in range(model.num_rows):
        mb.add_row(model.row_names[i], model.row_coeffs(i),
                   int(model.row_sense[i]), float(model.row_rhs[i]))
    for j, term in enumerate(model.quad):
        lo, hi = float(model.var_lb[term.col]), float(model.var_ub[term.col])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ModelError("unbounded")
        z = mb.add_var(f"qz{j}__", lb=0.0, ub=INF, obj=term.coef)
        points = _tangent_points(lo, hi, term.anchor, segments,
                                 bool(model.var_integer[term.col]))
        for n, p in enumerate(points):
            slope = 2.0 * (p - term.anchor)
            mb.add_row(f"qcut{j}_{n}__", [(z, 1.0), (term.col, -slope)],
                       GE, term.anchor * term.anchor - p * p)
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
        mb.add_var(f"x{i}", lb=float(lo), ub=hi, integer=draw(st.booleans()),
                   obj=draw(st.sampled_from([0.0, 1.0, -2.5])))
    coef = st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0])
    for r in range(draw(st.integers(0, 3))):
        mb.add_row(f"r{r}", [(c, draw(coef)) for c in range(n)],
                   draw(st.sampled_from([LE, EQ, GE])), draw(st.sampled_from([0.0, 4.0, -1.5])))
    mb.add_obj_offset(draw(st.sampled_from([0.0, 7.25])))
    for _ in range(draw(st.integers(1, 4))):
        col = draw(st.integers(0, n - 1))
        anchor = draw(st.one_of(
            st.integers(-8, 40).map(float),
            st.floats(-8.0, 40.0, allow_nan=False)))
        mb.add_quad(col, draw(st.sampled_from([0.05, 1.0, 60.0])), anchor)
    return mb.freeze()


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

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
    QuadTerm,
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


def _with_quad(model, *terms):
    """``model`` with the quadratic terms ``(col, coef, anchor)`` added."""
    return model.with_objective(model.obj, model.obj_offset,
                                quad=tuple(QuadTerm(*term) for term in terms))


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
        with pytest.raises(ModelError, match="unbounded"):
            expand_quadratic(_with_quad(mb.freeze(), (x, 1.0, 0.0)))

    def test_prox_solve_lands_near_anchor(self):
        mb = ModelBuilder()
        x = mb.add_var("x", lb=0.0, ub=100.0, obj=1.0)
        m = _with_quad(mb.freeze(), (x, 50.0, 40.0))
        res = solve(m, SolverConfig())
        assert res.status == "optimal"
        # true minimizer of x + 50 (x-40)^2 is 39.99
        assert res.x[0] == pytest.approx(39.99, abs=0.2)
        assert res.objective == pytest.approx(objective_value(m, res.x), rel=1e-9)

    def test_integer_quadratic_exact_on_lattice(self):
        mb = ModelBuilder()
        x = mb.add_var("x", lb=0.0, ub=3.0, integer=True, obj=0.0)
        res = solve(_with_quad(mb.freeze(), (x, 10.0, 1.8)))
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_reported_objective_matches_original_model(self):
        mb = ModelBuilder()
        x = mb.add_var("x", lb=0.0, ub=10.0, obj=-1.0)
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
    """Every model with integer columns runs without three HiGHS heuristics."""

    DEFAULT = {"time_limit": 300.0, "mip_rel_gap": 0.0, "presolve": True}

    def test_milp_gets_exactly_the_three_options(self, monkeypatch):
        seen = _record_options(monkeypatch)
        res = solve(_min_x_geq(2.5, integer=True))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-8)
        assert seen == [{**self.DEFAULT, **NO_PRIMAL_HEURISTICS}]
        assert set(NO_PRIMAL_HEURISTICS) == {"mip_heuristic_run_feasibility_jump",
                                             "mip_heuristic_run_rins",
                                             "mip_heuristic_run_rens"}
        assert not any(NO_PRIMAL_HEURISTICS.values())

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

    def test_subprocess_backend_ignores_it(self, monkeypatch):
        # this process makes no backend call; the solver binary picks its options
        seen = _record_options(monkeypatch)
        res = solve(_min_x_geq(2.5, integer=True), SolverConfig(backend="subprocess"))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-8)
        assert seen == []

    def test_bundled_shim_solves_a_milp_without_them(self, monkeypatch, tmp_path):
        from flexcep import lpfile, lpsolve
        lp_path, sol_path = tmp_path / "model.lp", tmp_path / "model.sol"
        lpfile.write_lp_file(_min_x_geq(2.5, integer=True), str(lp_path))
        seen = _record_options(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lpsolve.main([str(lp_path), str(sol_path)]) == 0
        assert seen == [{**self.DEFAULT, **NO_PRIMAL_HEURISTICS}]
        assert _parse_solution_file(sol_path.read_text())[:2] == ("optimal", 3.0)


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
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        col = draw(st.integers(0, n - 1))
        anchor = draw(st.one_of(
            st.integers(-8, 40).map(float),
            st.floats(-8.0, 40.0, allow_nan=False)))
        terms.append((col, draw(st.sampled_from([0.05, 1.0, 60.0])), anchor))
    return _with_quad(mb.freeze(), *terms)


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

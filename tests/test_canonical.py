import numpy as np
import pytest

from flexcep.canonical import (
    EQ,
    GE,
    INF,
    LE,
    ModelBuilder,
    ModelError,
    QuadTerm,
    VariableIndex,
    objective_value,
    relax_integrality,
    restrict_bounds,
)
from flexcep.solvers import solve


def _toy_model():
    mb = ModelBuilder(name="toy")
    x = mb.add_var(lb=0.0, ub=10.0, integer=True, obj=1.0)
    y = mb.add_var(lb=0.0, ub=5.0, obj=2.0)
    z = mb.add_var(lb=-INF, ub=INF, integer=True)
    mb.add_row([(x, 1.0), (y, 1.0)], GE, 3.0)
    mb.add_row([(y, 2.0), (z, -1.0)], LE, 4.0)
    mb.add_row([(x, 1.0), (z, 1.0)], EQ, 2.0)
    return mb.freeze()


class TestMatrix:
    """Rows are stored as one canonical scipy CSR matrix ``model.a``."""

    def _one_row(self, coeffs):
        mb = ModelBuilder()
        for _ in range(3):
            mb.add_var()
        mb.add_row(coeffs, LE, 1.0)
        return mb.freeze()

    def test_repeated_column_becomes_one_summed_entry(self):
        a = self._one_row([(2, 1.5), (0, 1.0), (2, 2.0)]).a
        assert a.indices.tolist() == [0, 2] and a.data.tolist() == [1.0, 3.5]

    def test_repeat_summing_to_zero_stays_an_explicit_zero(self):
        # a storage row over one period, s[0] - s[T-1] with T = 1, has such an entry
        a = self._one_row([(1, 1.0), (0, 2.0), (1, -1.0)]).a
        assert a.indices.tolist() == [0, 1] and a.data.tolist() == [2.0, 0.0]
        assert a.nnz == 2

    def test_zero_coefficients_are_dropped(self):
        a = self._one_row([(0, 0.0), (1, 4.0), (2, -0.0)]).a
        assert a.indices.tolist() == [1] and a.data.tolist() == [4.0]

    def test_unknown_column_rejected_at_freeze(self):
        for col in (-1, 3):
            with pytest.raises(ModelError, match="nonexistent column"):
                self._one_row([(col, 1.0)])

    def test_matrix_arrays_are_read_only(self):
        a = _toy_model().a
        for arr in (a.data, a.indices, a.indptr):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_copies_share_the_matrix(self):
        m = _toy_model()
        assert restrict_bounds(m, {0: (1.0, 2.0)}).a is m.a
        assert relax_integrality(m).a is m.a
        assert m.with_objective(np.ones(m.num_vars)).a is m.a


class TestFixRelax:
    def test_fix_pins_bounds_and_leaves_original(self):
        m = _toy_model()
        fixed = restrict_bounds(m, {0: (4.0, 4.0)})
        assert fixed.var_lb[0] == fixed.var_ub[0] == 4.0
        assert m.var_lb[0] == 0.0 and m.var_ub[0] == 10.0

    def test_fix_out_of_bounds_errors(self):
        with pytest.raises(ModelError, match="empty"):
            restrict_bounds(_toy_model(), {1: (6.0, 6.0)})

    @pytest.mark.parametrize("col", [-1, 3], ids=["minus_one", "num_vars"])
    def test_restrict_bounds_rejects_unknown_columns(self, col):
        m = _toy_model()
        assert m.num_vars == 3
        with pytest.raises(ModelError, match=f"unknown column {col}"):
            restrict_bounds(m, {col: (0.0, 1.0)})

    def test_relax_clears_flags_keeps_rows(self):
        m = _toy_model()
        relaxed = relax_integrality(m)
        assert int(m.var_integer.sum()) == 2
        assert int(relaxed.var_integer.sum()) == 0
        assert relaxed.num_rows == m.num_rows

    def test_relax_idempotent(self):
        m = relax_integrality(_toy_model())
        assert relax_integrality(m) is m

    def test_fix_then_relax_commutes(self):
        m = _toy_model()
        a = relax_integrality(restrict_bounds(m, {0: (2.0, 2.0)}))
        b = restrict_bounds(relax_integrality(m), {0: (2.0, 2.0)})
        assert np.array_equal(a.var_lb, b.var_lb)
        assert np.array_equal(a.var_ub, b.var_ub)
        assert np.array_equal(a.var_integer, b.var_integer)
        assert np.array_equal(a.a.data, b.a.data)

    def test_restrict_bounds_narrows_only(self):
        m = _toy_model()
        r = restrict_bounds(m, {0: (1.0, 20.0)})
        assert r.var_lb[0] == 1.0 and r.var_ub[0] == 10.0
        with pytest.raises(ModelError, match="empty"):
            restrict_bounds(m, {1: (7.0, 9.0)})

    def test_lp_relaxation_bounds_milp(self, g1_ef, g1_ef_solution, solver_cfg):
        model, _ = g1_ef
        lp = solve(relax_integrality(model), solver_cfg)
        assert lp.status == "optimal"
        assert lp.objective <= g1_ef_solution.objective + 1e-6

    def test_fixing_all_first_stage_leaves_pure_lp(self, g1_ef, g1_ef_solution):
        model, index = g1_ef
        fs_cols = index.columns_of_kind("xL", "xG", "xS", "xD")
        # integer values rounded and continuous ones clipped, so each pin lies in its box
        x = np.clip(g1_ef_solution.x, model.var_lb, model.var_ub)
        x = np.where(model.var_integer, np.round(x), x)
        lp = relax_integrality(restrict_bounds(model, {c: (x[c], x[c]) for c in fs_cols}))
        assert not lp.var_integer.any()
        res = solve(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(g1_ef_solution.objective, rel=1e-7)

    def test_big_m_collapses_when_line_fixed_built(self, g1, g1_ef, solver_cfg):
        model, index = g1_ef
        fixed = restrict_bounds(model, {index.column(("xL", "L12")): (1.0, 1.0)})
        res = solve(fixed, solver_cfg)
        assert res.status == "optimal"
        line = g1.branches[0]
        for t in range(g1.num_periods):
            for s in g1.scenarios:
                f = res.x[index.column(("f", "L12", t, s.id))]
                do = res.x[index.column(("theta", "B1", t, s.id))]
                dd = res.x[index.column(("theta", "B2", t, s.id))]
                assert f == pytest.approx(line.susceptance * (do - dd), abs=1e-5)


class TestObjectiveValue:
    def test_reproduces_reported_objective(self, g1_ef, g1_ef_solution):
        model, _ = g1_ef
        val = objective_value(model, g1_ef_solution.x)
        assert val == pytest.approx(g1_ef_solution.objective, rel=1e-6)

    def test_quadratic_terms_included(self):
        mb = ModelBuilder()
        x = mb.add_var(lb=0.0, ub=4.0, obj=1.0)
        m = mb.freeze()
        m = m.with_objective(m.obj, quad=(QuadTerm(col=x, coef=2.0, anchor=1.0),))
        assert objective_value(m, np.array([3.0])) == pytest.approx(3.0 + 2.0 * 4.0)

    def test_duplicate_coordinate_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            VariableIndex(coords=(("xG", "B1", "gas"), ("xS", "B1", "bat"),
                                  ("xG", "B1", "gas")))

    def test_row_with_unknown_column_rejected(self):
        mb = ModelBuilder()
        mb.add_var()
        mb.add_row([(3, 1.0)], LE, 1.0)
        with pytest.raises(ModelError):
            mb.freeze()

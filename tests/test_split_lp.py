"""An LP reference past oracle size: the split LP and its duals.

Every scenario's relaxed Lagrangian base (``pha._scenario_bases``) is stacked
with a free first-stage block ``z``, the rows ``x_s - z = 0`` and the
expectation rows ``sum_s p_s sigma_s,h <= 0``, and solved by
``scipy.optimize.linprog`` with HiGHS's interior-point method.
Its value is the relaxed extensive form's optimum assembled a second way, so
it checks the slack definitions, the probability weighting and the
first-stage layout of ``build.py``. Its marginals are LP-optimal multipliers:
``lam_h`` is minus the marginal of expectation row ``h``, and ``w_s`` minus
the marginals of scenario ``s``'s ``x_s - z`` rows over ``p_s``. At them the
relaxed Lagrangian gives back the LP value and the integer Lagrangian at
least that much (Geoffrion (1974), *Lagrangean relaxation for integer
programming*), which pins down the signs of ``lam`` and ``w`` in
``price_scenario_subproblem``.
"""

import os

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from flexcep import pha, storage
from flexcep.build import build_extensive_form, first_stage_info
from flexcep.canonical import EQ, GE, relax_integrality
from flexcep.core import enumerate_expectation_constraints
from flexcep.solvers import solve
from test_pha import FIXTURES, _tiled_with_optimum


def split_lp(inst, bases):
    """``(value, lam, w)`` of the split LP over the relaxed ``bases``."""
    n = len(first_stage_info(inst).coords)
    h = len(enumerate_expectation_constraints(inst))
    p = np.array([s.probability for s in inst.scenarios])
    models = [relax_integrality(model) for model, _ in bases]
    k = len(models)
    starts = np.cumsum([0] + [m.num_vars for m in models])  # z follows the last block
    cols = starts[-1] + n
    blocks = sparse.hstack([sparse.block_diag([m.a for m in models]),
                            sparse.csr_matrix((sum(m.num_rows for m in models), n))]).tocsr()
    # x_s - z = 0 per scenario: first-stage columns lead each block
    r = np.arange(k * n)
    nonant = sparse.csr_matrix(
        (np.r_[np.ones(k * n), -np.ones(k * n)],
         (np.r_[r, r], np.r_[(starts[:-1, None] + np.arange(n)).ravel(),
                             np.tile(starts[-1] + np.arange(n), k)])), shape=(k * n, cols))
    # sum_s p_s sigma_s,h <= 0 per handle: slack columns close each block
    expect = sparse.csr_matrix(
        (np.repeat(p, h), (np.tile(np.arange(h), k),
                           (starts[1:, None] - h + np.arange(h)).ravel())), shape=(h, cols))
    sense = np.concatenate([m.row_sense for m in models])
    rhs = np.concatenate([m.row_rhs for m in models])
    sign = np.where(sense == GE, -1.0, 1.0)  # GE rows enter A_ub negated
    ub, eq = sense != EQ, sense == EQ
    free = np.full(n, np.inf)
    res = linprog(
        np.concatenate([pi * m.obj for pi, m in zip(p, models)] + [np.zeros(n)]),
        A_ub=sparse.vstack([sparse.diags(sign[ub]) @ blocks[ub], expect]),
        b_ub=np.r_[sign[ub] * rhs[ub], np.zeros(h)],
        A_eq=sparse.vstack([blocks[eq], nonant]), b_eq=np.r_[rhs[eq], np.zeros(k * n)],
        bounds=np.column_stack([np.concatenate([m.var_lb for m in models] + [-free]),
                                np.concatenate([m.var_ub for m in models] + [free])]),
        method="highs-ipm")
    assert res.status == 0, res.message
    value = res.fun
    lam = np.maximum(-res.ineqlin.marginals[-h:], 0.0)
    w = -res.eqlin.marginals[int(eq.sum()):].reshape(k, n) / p[:, None]
    w -= p @ w  # exact balance: sum_s p_s w_s = 0
    return value, lam, w


@pytest.fixture(scope="module", params=["G2 seed 1", "tiled G2, S=3"])
def case(request):
    if request.param == "G2 seed 1":
        inst = storage.load_instance(os.path.join(FIXTURES, "G2", "seed1.json"))
    else:
        inst = _tiled_with_optimum("G2", 3, 2)[0]
    bases = pha._scenario_bases(inst)
    return inst, bases, split_lp(inst, bases)


def test_split_lp_value_is_the_relaxed_ef_optimum(case):
    inst, _, (value, _, _) = case
    relaxed = solve(relax_integrality(build_extensive_form(inst)[0]))
    assert relaxed.status == "optimal"
    assert value == pytest.approx(relaxed.objective, rel=1e-7)


def test_lagrangian_at_the_split_lp_duals(case):
    inst, bases, (value, lam, w) = case
    relaxed = [(relax_integrality(model), index) for model, index in bases]
    lp, _ = pha.lagrangian_lower_bound(inst, lam, w, bases=relaxed)
    assert lp == pytest.approx(value, rel=1e-6)
    integer, _ = pha.lagrangian_lower_bound(inst, lam, w, bases=bases)
    assert integer >= value - 1e-6 * abs(value)

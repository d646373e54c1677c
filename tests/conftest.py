import pytest
from scipy.optimize import OptimizeResult

import flexcep.solvers as solvers_module
from flexcep.build import build_extensive_form
from flexcep.oracle import brute_force_optimum, generate
from flexcep.solvers import SolverConfig, solve


@pytest.fixture(scope="session")
def solver_cfg():
    return SolverConfig()


@pytest.fixture(scope="session")
def g1():
    return generate("G1", 1)


@pytest.fixture(scope="session")
def g1_ef(g1):
    model, index = build_extensive_form(g1)
    return model, index


@pytest.fixture(scope="session")
def g1_ef_solution(g1_ef, solver_cfg):
    model, index = g1_ef
    res = solve(model, solver_cfg)
    assert res.status == "optimal"
    return res


@pytest.fixture(scope="session")
def g1_oracle(g1):
    return brute_force_optimum(g1)


@pytest.fixture
def crashing_highs(monkeypatch):
    """Every HiGHS call fails the way scipy.milp reports an internal error (status 4)."""
    failed = OptimizeResult(status=4, message="Solve error", success=False, x=None, fun=None)
    monkeypatch.setattr(solvers_module, "milp", lambda *args, **kwargs: failed)

"""Shared test checks: model equality, row access, and physical-solution invariants.

The invariants deliberately re-derive every quantity from the instance data
rather than reusing the builder's rows, so they catch formulation bugs.
"""

import dataclasses

import numpy as np
from scipy import sparse


def assert_same_model(got, want):
    """Field by field; arrays, the matrix's included, must match in dtype and
    value and be read-only."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if sparse.issparse(b):
            assert a.shape == b.shape, f.name
            pairs = [(getattr(a, k), getattr(b, k)) for k in ("data", "indices", "indptr")]
        else:
            pairs = [(a, b)]
        for x, y in pairs:
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name
                assert not x.flags.writeable, f.name
            else:
                assert x == y, f.name


def row_coeffs(model):
    """Each row's ``[(column, coefficient), ...]``, read from ``model.a``."""
    a = model.a
    return [list(zip(a.indices[a.indptr[i]:a.indptr[i + 1]].tolist(),
                     a.data[a.indptr[i]:a.indptr[i + 1]].tolist()))
            for i in range(model.num_rows)]


def check_solution_invariants(inst, index, x, balance_tol=1e-6, cyclic_tol=1e-6,
                              tier_tol=1e-9, flow_tol=1e-6):
    """Assert nodal balance, storage cyclicity, tranche consistency, big-M soundness."""
    tau = inst.period_length_h
    T = inst.num_periods

    def val(coord):
        return float(x[index.column(coord)])

    for scen in inst.scenarios:
        w = scen.id
        for bi, b in enumerate(inst.buses):
            for t in range(T):
                injection = sum(val(("pG", b.id, g.id, t, w)) for g in inst.gen_techs)
                for s in inst.storage_techs:
                    injection += s.eff_discharge * val(("pSdch", b.id, s.id, t, w))
                    injection -= val(("pSch", b.id, s.id, t, w))
                for l in inst.branches:
                    if l.from_bus == b.id:
                        injection -= val(("f", l.id, t, w))
                    if l.to_bus == b.id:
                        injection += val(("f", l.id, t, w))
                injection += val(("psh", b.id, t, w))
                # large-load consumption is by definition the tranche sum
                load = sum(val(("pDK", b.id, d.id, k, t, w))
                           for d in inst.load_techs
                           for k in range(1, len(d.tiers) + 1))
                residual = injection - load - float(scen.demand[bi, t])
                assert abs(residual) <= balance_tol, (
                    f"balance residual {residual!r} at ({b.id},{t},{w})")

        for b in inst.buses:
            for s in inst.storage_techs:
                wrap = (val(("pS", b.id, s.id, T - 1, w))
                        + tau * (s.eff_charge * val(("pSch", b.id, s.id, 0, w))
                                 - val(("pSdch", b.id, s.id, 0, w))))
                drift = val(("pS", b.id, s.id, 0, w)) - wrap
                assert abs(drift) <= cyclic_tol, (
                    f"storage cyclicity violated by {drift!r} at ({b.id},{s.id},{w})")

        for b in inst.buses:
            for d in inst.load_techs:
                units = val(("xD", b.id, d.id))
                widths = d.tiers.widths()
                for k in range(1, len(d.tiers) + 1):
                    cap = widths[k - 1] * d.unit_size_mw * units
                    for t in range(T):
                        served = val(("pDK", b.id, d.id, k, t, w))
                        assert served <= cap + tier_tol, (
                            f"tranche cap exceeded at ({b.id},{d.id},{k},{t},{w})")

        for l in inst.candidate_branches():
            built = val(("xL", l.id))
            if built < 0.5:
                for t in range(T):
                    flow = val(("f", l.id, t, w))
                    assert abs(flow) <= flow_tol, (
                        f"unbuilt line {l.id} carries {flow!r} MW at ({t},{w})")
                    spread_term = (val(("theta", l.from_bus, t, w))
                                   - val(("theta", l.to_bus, t, w)))
                    gap = abs(flow - l.susceptance * spread_term)
                    big_m = abs(l.susceptance) * inst.big_m_angle_spread
                    assert gap <= big_m * (1.0 - 1e-9) + 1e-6, (
                        f"big-M row not slack for unbuilt {l.id} at ({t},{w})")


def sigma_bar_of_solution(inst, x_first, value):
    """Expected slack per expectation handle; positive means violated."""
    from flexcep.build import expectation_terms
    from flexcep.core import enumerate_expectation_constraints

    out = {}
    for spec in enumerate_expectation_constraints(inst):
        fs_terms, scen_terms, rhs = expectation_terms(inst, spec)
        lhs = sum(v * x_first.get(c, 0.0) for c, v in fs_terms)
        for scen in inst.scenarios:
            lhs += scen.probability * sum(v * value(c) for c, v in scen_terms(scen.id))
        out[spec.handle] = rhs - lhs
    return out


def check_expectation_rows(inst, index, x, tol=1e-6):
    """Assert every tier-reliability and policy expectation holds at the primal."""
    from flexcep.report import extract_first_stage, value_reader

    x_first = extract_first_stage(index, x)
    sig = sigma_bar_of_solution(inst, x_first, value_reader(index, x))
    worst = max(sig.values(), default=0.0)
    assert worst <= tol, f"expectation constraint violated by {worst!r}"
    return sig

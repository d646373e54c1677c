"""Tests of the benchmark itself: generator, hooks, span arithmetic, checks."""

from __future__ import annotations

import importlib
import json
import math

import pytest

import ladder
import reference
import run
import spans

ladder.import_flexcep()

from flexcep import oracle, storage  # noqa: E402
from flexcep.build import build_extensive_form  # noqa: E402
from flexcep.core import validate_instance  # noqa: E402
from flexcep.solvers import solve  # noqa: E402

TINY_PHA = ladder.Workload("tiny_pha", n_scenarios=2, period_reps=1, iterations=5)


def _write(path, n_scenarios, period_reps, seed):
    inst = ladder.scale_instance(oracle.generate("G2", 1), n_scenarios, period_reps, seed)
    storage.save_instance(inst, path)
    return inst


def _originals():
    return {h.target: getattr(importlib.import_module(h.module), h.attr) for h in spans.HOOKS}


@pytest.fixture()
def tiny_instance(tmp_path):
    path = str(tmp_path / "tiny.json")
    _write(path, 2, 1, seed=0)
    return path


def test_generator_is_deterministic_and_valid(tmp_path):
    inst = _write(tmp_path / "a.json", 3, 2, seed=5)
    _write(tmp_path / "b.json", 3, 2, seed=5)
    _write(tmp_path / "c.json", 3, 2, seed=6)
    a, b, c = ((tmp_path / n).read_bytes() for n in ("a.json", "b.json", "c.json"))
    assert a == b
    assert a != c
    assert validate_instance(inst) == []
    loaded = storage.load_instance(str(tmp_path / "a.json"))  # validates too
    assert [s.id for s in loaded.scenarios] == ["s1", "s2", "s3"]
    assert loaded.num_periods == 8
    assert sum(s.probability for s in loaded.scenarios) == pytest.approx(1.0)


def test_hooks_restore_the_original_attributes():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.hooked(spans.HOOKS, spans.span_wrapper(spans.Tracer())) as missing:
            assert missing == {}
            during = _originals()
            assert all(during[t] is not before[t] for t in before)
            raise RuntimeError("leave the block early")
    after = _originals()
    assert all(after[t] is before[t] for t in before)


def test_missing_and_unfired_hooks_are_reported_as_missing():
    tracer = spans.Tracer()
    absent = spans.Hook("flexcep.pha", "no_such_function", "pha.lb_sweep")
    with spans.hooked([absent], spans.span_wrapper(tracer)) as missing:
        with tracer.span("cli.solve") as root:
            pass
    assert list(missing) == [absent.target]
    metrics = spans.layer_metrics(tracer, root, missing)
    assert isinstance(metrics["pha.lb_sweep.calls"], spans.Missing)
    assert "no_such_function" in metrics["pha.lb_sweep.calls"].reason
    assert metrics["solvers.backend.calls"] == spans.Missing("hook never fired on this workload")
    assert metrics["cli.solve_s"] >= 0.0


def test_self_times_partition_the_traced_solve(tmp_path, tiny_instance):
    plain, _ = run.run_solve(TINY_PHA, tiny_instance, str(tmp_path / "plain"), 0)
    tracer = spans.Tracer()
    traced, root = run.run_solve(TINY_PHA, tiny_instance, str(tmp_path / "traced"), 0, tracer)
    assert plain.problems == [] and traced.problems == []
    assert plain.first_bound_s is not None and 0.0 < plain.first_bound_s <= plain.wall_s
    assert run.same_reports(plain.out_dir, traced.out_dir)  # tracing changes no result

    assert min(tracer.self_times()) >= -1e-9
    metrics = spans.layer_metrics(tracer, root, root.attrs["missing"])
    assert not [n for n, v in metrics.items() if isinstance(v, spans.Missing)]
    parts = [metrics[n] for n in spans.SELF_TIME_METRICS]
    assert min(parts) >= -1e-9
    assert math.isclose(sum(parts), metrics["cli.solve_s"], rel_tol=1e-9)
    assert metrics["pha.iterations"] == 5
    assert metrics["solvers.solve.calls"] == metrics["solvers.backend.calls"]
    assert metrics["pha.incumbent.calls"] >= 1
    tracer.dump(str(tmp_path / "spans.json"))
    dumped = json.loads((tmp_path / "spans.json").read_text())
    assert [d["name"] for d in dumped if d["parent"] is None] == ["cli.solve"]


def test_perturbed_reference_is_caught(tmp_path, tiny_instance):
    pha, _ = run.run_solve(TINY_PHA, tiny_instance, str(tmp_path / "pha"), 0)
    model, _ = build_extensive_form(storage.load_instance(tiny_instance))
    ref = solve(model).objective
    assert run.check_solve(pha, ref) == []
    # A reference moved 1% beyond either bound no longer lies between them.
    assert run.check_solve(pha, pha.upper * 1.01)
    assert run.check_solve(pha, pha.lower / 1.01)
    assert run.check_solve(run.Solve(out_dir="", code=5, lower=pha.lower, upper=pha.upper), ref)


def test_reference_lookup_rejects_another_instance(tmp_path):
    workload = ladder.WORKLOADS["pha_s8t24"]
    path = tmp_path / "refs.json"
    key = reference.reference_key(workload, 0)
    path.write_text(json.dumps({key: {"objective": 1.5, "sha256": "abc"}}))
    assert reference.lookup(workload, 0, "abc", str(path)) == 1.5
    with pytest.raises(reference.MissingReference):
        reference.lookup(workload, 0, "def", str(path))
    with pytest.raises(reference.MissingReference):
        reference.lookup(workload, 1, "abc", str(path))

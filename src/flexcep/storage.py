"""On-disk schemas: JSON instance files, CSV time series, CSV report sets.

The instance format is a single JSON document (schema_version 1) whose
scenario time series are either inline or in sibling CSV files referenced by
relative path. Serialization is canonical: fixed key order, UTF-8, LF line
endings, and 9-significant-digit numeric formatting, so save(load(f)) is a
fixed point and report directories are byte-stable.

Units are fixed by the schema: MW, MWh, hours, $/y, $/MWh; expected-output
policy coefficients are per MWh, thresholds per representative horizon.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping

import numpy as np

from .core import (
    EXISTING,
    EXPECTED_OUTPUT,
    Branch,
    Bus,
    ExpectationConstraintSpec,
    GenTech,
    InvalidInstanceError,
    LargeLoadTech,
    Mandate,
    PlanningInstance,
    Scenario,
    StorageTech,
    TierSpec,
    validate_instance,
)
from .report import SolveReport

SCHEMA_VERSION = 1


class InstanceFormatError(ValueError):
    """Unparseable or schema-incompatible instance file."""


# ---------------------------------------------------------------------------
# Canonical number / JSON formatting
# ---------------------------------------------------------------------------


def fmt_num(value) -> str:
    """Canonical 9-significant-digit rendering used across all emitted files."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("booleans are not numbers here")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        raise ValueError(f"non-finite number {v!r} cannot be serialized")
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, ".9g")


def _emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_emit_json(v, indent + 1)}" for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating)) and
               not isinstance(v, (bool, np.bool_)) for v in obj):
            return "[" + ", ".join(fmt_num(v) for v in obj) + "]"
        inner = ",\n".join(f"{pad}  {_emit_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return fmt_num(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Instance save / load
# ---------------------------------------------------------------------------


def instance_to_dict(inst: PlanningInstance) -> dict:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": inst.name,
        "period_length_h": inst.period_length_h,
        "shed_cost": inst.shed_cost,
        "annualization_days": inst.annualization_days,
        "big_m_angle_spread": inst.big_m_angle_spread,
    }
    doc["gen_techs"] = [_gen_dict(g) for g in inst.gen_techs]
    doc["storage_techs"] = [{
        "id": s.id, "fixed_cost": s.fixed_cost, "variable_cost": s.variable_cost,
        "duration_h": s.duration_h, "eff_charge": s.eff_charge,
        "eff_discharge": s.eff_discharge,
    } for s in inst.storage_techs]
    doc["load_techs"] = [_load_dict(d) for d in inst.load_techs]
    doc["branches"] = [_branch_dict(l) for l in inst.branches]
    doc["buses"] = [{
        "id": b.id,
        "existing_gen": _num_map(b.existing_gen),
        "existing_storage": _num_map(b.existing_storage),
        "build_limit_gen": _num_map(b.build_limit_gen),
        "build_limit_storage": _num_map(b.build_limit_storage),
        "build_limit_load": _num_map(b.build_limit_load),
    } for b in inst.buses]
    doc["scenarios"] = [{
        "id": s.id,
        "probability": s.probability,
        "demand": {b.id: list(s.demand[i]) for i, b in enumerate(inst.buses)},
        "availability": {
            b.id: {g.id: list(s.availability[i, j]) for j, g in enumerate(inst.gen_techs)}
            for i, b in enumerate(inst.buses)},
    } for s in inst.scenarios]
    doc["policies"] = [{
        "handle": p.handle,
        "q": _num_map(p.q),
        "r": _num_map(p.r),
        "threshold": p.threshold,
    } for p in inst.expectation_policies]
    return doc


def _num_map(mapping: Mapping[str, float]) -> dict:
    return {k: mapping[k] for k in sorted(mapping)}


def _gen_dict(g: GenTech) -> dict:
    out = {"id": g.id, "integrality": g.integrality, "fixed_cost": g.fixed_cost,
           "variable_cost": g.variable_cost, "emission_factor": g.emission_factor}
    if g.unit_size_mw is not None:
        out["unit_size_mw"] = g.unit_size_mw
    return out


def _load_dict(d: LargeLoadTech) -> dict:
    out = {"id": d.id, "unit_size_mw": d.unit_size_mw, "fixed_cost": d.fixed_cost,
           "variable_cost": d.variable_cost,
           "tiers": {"u": list(d.tiers.u), "phi": list(d.tiers.phi)},
           "capture_factor": d.capture_factor}
    out["mandate"] = (None if d.mandate is None else
                      {"min_units": d.mandate.min_units, "equality": d.mandate.equality})
    return out


def _branch_dict(l: Branch) -> dict:
    out = {"id": l.id, "from_bus": l.from_bus, "to_bus": l.to_bus,
           "susceptance": l.susceptance, "capacity_mw": l.capacity_mw,
           "status": l.status}
    if l.is_candidate:
        out["fixed_cost"] = l.fixed_cost
    return out


def save_instance(inst: PlanningInstance, path) -> None:
    text = _emit_json(instance_to_dict(inst)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_instance(path) -> PlanningInstance:
    """Parse, resolve time-series references, and validate an instance file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InstanceFormatError(
            f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        _check_identifiers(doc, path)
        inst = instance_from_dict(doc, base_dir=base_dir)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        if isinstance(exc, (InstanceFormatError, InvalidInstanceError)):
            raise
        raise InstanceFormatError(f"{path}: malformed instance: {exc}") from exc
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)
    return inst


# Fields that key the validator's sets and dicts, by section of the document.
_IDENTIFIER_FIELDS = (
    ("buses", ("id",)), ("gen_techs", ("id",)), ("storage_techs", ("id",)),
    ("load_techs", ("id",)), ("branches", ("id", "from_bus", "to_bus")),
    ("scenarios", ("id",)), ("policies", ("handle",)),
)


def _check_identifiers(doc: dict, path) -> None:
    """Reject an identifier given as a JSON array or object, which cannot key a set or dict."""
    for section, keys in _IDENTIFIER_FIELDS:
        for i, entry in enumerate(doc.get(section, ())):
            for key in keys:
                value = entry.get(key) if isinstance(entry, dict) else None
                if isinstance(value, (list, dict)):
                    shape = "array" if isinstance(value, list) else "object"
                    raise InstanceFormatError(
                        f"{path}: {section}[{i}].{key}: identifier must be a string, "
                        f"not a JSON {shape}")


def instance_from_dict(doc: dict, base_dir: str = ".") -> PlanningInstance:
    gens = tuple(GenTech(
        id=g["id"], integrality=g["integrality"],
        **_numbers(g, f"gen_techs[{g['id']}]", "fixed_cost", "variable_cost",
                   emission_factor=0.0),
        unit_size_mw=(_number(g["unit_size_mw"], f"gen_techs[{g['id']}].unit_size_mw")
                      if g.get("unit_size_mw") is not None else None),
    ) for g in doc.get("gen_techs", ()))
    stos = tuple(StorageTech(
        id=s["id"], **_numbers(s, f"storage_techs[{s['id']}]", "fixed_cost", "variable_cost",
                               "duration_h", "eff_charge", "eff_discharge"),
    ) for s in doc.get("storage_techs", ()))
    loads = tuple(_load_from_dict(d) for d in doc.get("load_techs", ()))
    branches = tuple(Branch(
        id=l["id"], from_bus=l["from_bus"], to_bus=l["to_bus"],
        status=l.get("status", EXISTING),
        **_numbers(l, f"branches[{l['id']}]", "susceptance", "capacity_mw", fixed_cost=0.0),
    ) for l in doc.get("branches", ()))
    buses = tuple(Bus(
        id=b["id"], **{key: _number_map(b.get(key, {}), f"buses[{b['id']}].{key}") for key in (
            "existing_gen", "existing_storage", "build_limit_gen", "build_limit_storage",
            "build_limit_load")},
    ) for b in doc.get("buses", ()))
    bus_ids = [b.id for b in buses]
    gen_ids = [g.id for g in gens]
    scenarios = tuple(
        _scenario_from_dict(s, bus_ids, gen_ids, base_dir) for s in doc.get("scenarios", ()))
    policies = tuple(ExpectationConstraintSpec(
        kind=EXPECTED_OUTPUT,
        handle=p["handle"],
        q=_number_map(p.get("q", {}), f"policies[{p['handle']}].q"),
        r=_number_map(p.get("r", {}), f"policies[{p['handle']}].r"),
        **_numbers(p, f"policies[{p['handle']}]", threshold=0.0),
    ) for p in doc.get("policies", ()))
    return PlanningInstance(
        name=doc.get("name", "instance"),
        buses=buses, gen_techs=gens, storage_techs=stos, load_techs=loads,
        branches=branches, scenarios=scenarios, expectation_policies=policies,
        **_numbers(doc, "", "period_length_h", "shed_cost", annualization_days=365.0,
                   big_m_angle_spread=2.0 * math.pi),
    )


def _number(value, where: str) -> float:
    """A JSON number as a float. Anything else, a boolean or a string of
    digits too, is an InstanceFormatError naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{where}: must be a JSON number")
    return float(value)


def _numbers(entry: dict, where: str, *required: str, **defaults: float) -> dict:
    """``{key: float}`` of the JSON numbers ``entry`` holds under each required
    key and each key of ``defaults``, whose value stands in when it is absent."""
    values = {key: entry[key] for key in required}
    values.update((key, entry.get(key, default)) for key, default in defaults.items())
    return {key: _number(v, f"{where}.{key}" if where else key) for key, v in values.items()}


def _number_map(mapping: Mapping, where: str) -> dict:
    return {k: _number(v, f"{where}.{k}") for k, v in mapping.items()}


def _load_from_dict(d: dict) -> LargeLoadTech:
    where = f"load_techs[{d['id']}]"
    mandate = d.get("mandate")
    if mandate is not None:
        units = _number(mandate["min_units"], f"{where}.mandate.min_units")
        if units != int(units):  # int() rejects a non-finite count itself
            raise InstanceFormatError(f"{where}.mandate.min_units: must be a whole number")
        equality = mandate.get("equality", False)
        if not isinstance(equality, bool):
            raise InstanceFormatError(f"{where}.mandate.equality: must be true or false")
        mandate = Mandate(min_units=int(units), equality=equality)
    return LargeLoadTech(
        id=d["id"], mandate=mandate,
        tiers=TierSpec(**{key: tuple(_number(v, f"{where}.tiers.{key}")
                                     for v in d["tiers"][key]) for key in ("u", "phi")}),
        **_numbers(d, where, "unit_size_mw", "fixed_cost", "variable_cost",
                   capture_factor=0.0),
    )


def _scenario_from_dict(s: dict, bus_ids, gen_ids, base_dir) -> Scenario:
    sid = s["id"]
    demand_src = s["demand"]
    avail_src = s["availability"]
    if isinstance(demand_src, dict) and "csv" in demand_src:
        demand = _read_demand_csv(os.path.join(base_dir, demand_src["csv"]), bus_ids, sid)
    else:
        try:
            demand = np.array([[_number(v, f"scenarios[{sid}].demand.{b}")
                                for v in demand_src[b]] for b in bus_ids])
        except KeyError as exc:
            raise InstanceFormatError(
                f"scenarios[{sid}].demand: missing series for bus {exc}") from exc
        except InstanceFormatError:
            raise
        except ValueError as exc:
            raise InstanceFormatError(
                f"scenarios[{sid}].demand: series lengths disagree across buses "
                f"({exc})") from exc
    if isinstance(avail_src, dict) and "csv" in avail_src:
        avail = _read_availability_csv(os.path.join(base_dir, avail_src["csv"]),
                                       bus_ids, gen_ids, sid)
    else:
        try:
            avail = np.array([[[_number(v, f"scenarios[{sid}].availability.{b}.{g}")
                                 for v in avail_src[b][g]] for g in gen_ids]
                              for b in bus_ids])
        except KeyError as exc:
            raise InstanceFormatError(
                f"scenarios[{sid}].availability: missing series for {exc}") from exc
        except InstanceFormatError:
            raise
        except ValueError as exc:
            raise InstanceFormatError(
                f"scenarios[{sid}].availability: series lengths disagree "
                f"({exc})") from exc
    return Scenario(id=sid, demand=demand, availability=avail,
                    **_numbers(s, f"scenarios[{sid}]", "probability"))


def _read_csv_table(path, table_name):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise InstanceFormatError(f"{table_name}: cannot read '{path}': {exc}") from exc
    if not lines:
        raise InstanceFormatError(f"{table_name}: '{path}' is empty")
    header = lines[0].split(",")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise InstanceFormatError(
                f"{table_name}: '{path}' line {i} has {len(cells)} cells, "
                f"expected {len(header)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise InstanceFormatError(f"{table_name}: '{path}' line {i}: {exc}") from exc
    return header, np.array(rows)  # rows: one per period


def _read_demand_csv(path, bus_ids, sid) -> np.ndarray:
    table = f"scenarios[{sid}].demand"
    header, rows = _read_csv_table(path, table)
    if header != list(bus_ids):
        raise InstanceFormatError(
            f"{table}: '{path}' columns {header} do not match buses {list(bus_ids)}")
    return rows.T.copy()  # (bus, period)


def _read_availability_csv(path, bus_ids, gen_ids, sid) -> np.ndarray:
    table = f"scenarios[{sid}].availability"
    header, rows = _read_csv_table(path, table)
    expected = [f"{b}:{g}" for b in bus_ids for g in gen_ids]
    if header != expected:
        raise InstanceFormatError(
            f"{table}: '{path}' columns do not match expected bus:tech pairs {expected}")
    n_t = rows.shape[0]
    out = np.zeros((len(bus_ids), len(gen_ids), n_t))
    for col, name in enumerate(header):
        bi = col // len(gen_ids)
        gi = col % len(gen_ids)
        out[bi, gi, :] = rows[:, col]
    return out


# ---------------------------------------------------------------------------
# Report file set
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return fmt_num(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(c) for c in row) + "\n")


def save_report(report: SolveReport, out_dir) -> list[str]:
    """Write the report file set; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    p = os.path.join(out_dir, "buildout.csv")
    _write_csv(p, ["bus", "kind", "tech", "existing", "built", "built_mw"],
               [(r.bus, r.kind, r.tech, r.existing, r.built, r.built_mw)
                for r in report.buildout])
    paths.append(p)

    p = os.path.join(out_dir, "costs.csv")
    c = report.costs
    rows = []
    if c is not None:
        rows = [
            ("invest_transmission", c.invest_transmission),
            ("invest_generation", c.invest_generation),
            ("invest_storage", c.invest_storage),
            ("invest_load", c.invest_load),
            ("investment_total", c.investment),
            ("op_shedding", c.op_shedding),
            ("op_generation", c.op_generation),
            ("op_storage", c.op_storage),
            ("op_load", c.op_load),
            ("operation_total", c.operation),
            ("total", c.total),
        ]
    _write_csv(p, ["component", "value"], rows)
    paths.append(p)

    p = os.path.join(out_dir, "reliability.csv")
    _write_csv(p, ["bus", "tech", "tier", "required_phi", "achieved", "width", "units"],
               [(r.bus, r.tech, r.tier, r.required_phi, r.achieved, r.width, r.units)
                for r in report.reliability])
    paths.append(p)

    p = os.path.join(out_dir, "emissions.csv")
    _write_csv(p, ["handle", "lhs", "threshold", "sigma_bar"],
               [(r.handle, r.lhs, r.threshold, r.sigma_bar) for r in report.policies])
    paths.append(p)

    p = os.path.join(out_dir, "trace.csv")
    _write_csv(p, ["iteration", "consensus_metric", "max_abs_sigma_bar",
                   "lower_bound", "upper_bound", "wall_time_s"],
               [(r.iteration, r.consensus, r.sigma_violation, r.lower_bound,
                 r.upper_bound, r.wall_time_s) for r in report.trace])
    paths.append(p)
    return paths

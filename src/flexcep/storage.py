"""On-disk schemas: JSON instance files, CSV time series, CSV report sets.

The instance format is a single JSON document (schema_version 1) whose
scenario time series are either inline or in sibling CSV files referenced by
relative path. Serialization is canonical: fixed key order, UTF-8, LF line
endings, and 9-significant-digit numeric formatting, so save(load(f)) is a
fixed point and report directories are byte-stable.

Each catalog record (gen, storage and load techs, branches, buses, policies)
is written with the fields of its ``core`` dataclass in declaration order,
but those its section's rule in ``_OMIT`` leaves out. A key that is optional
in ``core`` and absent from the file takes ``core``'s default; this module
restates none.

Units are fixed by the schema: MW, MWh, hours, $/y, $/MWh; expected-output
policy coefficients are per MWh, thresholds per representative horizon.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
from dataclasses import fields, is_dataclass
from typing import Mapping

import numpy as np

from . import core
from .core import (
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
    for section in ("gen_techs", "storage_techs", "load_techs", "branches", "buses"):
        doc[section] = [_record(r, _OMIT.get(section)) for r in getattr(inst, section)]
    doc["scenarios"] = [{
        "id": s.id,
        "probability": s.probability,
        "demand": {b.id: list(s.demand[i]) for i, b in enumerate(inst.buses)},
        "availability": {
            b.id: {g.id: list(s.availability[i, j]) for j, g in enumerate(inst.gen_techs)}
            for i, b in enumerate(inst.buses)},
    } for s in inst.scenarios]
    doc["policies"] = [_record(p, _OMIT["policies"]) for p in inst.expectation_policies]
    return doc


# The fields a record of a section leaves out of the file. Read back, each
# takes core's default; every policy in the file is an expected-output one.
_OMIT = {
    "gen_techs": lambda g: ("unit_size_mw",) if g.unit_size_mw is None else (),
    "branches": lambda l: () if l.is_candidate else ("fixed_cost",),
    "policies": lambda p: ("kind", "bus", "load_tech", "tier"),
}


def _record(record, omit=None) -> dict:
    """The fields of the core record ``record`` in declaration order, but
    those ``omit(record)`` names: a nested record as an object, a map with
    its keys sorted."""
    skip = omit(record) if omit else ()
    out = {}
    for f in fields(record):
        if f.name in skip:
            continue
        value = getattr(record, f.name)
        if is_dataclass(value):
            value = _record(value)
        elif isinstance(value, Mapping):
            value = {k: value[k] for k in sorted(value)}
        out[f.name] = value
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
        _check_identifiers(doc)
        inst = instance_from_dict(doc, base_dir=base_dir)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{path}: malformed instance: {exc}") from exc
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)
    return inst


# core's identifier fields by section of the document, which names
# ``expectation_policies`` ``policies``
_IDENTIFIER_FIELDS = tuple(({"expectation_policies": "policies"}.get(section, section), keys)
                           for section, keys in core._IDENTIFIER_FIELDS)


def _check_identifiers(doc: dict) -> None:
    """Reject an identifier given as a JSON array or object, which cannot key a set or dict."""
    for section, keys in _IDENTIFIER_FIELDS:
        for i, entry in enumerate(doc.get(section, ())):
            for key in keys:
                value = entry.get(key) if isinstance(entry, dict) else None
                if isinstance(value, (list, dict)):
                    shape = "array" if isinstance(value, list) else "object"
                    raise InstanceFormatError(
                        f"{section}[{i}].{key}: identifier must be a string, "
                        f"not a JSON {shape}")


def instance_from_dict(doc: dict, base_dir: str = ".") -> PlanningInstance:
    name = doc.get("name", "instance")
    if not isinstance(name, str):
        raise InstanceFormatError("name: must be a JSON string")
    gens = tuple(GenTech(
        id=g["id"], integrality=g["integrality"],
        **_numbers(g, f"gen_techs[{g['id']}]", "fixed_cost", "variable_cost",
                   optional=("emission_factor", "unit_size_mw")),
    ) for g in doc.get("gen_techs", ()))
    stos = tuple(StorageTech(
        id=s["id"], **_numbers(s, f"storage_techs[{s['id']}]", "fixed_cost", "variable_cost",
                               "duration_h", "eff_charge", "eff_discharge"),
    ) for s in doc.get("storage_techs", ()))
    loads = tuple(_load_from_dict(d) for d in doc.get("load_techs", ()))
    branches = tuple(Branch(
        id=l["id"], from_bus=l["from_bus"], to_bus=l["to_bus"], **_optional(l, "status"),
        **_numbers(l, f"branches[{l['id']}]", "susceptance", "capacity_mw",
                   optional=("fixed_cost",)),
    ) for l in doc.get("branches", ()))
    buses = tuple(Bus(
        id=b["id"], **_number_maps(b, f"buses[{b['id']}]", "existing_gen", "existing_storage",
                                   "build_limit_gen", "build_limit_storage", "build_limit_load"),
    ) for b in doc.get("buses", ()))
    bus_ids = [b.id for b in buses]
    gen_ids = [g.id for g in gens]
    scenarios = tuple(
        _scenario_from_dict(s, bus_ids, gen_ids, base_dir) for s in doc.get("scenarios", ()))
    policies = tuple(ExpectationConstraintSpec(
        kind=EXPECTED_OUTPUT,
        handle=p["handle"],
        **_number_maps(p, f"policies[{p['handle']}]", "q", "r"),
        **_numbers(p, f"policies[{p['handle']}]", optional=("threshold",)),
    ) for p in doc.get("policies", ()))
    return PlanningInstance(
        name=name,
        buses=buses, gen_techs=gens, storage_techs=stos, load_techs=loads,
        branches=branches, scenarios=scenarios, expectation_policies=policies,
        **_numbers(doc, "", "period_length_h", "shed_cost",
                   optional=("annualization_days", "big_m_angle_spread")),
    )


def _number(value, where: str) -> float:
    """A JSON number as a float. Anything else, a boolean or a string of
    digits too, is an InstanceFormatError naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{where}: must be a JSON number")
    return float(value)


# The optional keys whose core default is None, which a JSON null stands for too.
_NULLABLE = ("unit_size_mw", "mandate")


def _optional(entry: dict, *keys: str) -> dict:
    """``entry``'s values under those of ``keys`` it sets. A key that is
    absent, or null in ``_NULLABLE``, is left out, so that core's default
    applies."""
    return {key: entry[key] for key in keys
            if key in entry and not (entry[key] is None and key in _NULLABLE)}


def _numbers(entry: dict, where: str, *required: str, optional=()) -> dict:
    """``{key: float}`` of the JSON numbers ``entry`` holds under each required
    key and each ``optional`` key it sets."""
    values = {key: entry[key] for key in required} | _optional(entry, *optional)
    return {key: _number(v, f"{where}.{key}" if where else key) for key, v in values.items()}


def _number_maps(entry: dict, where: str, *optional: str) -> dict:
    """``{key: {name: float}}`` of the maps of JSON numbers ``entry`` sets
    under the ``optional`` keys."""
    return {key: {k: _number(v, f"{where}.{key}.{k}") for k, v in m.items()}
            for key, m in _optional(entry, *optional).items()}


def _load_from_dict(d: dict) -> LargeLoadTech:
    where = f"load_techs[{d['id']}]"
    extra = _optional(d, "mandate")
    if extra:
        m = extra["mandate"]
        units = _number(m["min_units"], f"{where}.mandate.min_units")
        if units != int(units):  # int() rejects a non-finite count itself
            raise InstanceFormatError(f"{where}.mandate.min_units: must be a whole number")
        flags = _optional(m, "equality")
        if not all(isinstance(v, bool) for v in flags.values()):
            raise InstanceFormatError(f"{where}.mandate.equality: must be true or false")
        extra["mandate"] = Mandate(min_units=int(units), **flags)
    return LargeLoadTech(
        id=d["id"], **extra,
        tiers=TierSpec(**{key: tuple(_number(v, f"{where}.tiers.{key}")
                                     for v in d["tiers"][key]) for key in ("u", "phi")}),
        **_numbers(d, where, "unit_size_mw", "fixed_cost", "variable_cost",
                   optional=("capture_factor",)),
    )


def _scenario_from_dict(s: dict, bus_ids, gen_ids, base_dir) -> Scenario:
    sid = s["id"]
    where = f"scenarios[{sid}]"
    demand = _series(s["demand"], [(b,) for b in bus_ids], f"{where}.demand", base_dir)
    avail = _series(s["availability"], [(b, g) for b in bus_ids for g in gen_ids],
                    f"{where}.availability", base_dir)
    # with no gen columns the availability has no periods of its own
    avail = avail.reshape(len(bus_ids), len(gen_ids),
                          avail.shape[1] if gen_ids else demand.shape[1])
    return Scenario(id=sid, demand=demand, availability=avail,
                    **_numbers(s, where, "probability"))


def _series(src, keys, where: str, base_dir) -> np.ndarray:
    """The time series ``keys`` name, as a ``(len(keys), periods)`` array.

    Inline, row i is the list at ``src[k0][k1]...`` for ``keys[i] = (k0, k1,
    ...)``; in the CSV file ``{"csv": path}`` names, relative to
    ``base_dir``, it is the column headed ``k0:k1...``, one row per period.
    A file with a header and no rows gives zero periods.
    """
    if isinstance(src, dict) and "csv" in src:
        path = os.path.join(base_dir, src["csv"])
        header, rows = _read_csv_table(path, where)
        expected = [":".join(map(str, key)) for key in keys]
        if header != expected:
            raise InstanceFormatError(
                f"{where}: '{path}' columns {header} do not match {expected}")
        series = [[row[i] for row in rows] for i in range(len(keys))]
    else:
        series = []
        for key in keys:
            name = ".".join(map(str, key))
            try:
                values = functools.reduce(operator.getitem, key, src)
            except KeyError as exc:
                raise InstanceFormatError(f"{where}: missing series for {name}") from exc
            series.append([_number(v, f"{where}.{name}") for v in values])
    lengths = sorted({len(row) for row in series})
    if len(lengths) > 1:
        raise InstanceFormatError(f"{where}: series lengths disagree ({lengths})")
    return np.array(series, dtype=float).reshape(len(keys), lengths[0] if lengths else 0)


def _read_csv_table(path, table_name) -> tuple[list[str], list[list[float]]]:
    """The header and the rows of numbers of a CSV file, one row per period."""
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
    return header, rows


# ---------------------------------------------------------------------------
# Report file set
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return fmt_num(value)


def save_report(report: SolveReport, out_dir) -> list[str]:
    """Write the report file set; returns the written paths.

    A costs row names a ``CostBreakdown`` attribute, with ``_total`` on its
    two subtotals.
    """
    c = report.costs
    costs = [] if c is None else [(name, getattr(c, name.removesuffix("_total"))) for name in (
        "invest_transmission", "invest_generation", "invest_storage", "invest_load",
        "investment_total", "op_shedding", "op_generation", "op_storage", "op_load",
        "operation_total", "total")]
    files = (
        ("buildout.csv", ("bus", "kind", "tech", "existing", "built", "built_mw"),
         [(r.bus, r.kind, r.tech, r.existing, r.built, r.built_mw) for r in report.buildout]),
        ("costs.csv", ("component", "value"), costs),
        ("reliability.csv",
         ("bus", "tech", "tier", "required_phi", "achieved", "width", "units"),
         [(r.bus, r.tech, r.tier, r.required_phi, r.achieved, r.width, r.units)
          for r in report.reliability]),
        ("emissions.csv", ("handle", "lhs", "threshold", "sigma_bar"),
         [(r.handle, r.lhs, r.threshold, r.sigma_bar) for r in report.policies]),
        ("trace.csv", ("iteration", "consensus_metric", "max_abs_sigma_bar",
                       "lower_bound", "upper_bound", "wall_time_s"),
         [(r.iteration, r.consensus, r.sigma_violation, r.lower_bound, r.upper_bound,
           r.wall_time_s) for r in report.trace]),
    )
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, header, rows in files:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(_csv_cell, row)) + "\n")
        paths.append(path)
    return paths

"""LP-format (CPLEX-LP dialect) writer and parser.

The writer emits a deterministic file: objective terms in column order, one
constraint per line in row order, and a Bounds section listing every column
in order. The parser reads that output and nothing else (see
:func:`parse_lp`), since the only LP file the program reads is one it wrote
for the subprocess backend's solver binary; it reconstructs the exact model
(same column order, names and coefficients), which is what that backend and
the golden-file tests rely on. The objective may end in a constant offset;
quadratic objectives are not representable here (expand them to their
piecewise-linear form first).
"""

from __future__ import annotations

import math
from typing import Iterable, TextIO

from .canonical import (
    CanonicalModel,
    EQ,
    GE,
    INF,
    LE,
    ModelBuilder,
    ModelError,
)


def _fmt(value: float) -> str:
    if value == INF:
        return "1e+30"
    if value == -INF:
        return "-1e+30"
    if value == 0.0:
        return "0.0"  # canonicalize -0.0
    return repr(float(value))


def _terms(coeffs: Iterable[tuple[str, float]]) -> str:
    parts: list[str] = []
    for name, val in coeffs:
        if val >= 0:
            parts.append(f"+ {_fmt(val)} {name}")
        else:
            parts.append(f"- {_fmt(-val)} {name}")
    return " ".join(parts) if parts else "+ 0 dummy__"


def write_lp(model: CanonicalModel, fh: TextIO) -> None:
    """Write ``model`` to ``fh`` in deterministic LP format."""
    if model.quad:
        raise ModelError("LP files carry linear objectives only; "
                         "expand quadratic terms before writing")
    names = model.var_names
    fh.write(f"\\ {model.name}\n")
    fh.write("Minimize\n")
    obj_terms = [(names[i], float(c)) for i, c in enumerate(model.obj) if c]
    line = f" obj: {_terms(obj_terms)}"
    if model.obj_offset:
        line += f" + {_fmt(model.obj_offset)}" if model.obj_offset > 0 \
            else f" - {_fmt(-model.obj_offset)}"
    fh.write(line + "\n")
    fh.write("Subject To\n")
    sense_txt = {LE: "<=", EQ: "=", GE: ">="}
    for i in range(model.num_rows):
        coeffs = [(names[c], v) for c, v in model.row_coeffs(i)]
        fh.write(f" {model.row_names[i]}: {_terms(coeffs)} "
                 f"{sense_txt[int(model.row_sense[i])]} {_fmt(float(model.row_rhs[i]))}\n")
    fh.write("Bounds\n")
    for i, name in enumerate(names):
        lb, ub = float(model.var_lb[i]), float(model.var_ub[i])
        if lb == ub:
            fh.write(f" {name} = {_fmt(lb)}\n")
        elif lb == -INF and ub == INF:
            fh.write(f" {name} free\n")
        else:
            fh.write(f" {_fmt(lb)} <= {name} <= {_fmt(ub)}\n")
    integers = [names[i] for i in range(model.num_vars) if model.var_integer[i]]
    if integers:
        fh.write("Generals\n")
        for name in integers:
            fh.write(f" {name}\n")
    fh.write("End\n")


def write_lp_file(model: CanonicalModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_lp(model, fh)


class LpParseError(ValueError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


_SECTIONS = {"Minimize": "objective", "Subject To": "rows", "Bounds": "bounds",
             "Generals": "generals", "End": "end"}
_SENSES = {"<=": LE, "=": EQ, ">=": GE}
_EMPTY = "dummy__"  # the writer's placeholder term of an empty expression


def _number(tok: str, lineno: int) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise LpParseError(f"expected a number, got '{tok}'", lineno) from None
    return math.copysign(INF, value) if abs(value) == 1e30 else value


def _signed(sign: str, tok: str, lineno: int) -> float:
    if sign not in ("+", "-"):
        raise LpParseError(f"expected '+' or '-', got '{sign}'", lineno)
    value = _number(tok, lineno)
    return value if sign == "+" else -value


def _read_terms(tokens: list[str], lineno: int, columns: dict[str, int]):
    """``+|- coef name`` triples as ``(column, coefficient)`` pairs."""
    if len(tokens) % 3:
        raise LpParseError("expected '+|- coefficient name' terms", lineno)
    out = []
    for sign, coef, name in zip(tokens[0::3], tokens[1::3], tokens[2::3]):
        value = _signed(sign, coef, lineno)
        if name == _EMPTY:
            continue
        if name not in columns:
            raise LpParseError(f"column '{name}' is not declared in Bounds", lineno)
        out.append((columns[name], value))
    return out


def _label(tokens: list[str], lineno: int) -> tuple[str, list[str]]:
    if not tokens[0].endswith(":"):
        raise LpParseError(f"expected 'label:', got '{tokens[0]}'", lineno)
    return tokens[0][:-1], tokens[1:]


def _bound(tokens: list[str], lineno: int) -> tuple[str, float, float]:
    """``(column, lb, ub)`` of one of the writer's three bound forms."""
    if len(tokens) == 2 and tokens[1] == "free":
        return tokens[0], -INF, INF
    if len(tokens) == 3 and tokens[1] == "=":
        value = _number(tokens[2], lineno)
        return tokens[0], value, value
    if len(tokens) == 5 and tokens[1] == tokens[3] == "<=":
        return tokens[2], _number(tokens[0], lineno), _number(tokens[4], lineno)
    raise LpParseError(f"unrecognized bound line: {' '.join(tokens)}", lineno)


def parse_lp(text: str) -> CanonicalModel:
    """Rebuild a CanonicalModel from LP text written by :func:`write_lp`.

    Only what the writer emits is read: its five section headers, unindented;
    indented content lines; terms as ``+|- coef name`` triples and ``+-1e+30``
    as +-inf; its three bound forms. Columns are created in Bounds order, and
    every column a term or Generals names must be declared there. Anything
    else raises :class:`LpParseError` naming its line.
    """
    name = "model"
    section = None
    lines: dict[str, list[tuple[int, list[str]]]] = {
        "objective": [], "rows": [], "bounds": [], "generals": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if lineno == 1 and raw.startswith("\\"):
            name = raw[1:].strip() or name
        elif not raw.strip():
            continue
        elif not raw.startswith(" "):
            section = _SECTIONS.get(raw.rstrip())
            if section is None:
                raise LpParseError(f"unknown section header '{raw.strip()}'", lineno)
            if section == "end":
                break
        elif section is None:
            raise LpParseError("content before any section header", lineno)
        else:
            lines[section].append((lineno, raw.split()))

    mb = ModelBuilder(name=name)
    integer = {col: lineno for lineno, tokens in lines["generals"] for col in tokens}
    columns: dict[str, int] = {}
    for lineno, tokens in lines["bounds"]:
        col, lb, ub = _bound(tokens, lineno)
        if col == _EMPTY or col in columns:
            raise LpParseError(f"column '{col}' is reserved or declared twice", lineno)
        columns[col] = mb.add_var(col, lb=lb, ub=ub, integer=col in integer)
    for col, lineno in integer.items():
        if col not in columns:
            raise LpParseError(f"column '{col}' is not declared in Bounds", lineno)

    for lineno, tokens in lines["objective"]:
        _, tokens = _label(tokens, lineno)
        if len(tokens) % 3 == 2:  # a trailing constant offset
            mb.add_obj_offset(_signed(*tokens[-2:], lineno))
            tokens = tokens[:-2]
        for col, coef in _read_terms(tokens, lineno, columns):
            mb.add_obj(col, coef)
    for lineno, tokens in lines["rows"]:
        label, tokens = _label(tokens, lineno)
        if len(tokens) < 2 or tokens[-2] not in _SENSES:
            raise LpParseError(f"constraint '{label}' has no comparison", lineno)
        mb.add_row(label, _read_terms(tokens[:-2], lineno, columns), _SENSES[tokens[-2]],
                   _number(tokens[-1], lineno))
    return mb.freeze()


def parse_lp_file(path) -> CanonicalModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lp(fh.read())

"""Solver-agnostic linear/mixed-integer program representation.

A :class:`CanonicalModel` stores variables (bounds + integrality), sparse
linear constraints in CSR form, and a linear objective with an optional
diagonal quadratic part of the form ``sum coef * (x - anchor)^2`` used for
proximal terms. Models are immutable after construction; transformations
(`restrict_bounds`, which also pins a column with a ``(v, v)`` band,
`relax_integrality`, objective swaps) return copies that share untouched
arrays.

The :class:`VariableIndex` maps solver columns to semantic coordinates such
as ``("xG", bus, tech)`` or ``("pDK", bus, tech, k, t, scenario)``; it is the
one record of what a model's columns mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse

INF = float("inf")

LE, EQ, GE = -1, 0, 1


class ModelError(ValueError):
    """Raised for structurally invalid models or invalid model edits."""


@dataclass(frozen=True)
class QuadTerm:
    """Objective term ``coef * (x[col] - anchor)**2`` with ``coef > 0``."""

    col: int
    coef: float
    anchor: float


@dataclass(frozen=True)
class CanonicalModel:
    """Immutable LP/MILP in minimize form."""

    var_lb: np.ndarray
    var_ub: np.ndarray
    var_integer: np.ndarray  # bool per column
    a_indptr: np.ndarray
    a_indices: np.ndarray
    a_data: np.ndarray
    row_sense: np.ndarray  # int8 of LE/EQ/GE
    row_rhs: np.ndarray
    obj: np.ndarray
    quad: tuple[QuadTerm, ...] = ()
    name: str = "model"

    @property
    def num_vars(self) -> int:
        return int(self.var_lb.shape[0])

    @property
    def num_rows(self) -> int:
        return int(self.row_rhs.shape[0])

    def matrix(self) -> sparse.csr_matrix:
        return sparse.csr_matrix(
            (self.a_data, self.a_indices, self.a_indptr),
            shape=(self.num_rows, self.num_vars),
        )

    def with_objective(self, obj: np.ndarray, quad: tuple[QuadTerm, ...] = ()) -> "CanonicalModel":
        """Copy with a replaced objective; constraints and bounds are shared."""
        obj = np.asarray(obj, dtype=float)
        if obj.shape != (self.num_vars,):
            raise ModelError(f"objective length {obj.shape} does not match {self.num_vars} columns")
        obj = obj.copy()
        obj.setflags(write=False)
        return replace(self, obj=obj, quad=tuple(quad))

    def check(self) -> None:
        """Raise ModelError on structural defects (bad bounds, bad column refs)."""
        if np.any(self.var_lb > self.var_ub + 1e-15):
            bad = int(np.argmax(self.var_lb > self.var_ub + 1e-15))
            raise ModelError(f"column {bad} has lower bound above upper")
        if self.a_indices.size and (self.a_indices.min() < 0 or self.a_indices.max() >= self.num_vars):
            raise ModelError("constraint row references a nonexistent column")


class ModelBuilder:
    """Accumulates variables and rows, then freezes into a CanonicalModel."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integer: list[bool] = []
        self._obj: list[float] = []
        self._rows: list[list[tuple[int, float]]] = []
        self._sense: list[int] = []
        self._rhs: list[float] = []

    def add_var(self, lb: float = 0.0, ub: float = INF,
                integer: bool = False, obj: float = 0.0) -> int:
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._integer.append(bool(integer))
        self._obj.append(float(obj))
        return len(self._lb) - 1

    def add_row(self, coeffs: Iterable[tuple[int, float]], sense: int, rhs: float) -> int:
        # Merge duplicate columns so each row holds a single term per column.
        merged: dict[int, float] = {}
        for col, val in coeffs:
            if val:
                merged[col] = merged.get(col, 0.0) + float(val)
        row = sorted(merged.items())
        self._rows.append(row)
        self._sense.append(int(sense))
        self._rhs.append(float(rhs))
        return len(self._rows) - 1

    def freeze(self) -> CanonicalModel:
        indptr = np.zeros(len(self._rows) + 1, dtype=np.int64)
        nnz = sum(len(r) for r in self._rows)
        indices = np.zeros(nnz, dtype=np.int64)
        data = np.zeros(nnz, dtype=float)
        pos = 0
        for i, row in enumerate(self._rows):
            for col, val in row:
                indices[pos] = col
                data[pos] = val
                pos += 1
            indptr[i + 1] = pos
        model = CanonicalModel(
            var_lb=_frozen(self._lb),
            var_ub=_frozen(self._ub),
            var_integer=_frozen(self._integer, bool),
            a_indptr=_frozen(indptr, np.int64),
            a_indices=_frozen(indices, np.int64),
            a_data=_frozen(data),
            row_sense=_frozen(self._sense, np.int8),
            row_rhs=_frozen(self._rhs),
            obj=_frozen(self._obj),
            name=self.name,
        )
        model.check()
        return model


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Variable index
# ---------------------------------------------------------------------------

Coord = tuple


@dataclass(frozen=True)
class VariableIndex:
    """Bidirectional map between model columns and semantic coordinates."""

    coords: tuple[Coord, ...]
    _by_coord: dict = field(repr=False, default=None)

    def __post_init__(self):
        by_coord = {c: i for i, c in enumerate(self.coords)}
        if len(by_coord) != len(self.coords):
            raise ModelError("duplicate semantic coordinate in variable index")
        object.__setattr__(self, "_by_coord", by_coord)

    def column(self, coord: Coord) -> int:
        return self._by_coord[coord]

    def coord(self, col: int) -> Coord:
        return self.coords[col]

    def __contains__(self, coord: Coord) -> bool:
        return coord in self._by_coord

    def __len__(self) -> int:
        return len(self.coords)

    def columns_of_kind(self, *kinds: str) -> list[int]:
        return [i for i, c in enumerate(self.coords) if c[0] in kinds]


# ---------------------------------------------------------------------------
# Solve result
# ---------------------------------------------------------------------------

OPTIMAL = "optimal"
FEASIBLE_WITH_GAP = "feasible_with_gap"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT_REACHED = "limit_reached"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one backend solve."""

    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    mip_gap: float | None = None


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def relax_integrality(model: CanonicalModel) -> CanonicalModel:
    """Clear every integrality flag; bounds and rows unchanged. Idempotent."""
    if not model.var_integer.any():
        return model
    flags = np.zeros_like(model.var_integer)
    flags.setflags(write=False)
    return replace(model, var_integer=flags)


def restrict_bounds(model: CanonicalModel,
                    bands: Mapping[int, tuple[float, float]]) -> CanonicalModel:
    """Narrow column boxes; the result is a restriction of the input model.

    A ``(v, v)`` band pins a column to ``v``. A band that leaves a column's
    box empty, or names a column the model does not have, raises ModelError.
    """
    lb = model.var_lb.copy()
    ub = model.var_ub.copy()
    for col, (lo, hi) in bands.items():
        col = int(col)
        if not (0 <= col < model.num_vars):
            raise ModelError(f"cannot restrict unknown column {col}")
        lo = max(float(lo), lb[col])
        hi = min(float(hi), ub[col])
        if lo > hi + 1e-12:
            raise ModelError(
                f"band for column {col} is empty within its box")
        lb[col] = lo
        ub[col] = max(hi, lo)
    lb.setflags(write=False)
    ub.setflags(write=False)
    return replace(model, var_lb=lb, var_ub=ub)


def objective_value(model: CanonicalModel, x: np.ndarray) -> float:
    """Evaluate the model objective (including quadratic terms) at ``x``."""
    val = float(model.obj @ x)
    for term in model.quad:
        dx = x[term.col] - term.anchor
        val += term.coef * dx * dx
    return val

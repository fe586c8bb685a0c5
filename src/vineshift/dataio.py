"""CSV ingestion and the in-memory dataset container.

CSV files are RFC-4180 style: UTF-8, comma separated, decimal points,
a mandatory header row. Column order defines variable indices at fit;
later uses match columns by name (Dataset.aligned). Every cell must
hold a finite number; nan and inf are parse errors.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError


def check_names(names) -> list:
    """The names rule of Dataset columns and VineModel variables: each name's str(), in order.

    A string, or anything else that is not a sequence of names, is a
    ValueError; a name given twice is a ParseError that names it.
    """
    if isinstance(names, str) or not isinstance(names, Iterable):
        raise ValueError(f"names must be a list of strings, got {names!r}")
    names = [str(s) for s in names]
    if len(set(names)) < len(names):
        repeated = next(s for i, s in enumerate(names) if s in names[:i])
        raise ParseError(f"name {repeated!r} is given twice")
    return names


@dataclass
class Dataset:
    names: list
    X: np.ndarray

    def __post_init__(self):
        self.names = check_names(self.names)
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if len(self.names) != self.X.shape[1]:
            raise ValueError("names length must match column count")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(f"no column named '{name}'") from None

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self._index(name)]

    def aligned(self, names, missing_ok=()) -> np.ndarray:
        """The columns called names, in that order; one in missing_ok may be absent (nan).

        Any other absent column, or a column not in names, is a SchemaError.
        """
        extra = [c for c in self.names if c not in names]
        if extra:
            raise SchemaError(f"unexpected columns {extra}; model knows {names}")
        out = np.full((self.n, len(names)), np.nan)
        for idx, name in enumerate(names):
            if name in self.names:
                out[:, idx] = self.column(name)
            elif name not in missing_ok:
                raise SchemaError(f"missing column '{name}'")
        return out

    def target_index(self, name: str | None = None) -> int:
        """Resolve the target column: by name, default last column."""
        return self.d - 1 if name is None else self._index(name)

    def drop(self, name: str) -> "Dataset":
        idx = self._index(name)
        return Dataset(self.names[:idx] + self.names[idx + 1:], np.delete(self.X, idx, axis=1))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _records(path):
    """path's CSV records; bad UTF-8 or a cell over csv.field_size_limit() is a ParseError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
        yield from reader
    except (UnicodeDecodeError, csv.Error) as exc:
        row = reader.line_num if isinstance(exc, csv.Error) else raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: row {row}: {exc}") from None


def read_csv(path) -> Dataset:
    """Parse a headered numeric CSV, with row/column diagnostics on failure."""
    records = _records(path)
    header = next(records, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if all(_is_number(h) for h in header):
        raise ParseError(f"{path}: first row looks numeric; a header row is required")
    try:
        header = check_names(header)
    except ParseError as err:
        raise ParseError(f"{path}: {err}") from None
    rows = []
    for line_no, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}")
        parsed = []
        for col, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {line_no}, column '{col}': non-numeric value {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: row {line_no}, column '{col}': non-finite value {cell!r}")
            parsed.append(value)
        rows.append(parsed)
    X = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return Dataset(header, X)


def write_csv(path, dataset: Dataset):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dataset.names)
        for row in dataset.X:
            writer.writerow([repr(float(v)) for v in row])


__all__ = ["Dataset", "check_names", "read_csv", "write_csv"]

"""Forecast case containers, file formats, and deterministic output.

Every file the package reads or writes goes through this module.  All
numeric output is serialized with 12 significant digits via
``fmt12``, and each per-case value is formatted once.  The summary
means that ``write_scores_csv`` returns are read back from that same
text, so a summary recomputed from a written per-case file reproduces
the written summary bit for bit.  Output never embeds timestamps or
environment details; identical inputs give byte-identical files.

CSV schemas
-----------
Single system (``read_cases_csv`` / ``write_cases_csv``)::

    case_id, forecast, obs

Paired systems (``read_paired_csv`` / ``write_paired_csv``)::

    case_id, forecast_a, forecast_b, obs

Rows pair two forecasts with one shared observation.

Ensemble (``veriscore.ensemble.read_ensemble_csv``)::

    case_id, obs, m1, ..., mk

One forecast case per row, read into an ``EnsembleSet``: the ids, the
observations (n,) and the members (n, k).  Each row stands for the
empirical CDF with jumps of size 1/k at the member values; the CRPS
kernel scores all rows at once and builds an ``EmpiricalCDF`` only for
a row that is asked for.

All three share one reader: the header must match exactly (a UTF-8
byte order mark is ignored), blank lines are skipped, case ids must be
non-empty and unique, every value must be a finite number, and errors
cite the file and line.  ``write_scores_csv`` writes per-case results,
``case_id`` followed by named numeric columns; the case writers and
the Murphy curve writer share its table writer.

JSON
----
``read_json`` reads a file holding one JSON object (CLI configs and
partition configs); ``write_json`` writes any JSON value in insertion
order with indent 2 and rejects NaN and infinities.
"""

from __future__ import annotations

import csv
import json
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "fmt12",
    "round12",
    "mean_of_rounded",
    "ForecastCase",
    "CaseSet",
    "read_cases_csv",
    "write_cases_csv",
    "read_paired_csv",
    "write_paired_csv",
    "write_scores_csv",
    "read_json",
    "write_json",
]

WRITE_BLOCK_ROWS = 8192  # rows formatted at a time: bounds the text held in memory


def fmt12(x) -> str:
    """Decimal string with 12 significant digits."""
    return f"{float(x):.12g}"


def round12(x) -> float:
    """Nearest float to the 12-significant-digit decimal of x."""
    return float(fmt12(x))


def _texts(values) -> list[str]:
    """``fmt12`` of every value, in one pass."""
    return [f"{v:.12g}" for v in np.asarray(values, dtype=float).ravel().tolist()]


def _parse(texts: list[str]) -> np.ndarray:
    return np.fromiter(map(float, texts), float, len(texts))


def mean_of_rounded(values) -> float:
    """Mean over the serialized (rounded) values, rounded once more.

    This is the mean a reader of the written per-case file would
    compute, which keeps written summaries reproducible from written
    cases.
    """
    return round12(np.mean(_parse(_texts(values))))


@dataclass(frozen=True)
class ForecastCase:
    """One point forecast and the matching observation."""

    case_id: str
    forecast: float
    observation: float


class CaseSet:
    """Aligned arrays of forecast cases for one forecast system."""

    def __init__(self, ids, forecasts, observations):
        ids = tuple(str(i) for i in ids)
        x = np.atleast_1d(np.asarray(forecasts, dtype=float))
        y = np.atleast_1d(np.asarray(observations, dtype=float))
        if x.ndim != 1 or x.shape != y.shape or len(ids) != x.size:
            raise ValidationError(
                "ids, forecasts and observations must have equal length"
            )
        if x.size == 0:
            raise ValidationError("a case set needs at least one case")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValidationError("forecasts and observations must be finite")
        if any(not i for i in ids):
            raise ValidationError("case ids must be non-empty")
        if len(set(ids)) != len(ids):
            raise ValidationError("case ids must be unique")
        self.ids = ids
        self.forecasts = x
        self.observations = y

    @classmethod
    def from_cases(cls, cases) -> "CaseSet":
        cases = list(cases)
        return cls(
            [c.case_id for c in cases],
            [c.forecast for c in cases],
            [c.observation for c in cases],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        for i, cid in enumerate(self.ids):
            yield ForecastCase(cid, float(self.forecasts[i]), float(self.observations[i]))

    def case(self, case_id: str) -> ForecastCase:
        try:
            i = self.ids.index(case_id)
        except ValueError:
            raise ValidationError(f"no case with id {case_id!r}") from None
        return ForecastCase(case_id, float(self.forecasts[i]), float(self.observations[i]))


def _read_table(path, columns: list[str], members: bool = False):
    """Case ids and the (n, k) matrix of the k numeric columns.

    ``columns`` is the expected header; with ``members`` it continues
    with ``m1 .. mk``, k taken from the header width (at least 1).
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise ValidationError(f"{path}: empty file") from None
            if members:
                k = max(len(header) - len(columns), 1)
                columns = columns + [f"m{i}" for i in range(1, k + 1)]
            if header != columns:
                raise ValidationError(
                    f"{path}: expected header {columns!r}, got {header!r}"
                )
            names = columns[1:]
            ids, lines, values = [], [], array("d")
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(columns):
                    raise ValidationError(
                        f"{path}:{lineno}: expected {len(columns)} columns, "
                        f"got {len(row)}"
                    )
                case_id = row[0].strip()
                if not case_id:
                    raise ValidationError(f"{path}:{lineno}: empty case_id")
                try:
                    values.extend(map(float, row[1:]))
                except ValueError:
                    for name, cell in zip(names, row[1:]):
                        try:
                            float(cell)
                        except ValueError:
                            raise ValidationError(
                                f"{path}:{lineno}: {name} value {cell.strip()!r} "
                                "is not a number"
                            ) from None
                ids.append(case_id)
                lines.append(lineno)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    if not ids:
        raise ValidationError(f"{path}: no forecast cases found")
    matrix = np.frombuffer(values).reshape(len(ids), len(names))
    finite = np.isfinite(matrix)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValidationError(f"{path}:{lines[i]}: {names[j]} value must be finite")
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate case ids")
    return ids, matrix


def read_cases_csv(path) -> CaseSet:
    """Read one system's cases (schema in the module docstring)."""
    ids, v = _read_table(path, ["case_id", "forecast", "obs"])
    return CaseSet(ids, v[:, 0], v[:, 1])


def read_paired_csv(path) -> tuple[CaseSet, CaseSet]:
    """Read paired cases of two systems sharing observations."""
    ids, v = _read_table(path, ["case_id", "forecast_a", "forecast_b", "obs"])
    return CaseSet(ids, v[:, 0], v[:, 2]), CaseSet(ids, v[:, 1], v[:, 2])


def read_json(path) -> dict:
    """Read a file holding one JSON object (a config or a partition)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return obj


def _write_table(path, header: list[str], keys, columns) -> np.ndarray:
    """One row per key: the key, then each column's value (``fmt12``).

    Each value is formatted once, ``WRITE_BLOCK_ROWS`` rows at a time so
    that the text in memory stays bounded.  Returns the written cells
    read back as floats, one row per column.
    """
    matrix = np.empty((len(header) - 1, len(keys)))
    for name, row, col in zip(header[1:], matrix, columns):
        col = np.asarray(col, dtype=float)
        if col.shape != row.shape:
            raise ValidationError(
                f"column {name!r} has shape {col.shape}, expected ({len(keys)},)"
            )
        row[:] = col
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(keys), WRITE_BLOCK_ROWS):
            block = matrix[:, start : start + WRITE_BLOCK_ROWS]
            texts = [_texts(row) for row in block]
            writer.writerows(zip(keys[start : start + WRITE_BLOCK_ROWS], *texts))
            for row, cells in zip(block, texts):
                row[:] = _parse(cells)
    return matrix


def write_scores_csv(path, ids, columns: dict) -> dict[str, float]:
    """Per-case values: ``case_id`` plus one named numeric column each.

    ``columns`` maps column name to an array aligned with ids; ordering
    of the mapping is preserved in the file.  Returns each column's
    summary mean, taken over the written cells (``mean_of_rounded``).
    """
    written = _write_table(path, ["case_id", *columns], ids, columns.values())
    return {name: round12(np.mean(row)) for name, row in zip(columns, written)}


def write_cases_csv(cases: CaseSet, path) -> None:
    _write_table(
        path,
        ["case_id", "forecast", "obs"],
        cases.ids,
        [cases.forecasts, cases.observations],
    )


def write_paired_csv(cases_a: CaseSet, cases_b: CaseSet, path) -> None:
    if cases_a.ids != cases_b.ids:
        raise ValidationError("paired case sets must share ids in order")
    if not np.array_equal(cases_a.observations, cases_b.observations):
        raise ValidationError("paired case sets must share observations")
    _write_table(
        path,
        ["case_id", "forecast_a", "forecast_b", "obs"],
        cases_a.ids,
        [cases_a.forecasts, cases_b.forecasts, cases_a.observations],
    )


def write_json(obj, path) -> None:
    """Write JSON with stable layout: insertion order, indent 2."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False, allow_nan=False)
        fh.write("\n")

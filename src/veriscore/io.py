"""Forecast case containers, file formats, and deterministic output.

A ``CaseSet`` holds one forecast system's cases as aligned arrays:
``ids``, ``forecasts`` and ``observations``.

Every file the package reads or writes goes through this module.  All
numeric output has 12 significant digits (``fmt12``).  One table writer
serves ``write_scores_csv``, the case writers and the Murphy curve: it
formats each block of rows with one ``%`` template, parses the cells
back in C and quotes as ``csv.writer`` does.  The summary means that
``write_scores_csv`` returns come from those written cells, so a
summary recomputed from a written per-case file reproduces it bit for
bit.  Output never embeds timestamps or environment details; identical
inputs give byte-identical files.

CSV schemas
-----------
Single system (``read_cases_csv`` / ``write_cases_csv``)::

    case_id, forecast, obs

Paired systems (``read_paired_csv`` / ``write_paired_csv``)::

    case_id, forecast_a, forecast_b, obs

Rows pair two forecasts with one shared observation.

Ensemble (``veriscore.ensemble.read_ensemble_csv``)::

    case_id, obs, m1, ..., mk

One forecast case per row, read into an ``EnsembleSet``.

All three share one reader: the header must match exactly (a UTF-8
byte order mark is ignored), blank lines are skipped, case ids must be
non-empty and unique, every value must be a finite number, and errors
cite the file and physical line.  numpy's C text reader parses the
body first; a file it refuses, or one that fails a check, is read
again row by row with ``csv.reader`` and ``float``, which accept the
same syntax and word the errors.  ``CaseSet`` and ``EnsembleSet`` take
a read table as it is: ``_check_cases`` has checked it once; built
directly, they strip each id first, as the reader does.

JSON
----
``read_json`` reads a file holding one JSON object (CLI configs and
partition configs); ``write_json`` writes any JSON value in insertion
order with indent 2 and rejects NaN and infinities.
"""

from __future__ import annotations

import csv
import io
import json
import re
from array import array
from contextlib import suppress
from functools import partial
from itertools import chain

import numpy as np

from .errors import ValidationError

__all__ = [
    "fmt12",
    "round12",
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


def _check_cases(ids: tuple[str, ...], values, not_finite: str) -> None:
    """Every array in ``values`` finite (else ``not_finite``), ids non-empty and unique."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValidationError(not_finite)
    if not all(ids):
        raise ValidationError("case ids must be non-empty")
    if len(set(ids)) != len(ids):
        raise ValidationError("case ids must be unique")


def _checked(cls, **fields):
    """An instance of ``cls`` holding ``fields`` that a reader has checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class CaseSet:
    """Aligned arrays of forecast cases for one forecast system."""

    def __init__(self, ids, forecasts, observations):
        ids = tuple(str(i).strip() for i in ids)  # as the readers strip them
        x = np.atleast_1d(np.asarray(forecasts, dtype=float))
        y = np.atleast_1d(np.asarray(observations, dtype=float))
        if x.ndim != 1 or x.shape != y.shape or len(ids) != x.size:
            raise ValidationError(
                "ids, forecasts and observations must have equal length"
            )
        if x.size == 0:
            raise ValidationError("a case set needs at least one case")
        _check_cases(ids, (x, y), "forecasts and observations must be finite")
        self.ids = ids
        self.forecasts = x
        self.observations = y

    def __len__(self) -> int:
        return len(self.ids)


# bytes that numpy's number parser skips as white space and ``float`` refuses
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _load_body(path, columns: list[str], members: bool):
    """The body as numpy's C reader parses it: a structured array of
    ids and value rows, or None for a file it refuses."""
    try:
        with open(path, "rb") as fh:
            for block in iter(partial(fh.read, 1 << 20), b""):
                if any(sep in block for sep in _SEPARATORS):
                    return None
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            header = [h.strip() for h in next(csv.reader(fh))]
            if members:
                k = max(len(header) - len(columns), 1)
                columns = columns + [f"m{i}" for i in range(1, k + 1)]
            if header != columns:
                return None
            for line in fh:  # numpy warns on a body without data
                if line.strip():
                    return np.loadtxt(
                        chain((line,), fh),
                        dtype=[("id", object), ("v", float, (len(columns) - 1,))],
                        delimiter=",",
                        quotechar='"',
                        comments=None,
                        ndmin=1,
                    )
    except (OSError, StopIteration, ValueError, csv.Error):
        pass  # ValueError includes UnicodeDecodeError
    return None


def _read_table(path, columns: list[str], members: bool = False):
    """Case ids (a tuple) and the (n, k) matrix of the k numeric columns.

    ``columns`` is the expected header; with ``members`` it continues
    with ``m1 .. mk``, k taken from the header width (at least 1).
    numpy's C reader parses the body in one call and ``_check_cases``
    checks it.  A file it refuses, or that fails a check, is read again
    by ``_read_rows``, the only reader that skips lines of white space
    or of blank cells between rows, reads numerals that only ``float``
    accepts (``1_0``) and words every error.  The two differ on one
    input: a number padded beyond ``csv.field_size_limit()`` characters
    is read here and refused by ``csv.reader``.
    """
    table = _load_body(path, columns, members)
    if table is not None:
        raw = table["id"].tolist()
        if max(map(len, raw)) <= csv.field_size_limit():
            ids = tuple(map(str.strip, raw))
            matrix = np.ascontiguousarray(table["v"])
            with suppress(ValidationError):  # the row reader words the error
                _check_cases(ids, (matrix,), "")
                return ids, matrix
    return _read_rows(path, columns, members)


def _read_rows(path, columns: list[str], members: bool = False):
    """``_read_table`` by ``csv.reader``, one row at a time.

    Reads what numpy's reader refuses and words every error with
    ``file:line``.
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
            end = reader.line_num
            for row in reader:  # a quoted field may span lines
                lineno, end = end + 1, reader.line_num
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
    return tuple(ids), matrix


def read_cases_csv(path) -> CaseSet:
    """Read one system's cases (schema in the module docstring)."""
    ids, v = _read_table(path, ["case_id", "forecast", "obs"])
    return _checked(CaseSet, ids=ids, forecasts=v[:, 0], observations=v[:, 1])


def read_paired_csv(path) -> tuple[CaseSet, CaseSet]:
    """Read paired cases of two systems sharing observations."""
    ids, v = _read_table(path, ["case_id", "forecast_a", "forecast_b", "obs"])
    return tuple(_checked(CaseSet, ids=ids, forecasts=x, observations=v[:, 2]) for x in v.T[:2])


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


_QUOTED = re.compile('[,"\r\n]')  # what makes csv.writer quote a field


def _fields(values) -> list[str]:
    """Each value as a default ``csv.writer`` field: its ``str``, None as
    empty, quoted with quotes doubled if it holds a comma, quote, CR or LF."""
    texts = ["" if v is None else str(v) for v in values]
    if _QUOTED.search("".join(texts)):
        texts = ['"%s"' % t.replace('"', '""') if _QUOTED.search(t) else t for t in texts]
    return texts


def _write_table(path, header: list[str], keys, columns) -> np.ndarray:
    """One row per key: the key, then each column's value (``fmt12``).

    ``WRITE_BLOCK_ROWS`` rows at a time, one ``%`` call formats a block
    as lines of ``%.12g`` cells (``fmt12``'s conversion) and numpy's C
    parser reads them back (rounding as ``float``).  A row is its key
    quoted by ``_fields``, a comma, its line and CRLF, as ``csv.writer``
    writes it.  Returns the written cells read back, one row per column.
    """
    if len(header) < 2:
        raise ValidationError("a table needs at least one value column")
    matrix = np.empty((len(header) - 1, len(keys)))
    for name, row, col in zip(header[1:], matrix, columns):
        col = np.asarray(col, dtype=float)
        if col.shape != row.shape:
            raise ValidationError(
                f"column {name!r} has shape {col.shape}, expected ({len(keys)},)"
            )
        row[:] = col
    line = ",".join(["%.12g"] * len(matrix)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_fields(header)) + "\r\n")
        for start in range(0, len(keys), WRITE_BLOCK_ROWS):
            block = matrix[:, start : start + WRITE_BLOCK_ROWS]
            text = (line * block.shape[1]) % tuple(block.T.ravel().tolist())
            block[:] = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2).T
            rows = zip(_fields(keys[start : start + WRITE_BLOCK_ROWS]), text.split("\n"))
            fh.write("".join(f"{key},{values}\r\n" for key, values in rows))
    return matrix


def write_scores_csv(path, ids, columns: dict) -> dict[str, float]:
    """Per-case values: ``case_id`` plus one named numeric column each.

    ``columns`` maps column name to an array aligned with ids; ordering
    of the mapping is preserved in the file.  Returns each column's
    summary mean: the mean a reader of the file computes, ``round12``.
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
    """Write JSON with stable layout: insertion order, indent 2.  The text is
    built before the file is opened, so a value JSON refuses leaves no file."""
    text = json.dumps(obj, indent=2, sort_keys=False, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")

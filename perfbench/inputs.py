"""Seeded input files for the benchmark workloads.

The inputs follow the climatology of the paper's synthetic experiment:
observations y ~ N(4, 15^2).  System A errs with standard deviation
arctan(y - 10) + 2, system B and the single-system file with constant
standard deviation 2.  Ensembles centre on y plus an error of standard
deviation 2 and spread their members with standard deviation 2.

Only numpy and this module's own formatter are used, never the package
under test, so a change to the package's CSV code cannot change the
bytes it is timed on.  The same seed always gives the same files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

CLIM_MEAN, CLIM_SD, ERR_SD, RAMP_CENTER = 4.0, 15.0, 2.0, 10.0
CUTPOINTS = [-10, 0, 10]
NORMALIZED = {
    "weights": [
        {
            "kind": "normalized",
            "index": j,
            "components": [
                {"kind": "arctan_lower", "center": RAMP_CENTER},
                {"kind": "arctan_upper", "center": RAMP_CENTER},
            ],
        }
        for j in range(2)
    ]
}

# file name -> (kind, number of cases); members for ensembles
SIZES = {
    "cases.csv": ("single", 100_000),
    "paired.csv": ("paired", 100_000),
    "ensemble.csv": ("ensemble", 20_000),
    "cases2k.csv": ("single", 2_000),
}
ENSEMBLE_MEMBERS = 50


def _streams(seed: int, name: str) -> np.random.Generator:
    # one independent stream per file, so adding a file moves no other
    key = sorted(SIZES).index(name)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _fmt(values: np.ndarray) -> list[str]:
    return [f"{v:.6f}" for v in values.tolist()]


def _ids(n: int) -> list[str]:
    return [f"c{i:06d}" for i in range(n)]


def _table(header: list[str], columns: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def _single(rng: np.random.Generator, n: int) -> str:
    y = rng.normal(CLIM_MEAN, CLIM_SD, n)
    x = y + rng.normal(0.0, ERR_SD, n)
    return _table(["case_id", "forecast", "obs"], [_ids(n), _fmt(x), _fmt(y)])


def _paired(rng: np.random.Generator, n: int) -> str:
    y = rng.normal(CLIM_MEAN, CLIM_SD, n)
    x_a = y + rng.standard_normal(n) * (np.arctan(y - RAMP_CENTER) + ERR_SD)
    x_b = y + rng.normal(0.0, ERR_SD, n)
    return _table(
        ["case_id", "forecast_a", "forecast_b", "obs"],
        [_ids(n), _fmt(x_a), _fmt(x_b), _fmt(y)],
    )


def _ensemble(rng: np.random.Generator, n: int) -> str:
    y = rng.normal(CLIM_MEAN, CLIM_SD, n)
    centre = y + rng.normal(0.0, ERR_SD, n)
    members = centre[:, None] + rng.normal(0.0, ERR_SD, (n, ENSEMBLE_MEMBERS))
    header = ["case_id", "obs"] + [f"m{k}" for k in range(1, ENSEMBLE_MEMBERS + 1)]
    columns = [_ids(n), _fmt(y)] + [_fmt(members[:, k]) for k in range(ENSEMBLE_MEMBERS)]
    return _table(header, columns)


_WRITERS = {"single": _single, "paired": _paired, "ensemble": _ensemble}


def write_inputs(directory: Path, seed: int, names) -> dict:
    """Write the named inputs plus both partition configs.

    Returns {file name: {"bytes": size, "sha256": digest}}.
    """
    directory.mkdir(parents=True, exist_ok=True)
    texts = {
        "partition4.json": json.dumps({"cutpoints": CUTPOINTS}) + "\n",
        "normalized.json": json.dumps(NORMALIZED, indent=2) + "\n",
    }
    for name in names:
        kind, n = SIZES[name]
        texts[name] = _WRITERS[kind](_streams(seed, name), n)
    record = {}
    for name, text in texts.items():
        data = text.encode("ascii")
        (directory / name).write_bytes(data)
        record[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return record

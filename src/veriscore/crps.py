"""Continuous ranked probability score for empirical (step) CDFs.

The CRPS of a predictive CDF F at observation y is the integral of
(F(z) - [y <= z])^2 over the real line.  For a step CDF with finitely
many breakpoints the integrand is piecewise constant between the
breakpoints and y, and vanishes outside their hull, so the integral is
a finite exact sum; no quadrature is involved.

Weighting the integrand by the members of a partition of unity splits
the CRPS into per-region components that sum back to the total.  The
region integrals of each weight are ``WeightFunction.integral``: exact
for the piecewise-linear and arctan weight kinds, and for normalized
weights one vectorized Gauss–Kronrod pass over all segments of a case
(``veriscore.quadrature``).

A degenerate (single point) forecast distribution reduces the CRPS to
the absolute error |x - y| exactly.

The ensemble CSV schema of ``read_ensemble_csv`` is in ``veriscore.io``.
"""

from __future__ import annotations

import numpy as np

from .decomposition import DecomposedScore
from .errors import ValidationError
from .io import _read_table
from .partition import PartitionOfUnity

__all__ = [
    "EmpiricalCDF",
    "crps",
    "crps_components",
    "crps_decomposed",
    "read_ensemble_csv",
]


class EmpiricalCDF:
    """Right-continuous step CDF with finitely many jumps.

    ``breakpoints`` must be strictly ascending and finite; ``values``
    nondecreasing within [0, 1] and reaching 1 at the last breakpoint
    (anything else would leave unbounded tail mass and an infinite
    score).
    """

    def __init__(self, breakpoints, values):
        bp = np.atleast_1d(np.asarray(breakpoints, dtype=float))
        v = np.atleast_1d(np.asarray(values, dtype=float))
        if bp.ndim != 1 or bp.size == 0 or bp.shape != v.shape:
            raise ValidationError(
                "breakpoints and values must be equal-length 1d arrays"
            )
        if not np.all(np.isfinite(bp)):
            raise ValidationError("breakpoints must be finite")
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise ValidationError("breakpoints must be strictly ascending")
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0 + 1e-12:
            raise ValidationError("cdf values must lie in [0, 1]")
        if bp.size > 1 and np.any(np.diff(v) < 0):
            raise ValidationError("cdf values must be nondecreasing")
        if abs(v[-1] - 1.0) > 1e-12:
            raise ValidationError(
                f"cdf must reach 1 at the last breakpoint, got {v[-1]!r} "
                "(unbounded tail mass)"
            )
        v = v.copy()
        v[-1] = 1.0
        self.breakpoints = bp
        self.values = v

    @classmethod
    def from_ensemble(cls, members) -> "EmpiricalCDF":
        """Empirical CDF of an ensemble, equal mass on each member."""
        m = np.atleast_1d(np.asarray(members, dtype=float))
        if m.ndim != 1 or m.size == 0:
            raise ValidationError("ensemble must be a non-empty 1d array")
        if not np.all(np.isfinite(m)):
            raise ValidationError("ensemble members must be finite")
        vals, counts = np.unique(m, return_counts=True)
        return cls(vals, np.cumsum(counts) / m.size)

    def __repr__(self):
        return f"EmpiricalCDF({self.breakpoints.tolist()}, {self.values.tolist()})"

    def evaluate(self, t):
        """F(t), right-continuous, vectorized."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right")
        padded = np.concatenate(([0.0], self.values))
        out = padded[idx]
        return float(out) if out.ndim == 0 else out

    def _segments(self, y: float):
        """Edges of the intervals on which (F - [y <= .])^2 is constant."""
        return np.union1d(self.breakpoints, [y])


def crps(cdf: EmpiricalCDF, y: float) -> float:
    """Exact CRPS of a step CDF at a finite observation."""
    y = float(y)
    if not np.isfinite(y):
        raise ValidationError("observation must be finite")
    edges = cdf._segments(y)
    if edges.size < 2:
        return 0.0
    left = edges[:-1]
    heights = (cdf.evaluate(left) - (y <= left)) ** 2
    return float(heights @ np.diff(edges))


def crps_components(
    cdf: EmpiricalCDF, y: float, partition: PartitionOfUnity
) -> np.ndarray:
    """Per-region CRPS components under a partition of unity."""
    y = float(y)
    if not np.isfinite(y):
        raise ValidationError("observation must be finite")
    partition.domain.require(y, "observation")
    partition.domain.require(cdf.breakpoints, "cdf breakpoint")
    edges = cdf._segments(y)
    if edges.size < 2:
        return np.zeros(len(partition))
    left, right = edges[:-1], edges[1:]
    heights = (cdf.evaluate(left) - (y <= left)) ** 2
    out = np.empty(len(partition))
    for j, w in enumerate(partition):
        out[j] = heights @ np.asarray(w.integral(left, right))
    return out


def crps_decomposed(
    cdf: EmpiricalCDF, y: float, partition: PartitionOfUnity
) -> DecomposedScore:
    """Components plus the directly integrated total."""
    return DecomposedScore(
        per_component=crps_components(cdf, y, partition),
        total=crps(cdf, y),
    )


def read_ensemble_csv(path) -> list[tuple[str, float, EmpiricalCDF]]:
    """Read forecast cases with ensemble members (schema in ``veriscore.io``)."""
    ids, values = _read_table(path, ["case_id", "obs"], members=True)
    return [
        (case_id, float(row[0]), EmpiricalCDF.from_ensemble(row[1:]))
        for case_id, row in zip(ids, values)
    ]

"""Continuous ranked probability score for empirical (step) CDFs.

The CRPS of a predictive CDF F at observation y is the integral of
(F(z) - [y <= z])^2 over the real line.  For a step CDF with finitely
many breakpoints the integrand is constant between neighbouring
breakpoints and y, and vanishes outside their hull, so the integral is
a finite exact sum over those segments (Hersbach, Wea. Forecasting
2000); no quadrature is involved.

Weighting the integrand by the members of a partition of unity splits
the CRPS into per-region components that sum back to the total
(Gneiting & Ranjan, JBES 2011).  The region integrals of each weight
are ``WeightFunction.integral``: exact for the piecewise-linear and
arctan weight kinds, and for normalized weights one vectorized
Gauss–Kronrod pass over all segments (``veriscore.quadrature``).

``crps`` scores one ``EmpiricalCDF`` or an ``EnsembleSet`` (n cases of
m equally weighted members, as ``read_ensemble_csv`` returns) with one
batched kernel, a single CDF being one row of it, and returns the
totals with their components under a partition, as ``case_scores``
does for point forecasts.  Each row's points are sorted together
with its observation once.  On a segment of nonzero width at position
i, i + 1 - [y <= left] points lie at or below its left edge, which
indexes the CDF level.  The total and each component are one dot
product per row, over that row's segments alone, of the squared heights
against the segment widths or the weight integrals, so the total and
the components come from one kernel pass.  Rows go through in blocks
of ``CRPS_BLOCK_BYTES`` of edges, so memory stays bounded.

A degenerate (single point) forecast distribution reduces the CRPS to
the absolute error |x - y| exactly.

The ensemble CSV schema of ``read_ensemble_csv`` is in ``veriscore.io``.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError
from .io import _check_cases, _checked, _read_table
from .partition import PartitionOfUnity

__all__ = ["EmpiricalCDF", "EnsembleSet", "crps", "read_ensemble_csv"]

CRPS_BLOCK_BYTES = 1 << 18  # edges in one block of rows: about 640 rows of 51


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


class EnsembleSet:
    """Ensemble forecasts of n cases: ``ids``, ``observations`` (n,)
    and ``members`` (n, m).

    Each row is the empirical CDF of its members, mass 1/m on each;
    ``crps`` scores the whole set in one batched pass.
    """

    def __init__(self, ids, observations, members):
        ids = tuple(str(i).strip() for i in ids)  # as the readers strip them
        y = np.atleast_1d(np.asarray(observations, dtype=float))
        x = np.asarray(members, dtype=float)
        if y.ndim != 1 or x.ndim != 2 or x.shape[0] != y.size or len(ids) != y.size:
            raise ValidationError(
                "ids, observations and member rows must have equal length"
            )
        if y.size == 0 or x.shape[1] == 0:
            raise ValidationError("an ensemble set needs a case and a member")
        _check_cases(ids, (y, x), "observations and ensemble members must be finite")
        self.ids = ids
        self.observations = y
        self.members = x

    def __len__(self) -> int:
        return len(self.ids)


def _kernel_args(cdf, y):
    """(points, observations, levels, ids) of the kernel for either input.

    ``levels[c]`` is the CDF at and above the c-th smallest of a row's
    points; ``ids`` is None for a single CDF.
    """
    if isinstance(cdf, EnsembleSet):
        y = np.asarray(y, dtype=float)
        if y.shape != cdf.observations.shape:
            raise ValidationError(
                f"expected {len(cdf)} observations, got shape {y.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise ValidationError("observations must be finite")
        m = cdf.members.shape[1]
        return cdf.members, y, np.arange(m + 1) / m, cdf.ids
    y = float(y)
    if not np.isfinite(y):
        raise ValidationError("observation must be finite")
    levels = np.concatenate(([0.0], cdf.values))
    return cdf.breakpoints[None, :], np.array([y]), levels, None


def _require_domain(domain, points, y, ids) -> None:
    """Name the first row outside the domain: its observation, else its
    smallest offending point."""
    ok = domain.contains(y) & domain.contains(points).all(axis=1)
    if ok.all():
        return
    i = int(np.argmin(ok))
    try:
        domain.require(y[i], "observation")
        domain.require(np.sort(points[i]), "cdf breakpoint")
    except ValidationError as exc:
        if ids is None:
            raise
        raise ValidationError(f"case {ids[i]}: {exc}") from None


def _step_crps(points, y, levels, weights=(), ids=None) -> np.ndarray:
    """(1 + k, n): each row's CRPS, then its component under each weight."""
    n, m = points.shape
    out = np.zeros((1 + len(weights), n))
    step = max(1, CRPS_BLOCK_BYTES // (8 * (m + 1)))
    for start in range(0, n, step):
        yb = y[start : start + step]
        edges = np.sort(np.column_stack([points[start : start + step], yb]), axis=1)
        # segments of nonzero width, row by row
        row, pos = np.nonzero(edges[:, 1:] > edges[:, :-1])
        left, right = edges[row, pos], edges[row, pos + 1]
        above = yb[row] <= left
        heights = (levels[pos + 1 - above] - above) ** 2
        measures = [right - left]
        for w in weights:
            try:
                measures.append(np.asarray(w.integral(left, right), dtype=float))
            except NumericError as exc:
                if ids is None:
                    raise
                i = start + row[exc.index]
                raise NumericError(f"case {ids[i]}: {exc}") from exc
        # one dot product per row over its own segments, as a single case
        # gets; rows with c segments form one (rows, c) matrix
        count = np.bincount(row, minlength=yb.size)
        first = np.cumsum(count) - count
        for c in np.flatnonzero(np.bincount(count)[1:]) + 1:
            rows = np.flatnonzero(count == c)
            take = first[rows, None] + np.arange(c)
            h = heights[take]
            for j, measure in enumerate(measures):
                out[j, start + rows] = np.vecdot(h, measure[take])
    return out


def crps(cdf, y, partition: PartitionOfUnity | None = None):
    """Exact CRPS of step CDFs at finite observations: (totals, components).

    One ``EmpiricalCDF`` and a scalar y give a float and, under a
    partition, a (k,) array of components; an ``EnsembleSet`` and its
    (n,) observations give (n,) and (k, n), as ``case_scores`` returns.
    ``components`` is None without a partition.  The total and the
    components come from one kernel pass, and errors of a set name the
    case id.
    """
    points, y, levels, ids = _kernel_args(cdf, y)
    weights = () if partition is None else tuple(partition)
    if weights:
        _require_domain(partition.domain, points, y, ids)
    rows = _step_crps(points, y, levels, weights, ids)
    if ids is None:  # a single CDF is one column
        totals, comps = float(rows[0, 0]), rows[1:, 0]
    else:
        totals, comps = rows[0], rows[1:]
    return totals, comps if weights else None


def read_ensemble_csv(path) -> EnsembleSet:
    """Read forecast cases with ensemble members (schema in ``veriscore.io``)."""
    ids, values = _read_table(path, ["case_id", "obs"], members=True)
    return _checked(EnsembleSet, ids=ids, observations=values[:, 0], members=values[:, 1:])

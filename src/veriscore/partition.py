"""Region weights and partitions of unity on an interval.

A partition of unity is a finite family of weight functions
chi_1, ..., chi_k with 0 <= chi_j <= 1 and sum_j chi_j(t) = 1 at every
point of the interval of interest.  Weighting a scoring function by the
chi_j splits it into per-region components that add back up to the
original score, which is the basis of everything in
:mod:`veriscore.decomposition`.

Conventions
-----------
* Cells are half open: a rectangular weight is the indicator of
  ``[a, b)``, so at a cut point the weight to the right owns the point.
* Infinite endpoints are allowed where the shape stays bounded, e.g.
  ``rectangular(10, inf)`` or a trapezoid whose plateau runs out to
  infinity on one side.
* Weight values at isolated points never matter to any score in this
  package, because every use is through Lebesgue integrals.

The rectangular, trapezoidal and tabulated kinds are one class,
:class:`WeightFunction`: a table of breakpoints with a linear piece
between neighbours and a constant beyond each end.
``RectangularWeight``, ``TrapezoidalWeight`` and ``TabulatedWeight``
are named constructors that validate their parameters and build that
table, which carries exact first and second antiderivatives as
per-segment polynomials.  The arctan pair has closed-form
antiderivatives as well.  Normalized weights fall back to adaptive
quadrature.

Configuration files
-------------------
``load_partition_config`` reads a JSON document of the form::

    {"domain": {"lower": 0, "upper": "inf"},
     "weights": [{"kind": "rectangular", "a": 0, "b": 10},
                 {"kind": "rectangular", "a": 10, "b": "inf"}]}

or, as a shorthand for rectangular partitions::

    {"cutpoints": [10]}

Recognized kinds and their fields:

* ``rectangular``: ``a``, ``b``
* ``trapezoidal``: ``a``, ``b``, ``c``, ``d``
* ``arctan_upper`` / ``arctan_lower``: ``center``
* ``tabulated``: ``breakpoints``, ``values``
* ``normalized``: ``components`` (a list of non-normalized weight
  entries), ``index``

Numbers may be written as JSON numbers or as the strings ``"inf"`` and
``"-inf"``.  Parse errors name the offending field, e.g.
``weights[1].b``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import NumericError, ValidationError

__all__ = [
    "IntervalDomain",
    "REAL_LINE",
    "WeightFunction",
    "RectangularWeight",
    "TrapezoidalWeight",
    "ArctanUpperWeight",
    "ArctanLowerWeight",
    "TabulatedWeight",
    "NormalizedWeight",
    "PartitionOfUnity",
    "PartitionReport",
    "rectangular_partition",
    "trapezoidal_partition",
    "normalized_partition",
    "arctan_pair",
    "validate_partition",
    "eval_weight",
    "parse_partition_config",
    "load_partition_config",
    "partition_config",
]

PROBE_POINTS_DEFAULT = 10001
SUM_TOLERANCE_DEFAULT = 1e-12

_INF = math.inf


@dataclass(frozen=True)
class IntervalDomain:
    """Interval of evaluation, possibly unbounded.

    Finite endpoints follow the half-open convention of the package:
    the lower endpoint is included, the upper is not.  Infinite
    endpoints are always open.
    """

    lower: float = -_INF
    upper: float = _INF

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise ValidationError("domain endpoints must not be NaN")
        if not lo < hi:
            raise ValidationError(
                f"domain lower bound {lo} must be strictly below upper bound {hi}"
            )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    def contains(self, t):
        """Vectorized membership test, lower closed, upper open."""
        t = np.asarray(t, dtype=float)
        ok = np.isfinite(t)
        if math.isfinite(self.lower):
            ok = ok & (t >= self.lower)
        if math.isfinite(self.upper):
            ok = ok & (t < self.upper)
        return ok

    def require(self, t, what="value"):
        """Raise ValidationError if any entry of t falls outside the domain."""
        t = np.asarray(t, dtype=float)
        ok = self.contains(t)
        if not np.all(ok):
            bad = t[~np.asarray(ok, dtype=bool)].ravel()
            raise ValidationError(
                f"{what} {bad[0]!r} lies outside the domain "
                f"[{self.lower}, {self.upper})"
            )


REAL_LINE = IntervalDomain()


def _finite(x) -> bool:
    return math.isfinite(x)


def _as_float(x, field: str) -> float:
    try:
        v = float(x)
    except (TypeError, ValueError):
        raise ValidationError(f"{field}: expected a number, got {x!r}") from None
    if math.isnan(v):
        raise ValidationError(f"{field}: NaN is not allowed")
    return v


class WeightFunction:
    """A region weight: piecewise linear, with constant extensions.

    ``bounds`` are the finite breakpoints.  Segment k covers
    ``[bounds[k], bounds[k+1])`` with value ``start[k] + slope[k]*(t -
    bounds[k])``.  Below the first breakpoint the weight is the constant
    ``left_val``; at and above the last it is ``right_val``.  An empty
    ``bounds`` means the weight is constant everywhere.

    The rectangular, trapezoidal and tabulated kinds are all this one
    table.  Their named constructors (:class:`RectangularWeight`,
    :class:`TrapezoidalWeight`, :class:`TabulatedWeight`) only validate
    their parameters and build it; ``_fields`` names the parameters that
    ``config()`` echoes.  A subclass that builds no table keeps
    ``bounds = None`` and implements ``__call__`` (and ``support`` where
    it is narrower than the real line).  It has no exact integrals, so
    scores built on it go through quadrature, and no ``config()`` form,
    unless it supplies its own, as the arctan pair does.

    The antiderivative tables are referenced at a breakpoint adjacent to
    a zero extension, so that on a side where the weight vanishes both
    antiderivatives evaluate to exactly 0.0.  Score components built on
    these tables then vanish exactly, not merely to rounding, outside
    the support of their weight.
    """

    kind = "abstract"
    _fields: tuple[str, ...] = ()
    bounds = None
    has_exact_integrals = False

    def __init__(self, bounds, start, slope, left_val, right_val):
        self.bounds = np.asarray(bounds, dtype=float)
        self.start = np.asarray(start, dtype=float)
        self.slope = np.asarray(slope, dtype=float)
        self.left_val = float(left_val)
        self.right_val = float(right_val)
        self.has_exact_integrals = True
        m = self.bounds.size
        # evaluation gathers segment by segment, with the extensions as
        # flat segments 0 and m
        self._base = np.concatenate([self.bounds[:1], self.bounds])
        self._value0 = np.concatenate([[self.left_val], self.start, [self.right_val]])
        self._slope0 = np.concatenate([[0.0], self.slope, [0.0]])
        self._ramps = bool(np.any(self.slope))
        if m == 0:
            self.w1 = np.zeros(0)
            self.w2 = np.zeros(0)
            return
        w1 = np.zeros(m)
        w2 = np.zeros(m)
        for k in range(m - 1):
            dt = self.bounds[k + 1] - self.bounds[k]
            v0, s = self.start[k], self.slope[k]
            w1[k + 1] = w1[k] + v0 * dt + 0.5 * s * dt * dt
            w2[k + 1] = w2[k] + w1[k] * dt + 0.5 * v0 * dt * dt + s * dt**3 / 6.0
        ref = 0 if self.left_val == 0.0 else (m - 1 if self.right_val == 0.0 else 0)
        w1_ref, w2_ref, t_ref = w1[ref], w2[ref], self.bounds[ref]
        self.w2 = w2 - w2_ref - w1_ref * (self.bounds - t_ref)
        self.w1 = w1 - w1_ref

    def _params(self):
        # constructor arguments, arrays as lists
        values = [getattr(self, f) for f in self._fields]
        return {
            f: v.tolist() if isinstance(v, np.ndarray) else v
            for f, v in zip(self._fields, values)
        }

    def __repr__(self):
        args = ", ".join(map(str, self._params().values()))
        return f"{type(self).__name__}({args})"

    def config(self) -> dict:
        """JSON-serializable description, inverse of the config parser."""
        if not self._fields:
            raise NotImplementedError(f"{self.kind} weight has no config form")
        params = {f: _num_out(v) for f, v in self._params().items()}
        return {"kind": self.kind, **params}

    def support(self) -> tuple[float, float]:
        """Closure of the set where the weight can be positive."""
        if self.bounds is None or self.bounds.size == 0:
            return (-_INF, _INF)
        lo = float(self.bounds[0]) if self.left_val == 0.0 else -_INF
        hi = float(self.bounds[-1]) if self.right_val == 0.0 else _INF
        return (lo, hi)

    def finite_knots(self) -> tuple[float, ...]:
        """Finite breakpoints, used for probe grids and quadrature."""
        return () if self.bounds is None else tuple(self.bounds.tolist())

    def _locate(self, t):
        if self.bounds is None:
            raise NotImplementedError(f"{self.kind} weight has no exact antiderivative")
        t = np.asarray(t, dtype=float)
        return t, np.searchsorted(self.bounds, t, side="right")

    def __call__(self, t):
        t, idx = self._locate(t)
        out = self._value0[idx]
        if self._ramps:
            # clipping keeps the offsets on the extensions finite
            s = np.minimum(np.maximum(t, self.bounds[0]), self.bounds[-1])
            s = s - self._base[idx]
            out = out + self._slope0[idx] * s
        return out

    def antideriv(self, t):
        """First antiderivative of the weight, fixed internal reference."""
        t, idx = self._locate(t)
        if self.bounds.size == 0:
            return self.left_val * t
        out = np.empty_like(t)
        left = idx == 0
        right = idx == self.bounds.size
        mid = ~(left | right)
        out[left] = self.w1[0] + self.left_val * (t[left] - self.bounds[0])
        out[right] = self.w1[-1] + self.right_val * (t[right] - self.bounds[-1])
        if np.any(mid):
            k = idx[mid] - 1
            s = t[mid] - self.bounds[k]
            out[mid] = self.w1[k] + self.start[k] * s + 0.5 * self.slope[k] * s * s
        return out

    def antideriv2(self, t):
        """Second antiderivative consistent with ``antideriv``."""
        t, idx = self._locate(t)
        if self.bounds.size == 0:
            return 0.5 * self.left_val * t * t
        out = np.empty_like(t)
        left = idx == 0
        right = idx == self.bounds.size
        mid = ~(left | right)
        sL = t[left] - self.bounds[0]
        out[left] = self.w2[0] + self.w1[0] * sL + 0.5 * self.left_val * sL * sL
        sR = t[right] - self.bounds[-1]
        out[right] = self.w2[-1] + self.w1[-1] * sR + 0.5 * self.right_val * sR * sR
        if np.any(mid):
            k = idx[mid] - 1
            s = t[mid] - self.bounds[k]
            out[mid] = (
                self.w2[k]
                + self.w1[k] * s
                + 0.5 * self.start[k] * s * s
                + self.slope[k] * s**3 / 6.0
            )
        return out

    def double_integral(self, lo, hi):
        """Signed integral of ``antideriv`` between lo and hi.

        When both endpoints sit on the same constant extension the value
        is computed in factored form, so that score components cancel
        exactly there (see class docstring).
        """
        if self.bounds is None:
            raise NotImplementedError(f"{self.kind} weight has no exact antiderivative")
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        shape = np.broadcast(lo, hi).shape
        if self.bounds.size == 0:
            return (0.5 * self.left_val * (hi * hi - lo * lo)).reshape(shape)
        lo = np.atleast_1d(np.broadcast_to(lo, shape))
        hi = np.atleast_1d(np.broadcast_to(hi, shape))
        out = np.asarray(self.antideriv2(hi) - self.antideriv2(lo))
        both_right = (lo >= self.bounds[-1]) & (hi >= self.bounds[-1])
        if np.any(both_right):
            l, h = lo[both_right], hi[both_right]
            b = self.bounds[-1]
            out[both_right] = self.w1[-1] * (h - l) + 0.5 * self.right_val * (
                (h - b) ** 2 - (l - b) ** 2
            )
        both_left = (lo <= self.bounds[0]) & (hi <= self.bounds[0])
        if np.any(both_left):
            l, h = lo[both_left], hi[both_left]
            b = self.bounds[0]
            out[both_left] = self.w1[0] * (h - l) + 0.5 * self.left_val * (
                (h - b) ** 2 - (l - b) ** 2
            )
        return out.reshape(shape)

    def integral(self, lo, hi):
        """Signed integral of the weight itself between lo and hi."""
        if self.has_exact_integrals:
            return self.antideriv(hi) - self.antideriv(lo)
        return _quad_weight(self, lo, hi)


def _quad_weight(w: WeightFunction, lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.empty(np.broadcast(lo, hi).shape)
    flat_lo = np.broadcast_to(lo, out.shape).ravel()
    flat_hi = np.broadcast_to(hi, out.shape).ravel()
    flat = out.ravel()
    for i in range(flat.size):
        a, b = flat_lo[i], flat_hi[i]
        if a == b:
            flat[i] = 0.0
            continue
        val, err = integrate.quad(
            lambda t: float(w(np.asarray([t]))[0]),
            a,
            b,
            epsabs=1e-12,
            epsrel=1e-10,
            limit=200,
        )
        if err > 1e-8 * max(1.0, abs(val)):
            raise NumericError(
                f"weight integral on [{a}, {b}] reached error {err:.2e} only"
            )
        flat[i] = val
    return out if out.shape else float(flat[0])


def _trapezoid_table(a, b, c, d):
    # (bounds, start, slope, left_val, right_val) of a validated trapezoid
    pieces = []  # (lo, hi, start_value, slope); ramps have finite ends
    if a < b:
        pieces.append((a, b, 0.0, 1.0 / (b - a)))
    if _finite(b) and _finite(c) and b < c:
        pieces.append((b, c, 1.0, 0.0))
    if c < d:
        pieces.append((c, d, 1.0, -1.0 / (d - c)))
    if pieces:
        bounds = [p[0] for p in pieces] + [pieces[-1][1]]
    else:
        # a single jump at the one finite edge, or the constant one
        bounds = [v for v in (a, d) if _finite(v)]
    start = [p[2] for p in pieces]
    slope = [p[3] for p in pieces]
    return bounds, start, slope, float(not _finite(a)), float(not _finite(d))


class RectangularWeight(WeightFunction):
    """Indicator of the half-open cell [a, b); endpoints may be infinite."""

    kind = "rectangular"
    _fields = ("a", "b")

    def __init__(self, a, b):
        a, b = _as_float(a, "rectangular.a"), _as_float(b, "rectangular.b")
        if not a < b:
            raise ValidationError(f"rectangular weight needs a < b, got a={a}, b={b}")
        self.a, self.b = a, b
        super().__init__(*_trapezoid_table(a, a, b, b))


class TrapezoidalWeight(WeightFunction):
    """Ramp up on [a, b), plateau at 1 on [b, c), ramp down on [c, d).

    ``a == b`` drops the left ramp and ``c == d`` drops the right one.
    ``a = b = -inf`` extends the plateau to the left, ``c = d = +inf``
    to the right.
    """

    kind = "trapezoidal"
    _fields = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a = _as_float(a, "trapezoidal.a")
        b = _as_float(b, "trapezoidal.b")
        c = _as_float(c, "trapezoidal.c")
        d = _as_float(d, "trapezoidal.d")
        if not (a <= b <= c <= d):
            raise ValidationError(
                f"trapezoidal weight needs a <= b <= c <= d, got {(a, b, c, d)}"
            )
        if not _finite(a) and (a != b or a != -_INF):
            raise ValidationError("an infinite left edge requires a = b = -inf")
        if not _finite(d) and (c != d or d != _INF):
            raise ValidationError("an infinite right edge requires c = d = +inf")
        if a == d:
            raise ValidationError("trapezoidal weight has empty support (a == d)")
        if (_finite(a) and not _finite(b)) or (_finite(d) and not _finite(c)):
            raise ValidationError(
                f"trapezoidal weight {(a, b, c, d)} has a ramp of infinite length"
            )
        self.a, self.b, self.c, self.d = a, b, c, d
        super().__init__(*_trapezoid_table(a, b, c, d))


class TabulatedWeight(WeightFunction):
    """Piecewise-linear weight through given (breakpoint, value) pairs.

    Outside the table the weight continues with the first or last value.
    """

    kind = "tabulated"
    _fields = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValidationError("tabulated weight needs at least two breakpoints")
        if v.shape != bp.shape:
            raise ValidationError(
                f"tabulated weight has {bp.size} breakpoints but {v.size} values"
            )
        if not np.all(np.isfinite(bp)):
            raise ValidationError("tabulated breakpoints must be finite")
        if not np.all(np.diff(bp) > 0):
            raise ValidationError("tabulated breakpoints must be strictly ascending")
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
            raise ValidationError("tabulated values must lie in [0, 1]")
        self.breakpoints = bp
        self.values = v
        super().__init__(bp, v[:-1], np.diff(v) / np.diff(bp), v[0], v[-1])


def _arctan_antideriv(s):
    # antiderivative of arctan(s)/pi + 1/2 in the shifted variable s
    return 0.5 * s + (s * np.arctan(s) - 0.5 * np.log1p(s * s)) / np.pi


def _arctan_antideriv2(s):
    # antiderivative of _arctan_antideriv
    p2 = 0.5 * (s * s - 1.0) * np.arctan(s) + 0.5 * s - 0.5 * s * np.log1p(s * s)
    return 0.25 * s * s + p2 / np.pi


class _ArctanWeight(WeightFunction):
    # shared parts of the arctan pair, which has closed-form antiderivatives
    _fields = ("center",)
    has_exact_integrals = True

    def __init__(self, center):
        c = _as_float(center, f"{self.kind}.center")
        if not _finite(c):
            raise ValidationError("arctan weight center must be finite")
        self.center = c

    def finite_knots(self):
        return (self.center,)

    def double_integral(self, lo, hi):
        return self.antideriv2(hi) - self.antideriv2(lo)


class ArctanUpperWeight(_ArctanWeight):
    """Smooth, strictly positive weight 1/2 + arctan(t - center)/pi."""

    kind = "arctan_upper"

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 + np.arctan(t - self.center) / np.pi

    def antideriv(self, t):
        t = np.asarray(t, dtype=float)
        return _arctan_antideriv(t - self.center)

    def antideriv2(self, t):
        # antideriv works in the shifted variable s = t - center, so its
        # own antiderivative is the shifted second antiderivative as is
        t = np.asarray(t, dtype=float)
        return _arctan_antideriv2(t - self.center)


class ArctanLowerWeight(_ArctanWeight):
    """Complement 1/2 - arctan(t - center)/pi of the upper arctan weight."""

    kind = "arctan_lower"

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 - np.arctan(t - self.center) / np.pi

    def antideriv(self, t):
        t = np.asarray(t, dtype=float)
        return t - _arctan_antideriv(t - self.center)

    def antideriv2(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * t * t - _arctan_antideriv2(t - self.center)


class NormalizedWeight(WeightFunction):
    """One component of a family normalized to sum to one pointwise.

    ``components`` are nonnegative functions (weights or plain
    callables); this weight evaluates components[index] divided by the
    sum of all components.  No exact antiderivatives exist in general,
    so integrals go through adaptive quadrature.
    """

    kind = "normalized"

    def __init__(self, index, components):
        components = tuple(components)
        if not components:
            raise ValidationError("normalized weight needs at least one component")
        if not 0 <= index < len(components):
            raise ValidationError(
                f"normalized weight index {index} out of range for "
                f"{len(components)} components"
            )
        for k, c in enumerate(components):
            if not callable(c):
                raise ValidationError(f"normalized component {k} is not callable")
        self.index = int(index)
        self.components = components

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        parts = [np.broadcast_to(np.asarray(c(t), dtype=float), t.shape) for c in self.components]
        total = np.sum(parts, axis=0)
        if np.any(total <= 0.0):
            bad = t[np.asarray(total <= 0.0)].ravel()
            raise ValidationError(
                f"normalized weight components all vanish at t={bad[0]!r}"
            )
        return parts[self.index] / total

    def __repr__(self):
        return f"NormalizedWeight(index={self.index}, components={len(self.components)})"

    def finite_knots(self):
        knots = []
        for c in self.components:
            if isinstance(c, WeightFunction):
                knots.extend(c.finite_knots())
        return tuple(knots)

    def config(self):
        entries = []
        for c in self.components:
            if not isinstance(c, WeightFunction):
                raise ValidationError(
                    "normalized weight over plain callables cannot be serialized"
                )
            entries.append(c.config())
        return {"kind": self.kind, "index": self.index, "components": entries}


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of probing a candidate partition of unity."""

    passed: bool
    n_weights: int
    n_probe: int
    tolerance: float
    max_sum_error: float
    worst_point: float
    messages: tuple[str, ...]


class PartitionOfUnity:
    """A validated family of weights summing to one on a domain.

    Validation probes the sum and the range of every weight on a dense
    grid spanning the finite parameters of the weights, extended by one
    span on each side and clipped to the domain.
    """

    def __init__(
        self,
        weights,
        domain: IntervalDomain = REAL_LINE,
        *,
        probe_points: int = PROBE_POINTS_DEFAULT,
        tol: float = SUM_TOLERANCE_DEFAULT,
        validate: bool = True,
    ):
        weights = tuple(weights)
        if not weights:
            raise ValidationError("a partition of unity needs at least one weight")
        for k, w in enumerate(weights):
            if not isinstance(w, WeightFunction):
                raise ValidationError(f"weights[{k}] is not a WeightFunction")
        if not isinstance(domain, IntervalDomain):
            raise ValidationError("domain must be an IntervalDomain")
        self.weights = weights
        self.domain = domain
        self.probe_points = int(probe_points)
        self.tol = float(tol)
        self._grid = None
        if validate:
            report = self.validate()
            if not report.passed:
                raise ValidationError(
                    "not a partition of unity: " + "; ".join(report.messages)
                )

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def probe_grid(self) -> np.ndarray:
        if self._grid is not None:
            return self._grid
        knots = [k for w in self.weights for k in w.finite_knots()]
        if math.isfinite(self.domain.lower):
            knots.append(self.domain.lower)
        if math.isfinite(self.domain.upper):
            knots.append(self.domain.upper)
        if knots:
            lo, hi = min(knots), max(knots)
        else:
            lo, hi = -10.0, 10.0
        span = hi - lo if hi > lo else 1.0
        grid = np.linspace(lo - span, hi + span, self.probe_points)
        grid = grid[np.asarray(self.domain.contains(grid), dtype=bool)]
        if grid.size < 2:
            lo = self.domain.lower if math.isfinite(self.domain.lower) else -10.0
            hi = self.domain.upper if math.isfinite(self.domain.upper) else 10.0
            grid = np.linspace(lo, hi, self.probe_points, endpoint=False)
        self._grid = grid
        return grid

    def eval_matrix(self, t) -> np.ndarray:
        """Weight values at t, stacked as a (n_weights, n_points) matrix."""
        t = np.asarray(t, dtype=float)
        self.domain.require(t, "evaluation point")
        return np.stack([np.broadcast_to(w(t), t.shape) for w in self.weights])

    def validate(self) -> PartitionReport:
        grid = self.probe_grid()
        messages = []
        try:
            mat = self.eval_matrix(grid)
        except (ValidationError, NumericError) as exc:
            return PartitionReport(
                passed=False,
                n_weights=len(self.weights),
                n_probe=grid.size,
                tolerance=self.tol,
                max_sum_error=math.inf,
                worst_point=math.nan,
                messages=(str(exc),),
            )
        sums = mat.sum(axis=0)
        err = np.abs(sums - 1.0)
        worst = int(np.argmax(err))
        max_err = float(err[worst])
        if max_err > self.tol:
            messages.append(
                f"weights sum to {sums[worst]:.15g} at t={grid[worst]:.9g} "
                f"(error {max_err:.3e} > tol {self.tol:.1e})"
            )
        for j, row in enumerate(mat):
            lo, hi = float(row.min()), float(row.max())
            if lo < -self.tol or hi > 1.0 + self.tol:
                messages.append(
                    f"weight {j} leaves [0, 1]: range [{lo:.15g}, {hi:.15g}]"
                )
        return PartitionReport(
            passed=not messages,
            n_weights=len(self.weights),
            n_probe=grid.size,
            tolerance=self.tol,
            max_sum_error=max_err,
            worst_point=float(grid[worst]),
            messages=tuple(messages),
        )


def validate_partition(partition: PartitionOfUnity) -> PartitionReport:
    """Probe a partition and report without raising."""
    return partition.validate()


def eval_weight(weight: WeightFunction, t, domain: IntervalDomain | None = None):
    """Evaluate a weight, optionally enforcing domain membership."""
    t = np.asarray(t, dtype=float)
    if domain is not None:
        domain.require(t, "evaluation point")
    return weight(t)


def rectangular_partition(
    cutpoints, domain: IntervalDomain = REAL_LINE, **kwargs
) -> PartitionOfUnity:
    """Half-open cells between consecutive cut points.

    With cut points c1 < ... < ck the cells are [lower, c1), [c1, c2),
    ..., [ck, upper).  Each point of the domain belongs to exactly one
    cell.
    """
    cuts = np.atleast_1d(np.asarray(cutpoints, dtype=float))
    if cuts.size == 0:
        raise ValidationError("rectangular partition needs at least one cut point")
    if not np.all(np.isfinite(cuts)):
        raise ValidationError("cut points must be finite")
    if not np.all(np.diff(cuts) > 0):
        raise ValidationError("cut points must be strictly ascending")
    if cuts[0] <= domain.lower or cuts[-1] >= domain.upper:
        raise ValidationError(
            f"cut points must lie strictly inside the domain "
            f"[{domain.lower}, {domain.upper})"
        )
    edges = [domain.lower, *cuts.tolist(), domain.upper]
    weights = [RectangularWeight(a, b) for a, b in zip(edges[:-1], edges[1:])]
    return PartitionOfUnity(weights, domain, **kwargs)


def trapezoidal_partition(
    ramps, domain: IntervalDomain = REAL_LINE, **kwargs
) -> PartitionOfUnity:
    """Trapezoidal cells with linear crossfades over the given ramps.

    ``ramps`` is a sequence of (lo, hi) pairs with lo <= hi, strictly
    ascending and inside the domain.  Between ramp i and ramp i+1 the
    cell weight is identically one; across a ramp, adjacent cells trade
    off linearly so the family still sums to one everywhere.
    """
    ramps = [(float(lo), float(hi)) for lo, hi in ramps]
    if not ramps:
        raise ValidationError("trapezoidal partition needs at least one ramp")
    flat = [v for pair in ramps for v in pair]
    if not all(math.isfinite(v) for v in flat):
        raise ValidationError("ramp endpoints must be finite")
    if not all(a <= b for a, b in ramps):
        raise ValidationError("each ramp needs lo <= hi")
    if not all(flat[i] <= flat[i + 1] for i in range(len(flat) - 1)):
        raise ValidationError("ramps must be ascending and non-overlapping")
    if flat[0] <= domain.lower or flat[-1] >= domain.upper:
        raise ValidationError("ramps must lie strictly inside the domain")
    edges = [(domain.lower, domain.lower), *ramps, (domain.upper, domain.upper)]
    weights = [
        TrapezoidalWeight(lo0, hi0, lo1, hi1)
        for (lo0, hi0), (lo1, hi1) in zip(edges[:-1], edges[1:])
    ]
    return PartitionOfUnity(weights, domain, **kwargs)


def normalized_partition(
    components, domain: IntervalDomain = REAL_LINE, **kwargs
) -> PartitionOfUnity:
    """Normalize nonnegative functions psi_j to chi_j = psi_j / sum(psi)."""
    components = tuple(components)
    weights = [NormalizedWeight(j, components) for j in range(len(components))]
    return PartitionOfUnity(weights, domain, **kwargs)


def arctan_pair(
    center, domain: IntervalDomain = REAL_LINE, **kwargs
) -> PartitionOfUnity:
    """Strictly positive two-weight partition splitting softly at center.

    The second weight emphasizes the region above the center, the first
    its complement; both are positive everywhere, so every score
    component built from them stays strictly consistent.
    """
    weights = [ArctanLowerWeight(center), ArctanUpperWeight(center)]
    return PartitionOfUnity(weights, domain, **kwargs)


# --- configuration parsing -------------------------------------------------

_NUM_STRINGS = {"inf": _INF, "+inf": _INF, "-inf": -_INF}


def _num_in(value, field: str) -> float:
    if isinstance(value, str):
        key = value.strip().lower()
        if key in _NUM_STRINGS:
            return _NUM_STRINGS[key]
        raise ValidationError(f"{field}: cannot parse number from {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field}: expected a number, got {value!r}")
    return float(value)


def _num_out(v: float):
    if v == _INF:
        return "inf"
    if v == -_INF:
        return "-inf"
    return v


def _parse_weight(entry, field: str, allow_normalized: bool = True) -> WeightFunction:
    if not isinstance(entry, dict):
        raise ValidationError(f"{field}: weight entry must be an object")
    kind = entry.get("kind")
    known = {
        "rectangular",
        "trapezoidal",
        "arctan_upper",
        "arctan_lower",
        "tabulated",
        "normalized",
    }
    if kind not in known:
        raise ValidationError(
            f"{field}.kind: unknown kind {kind!r}, expected one of {sorted(known)}"
        )

    def need(name):
        if name not in entry:
            raise ValidationError(f"{field}.{name}: missing required field")
        return entry[name]

    if kind == "rectangular":
        return RectangularWeight(
            _num_in(need("a"), f"{field}.a"), _num_in(need("b"), f"{field}.b")
        )
    if kind == "trapezoidal":
        return TrapezoidalWeight(
            _num_in(need("a"), f"{field}.a"),
            _num_in(need("b"), f"{field}.b"),
            _num_in(need("c"), f"{field}.c"),
            _num_in(need("d"), f"{field}.d"),
        )
    if kind in ("arctan_upper", "arctan_lower"):
        cls = ArctanUpperWeight if kind == "arctan_upper" else ArctanLowerWeight
        return cls(_num_in(need("center"), f"{field}.center"))
    if kind == "tabulated":
        bps = need("breakpoints")
        vals = need("values")
        if not isinstance(bps, list) or not isinstance(vals, list):
            raise ValidationError(f"{field}: breakpoints and values must be lists")
        return TabulatedWeight(
            [_num_in(v, f"{field}.breakpoints[{i}]") for i, v in enumerate(bps)],
            [_num_in(v, f"{field}.values[{i}]") for i, v in enumerate(vals)],
        )
    # normalized
    if not allow_normalized:
        raise ValidationError(f"{field}: normalized weights cannot be nested")
    comps = need("components")
    if not isinstance(comps, list) or not comps:
        raise ValidationError(f"{field}.components: expected a non-empty list")
    parsed = [
        _parse_weight(c, f"{field}.components[{i}]", allow_normalized=False)
        for i, c in enumerate(comps)
    ]
    idx = need("index")
    if not isinstance(idx, int) or isinstance(idx, bool):
        raise ValidationError(f"{field}.index: expected an integer")
    return NormalizedWeight(idx, parsed)


def parse_partition_config(obj, source: str = "<config>", **kwargs) -> PartitionOfUnity:
    """Build a partition from a parsed JSON object (see module docstring)."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{source}: partition config must be a JSON object")
    domain = REAL_LINE
    if "domain" in obj:
        d = obj["domain"]
        if not isinstance(d, dict):
            raise ValidationError(f"{source}: domain: expected an object")
        unknown = set(d) - {"lower", "upper"}
        if unknown:
            raise ValidationError(
                f"{source}: domain: unknown fields {sorted(unknown)}"
            )
        domain = IntervalDomain(
            _num_in(d.get("lower", -_INF), f"{source}: domain.lower"),
            _num_in(d.get("upper", _INF), f"{source}: domain.upper"),
        )
    has_cuts = "cutpoints" in obj
    has_weights = "weights" in obj
    if has_cuts == has_weights:
        raise ValidationError(
            f"{source}: provide exactly one of 'cutpoints' or 'weights'"
        )
    unknown = set(obj) - {"domain", "cutpoints", "weights"}
    if unknown:
        raise ValidationError(f"{source}: unknown fields {sorted(unknown)}")
    if has_cuts:
        cuts = obj["cutpoints"]
        if not isinstance(cuts, list) or not cuts:
            raise ValidationError(f"{source}: cutpoints: expected a non-empty list")
        vals = [_num_in(c, f"{source}: cutpoints[{i}]") for i, c in enumerate(cuts)]
        return rectangular_partition(vals, domain, **kwargs)
    entries = obj["weights"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{source}: weights: expected a non-empty list")
    weights = [
        _parse_weight(e, f"{source}: weights[{i}]") for i, e in enumerate(entries)
    ]
    return PartitionOfUnity(weights, domain, **kwargs)


def load_partition_config(path, **kwargs) -> PartitionOfUnity:
    """Read and validate a partition configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read partition config {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return parse_partition_config(obj, source=str(path), **kwargs)


def partition_config(partition: PartitionOfUnity) -> dict:
    """JSON-serializable echo of a partition, inverse of the parser."""
    return {
        "domain": {
            "lower": _num_out(partition.domain.lower),
            "upper": _num_out(partition.domain.upper),
        },
        "weights": [w.config() for w in partition.weights],
    }

"""Region weights and partitions of unity on an interval.

A partition of unity is a finite family of weight functions
chi_1, ..., chi_k with 0 <= chi_j <= 1 and sum_j chi_j(t) = 1 at every
point of the interval of interest.  Weighting a scoring function by the
chi_j splits it into per-region components that add back up to the
original score, which is the basis of everything in
:mod:`veriscore.decomposition`.  A :class:`PartitionOfUnity` checks
this once, when it is built, exactly at the knots of table weights.

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
table.

Moments
-------
Every score component and every CRPS component is a mixture over the
weight, so a weight offers one integral, its moment::

    WeightFunction.moment(k, p, q, y)
        = signed integral of chi(y + u) * u**k for u from p to q,

for k = 0 or 1, elementwise over broadcast p, q and y.  The limits
are offsets from the centre y, so the moment is taken in coordinates
local to y and no term of order y**2 is ever formed.  This is the
convention of :func:`veriscore.quadrature.gauss_kronrod` and of
:func:`veriscore.scoring.moment_score`.  A call forms only the moment
it is asked for.  The table integrates each linear segment about its
midpoint, so its moments are exact to rounding at any magnitude.  Every
other weight gets its moments from ``gauss_kronrod``, vectorized over
all intervals at once and cut at ``finite_knots()``: the arctan pair in
its own coordinate s = t - center, where it is written without
cancellation in either tail, and normalized and custom weights in t.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .io import read_json
from .quadrature import gauss_kronrod

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
    "parse_partition_config",
    "load_partition_config",
    "partition_config",
]

PROBE_POINTS = 10001
SUM_TOLERANCE = 1e-12

_INF = math.inf
_MAX = np.finfo(float).max


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

    def contains(self, t):
        """Vectorized membership test, lower closed, upper open."""
        t = np.asarray(t, dtype=float)
        ok = np.isfinite(t)
        if math.isfinite(self.lower):
            ok = ok & (t >= self.lower)
        if math.isfinite(self.upper):
            ok = ok & (t < self.upper)
        return ok

    def require(self, t, what="value", ids=None):
        """Raise ValidationError if any entry of t falls outside the domain.

        ``ids``, one per entry of a 1d t, names the first offending case.
        """
        t = np.asarray(t, dtype=float)
        bad = np.flatnonzero(~np.asarray(self.contains(t), dtype=bool))
        if bad.size:
            i = bad[0]
            case = "" if ids is None else f"case {ids[i]}: "
            raise ValidationError(
                f"{case}{what} {float(t.ravel()[i])!r} lies outside the domain "
                f"[{self.lower}, {self.upper})"
            )


REAL_LINE = IntervalDomain()


def _as_float(x, field: str) -> float:
    try:
        if isinstance(x, (bool, np.bool_)):
            raise TypeError
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
    it is narrower than the real line).  Its ``moment`` and the scores
    built on it come from quadrature of ``__call__``, and it has no
    ``config()`` form, unless it supplies its own ``moment`` and
    ``config``, as the arctan pair does.  ``has_exact_integrals`` says
    that a weight supplies its own moments, so a score component takes
    them as they are.

    ``moment(k, p, q, y)`` (see the module docstring) integrates the
    table segment by segment.  A segment where the weight is zero adds
    exactly 0.0, so score components built on these moments vanish
    exactly, not merely to rounding, outside the support of their weight.
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
        # evaluation and moments go segment by segment, with the
        # extensions as flat segments 0 and bounds.size
        self._base = np.concatenate([self.bounds[:1], self.bounds])
        self._value0 = np.concatenate([[self.left_val], self.start, [self.right_val]])
        self._slope0 = np.concatenate([[0.0], self.slope, [0.0]])
        self._ramps = bool(np.any(self.slope))
        self._edges = np.concatenate([[-_INF], self.bounds, [_INF]])

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
        """Finite breakpoints, used by the partition check and quadrature."""
        return () if self.bounds is None else tuple(self.bounds.tolist())

    def __call__(self, t):
        if self.bounds is None:
            raise NotImplementedError(f"{self.kind} weight has no table")
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.bounds, t, side="right")
        out = self._value0[idx]
        if self._ramps:
            # clipping keeps the offsets on the extensions finite
            s = np.minimum(np.maximum(t, self.bounds[0]), self.bounds[-1])
            s = s - self._base[idx]
            out = out + self._slope0[idx] * s
        return out

    def moment(self, k, p, q, y):
        """Signed integral of chi(y + u) * u**k for u from p to q, k = 0 or 1."""
        if self.bounds is None:
            # no table: adaptive quadrature
            return gauss_kronrod(self, p, q, y, k, self.finite_knots())
        # every segment, extensions included, is clipped to [p, q] in u and
        # integrated about its clipped midpoint cm, where chi = vm + slope * (u - cm)
        p, q, y = np.broadcast_arrays(p, q, y)
        out = np.zeros(p.shape)
        segments = zip(self._value0, self._slope0, self._edges[:-1], self._edges[1:])
        for v0, s, lo, hi in segments:
            if v0 == 0.0 and s == 0.0:
                continue  # a zero segment adds exactly 0.0
            if s:
                lo, hi = lo - y, hi - y
            else:
                # a shifted edge past the largest float is held at it, so a
                # step that lies wholly beyond it has h = 0, not inf - inf
                with np.errstate(over="ignore"):
                    lo, hi = np.minimum(lo - y, _MAX), np.maximum(hi - y, -_MAX)
            a = np.minimum(np.maximum(p, lo), hi)
            b = np.minimum(np.maximum(q, lo), hi)
            h = b - a
            if k == 0 and not s:
                out += h * v0  # needs no midpoint
                continue
            cm = 0.5 * a + 0.5 * b  # a + b can pass the largest float
            vm = v0 + s * (cm - lo) if s else v0
            if k == 0:
                out += h * vm
            else:
                out += h * (vm * cm + s * h * h / 12.0) if s else h * vm * cm
        return out

    def integral(self, lo, hi):
        """Signed integral of the weight itself between lo and hi."""
        return self.moment(0, 0.0, np.subtract(hi, lo), lo)


def _trapezoid_table(a, b, c, d):
    # (bounds, start, slope, left_val, right_val) of a validated trapezoid
    pieces = []  # (lo, hi, start_value, slope); ramps have finite ends
    if a < b:
        pieces.append((a, b, 0.0, 1.0 / (b - a)))
    if math.isfinite(b) and math.isfinite(c) and b < c:
        pieces.append((b, c, 1.0, 0.0))
    if c < d:
        pieces.append((c, d, 1.0, -1.0 / (d - c)))
    if pieces:
        bounds = [p[0] for p in pieces] + [pieces[-1][1]]
    else:
        # a single jump at the one finite edge, or the constant one
        bounds = [v for v in (a, d) if math.isfinite(v)]
    start = [p[2] for p in pieces]
    slope = [p[3] for p in pieces]
    left, right = float(not math.isfinite(a)), float(not math.isfinite(d))
    return bounds, start, slope, left, right


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
        if not math.isfinite(a) and (a != b or a != -_INF):
            raise ValidationError("an infinite left edge requires a = b = -inf")
        if not math.isfinite(d) and (c != d or d != _INF):
            raise ValidationError("an infinite right edge requires c = d = +inf")
        if a == d:
            raise ValidationError("trapezoidal weight has empty support (a == d)")
        # an infinite edge pair gives nan here; a ramp to infinity, or one
        # whose length overflows, gives inf
        if b - a > _MAX or d - c > _MAX:
            raise ValidationError(
                f"trapezoidal weight {(a, b, c, d)} has a ramp of infinite "
                "length or longer than the largest float"
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
        if not np.all(bp[1:] > bp[:-1]):
            raise ValidationError("tabulated breakpoints must be strictly ascending")
        if np.any(np.diff(bp / 2) > _MAX / 2):  # halves cannot overflow
            raise ValidationError(
                "tabulated weight has a segment longer than the largest float"
            )
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
            raise ValidationError("tabulated values must lie in [0, 1]")
        self.breakpoints = bp
        self.values = v
        super().__init__(bp, v[:-1], np.diff(v) / np.diff(bp), v[0], v[-1])


class _ArctanWeight(WeightFunction):
    # shared parts of the arctan pair; ``_shape(s)`` is the weight at
    # center + s, in a form that does not cancel in either tail
    _fields = ("center",)
    has_exact_integrals = True  # supplies its own moments

    def __init__(self, center):
        c = _as_float(center, f"{self.kind}.center")
        if not math.isfinite(c):
            raise ValidationError("arctan weight center must be finite")
        self.center = c

    def finite_knots(self):
        return (self.center,)

    def __call__(self, t):
        return self._shape(np.asarray(t, dtype=float) - self.center)

    def moment(self, k, p, q, y):
        # quadrature in the weight's own coordinate s = y - center + u,
        # which keeps its digits where t = y + u would not; the quadrature
        # takes finite limits only, so an offset or limit past the largest
        # float is clipped to it, where the weight is 0 or 1
        with np.errstate(over="ignore"):
            sigma = np.clip(np.subtract(y, self.center), -_MAX, _MAX)
        p, q = np.clip(p, -_MAX, _MAX), np.clip(q, -_MAX, _MAX)
        return gauss_kronrod(self._shape, p, q, sigma, k, (0.0,))


class ArctanUpperWeight(_ArctanWeight):
    """Smooth, strictly positive weight 1/2 + arctan(t - center)/pi."""

    kind = "arctan_upper"

    @staticmethod
    def _shape(s):
        return np.arctan2(1.0, -s) / np.pi


class ArctanLowerWeight(_ArctanWeight):
    """Complement 1/2 - arctan(t - center)/pi of the upper arctan weight."""

    kind = "arctan_lower"

    @staticmethod
    def _shape(s):
        return np.arctan2(1.0, s) / np.pi


class NormalizedWeight(WeightFunction):
    """One component of a family normalized to sum to one pointwise.

    ``components`` are nonnegative functions (weights or plain
    callables); this weight evaluates components[index] divided by the
    sum of all components.  No exact moments exist in general,
    so integrals go through adaptive quadrature.
    """

    kind = "normalized"
    _fields = ("index", "components")

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
    """Outcome of checking a candidate partition of unity."""

    passed: bool
    n_weights: int
    n_probe: int
    tolerance: float
    max_sum_error: float
    worst_point: float
    messages: tuple[str, ...]


class PartitionOfUnity:
    """A family of weights checked to sum to one on a domain.

    The constructor keeps the check's outcome as ``report``, or raises
    ``ValidationError`` carrying it.  The weights must be finite, lie in
    [0, 1] and sum to one within ``SUM_TOLERANCE`` at every finite knot
    of the weights and the domain, at each knot's left neighbour, and on
    a grid of ``PROBE_POINTS`` spanning the knots widened by one span on
    each side.  Table weights are linear between knots and constant
    beyond them, so for them this is exact up to evaluation rounding.
    """

    def __init__(self, weights, domain: IntervalDomain = REAL_LINE):
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
        self.report = self._check()
        if not self.report.passed:
            raise ValidationError(
                "not a partition of unity: " + "; ".join(self.report.messages),
                report=self.report,
            )

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def eval_matrix(self, t) -> np.ndarray:
        """Weight values at t, stacked as a (n_weights, n_points) matrix."""
        t = np.asarray(t, dtype=float)
        self.domain.require(t, "evaluation point")
        return np.stack([np.broadcast_to(w(t), t.shape) for w in self.weights])

    def _points(self) -> np.ndarray:
        knots = [k for w in self.weights for k in w.finite_knots()]
        knots += [e for e in (self.domain.lower, self.domain.upper) if math.isfinite(e)]
        lo, hi = (min(knots), max(knots)) if knots else (-10.0, 10.0)
        span = hi - lo if hi > lo else 1.0
        # halved ends keep the grid finite out to the largest float
        a, b = max(lo - span, -_MAX), min(hi + span, _MAX)
        grid = 2.0 * np.linspace(a / 2, b / 2, PROBE_POINTS)
        knots = np.array(sorted(set(knots)))
        points = np.concatenate([grid, knots, np.nextafter(knots, -_INF)])
        return points[self.domain.contains(points)]

    def _check(self) -> PartitionReport:
        points = self._points()
        n, tol = len(self.weights), SUM_TOLERANCE
        try:
            mat = self.eval_matrix(points)
        except (ValidationError, NumericError) as exc:
            return PartitionReport(False, n, points.size, tol, _INF, math.nan, (str(exc),))
        messages = []
        finite = np.isfinite(mat)
        if not finite.all():
            j, i = np.argwhere(~finite)[0]
            messages.append(f"weight {j} is {mat[j, i]} at t={points[i]:.9g}")
        sums = mat.sum(axis=0)
        err = np.abs(sums - 1.0)
        err[np.isnan(err)] = _INF  # a NaN sum ranks worst
        worst = int(np.argmax(err))
        max_err = float(err[worst])
        if max_err > tol:
            messages.append(
                f"weights sum to {sums[worst]:.15g} at t={points[worst]:.9g} "
                f"(error {max_err:.3e} > tol {tol:.1e})"
            )
        for j, row in enumerate(mat):
            lo, hi = float(row.min()), float(row.max())
            if lo < -tol or hi > 1.0 + tol:
                messages.append(
                    f"weight {j} leaves [0, 1]: range [{lo:.15g}, {hi:.15g}]"
                )
        return PartitionReport(
            passed=not messages,
            n_weights=n,
            n_probe=points.size,
            tolerance=tol,
            max_sum_error=max_err,
            worst_point=float(points[worst]),
            messages=tuple(messages),
        )


def rectangular_partition(
    cutpoints, domain: IntervalDomain = REAL_LINE
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
    if not np.all(cuts[1:] > cuts[:-1]):
        raise ValidationError("cut points must be strictly ascending")
    if cuts[0] <= domain.lower or cuts[-1] >= domain.upper:
        raise ValidationError(
            f"cut points must lie strictly inside the domain "
            f"[{domain.lower}, {domain.upper})"
        )
    edges = [domain.lower, *cuts.tolist(), domain.upper]
    weights = [RectangularWeight(a, b) for a, b in zip(edges[:-1], edges[1:])]
    return PartitionOfUnity(weights, domain)


def trapezoidal_partition(
    ramps, domain: IntervalDomain = REAL_LINE
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
    return PartitionOfUnity(weights, domain)


def normalized_partition(
    components, domain: IntervalDomain = REAL_LINE
) -> PartitionOfUnity:
    """Normalize nonnegative functions psi_j to chi_j = psi_j / sum(psi)."""
    components = tuple(components)
    weights = [NormalizedWeight(j, components) for j in range(len(components))]
    return PartitionOfUnity(weights, domain)


def arctan_pair(
    center, domain: IntervalDomain = REAL_LINE
) -> PartitionOfUnity:
    """Strictly positive two-weight partition splitting softly at center.

    The second weight emphasizes the region above the center, the first
    its complement; both are positive everywhere, so every score
    component built from them stays strictly consistent.
    """
    weights = [ArctanLowerWeight(center), ArctanUpperWeight(center)]
    return PartitionOfUnity(weights, domain)


# --- configuration parsing -------------------------------------------------

_WEIGHT_KINDS = {
    cls.kind: cls
    for cls in (
        RectangularWeight,
        TrapezoidalWeight,
        ArctanUpperWeight,
        ArctanLowerWeight,
        TabulatedWeight,
        NormalizedWeight,
    )
}

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
    cls = _WEIGHT_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(
            f"{field}.kind: unknown kind {kind!r}, "
            f"expected one of {sorted(_WEIGHT_KINDS)}"
        )
    if cls is NormalizedWeight and not allow_normalized:
        raise ValidationError(f"{field}: normalized weights cannot be nested")
    unknown = set(entry) - {"kind", *cls._fields}
    if unknown:
        raise ValidationError(f"{field}: unknown fields {sorted(unknown)}")
    for name in cls._fields:
        if name not in entry:
            raise ValidationError(f"{field}.{name}: missing required field")
    if cls is TabulatedWeight:
        bps, vals = entry["breakpoints"], entry["values"]
        if not isinstance(bps, list) or not isinstance(vals, list):
            raise ValidationError(f"{field}: breakpoints and values must be lists")
        return TabulatedWeight(
            [_num_in(v, f"{field}.breakpoints[{i}]") for i, v in enumerate(bps)],
            [_num_in(v, f"{field}.values[{i}]") for i, v in enumerate(vals)],
        )
    if cls is not NormalizedWeight:
        return cls(*(_num_in(entry[name], f"{field}.{name}") for name in cls._fields))
    comps = entry["components"]
    if not isinstance(comps, list) or not comps:
        raise ValidationError(f"{field}.components: expected a non-empty list")
    parsed = [
        _parse_weight(c, f"{field}.components[{i}]", allow_normalized=False)
        for i, c in enumerate(comps)
    ]
    idx = entry["index"]
    if not isinstance(idx, int) or isinstance(idx, bool):
        raise ValidationError(f"{field}.index: expected an integer")
    return NormalizedWeight(idx, parsed)


def parse_partition_config(obj, source: str = "<config>") -> PartitionOfUnity:
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
        return rectangular_partition(vals, domain)
    entries = obj["weights"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{source}: weights: expected a non-empty list")
    weights = [
        _parse_weight(e, f"{source}: weights[{i}]") for i, e in enumerate(entries)
    ]
    return PartitionOfUnity(weights, domain)


def load_partition_config(path) -> PartitionOfUnity:
    """Read and check a partition configuration file."""
    return parse_partition_config(read_json(path), source=str(path))


def partition_config(partition: PartitionOfUnity) -> dict:
    """JSON-serializable echo of a partition, inverse of the parser."""
    return {
        "domain": {
            "lower": _num_out(partition.domain.lower),
            "upper": _num_out(partition.domain.upper),
        },
        "weights": [w.config() for w in partition.weights],
    }

"""Elementary scores, Murphy diagrams, and mixture representations.

Every consistent score in this library is a nonnegative mixture of
elementary scores indexed by a threshold theta.  The elementary score
charges a forecast x only when theta separates x from the observation
y; the mixing measure has density g'(theta) for quantiles and
phi''(theta) for expectiles and Huber means, multiplied by the region
weight when a weighted component is being represented.

``murphy_curve`` averages the elementary score over forecast cases on
a grid of thresholds, one curve per forecast system.  Plotting the
curves against theta shows for which thresholds one system dominates
another; integrating a curve against a mixing density recovers the
mean score under the corresponding generator, which ``murphy_area``
does numerically.

The curve is a sweep, not an n x T array.  Each case's elementary
score is piecewise linear in theta on half-open pieces: [y, x) or
[x, y) for quantiles and expectiles, split at y - nu and y + nu for
Huber means.  The piece ends are sorted once per system and the grid
is located in them, so the active count at each threshold is an
integer difference, and the linear part sums count * theta - sum y.
Those sums are exact: y is cut into integer slices on shared
power-of-two grids (``veriscore.exact``), whose float prefix sums
cannot round, and the slices are recombined as Python integers at the
grid points only.
Each mean is then one correctly rounded division of the exact mean of
the elementary scores (rates 1 - alpha, alpha and nu / 2 as floats).
It is exactly 0.0 where no case is active and never negative.  Time is
O((n + T) log n) and memory O(n + T) for n cases and T thresholds.

``verify_mixture`` checks the mixture representation for one forecast
case by integrating elementary score times mixing density with the
package's adaptive Gauss–Kronrod routine, cut at the integrand's kinks,
and comparing against the directly evaluated score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import RegionGenerator
from .errors import ValidationError
from .exact import as_int, dyadic, slices
from .io import _write_table, fmt12, write_json
from .partition import WeightFunction
from .quadrature import gauss_kronrod
from .scoring import ScoringSpec, check_parameters, score

__all__ = [
    "elementary_score",
    "MurphyCurve",
    "murphy_curve",
    "murphy_area",
    "write_murphy_csv",
    "write_murphy_meta",
    "MixtureCheck",
    "verify_mixture",
]


def elementary_score(functional: str, theta, x, y, *, alpha=None, nu=None):
    """Elementary score at threshold theta, broadcast over all inputs.

    The score is zero unless theta lies between forecast and
    observation (thresholds are attributed to the half-open interval
    [min, max)).  Quantiles charge a flat rate 1-alpha or alpha
    depending on the side, expectiles scale that rate by the distance
    |y - theta|, and Huber means charge the distance capped at nu and
    halved.
    """
    check_parameters(functional, alpha, nu)
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    under = (y <= theta) & (theta < x)  # forecast above, observation below
    over = (x <= theta) & (theta < y)
    if functional == "quantile":
        out = np.where(under, 1.0 - alpha, 0.0) + np.where(over, alpha, 0.0)
    elif functional == "expectile":
        dist = np.abs(y - theta)
        out = np.where(under, (1.0 - alpha) * dist, 0.0) + np.where(
            over, alpha * dist, 0.0
        )
    else:
        capped = 0.5 * np.minimum(np.abs(y - theta), nu)
        out = np.where(under | over, capped, 0.0)
    return float(out) if out.ndim == 0 else out


def _as_xy(cases) -> tuple[np.ndarray, np.ndarray]:
    """Forecast/observation arrays from a (forecasts, observations) pair."""
    if not (isinstance(cases, tuple) and len(cases) == 2):
        raise ValidationError("forecast cases must be a (forecasts, observations) pair")
    x = np.atleast_1d(np.asarray(cases[0], dtype=float))
    y = np.atleast_1d(np.asarray(cases[1], dtype=float))
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValidationError(
            "forecasts and observations must be equal-length non-empty arrays"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("forecasts and observations must be finite")
    return x, y


@dataclass(frozen=True)
class MurphyCurve:
    """Mean elementary scores on a threshold grid, one row per system."""

    functional: str
    alpha: float | None
    nu: float | None
    thresholds: np.ndarray
    names: tuple[str, ...]
    means: np.ndarray  # shape (len(names), len(thresholds))

    def mean_for(self, name: str) -> np.ndarray:
        try:
            return self.means[self.names.index(name)]
        except ValueError:
            raise ValidationError(
                f"no system named {name!r}, have {list(self.names)}"
            ) from None


def _resolve_grid(grid, x_all: np.ndarray, y_all: np.ndarray) -> np.ndarray:
    if grid is None or isinstance(grid, (int, np.integer)):
        n = 501 if grid is None else int(grid)
        if n < 2:
            raise ValidationError("threshold grid needs at least 2 points")
        # halved ends and pad keep the grid finite out to the largest float
        lo = min(x_all.min(), y_all.min()) / 2
        hi = max(x_all.max(), y_all.max()) / 2
        span = hi - lo
        pad = 0.05 * span if span > 0 else 0.5
        half_max = np.finfo(float).max / 2
        return 2.0 * np.linspace(max(lo - pad, -half_max), min(hi + pad, half_max), n)
    if isinstance(grid, tuple) and len(grid) == 3:
        # only a tuple is the range form; a list or an array is the grid itself
        lo, hi, n = (float(v) for v in grid)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValidationError(f"bad threshold range ({lo}, {hi})")
        if not (n.is_integer() and n >= 2):
            raise ValidationError(f"threshold range needs an integer n >= 2, got {n}")
        return np.linspace(lo, hi, int(n))
    arr = np.asarray(grid, dtype=float)
    if arr.ndim == 1 and arr.size >= 2 and np.all(np.isfinite(arr)):
        if not np.all(np.diff(arr) > 0):
            raise ValidationError("explicit threshold grid must be strictly ascending")
        return arr.astype(float)
    raise ValidationError(
        "grid must be None, a point count, (lo, hi, n), or an ascending array"
    )


def _ceil_sum(a, b):
    """The least float at or above the exact sum a + b, elementwise.

    For a float theta, theta < a + b exactly iff theta < _ceil_sum(a, b).
    The rounding error of a + b comes from the two-sum transformation.
    """
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return np.where(err > 0, np.nextafter(s, np.inf), s)


def _pieces(functional, x, y, alpha, nu):
    """Every case's elementary score as classes of half-open pieces.

    Yields (starts, ends, ys, rate): at theta in [start, end) a piece
    adds rate * (theta - y) when ys is given and rate otherwise.
    """
    under, over = y < x, x < y
    xu, yu, xo, yo = x[under], y[under], x[over], y[over]
    if functional == "quantile":
        classes = [(yu, xu, None, 1.0 - alpha), (xo, yo, None, alpha)]
    elif functional == "expectile":
        classes = [(yu, xu, yu, 1.0 - alpha), (xo, yo, yo, -alpha)]
    else:
        # min(|theta - y|, nu) is |theta - y| for y - nu < theta < y + nu
        hi, lo = _ceil_sum(yu, nu), _ceil_sum(yo, -nu)
        classes = [
            (yu, np.minimum(xu, hi), yu, 0.5),
            (np.maximum(xo, lo), yo, yo, -0.5),
            (np.concatenate([hi, xo]), np.concatenate([xu, lo]), None, 0.5 * nu),
        ]
    for starts, ends, ys, rate in classes:
        keep = starts < ends
        yield starts[keep], ends[keep], None if ys is None else ys[keep], rate


def _prefix(values, counts):
    """Sums of the first counts[t] values, for every t."""
    return np.concatenate(([0.0], np.cumsum(values)))[counts]


def _exact_sums(ys, s_order, s_count, e_order, e_count):
    """Exact sums of ys over the active pieces at every threshold.

    Active pieces are the first s_count of ys[s_order] less the first
    e_count of ys[e_order].  Returns levels [(d, b)], the sums being
    sum(d * 2**b): on ``exact.slices`` of ys no prefix sum can round.
    """
    return [
        (_prefix(q[s_order], s_count) - _prefix(q[e_order], e_count), b)
        for q, b in zip(*slices(ys, ys.size))
    ]


def _sweep_means(functional, thresholds, x, y, alpha, nu) -> np.ndarray:
    """Mean elementary score of the cases (x, y) at every threshold."""
    terms = []
    for starts, ends, ys, rate in _pieces(functional, x, y, alpha, nu):
        if starts.size == 0:
            continue
        s_order = np.argsort(starts)
        e_order = np.argsort(ends)
        s_count = np.searchsorted(starts[s_order], thresholds, side="right")
        e_count = np.searchsorted(ends[e_order], thresholds, side="right")
        levels = (
            None if ys is None else _exact_sums(ys, s_order, s_count, e_order, e_count)
        )
        terms.append((rate, s_count - e_count, levels))
    # every threshold and sum is an integer multiple of 2**unit, and each
    # rate p / q has q a power of two dividing den
    unit = min([0] + [b for _, _, levels in terms for _, b in levels or ()])
    theta, unit = dyadic(thresholds, unit)
    den = max([1] + [rate.as_integer_ratio()[1] for rate, _, _ in terms])
    num = np.zeros(thresholds.size, dtype=object)
    for rate, count, levels in terms:
        p, q = rate.as_integer_ratio()
        count = count.astype(object)
        if levels is None:
            value = count << -unit
        else:
            value = count * theta - sum(as_int(d, b - unit) for d, b in levels)
        num += p * (den // q) * value
    # int / int is correctly rounded
    return (num / ((x.size * den) << -unit)).astype(float)


def murphy_curve(
    systems,
    functional: str,
    *,
    alpha=None,
    nu=None,
    grid=None,
) -> MurphyCurve:
    """Mean elementary score per system on a shared threshold grid.

    ``systems`` maps names to forecast cases: a dict, or a sequence of
    (name, cases) pairs, where cases is a (forecasts, observations) pair
    of equal-length arrays.
    ``grid`` defaults to 501 thresholds spanning all forecasts and
    observations with 5 percent padding; an int changes the count, a
    (lo, hi, n) tuple or an ascending list or array fixes it exactly.

    The means come from an exact sweep (see the module docstring):
    O((n + T) log n) time and O(n + T) memory, each mean correctly
    rounded, exactly 0.0 where no case is active, never negative.
    """
    if isinstance(systems, dict):
        items = list(systems.items())
    else:
        items = [(str(name), cases) for name, cases in systems]
    if not items:
        raise ValidationError("murphy_curve needs at least one forecast system")
    names = tuple(name for name, _ in items)
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate system names in {names}")
    check_parameters(functional, alpha, nu)
    alpha_v = None if alpha is None else float(alpha)
    nu_v = None if nu is None else float(nu)
    data = [_as_xy(cases) for _, cases in items]
    thresholds = _resolve_grid(
        grid,
        np.concatenate([x for x, _ in data]),
        np.concatenate([y for _, y in data]),
    )
    means = np.array(
        [_sweep_means(functional, thresholds, x, y, alpha_v, nu_v) for x, y in data]
    )
    return MurphyCurve(
        functional=functional,
        alpha=alpha_v,
        nu=nu_v,
        thresholds=thresholds,
        names=names,
        means=means,
    )


def murphy_area(curve_or_thresholds, means=None, density=None) -> float | np.ndarray:
    """Trapezoid integral of mean elementary score times mixing density.

    Call either as ``murphy_area(curve, density=...)`` to integrate
    every system curve at once, or with explicit threshold and mean
    arrays.  ``density`` defaults to the Lebesgue mixing density 1
    (the quantile case with g(t) = t); pass phi'' for expectile or
    Huber generators.  The grid must cover the integrand's support for
    the area to approximate the mean score.  Explicit thresholds must be
    finite and strictly ascending, and the last axis of ``means`` must
    match them.
    """
    if isinstance(curve_or_thresholds, MurphyCurve):
        curve = curve_or_thresholds
        thresholds, values = curve.thresholds, curve.means
    else:
        if means is None:
            raise ValidationError("murphy_area needs means with explicit thresholds")
        thresholds = np.asarray(curve_or_thresholds, dtype=float)
        values = np.asarray(means, dtype=float)
        if not (
            thresholds.ndim == 1
            and np.all(np.isfinite(thresholds))
            and np.all(np.diff(thresholds) > 0)
        ):
            raise ValidationError("thresholds must be finite and strictly ascending")
        if values.ndim == 0 or values.shape[-1] != thresholds.size:
            raise ValidationError(
                f"means have shape {values.shape}, need a last axis of "
                f"{thresholds.size} thresholds"
            )
    if density is None:
        dens = np.ones_like(thresholds)
    else:
        dens = np.asarray(density(thresholds), dtype=float)
    v = values * dens
    area = (np.diff(thresholds) * (v[..., 1:] + v[..., :-1]) / 2.0).sum(-1)
    return float(area) if area.ndim == 0 else area


def write_murphy_csv(curve: MurphyCurve, path) -> None:
    """Threshold grid and per-system means, 12 significant digits."""
    _write_table(
        path,
        ["theta"] + [f"{name}_mean" for name in curve.names],
        [fmt12(theta) for theta in curve.thresholds],
        curve.means,
    )


def write_murphy_meta(curve: MurphyCurve, path) -> None:
    """JSON sidecar describing how the curve was computed (unweighted)."""
    meta = {
        "functional": curve.functional,
        "alpha": curve.alpha,
        "nu": curve.nu,
        "grid": {
            "lo": float(curve.thresholds[0]),
            "hi": float(curve.thresholds[-1]),
            "n": int(curve.thresholds.size),
        },
        "systems": list(curve.names),
        "weight": None,
    }
    write_json(meta, path)


@dataclass(frozen=True)
class MixtureCheck:
    """Direct score, its mixture integral, and their difference."""

    direct: float
    mixture: float

    @property
    def residual(self) -> float:
        return abs(self.direct - self.mixture)


def verify_mixture(
    spec: ScoringSpec,
    x: float,
    y: float,
    *,
    weight: WeightFunction | None = None,
) -> MixtureCheck:
    """Compare a score against its elementary mixture integral.

    The integrand is ``elementary_score`` times mixing density (times the
    region weight when one is given).  It lives on [min(x, y), max(x, y)]
    and is smooth except at the Huber kinks y +- nu and the weight's
    knots, so ``gauss_kronrod`` integrates it on panels cut there.  Its
    nodes lie strictly inside each panel, so the half-open convention at
    x, y and the kinks is never sampled.  The check evaluates elementary
    scores pointwise and shares no moment formula with ``score``.
    """
    x, y = float(x), float(y)
    if not (np.isfinite(x) and np.isfinite(y)):
        raise ValidationError("forecast and observation must be finite")
    if weight is None:
        direct = float(score(spec, x, y))
    else:
        direct = float(RegionGenerator(spec, weight).score(x, y))

    def integrand(theta):
        v = elementary_score(spec.functional, theta, x, y, alpha=spec.alpha, nu=spec.nu)
        v = v * spec.generator.density(theta)
        return v if weight is None else v * weight(theta)

    knots = [] if spec.nu is None else [y - spec.nu, y + spec.nu]
    if weight is not None:
        knots += weight.finite_knots()
    mixture = gauss_kronrod(integrand, min(x, y), max(x, y), 0.0, 0, knots)
    return MixtureCheck(direct=direct, mixture=float(mixture))

"""Consistent scoring functions for quantiles, expectiles, and Huber means.

Each family is parameterized by a generator: a nondecreasing function g
for quantiles, a convex function phi for expectiles and Huber means.
With indicator ind = 1 when y < x:

* quantile level alpha:   (ind - alpha) * (g(x) - g(y))
* expectile level alpha:  |ind - alpha| * (phi(y) - phi(x) - phi'(x)(y - x))
* Huber mean, cap nu:     0.5 * (phi(y) - phi(k + y) + k * phi'(x)),
  where k = cap(x - y, nu) clamps to [-nu, nu].

Each score is a mixture of elementary scores with mixing density g' or
phi'', so a generator is given by that density alone; g and phi follow
from it up to affine terms that no score can see.  ``check_parameters``
is the one rule for (functional, alpha, nu).

When the density is a constant c (``deriv_const``, true of every
built-in generator), ``score`` takes the brackets in difference form,
c(x - y), c(x - y)^2 / 2 and c k (2(x - y) - k) / 2, exact at any
magnitude of x and y.  Any other generator is scored by
``moment_score``: quadrature of the density in coordinates local to y,
the same forms its region components use, so the total does not cancel
at large magnitude either.

Familiar special cases: g(t) = t gives the pinball loss, g(t) = 2t at
level 1/2 gives absolute error, phi(t) = 2t^2 at level 1/2 gives squared
error, and phi(t) = t^2 gives the classic Huber loss.

Scores are negatively oriented (smaller is better), nonnegative, and
zero when forecast equals observation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import ValidationError
from .exact import dyadic
from .quadrature import gauss_kronrod

__all__ = [
    "GeneratorSpec",
    "ScoringSpec",
    "DiscreteDistribution",
    "FunctionalValue",
    "cap",
    "score",
    "functional_value",
    "check_generator",
    "check_parameters",
    "quantile_score",
    "absolute_error",
    "expectile_score",
    "squared_error",
    "huber_loss",
]

FUNCTIONALS = ("quantile", "expectile", "huber_mean")


def cap(value, nu):
    """Clamp value to [-nu, nu] elementwise; nu as for ``huber_mean``."""
    check_parameters("huber_mean", None, nu)
    return np.clip(value, -nu, nu)


def _constant(c: float) -> Callable:
    return lambda t: np.full_like(np.asarray(t, dtype=float), c)


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator g or phi, given by its mixing density.

    ``family`` is "g" (quantile generators) or "phi" (expectile and
    Huber generators).  ``density`` is g' or phi'': the score is a
    mixture of elementary scores with that mixing density.  When the
    density is a known constant, ``deriv_const`` records it; region
    components then take the weight's own moments, in closed form for
    table weights.
    """

    kind: str
    family: str
    density: Callable
    deriv_const: float | None = None

    @staticmethod
    def identity_g() -> "GeneratorSpec":
        return GeneratorSpec("identity_g", "g", _constant(1.0), deriv_const=1.0)

    @staticmethod
    def quadratic_phi() -> "GeneratorSpec":
        return GeneratorSpec("quadratic_phi", "phi", _constant(2.0), deriv_const=2.0)

    @staticmethod
    def scaled_quadratic_phi() -> "GeneratorSpec":
        return GeneratorSpec(
            "scaled_quadratic_phi", "phi", _constant(4.0), deriv_const=4.0
        )

    @staticmethod
    def custom_g(g_prime, *, deriv_const=None) -> "GeneratorSpec":
        """Custom quantile generator g, given by g' >= 0."""
        return GeneratorSpec("custom", "g", g_prime, deriv_const)

    @staticmethod
    def custom_phi(phi_second, *, deriv_const=None) -> "GeneratorSpec":
        """Custom expectile or Huber generator phi, given by phi'' >= 0."""
        return GeneratorSpec("custom", "phi", phi_second, deriv_const)


def check_generator(gen: GeneratorSpec) -> None:
    """Probe monotonicity (g) or convexity (phi) on [-100, 100]; raise if violated."""
    if gen.family not in ("g", "phi"):
        raise ValidationError(f"unknown generator family {gen.family!r}")
    if not callable(gen.density):
        raise ValidationError(f"generator density {gen.density!r} is not callable")
    grid = np.linspace(-100.0, 100.0, 201)
    d = np.asarray(gen.density(grid), dtype=float)
    if d.shape != grid.shape:
        raise ValidationError(f"generator density has shape {d.shape}, t {grid.shape}")
    i = np.argmin(np.where(np.isfinite(d), d, -np.inf))  # not finite, else the least
    if not -1e-12 <= d[i] < np.inf:
        raise ValidationError(
            f"generator density is {d[i]:.3e} at t={grid[i]:.6g}; must be finite, >= 0"
        )


def check_parameters(functional: str, alpha, nu) -> None:
    """Raise ValidationError unless (functional, alpha, nu) is a valid triple.

    Quantiles and expectiles take a level alpha in (0, 1) and no cap;
    Huber means take a positive finite cap nu and no level.
    """
    if functional not in FUNCTIONALS:
        raise ValidationError(
            f"unknown functional {functional!r}, expected one of {FUNCTIONALS}"
        )
    for name, v in (("alpha", alpha), ("nu", nu)):
        if isinstance(v, (bool, np.bool_)):
            raise ValidationError(f"{name} must be a real number, got {v!r}")
    if functional in ("quantile", "expectile"):
        if alpha is None or not 0.0 < alpha < 1.0:
            raise ValidationError(
                f"{functional} level alpha must lie in (0, 1), got {alpha!r}"
            )
        if nu is not None:
            raise ValidationError(f"{functional} takes no cap nu")
    else:
        if nu is None or not 0.0 < nu < math.inf:
            raise ValidationError(
                f"Huber cap nu must be positive and finite, got {nu!r}"
            )
        if alpha is not None:
            raise ValidationError("huber_mean takes no level alpha")


@dataclass(frozen=True)
class ScoringSpec:
    """A functional plus the generator that scores it.

    ``alpha`` is the quantile or expectile level in (0, 1); ``nu`` is
    the positive finite Huber cap (see ``check_parameters``).  The
    generator family must match the functional: "g" for quantiles,
    "phi" otherwise.
    """

    functional: str
    generator: GeneratorSpec
    alpha: float | None = None
    nu: float | None = None

    def __post_init__(self):
        check_parameters(self.functional, self.alpha, self.nu)
        wanted = "g" if self.functional == "quantile" else "phi"
        if self.generator.family != wanted:
            raise ValidationError(
                f"{self.functional} needs a {wanted!r}-family generator, "
                f"got {self.generator.family!r}"
            )
        if self.generator.kind == "custom":
            check_generator(self.generator)

    def describe(self) -> dict:
        """Compact echo used in reports."""
        out = {"functional": self.functional, "generator": self.generator.kind}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.nu is not None:
            out["nu"] = self.nu
        return out


def moment_score(spec: ScoringSpec, moment, x, y):
    """The score from moments of its mixing density, in coordinates local to y.

    ``moment(k, p, q, y)`` is the signed integral of rho(t) * (t - y)**k
    over t from y + p to y + q, for k = 0 or 1, where rho is g' or phi''
    times any region weight.  With d = x - y and k = cap(d, nu):

        quantile    (ind - alpha) * moment(0, 0, d),
        expectile   |ind - alpha| * |moment(1, 0, d)|,
        Huber mean  (|moment(1, 0, k)| + nu * |moment(0, k, d)|) / 2.

    No term cancels, so the forms keep their accuracy at any magnitude.
    """
    d = x - y
    ind = (y < x).astype(float)
    if spec.functional == "quantile":
        # + 0.0 turns the -0.0 at x == y or off a weight's support into 0.0
        return (ind - spec.alpha) * moment(0, 0.0, d, y) + 0.0
    if spec.functional == "expectile":
        return np.abs(ind - spec.alpha) * np.abs(moment(1, 0.0, d, y))
    k = np.clip(d, -spec.nu, spec.nu)
    return 0.5 * (
        np.abs(moment(1, 0.0, k, y)) + spec.nu * np.abs(moment(0, k, d, y))
    )


def score(spec: ScoringSpec, x, y):
    """Evaluate the scoring function at forecasts x and observations y.

    Vectorized; x and y broadcast against each other.  Scalar inputs
    return a float.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValidationError("forecasts and observations must be finite")
    gen = spec.generator
    c = gen.deriv_const
    if c is None:
        out = moment_score(
            spec, lambda k, p, q, y: gauss_kronrod(gen.density, p, q, y, k), x, y
        )
    elif spec.functional == "quantile":
        out = ((y < x) - spec.alpha) * (c * (x - y)) + 0.0  # + 0.0: no -0.0
    elif spec.functional == "expectile":
        d = x - y
        out = np.abs((y < x) - spec.alpha) * (0.5 * c * d * d)
    else:
        d = x - y
        k = np.clip(d, -spec.nu, spec.nu)
        out = 0.5 * (0.5 * c * k * (2.0 * d - k))
    if out.ndim == 0:
        return float(out)
    return out


class DiscreteDistribution:
    """Finite discrete distribution given by support points and masses.

    Values are sorted, duplicates merged, and probabilities normalized
    to sum to one exactly.
    """

    def __init__(self, values, probs):
        v = np.atleast_1d(np.asarray(values, dtype=float))
        p = np.atleast_1d(np.asarray(probs, dtype=float))
        if v.shape != p.shape or v.ndim != 1 or v.size == 0:
            raise ValidationError("values and probs must be equal-length 1d arrays")
        if not np.all(np.isfinite(v)):
            raise ValidationError("support points must be finite")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValidationError("probabilities must be finite and nonnegative")
        total = p.sum()
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        keep = p > 0
        # bincount adds equal values' masses in input order, as a merge would
        self.values, where = np.unique(v[keep], return_inverse=True)
        probs = np.bincount(where, weights=p[keep])
        self.probs = probs / probs.sum()

    def __repr__(self):
        return f"DiscreteDistribution({self.values.tolist()}, {self.probs.tolist()})"

    def mean(self) -> float:
        return float(self.values @ self.probs)

    def expected_score(self, spec: ScoringSpec, x):
        """E[score(spec, x, Y)] for a grid of forecasts x, vectorized."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s = score(spec, x[:, None], self.values[None, :])
        out = np.asarray(s) @ self.probs
        return out

    def sample(self, rng: np.random.Generator, size: int):
        return rng.choice(self.values, size=size, p=self.probs)


@dataclass(frozen=True)
class FunctionalValue:
    """A functional of a distribution, with its full solution interval.

    ``value`` is the representative point: the lower endpoint for
    quantiles, the unique root for expectiles, the interval midpoint for
    Huber means.  ``lower`` and ``upper`` bound the set of points at
    which the functional is attained; they coincide when the solution is
    unique.
    """

    value: float
    lower: float
    upper: float


def _quantile_value(dist: DiscreteDistribution, alpha: float) -> FunctionalValue:
    cum = np.cumsum(dist.probs)
    tol = 1e-12
    idx = int(np.searchsorted(cum, alpha - tol))
    idx = min(idx, dist.values.size - 1)
    lo = float(dist.values[idx])
    if abs(cum[idx] - alpha) <= tol and idx + 1 < dist.values.size:
        hi = float(dist.values[idx + 1])
    else:
        hi = lo
    return FunctionalValue(lo, lo, hi)


def _root_set(dist: DiscreteDistribution, alpha, nu) -> FunctionalValue:
    """The expectile at level alpha (nu None) or the Huber mean with cap nu.

    On the inputs as dyadic integers every sign is exact.  The root set's
    ends are n / m on the segments ending at the first kinks where the
    identification function is <= 0 and < 0.
    """
    w, unit = dyadic(np.concatenate(([nu or 0.0], dist.values, dist.probs)))
    c, (v, q) = w[0], w[1:].reshape(2, -1)
    mass, moment = (list(accumulate(s, initial=0)) for s in (q, q * v))
    if nu is None:  # kinks at the support, and one past it
        a, b = alpha.as_integer_ratio()
        kinks = [*v, v[-1] + 1]
        def coef(k):  # alpha above + (1 - alpha) below: the points [0, j)
            j = bisect_left(v, k)
            return [a * (s[-1] - s[j]) + (b - a) * s[j] for s in (moment, mass)]
    else:  # kinks at v -+ nu
        low, high = (v + c).tolist(), (v - c).tolist()
        kinks = sorted(low + high)
        def coef(k):  # the points [0, i) are capped at -nu, [j, end) at +nu
            i, j = bisect_left(low, k), bisect_left(high, k)
            n = moment[j] - moment[i] + c * (mass[-1] - mass[j] - mass[i])
            return n, mass[j] - mass[i]

    def value(k):
        n, m = coef(k)
        return n - m * k

    (n1, m1), (n2, m2) = (
        coef(kinks[bisect_left(kinks, True, key=key)])
        for key in (lambda k: value(k) <= 0, lambda k: value(k) < 0)
    )
    d = 2 * m1 * m2 << -unit  # int / int is correctly rounded
    return FunctionalValue((n1 * m2 + n2 * m1) / d, 2 * n1 * m2 / d, 2 * n2 * m1 / d)


def functional_value(spec: ScoringSpec, dist: DiscreteDistribution) -> FunctionalValue:
    """The quantile, expectile, or Huber mean of a discrete distribution.

    Quantiles use the generalized inverse and report the full interval
    when the level is hit exactly.  Expectiles and Huber means are in
    closed form on the sign-change segment of their piecewise-linear
    identification functions (``_root_set``): the exact root set.
    """
    if spec.functional == "quantile":
        return _quantile_value(dist, spec.alpha)
    return _root_set(dist, spec.alpha, spec.nu)


# --- common ready-made specs ------------------------------------------------


def quantile_score(alpha: float) -> ScoringSpec:
    """Pinball loss at level alpha (generator g(t) = t)."""
    return ScoringSpec("quantile", GeneratorSpec.identity_g(), alpha=alpha)


def absolute_error() -> ScoringSpec:
    """|x - y| as the median's scoring function (g(t) = 2t at level 1/2)."""
    gen = GeneratorSpec.custom_g(_constant(2.0), deriv_const=2.0)
    return ScoringSpec("quantile", gen, alpha=0.5)


def expectile_score(alpha: float) -> ScoringSpec:
    """Asymmetric squared error at level alpha (phi(t) = 2t^2)."""
    return ScoringSpec("expectile", GeneratorSpec.scaled_quadratic_phi(), alpha=alpha)


def squared_error() -> ScoringSpec:
    """(x - y)^2 as the mean's scoring function."""
    return expectile_score(0.5)


def huber_loss(nu: float) -> ScoringSpec:
    """Classic Huber loss with cap nu (phi(t) = t^2)."""
    return ScoringSpec("huber_mean", GeneratorSpec.quadratic_phi(), nu=nu)

"""Splitting a consistent score into per-region components.

Given a partition of unity chi_1, ..., chi_k and a scoring function
with generator g (quantiles) or phi (expectiles, Huber means), each
region j gets its own generator by integrating the weighted derivative
rho_j = chi_j * g' (quantiles) or rho_j = chi_j * phi'' (expectiles,
Huber means) from an anchor point u_j:

    g_j(u)   = integral from u_j to u of rho_j(t) dt,
    phi_j(u) = integral from u_j to u of (u - t) * rho_j(t) dt,

the second being the double integral of rho_j written as one integral,
so g = sum g_j and phi = sum phi_j up to affine terms that no score in
these families can see.  Scoring each region with its own generator
yields components S_j with sum_j S_j = S.  Each component is itself a
consistent scoring function for the same functional, is nonnegative,
and vanishes identically on any interval its weight does not touch.
Strictly positive weights (the arctan pair) keep strict consistency.

Closed forms
------------
When the weighted derivative rho_j is piecewise linear,
its antiderivatives are exact piecewise polynomials; with the arctan
weights they are elementary functions.  Both cases are available
whenever the weight carries exact antiderivatives and the generator's
relevant derivative is a constant (all built-in generators).  Scores
are then evaluated through difference forms that never reference the
anchor, so components cancel *exactly*, not merely to rounding, for
forecast and observation on the same side outside the weight's support.

Everything else falls back to adaptive quadrature of the mixture
integral over [min(x, y), max(x, y)] of rho_j(t) times an elementary
kernel: 1 for quantiles, |y - t| for expectiles and
min(|t - y|, nu) / 2 for Huber means, split at the weight's knots and
at y - nu, y + nu.  The target absolute tolerance is ``quad_tol``
(default 1e-10); a result whose error estimate exceeds
1e-7 * max(1, |value|) raises :class:`NumericError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import NumericError, ValidationError
from .partition import PartitionOfUnity, WeightFunction
from .scoring import ScoringSpec, score

__all__ = [
    "RegionGenerator",
    "ClosedFormInfo",
    "DecomposedScore",
    "region_generator",
    "decompose",
    "score_components",
    "score_decomposed",
]

QUAD_TOL_DEFAULT = 1e-10


def _one(t):
    return 1.0


def _each(f, *arrays):
    # f applied to every element of the broadcast arrays, as floats
    arrays = np.broadcast_arrays(*arrays)
    flat = [a.ravel() for a in arrays]
    out = np.array([f(*vals) for vals in zip(*flat)], dtype=float)
    return out.reshape(arrays[0].shape)


def _scalar_or_array(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ClosedFormInfo:
    """Description of an exact component evaluation path."""

    weight_kind: str
    deriv_const: float
    knots: tuple[float, ...]
    anchor: float


@dataclass(frozen=True)
class DecomposedScore:
    """Per-region components plus the directly evaluated total.

    ``total`` is score(spec, x, y) itself; the components sum back to it
    within floating-point rounding.
    """

    per_component: np.ndarray
    total: float | np.ndarray

    @property
    def component_sum(self):
        return self.per_component.sum(axis=0)


def _default_anchor(weight: WeightFunction) -> float:
    lo, hi = weight.support()
    if math.isfinite(lo):
        return float(lo)
    return 0.0


class RegionGenerator:
    """The generator of one score component: a weight applied to a base.

    ``value(u)`` is g_j(u) or phi_j(u) anchored at ``anchor``;
    ``derivative(u)`` is phi_j'(u) for phi-family bases.  Scoring goes
    through anchor-free difference forms (see module docstring).
    """

    def __init__(
        self,
        spec: ScoringSpec,
        weight: WeightFunction,
        *,
        anchor: float | None = None,
        quad_tol: float = QUAD_TOL_DEFAULT,
    ):
        if not isinstance(spec, ScoringSpec):
            raise ValidationError("spec must be a ScoringSpec")
        if not isinstance(weight, WeightFunction):
            raise ValidationError("weight must be a WeightFunction")
        self.spec = spec
        self.weight = weight
        self.anchor = float(anchor) if anchor is not None else _default_anchor(weight)
        if not math.isfinite(self.anchor):
            raise ValidationError("anchor must be finite")
        self.quad_tol = float(quad_tol)
        self._closed = (
            weight.has_exact_integrals and spec.generator.deriv_const is not None
        )

    @property
    def has_closed_form(self) -> bool:
        return self._closed

    @property
    def closed_form(self) -> ClosedFormInfo | None:
        if not self._closed:
            return None
        return ClosedFormInfo(
            weight_kind=self.weight.kind,
            deriv_const=float(self.spec.generator.deriv_const),
            knots=self.weight.finite_knots(),
            anchor=self.anchor,
        )

    # -- weighted derivative of the base generator ------------------------

    def _density(self, t):
        gen = self.spec.generator
        d = gen.derivative(t) if gen.family == "g" else gen.second_derivative(t)
        return np.asarray(d, dtype=float) * self.weight(t)

    def _quad(self, lo: float, hi: float, kernel=_one, kinks=()) -> float:
        # signed integral of density(t) * kernel(t) from lo to hi, split
        # at the weight's knots and at the kernel's kinks
        if lo == hi:
            return 0.0
        sign = 1.0
        if hi < lo:
            lo, hi, sign = hi, lo, -1.0
        pts = [k for k in (*self.weight.finite_knots(), *kinks) if lo < k < hi]
        val, err = integrate.quad(
            lambda t: float(self._density(np.asarray([t]))[0]) * kernel(t),
            lo,
            hi,
            points=pts or None,
            epsabs=self.quad_tol,
            epsrel=1e-10,
            limit=300,
        )
        if err > 1e-7 * max(1.0, abs(val)):
            raise NumericError(
                f"component quadrature on [{lo}, {hi}] achieved error "
                f"{err:.2e} only"
            )
        return sign * val

    def _antideriv(self, u: float) -> float:
        # integral from the anchor to u of density(t): g_j(u) or phi_j'(u)
        return self._quad(self.anchor, u)

    def _antideriv2(self, u: float) -> float:
        # phi_j(u): integral from the anchor to u of (u - t) * density(t)
        return self._quad(self.anchor, u, lambda t: u - t)

    # -- anchored pointwise evaluation -------------------------------------

    def value(self, u):
        """g_j(u) for g-family bases, phi_j(u) for phi-family bases."""
        u = np.asarray(u, dtype=float)
        w, a, c = self.weight, self.anchor, self.spec.generator.deriv_const
        g_family = self.spec.generator.family == "g"
        if not self._closed:
            out = _each(self._antideriv if g_family else self._antideriv2, u)
        elif g_family:
            out = c * (w.antideriv(u) - w.antideriv(a))
        else:
            out = c * (w.antideriv2(u) - w.antideriv2(a) - w.antideriv(a) * (u - a))
        return _scalar_or_array(out)

    def derivative(self, u):
        """phi_j'(u); defined for phi-family bases only."""
        if self.spec.generator.family != "phi":
            raise ValidationError("derivative() applies to phi-family bases only")
        u = np.asarray(u, dtype=float)
        if not self._closed:
            return _scalar_or_array(_each(self._antideriv, u))
        c, w = self.spec.generator.deriv_const, self.weight
        return _scalar_or_array(c * (w.antideriv(u) - w.antideriv(self.anchor)))

    # -- anchor-free score forms -------------------------------------------

    def _between(self, x, y, kernel, kinks=lambda fy: ()):
        # integral of density(t) * kernel(t, y) over [min(x, y), max(x, y)]
        return _each(
            lambda fx, fy: self._quad(
                min(fx, fy), max(fx, fy), lambda t: kernel(t, fy), kinks(fy)
            ),
            x,
            y,
        )

    def _gdiff(self, x, y):
        # g_j(x) - g_j(y)
        if self._closed:
            c = self.spec.generator.deriv_const
            w = self.weight
            return c * (w.antideriv(x) - w.antideriv(y))
        return _each(self._quad, y, x)

    def _bregman(self, x, y):
        # phi_j(y) - phi_j(x) - phi_j'(x) * (y - x), computed without the
        # anchor so that it cancels exactly off-support
        if self._closed:
            c = self.spec.generator.deriv_const
            w = self.weight
            return c * (w.double_integral(x, y) - w.antideriv(x) * (y - x))
        return self._between(x, y, lambda t, fy: abs(fy - t))

    def _huber_form(self, x, y, nu):
        # 0.5 * (phi_j(y) - phi_j(z) + k * phi_j'(x)) with z = y + k,
        # k = cap(x - y, nu).  The recomputed difference d = z - y is used
        # in place of k (they differ by at most one ulp of y), which makes
        # the form anchor-free and exactly zero off-support.
        if self._closed:
            k = np.clip(x - y, -nu, nu)
            z = y + k
            d = z - y
            c = self.spec.generator.deriv_const
            w = self.weight
            return 0.5 * c * (d * w.antideriv(x) - w.double_integral(y, z))
        return self._between(
            x,
            y,
            lambda t, fy: 0.5 * min(abs(t - fy), nu),
            lambda fy: (fy - nu, fy + nu),
        )

    def score(self, x, y):
        """This region's score component, vectorized like score()."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x, y = np.broadcast_arrays(x, y)
        spec = self.spec
        ind = (y < x).astype(float)
        if spec.functional == "quantile":
            out = (ind - spec.alpha) * self._gdiff(x, y)
        elif spec.functional == "expectile":
            out = np.abs(ind - spec.alpha) * self._bregman(x, y)
        else:
            out = self._huber_form(x, y, spec.nu)
        return _scalar_or_array(out)


def region_generator(
    spec: ScoringSpec,
    weight: WeightFunction,
    *,
    anchor: float | None = None,
    quad_tol: float = QUAD_TOL_DEFAULT,
) -> RegionGenerator:
    """Build the component generator for a single weight."""
    return RegionGenerator(spec, weight, anchor=anchor, quad_tol=quad_tol)


def decompose(
    spec: ScoringSpec,
    partition: PartitionOfUnity,
    *,
    anchors=None,
    quad_tol: float = QUAD_TOL_DEFAULT,
) -> tuple[RegionGenerator, ...]:
    """Component generators for every weight of a partition.

    ``anchors`` optionally overrides the per-weight anchor points; score
    components do not depend on them (only the anchored pointwise values
    do).
    """
    if anchors is None:
        anchors = [None] * len(partition)
    anchors = list(anchors)
    if len(anchors) != len(partition):
        raise ValidationError(
            f"got {len(anchors)} anchors for {len(partition)} weights"
        )
    return tuple(
        RegionGenerator(spec, w, anchor=a, quad_tol=quad_tol)
        for w, a in zip(partition, anchors)
    )


def score_components(regions, x, y) -> np.ndarray:
    """Stack of component scores, shape (n_regions,) + broadcast(x, y)."""
    regions = tuple(regions)
    if not regions:
        raise ValidationError("need at least one region generator")
    return np.stack([np.asarray(r.score(x, y)) for r in regions])


def score_decomposed(regions, x, y) -> DecomposedScore:
    """Components together with the directly evaluated total score."""
    regions = tuple(regions)
    parts = score_components(regions, x, y)
    total = score(regions[0].spec, x, y)
    return DecomposedScore(per_component=parts, total=total)

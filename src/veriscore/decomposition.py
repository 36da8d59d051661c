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

``decompose`` gives one ``RegionGenerator`` per weight of a partition
and ``score_components`` stacks their scores; the total they sum to is
:func:`veriscore.scoring.score`.

Moments
-------
Every component is a mixture of elementary scores, so it is the
integral of rho_j(t) times a kernel of degree 0 or 1 in (t - y) over
[min(x, y), max(x, y)].  With d = x - y and k = cap(d, nu), and all
integrals signed and taken from y:

    quantile    (ind - alpha) * integral over [y, x] of rho_j,
    expectile   |ind - alpha| * |integral over [y, x] of (t - y) rho_j|,
    Huber mean  (|integral over [y, y + k] of (t - y) rho_j|
                 + nu * |integral over [y + k, x] of rho_j|) / 2,

and the anchored generators are such integrals over [u_j, u] centred
at u.  ``RegionGenerator`` therefore needs one moment provider: the
signed integral of rho_j(t) * (t - y)**k, k = 0 or 1, between offsets
from y, chosen once from its inputs.  When the weight supplies its own
moments and the generator's density is a constant c (``deriv_const``,
all built-in generators), the provider is c times
``WeightFunction.moment``, taken in coordinates local to y.  For table
weights that is exact to rounding at any magnitude, and exactly zero
for forecast and observation on the same side outside the weight's
support; the arctan pair integrates itself with ``gauss_kronrod`` in
coordinates centred on its own centre.

Otherwise the provider is :func:`veriscore.quadrature.gauss_kronrod`
of rho_j(y + u) * u**k over u, with rho_j = ``GeneratorSpec.density``
times the weight, for all cases at once, with panels cut at the
weight's knots; the Huber split at k is an endpoint.  A panel is
refined until its error estimate meets max(1e-10, 1e-10 * |value|); a
result whose error estimate still exceeds 1e-7 * max(1, |value|)
raises :class:`NumericError` naming the failing element.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .partition import PartitionOfUnity, WeightFunction
from .quadrature import gauss_kronrod
from .scoring import ScoringSpec, moment_score

__all__ = ["RegionGenerator", "decompose", "score_components"]

def _scalar_or_array(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


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
    ``has_closed_form`` tells which moment provider was chosen.
    """

    def __init__(
        self,
        spec: ScoringSpec,
        weight: WeightFunction,
        *,
        anchor: float | None = None,
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
        # _moment(k, p, q, y) is the signed integral of rho_j(t) * (t - y)**k
        # over t from y + p to y + q, for k = 0 or 1
        c = spec.generator.deriv_const
        self.has_closed_form = weight.has_exact_integrals and c is not None
        if self.has_closed_form:
            self._moment = lambda k, p, q, y: c * weight.moment(k, p, q, y)
        else:
            knots = weight.finite_knots()
            self._moment = lambda k, p, q, y: gauss_kronrod(
                self._density, p, q, y, k, knots
            )

    def _density(self, t):
        return np.asarray(self.spec.generator.density(t), dtype=float) * self.weight(t)

    # -- anchored pointwise evaluation -------------------------------------

    def value(self, u):
        """g_j(u) for g-family bases, phi_j(u) for phi-family bases."""
        u = np.asarray(u, dtype=float)
        if self.spec.generator.family == "g":
            out = self._moment(0, self.anchor - u, 0.0, u)
        else:
            # phi_j(u): integral from the anchor to u of (u - t) * rho_j(t)
            out = -self._moment(1, self.anchor - u, 0.0, u)
        return _scalar_or_array(out)

    def derivative(self, u):
        """phi_j'(u); defined for phi-family bases only."""
        if self.spec.generator.family != "phi":
            raise ValidationError("derivative() applies to phi-family bases only")
        u = np.asarray(u, dtype=float)
        return _scalar_or_array(self._moment(0, self.anchor - u, 0.0, u))

    # -- anchor-free score forms -------------------------------------------

    def score(self, x, y):
        """This region's score component, vectorized like score().

        The forms are the moments of the module docstring, written once
        in :func:`veriscore.scoring.moment_score`.
        """
        x, y = np.broadcast_arrays(
            np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        )
        out = moment_score(self.spec, self._moment, x, y)
        return _scalar_or_array(out)


def decompose(
    spec: ScoringSpec, partition: PartitionOfUnity
) -> tuple[RegionGenerator, ...]:
    """Component generators for every weight of a partition."""
    return tuple(RegionGenerator(spec, w) for w in partition)


def score_components(regions, x, y) -> np.ndarray:
    """Stack of component scores, shape (n_regions,) + broadcast(x, y)."""
    regions = tuple(regions)
    if not regions:
        raise ValidationError("need at least one region generator")
    return np.stack([np.asarray(r.score(x, y)) for r in regions])

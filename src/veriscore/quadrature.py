"""The package's one quadrature routine: vectorized adaptive Gauss–Kronrod.

Each integral starts as the panels of [min(p, q), max(p, q)] cut at the
knots.  A pass applies QUADPACK's 15-point Kronrod rule and its embedded
7-point Gauss rule (Piessens et al. 1983) to every open panel, calling the
integrand once on one flat array of nodes.  A panel is accepted when
|K15 - G7| <= max(TOL, 1e-10 * |v|), v the current estimate of its
integral, and bisected otherwise, up to LIMIT panels per integral.  Sums
run elementwise in a fixed order, so an integral's value does not depend
on the batch it is computed in.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError

TOL = 1e-10
LIMIT = 300  # panels per integral

# QUADPACK's qk15 rule: the nonnegative Kronrod nodes on [-1, 1], each with
# its Kronrod weight and its Gauss weight (0.0 where it is no Gauss node)
_RULE = np.array([
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.0, 0.20948214108472782, 0.4179591836734694),
])
# all 15 nodes in ascending order with both rules' weights
NODES, KRONROD, GAUSS = np.concatenate([_RULE[:-1] * (-1.0, 1.0, 1.0), _RULE[::-1]]).T


def gauss_kronrod(f, p, q, y=0.0, k=0, knots=()):
    """Signed integral of f(y + u) * u**k for u from p to q, elementwise.

    p, q and y broadcast and must be finite; the knots are points t where
    f may kink or jump, so panels end at t - y.  Raises
    :class:`NumericError`, with the flat ``index`` of the first failing
    integral, when an error estimate still exceeds 1e-7 * max(1, |value|)
    after LIMIT panels.
    """
    p, q, y = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (p, q, y)))
    shape, n = p.shape, p.size
    p, q, y = p.ravel(), q.ravel(), y.ravel()
    if not np.all(np.isfinite(p) & np.isfinite(q) & np.isfinite(y)):
        raise ValidationError("quadrature limits must be finite")
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    kn = np.sort(np.asarray(knots, dtype=float))
    edges = np.column_stack([lo, np.clip(kn - y[:, None], lo[:, None], hi[:, None]), hi])
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    keep = a < b
    a, b, owner = a[keep], b[keep], np.repeat(np.arange(n), kn.size + 1)[keep]
    total, error, count = np.zeros(n), np.zeros(n), np.bincount(owner, minlength=n)
    while a.size:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        u = mid + half * NODES[:, None]
        fu = np.asarray(f((y[owner] + u).ravel()), dtype=float).reshape(u.shape) * u**k
        kr, diff = np.zeros(a.size), np.zeros(a.size)
        for j in range(NODES.size):  # not a matrix product, whose sums depend on the batch
            kr += KRONROD[j] * fu[j]
            diff += (KRONROD[j] - GAUSS[j]) * fu[j]
        kr, err = half * kr, np.abs(half * diff)
        v = np.abs(total + np.bincount(owner, kr, minlength=n))
        ok = err <= np.maximum(TOL, 1e-10 * v)[owner]
        done = ok | (count + np.bincount(owner[~ok], minlength=n) > LIMIT)[owner]
        total += np.bincount(owner[done], kr[done], minlength=n)
        error += np.bincount(owner[done], err[done], minlength=n)
        a, b, mid, owner = a[~done], b[~done], mid[~done], owner[~done]
        count += np.bincount(owner, minlength=n)
        a, b, owner = np.concatenate([a, mid]), np.concatenate([mid, b]), np.tile(owner, 2)
    bad = np.flatnonzero(~(error <= 1e-7 * np.maximum(1.0, np.abs(total))))
    if bad.size:
        i = int(bad[0])
        raise NumericError(
            f"quadrature of element {i} on [{y[i] + lo[i]}, {y[i] + hi[i]}] "
            f"reached error {error[i]:.2e} only",
            index=i,
        )
    return np.where(q < p, -total, total).reshape(shape)

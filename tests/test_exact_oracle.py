"""Score components against exact oracles at magnitudes up to 1e12.

The cases are a fixed list, so no change elsewhere can move them: four
hand-picked cases, then 120 that Hypothesis 6.155 drew (derandomized)
from these strategies:
- y: a float in [-1e12, 1e12] or one of 1e3, 1e5, 1e6, 1e7, 1e9, 1e12
  and -1e12; x = y + delta, delta an eighth in [-8, 8], a float in
  [-16, 16] or a float in [-1e12, 1e12];
- knots around 0, or around y rounded to an eighth (``near_y``);
- partitions with dyadic knots: up to four cut points on the eighths of
  [-8, 8]; up to three ramps starting at multiples of 4 with width 0 or
  a power of two up to 2; a tabulated pair with power-of-two breakpoint
  gaps and values in eighths; an arctan pair centred on an eighth;
- quantile and expectile levels in [0.01, 0.99], Huber caps in
  [0.01, 100].
So every piecewise-linear weight is exact in binary and its component
integrals are exact rationals, computed here with ``fractions.Fraction``.
The arctan pair is checked against mpmath quadrature at 40 digits.
Each case checks the identity, nonnegativity, exact zeros off a
weight's support, the total, and every component against the oracle,
all within 1e-9 * max(1, |S|) for the exact total S.
"""

from fractions import Fraction

import mpmath
import numpy as np

from veriscore import (
    PartitionOfUnity,
    TabulatedWeight,
    arctan_pair,
    decompose,
    expectile_score,
    huber_loss,
    quantile_score,
    rectangular_partition,
    score,
    score_components,
    trapezoidal_partition,
)

# g' or phi'' of the built-in generators behind each functional
DERIV_CONST = {"quantile": 1, "expectile": 4, "huber_mean": 2}


def _partition(layout, origin):
    kind, params = layout
    if kind == "rectangular":
        return rectangular_partition(sorted({origin + c for c in params}))
    if kind == "trapezoidal":
        ramps = sorted((origin + 4 * s, origin + 4 * s + w) for s, w in params)
        return trapezoidal_partition(ramps)
    if kind == "tabulated":
        start, gaps, values = params
        bp = origin + start + np.concatenate([[0.0], np.cumsum(np.exp2(gaps))])
        v = np.asarray(values[: bp.size], dtype=float) / 8
        return PartitionOfUnity([TabulatedWeight(bp, v), TabulatedWeight(bp, 1 - v)])
    return arctan_pair(origin + params)


def _spec(functional, param):
    if functional == "quantile":
        return quantile_score(param)
    if functional == "expectile":
        return expectile_score(param)
    return huber_loss(param)


def _exact_chi(w):
    # the weight's table as an exact function of a Fraction
    b = [Fraction(v) for v in w.bounds]

    def chi(t):
        if not b or t < b[0]:
            return Fraction(w.left_val)
        if t >= b[-1]:
            return Fraction(w.right_val)
        k = max(i for i in range(len(b) - 1) if b[i] <= t)
        return Fraction(w.start[k]) + Fraction(w.slope[k]) * (t - b[k])

    return chi, b


def _exact_component(w, functional, param, x, y):
    # integral of rate * kernel(t) * chi(t) over [min(x, y), max(x, y)]:
    # on each piece between knots and kinks the integrand is a quadratic,
    # which Milne's open rule integrates exactly from interior points
    chi, knots = _exact_chi(w)
    x, y, c = Fraction(x), Fraction(y), DERIV_CONST[functional]
    lo, hi = min(x, y), max(x, y)
    ind = Fraction(int(y < x))
    if functional == "quantile":
        rate, kernel, kinks = abs(ind - Fraction(param)), lambda t: 1, []
    elif functional == "expectile":
        rate, kernel, kinks = abs(ind - Fraction(param)), lambda t: abs(t - y), []
    else:
        nu = Fraction(param)
        rate, kernel, kinks = Fraction(1, 2), lambda t: min(abs(t - y), nu), [y - nu, y + nu]
    cuts = sorted({lo, hi, *(k for k in knots + kinks if lo < k < hi)})
    total = Fraction(0)
    for a, b in zip(cuts[:-1], cuts[1:]):
        h = b - a
        f = [kernel(t) * chi(t) for t in (a + h / 4, a + h / 2, a + 3 * h / 4)]
        total += h / 3 * (2 * f[0] - f[1] + 2 * f[2])
    return float(rate * c * total)


def _arctan_component(w, upper, functional, param, x, y):
    with mpmath.workdps(40):
        x, y, center = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(w.center)
        lo, hi = min(x, y), max(x, y)
        sign = 1 if upper else -1
        ind = int(y < x)
        c = DERIV_CONST[functional]
        if functional == "quantile":
            rate, kernel, kinks = abs(ind - mpmath.mpf(param)), lambda t: 1, []
        elif functional == "expectile":
            rate, kernel, kinks = abs(ind - mpmath.mpf(param)), lambda t: abs(t - y), []
        else:
            nu = mpmath.mpf(param)
            rate, kernel, kinks = 0.5, lambda t: min(abs(t - y), nu), [y - nu, y + nu]
        if lo == hi:
            return 0.0
        pts = sorted({lo, hi, *(k for k in [center, *kinks] if lo < k < hi)})

        def f(t):
            return kernel(t) * (0.5 + sign * mpmath.atan(t - center) / mpmath.pi)

        return float(rate * c * mpmath.quad(f, pts))


def _exact_total(functional, param, x, y):
    x, y = Fraction(x), Fraction(y)
    d, c = x - y, DERIV_CONST[functional]
    ind = Fraction(int(y < x))
    if functional == "quantile":
        return float((ind - Fraction(param)) * c * d)
    if functional == "expectile":
        return float(abs(ind - Fraction(param)) * c * d * d / 2)
    nu = Fraction(param)
    k = max(-nu, min(d, nu))
    return float(c * k * (2 * d - k) / 4)


# (y, delta, near_y, layout, spec)
CASES = [
    (1e9, 1.0, False, ("rectangular", [10.0]), ("expectile", 0.5)),
    (1e12, 1.0, False, ("rectangular", [10.0]), ("huber_mean", 5.0)),
    # squared error on arctan_pair(10): the lower component is 3.18339598e-6
    # at y = 1e5 and 3.18310183e-8 at y = 1e7
    (1e5, 1.0, False, ("arctan", 10.0), ("expectile", 0.5)),
    (1e7, 1.0, False, ("arctan", 10.0), ("expectile", 0.5)),
    (0.0, 0.0, False, ("rectangular", [0.0]), ("quantile", 0.01)),
    (1000.0, 0.0, False, ("rectangular", [0.0]), ("quantile", 0.01)),
    (10000000.0, -2.510102983196293e-280, True, ("rectangular", [4.875, -7.875]), ("expectile", 0.4)),
    (10000000.0, 0.0, False, ("rectangular", [0.0]), ("quantile", 0.01)),
    (10000000.0, 540881066560.17896, True, ("rectangular", [-1.25, -7.125, 6.5, -1.25]), ("expectile", 0.01)),
    (-42011103400.32678, 0.0, False, ("rectangular", [0.0]), ("quantile", 0.01)),
    (-42011103400.32678, 1.1754943508222875e-38, False, ("tabulated", (0.625, [0, -1, -2, -2], [5, 8, 2, 2, 5])), ("quantile", 0.8125118700869365)),
    (-303432893509.12866, 0.0, False, ("rectangular", [0.0]), ("quantile", 0.01)),
    (-303432893509.12866, 0.25, False, ("trapezoidal", [(5, 0.5)]), ("huber_mean", 0.01)),
    (-793523287902.8477, 0.0, False, ("rectangular", [0.0]), ("quantile", 0.01)),
    (-793523287902.8477, -3.4412057946281003, False, ("trapezoidal", [(3, 0.5)]), ("quantile", 0.95)),
    (-793523287902.8477, 0.95, False, ("trapezoidal", [(3, 0.5)]), ("quantile", 0.95)),
    (-793523287902.8477, 0.0, False, ("trapezoidal", [(3, 0.5)]), ("quantile", 0.95)),
    (0.0, 0.0, False, ("trapezoidal", [(3, 0.5)]), ("quantile", 0.95)),
    (0.95, 0.0, False, ("trapezoidal", [(3, 0.5)]), ("quantile", 0.95)),
    (1000000000000.0, -15.863455112848548, True, ("tabulated", (-2.125, [2], [5, 6, 4, 3, 7])), ("quantile", 0.5)),
    (1000000000000.0, -15.863455112848548, True, ("tabulated", (-2.125, [0], [3, 7, 5, 6, 4])), ("quantile", 0.01)),
    (1000000000000.0, -15.863455112848548, True, ("tabulated", (-2.125, [0], [6, 4, 3, 7, 5])), ("quantile", 0.01)),
    (1000000000000.0, 0.01, True, ("tabulated", (-2.125, [0], [6, 4, 3, 7, 5])), ("quantile", 0.01)),
    (1000000000000.0, 0.01, True, ("tabulated", (-2.125, [0], [6, 4, 0, 7, 5])), ("quantile", 0.01)),
    (1000000000000.0, 0.01, True, ("tabulated", (-2.125, [0], [6, 4, 0, 5, 5])), ("quantile", 0.01)),
    (1000.0, 324216868040.60425, False, ("arctan", 0.875), ("quantile", 0.29510473941297016)),
    (1000.0, 324216868040.60425, False, ("arctan", 0.875), ("quantile", 0.01)),
    (1000.0, 0.01, False, ("arctan", 0.875), ("quantile", 0.01)),
    (-4.1366636590092655e-135, 3.676462159552552e-157, True, ("rectangular", [-1.25, 5.375, 5.5, -4.875]), ("quantile", 0.30355010824200424)),
    (3.676462159552552e-157, 3.676462159552552e-157, True, ("rectangular", [-1.25, 5.375, 5.5, -4.875]), ("quantile", 0.30355010824200424)),
    (3.676462159552552e-157, 3.676462159552552e-157, True, ("rectangular", [-1.25, -4.875, 5.5, -4.875]), ("quantile", 0.30355010824200424)),
    (3.676462159552552e-157, 3.676462159552552e-157, True, ("rectangular", [-1.25, -4.875, 5.5, 5.5]), ("quantile", 0.30355010824200424)),
    (3.676462159552552e-157, 0.30355010824200424, True, ("rectangular", [-1.25, -4.875, 5.5, 5.5]), ("quantile", 0.30355010824200424)),
    (3.676462159552552e-157, 0.30355010824200424, True, ("rectangular", [-1.25, -4.875, 5.5, 5.5]), ("quantile", 0.01)),
    (3.676462159552552e-157, 0.30355010824200424, True, ("rectangular", [5.5, -4.875, 5.5, 5.5]), ("quantile", 0.01)),
    (443794989383.7273, -4.375, True, ("arctan", -0.375), ("huber_mean", 1.9)),
    (1.9, -4.375, True, ("arctan", -0.375), ("huber_mean", 1.9)),
    (1.9, -4.375, True, ("arctan", -4.375), ("huber_mean", 1.9)),
    (100000.0, 978568316273.2886, False, ("trapezoidal", [(2, 0.125), (1, 0.0), (-6, 1.0)]), ("huber_mean", 18.344776175432525)),
    (100000.0, 978568316273.2886, False, ("trapezoidal", [(2, 1.0), (1, 0.0), (-6, 1.0)]), ("huber_mean", 18.344776175432525)),
    (100000.0, 978568316273.2886, False, ("trapezoidal", [(2, 1.0), (1, 0.0), (-6, 1.0)]), ("huber_mean", 0.01)),
    (100000.0, 978568316273.2886, False, ("trapezoidal", [(2, 1.0), (0, 0.0)]), ("quantile", 0.01)),
    (100000.0, 978568316273.2886, False, ("trapezoidal", [(0, 0.5)]), ("quantile", 0.01)),
    (-1000000000000.0, -773120191406.2219, True, ("tabulated", (-6.25, [-1], [8, 2, 0, 0, 6])), ("expectile", 0.8236296232518565)),
    (-1000000000000.0, -773120191406.2219, True, ("tabulated", (-6.25, [-1], [8, 2, 0, 0, 6])), ("expectile", 0.01)),
    (-1000000000000.0, -773120191406.2219, True, ("tabulated", (-6.25, [2], [0, 6, 8, 2, 0])), ("quantile", 0.01)),
    (-1000000000000.0, -773120191406.2219, True, ("tabulated", (1.0, [2], [0, 6, 8, 2, 0])), ("quantile", 0.01)),
    (-1000000000000.0, -773120191406.2219, True, ("tabulated", (1.0, [0], [2, 0, 0, 6, 8])), ("huber_mean", 0.01)),
    (-1000000000000.0, -773120191406.2219, True, ("tabulated", (1.0, [0], [6, 0, 0, 6, 8])), ("huber_mean", 0.01)),
    (-1000000000000.0, -773120191406.2219, True, ("tabulated", (1.0, [0], [6, 0, 0, 0, 8])), ("huber_mean", 0.01)),
    (1000000000000.0, 593899776899.4065, True, ("rectangular", [6.375, 7.875, 5.5, 4.5]), ("quantile", 0.3813962338045131)),
    (1000000000000.0, 593899776899.4065, True, ("rectangular", [6.375, 4.5, 5.5, 4.5]), ("quantile", 0.3813962338045131)),
    (1000000000000.0, 593899776899.4065, True, ("rectangular", [6.375, 4.5, 4.5, 4.5]), ("quantile", 0.3813962338045131)),
    (1000000000000.0, 593899776899.4065, True, ("rectangular", [6.375, 4.5, 4.5, 4.5]), ("quantile", 0.01)),
    (1000000000000.0, 593899776899.4065, True, ("rectangular", [4.5, 4.5, 4.5, 4.5]), ("quantile", 0.01)),
    (1000000000000.0, 0.01, True, ("rectangular", [4.5, 4.5, 4.5, 4.5]), ("quantile", 0.01)),
    (-1.5305743830096733e-54, -4.542666258879015, False, ("arctan", -2.625), ("huber_mean", 60.56669586174539)),
    (-1.5305743830096733e-54, -1.5305743830096733e-54, False, ("arctan", -2.625), ("huber_mean", 60.56669586174539)),
    (-1.5305743830096733e-54, -1.5305743830096733e-54, False, ("arctan", -2.625), ("huber_mean", 0.01)),
    (603333813249.4683, 1.0736362187068689e-163, True, ("rectangular", [-7.625]), ("expectile", 0.6994756651056037)),
    (1.0736362187068689e-163, 1.0736362187068689e-163, True, ("rectangular", [-7.625]), ("expectile", 0.6994756651056037)),
    (1.0736362187068689e-163, 1.0736362187068689e-163, True, ("rectangular", [-7.625]), ("expectile", 0.01)),
    (0.01, 1.0736362187068689e-163, True, ("rectangular", [-7.625]), ("expectile", 0.01)),
    (6.749645920005239e-261, 798115107636.145, True, ("tabulated", (-6.125, [0, -2, -1], [6, 2, 1, 6, 1])), ("quantile", 0.3333333333333333)),
    (6.749645920005239e-261, 0.3333333333333333, True, ("tabulated", (-6.125, [0, -2, -1], [6, 2, 1, 6, 1])), ("quantile", 0.3333333333333333)),
    (6.749645920005239e-261, 0.3333333333333333, True, ("tabulated", (-6.125, [0, -2, -1], [2, 2, 1, 6, 1])), ("quantile", 0.3333333333333333)),
    (6.749645920005239e-261, 0.3333333333333333, True, ("tabulated", (-6.125, [0, -2, -1], [0, 0, 0, 0, 0])), ("quantile", 0.01)),
    (6.749645920005239e-261, 0.3333333333333333, True, ("tabulated", (0.0, [0, -2, -1], [0, 0, 0, 0, 0])), ("quantile", 0.01)),
    (6.749645920005239e-261, 0.3333333333333333, True, ("tabulated", (0.0, [0], [0, 0, 0, 0, 0])), ("quantile", 0.01)),
    (0.01, 0.3333333333333333, True, ("tabulated", (0.0, [0], [0, 0, 0, 0, 0])), ("quantile", 0.01)),
    (1000000000000.0, 892426706445.3376, False, ("arctan", -4.5), ("expectile", 0.6099436343580442)),
    (1000000000000.0, 892426706445.3376, False, ("arctan", -4.5), ("expectile", 0.01)),
    (1000000000000.0, 0.01, False, ("arctan", -4.5), ("expectile", 0.01)),
    (-980961487762.226, 890374734931.489, True, ("arctan", 1.375), ("huber_mean", 19.89902672289914)),
    (-980961487762.226, -980961487762.226, True, ("arctan", 1.375), ("huber_mean", 19.89902672289914)),
    (-980961487762.226, -980961487762.226, True, ("arctan", 1.375), ("huber_mean", 0.01)),
    (0.01, -980961487762.226, True, ("arctan", 1.375), ("huber_mean", 0.01)),
    (0.01, 0.01, True, ("arctan", 1.375), ("huber_mean", 0.01)),
    (4.741971208662476e-184, -581862690312.0892, False, ("trapezoidal", [(-1, 0.125), (5, 0.5), (-3, 2.0)]), ("quantile", 0.99)),
    (4.741971208662476e-184, -581862690312.0892, False, ("trapezoidal", [(-1, 0.125), (5, 0.5)]), ("quantile", 0.01)),
    (4.741971208662476e-184, -581862690312.0892, False, ("trapezoidal", [(-1, 0.125), (5, 0.125)]), ("quantile", 0.01)),
    (0.01, -581862690312.0892, False, ("trapezoidal", [(-1, 0.125), (5, 0.125)]), ("quantile", 0.01)),
    (-475111669309.2804, -15.947255872347135, False, ("trapezoidal", [(3, 0.5)]), ("quantile", 0.0631502300827218)),
    (0.0631502300827218, -15.947255872347135, False, ("trapezoidal", [(3, 0.5)]), ("quantile", 0.0631502300827218)),
    (0.0631502300827218, 0.0631502300827218, False, ("trapezoidal", [(3, 0.5)]), ("quantile", 0.0631502300827218)),
    (827549486380.6228, -1.375, True, ("tabulated", (-5.125, [-1], [8, 4, 5, 7, 0])), ("huber_mean", 10.0)),
    (827549486380.6228, -5.125, True, ("tabulated", (-5.125, [-1], [8, 4, 5, 7, 0])), ("huber_mean", 10.0)),
    (827549486380.6228, -5.125, True, ("tabulated", (-5.125, [0], [7, 0, 8, 4, 5])), ("quantile", 0.01)),
    (0.01, -5.125, True, ("tabulated", (-5.125, [0], [7, 0, 8, 4, 5])), ("quantile", 0.01)),
    (1000000.0, -1.0693001546643866e-127, True, ("trapezoidal", [(6, 2.0)]), ("quantile", 0.31924544714252934)),
    (1000000.0, -1.0693001546643866e-127, True, ("trapezoidal", [(6, 2.0)]), ("quantile", 0.01)),
    (267855517865.1062, 231163119342.24487, True, ("trapezoidal", [(2, 0.125), (-1, 0.125)]), ("huber_mean", 75.01007050294167)),
    (267855517865.1062, 231163119342.24487, True, ("trapezoidal", [(2, 0.5), (-1, 0.125)]), ("huber_mean", 75.01007050294167)),
    (267855517865.1062, 231163119342.24487, True, ("trapezoidal", [(-1, 0.5), (2, 0.5)]), ("expectile", 0.01)),
    (267855517865.1062, 0.01, True, ("trapezoidal", [(-1, 0.5), (2, 0.5)]), ("expectile", 0.01)),
    (267855517865.1062, 267855517865.1062, True, ("trapezoidal", [(-1, 0.5), (2, 0.5)]), ("expectile", 0.01)),
    (1000.0, 293667035845.3208, True, ("trapezoidal", [(-2, 0.0), (4, 1.0)]), ("expectile", 0.39203508771033124)),
    (1000.0, 0.39203508771033124, True, ("trapezoidal", [(-2, 0.0), (4, 1.0)]), ("expectile", 0.39203508771033124)),
    (1000.0, 0.39203508771033124, True, ("trapezoidal", [(-2, 0.0), (4, 0.0)]), ("expectile", 0.39203508771033124)),
    (10000000.0, -9.319237049707139, False, ("arctan", 6.375), ("huber_mean", 0.5)),
    (10000000.0, 0.5, False, ("arctan", 6.375), ("huber_mean", 0.5)),
    (958641410461.9253, 4.226592646756014, True, ("trapezoidal", [(-4, 1.0)]), ("expectile", 0.8399964774322183)),
    (4.226592646756014, 4.226592646756014, True, ("trapezoidal", [(-4, 1.0)]), ("expectile", 0.8399964774322183)),
    (1.2423383108509694e-234, -11.705537366157664, False, ("rectangular", [-3.125, -7.875, -7.75, 3.375]), ("quantile", 0.4619758399406485)),
    (1.2423383108509694e-234, -11.705537366157664, False, ("rectangular", [-3.125, -7.875, -7.75, 3.375]), ("quantile", 0.01)),
    (1.2423383108509694e-234, -11.705537366157664, False, ("rectangular", [-3.125, -7.875, -7.75, -3.125]), ("quantile", 0.01)),
    (1.2423383108509694e-234, -11.705537366157664, False, ("rectangular", [0.0]), ("quantile", 0.01)),
    (1.2423383108509694e-234, 1.2423383108509694e-234, False, ("rectangular", [0.0]), ("quantile", 0.01)),
    (32167432441.137573, 5.078550147127921e-302, True, ("tabulated", (5.5, [0, -3, 0, -3], [5, 6, 7, 8, 0])), ("expectile", 0.9558689966651285)),
    (32167432441.137573, 5.078550147127921e-302, True, ("tabulated", (5.5, [0, -3, 0, -3], [0, 6, 7, 8, 0])), ("expectile", 0.9558689966651285)),
    (32167432441.137573, 5.078550147127921e-302, True, ("tabulated", (5.5, [0], [8, 0, 0, 6, 7])), ("quantile", 0.01)),
    (0.01, 5.078550147127921e-302, True, ("tabulated", (5.5, [0], [8, 0, 0, 6, 7])), ("quantile", 0.01)),
    (0.01, 5.078550147127921e-302, True, ("tabulated", (5.5, [0], [7, 0, 0, 6, 7])), ("quantile", 0.01)),
    (0.01, 5.078550147127921e-302, True, ("tabulated", (5.5, [0], [7, 7, 0, 6, 7])), ("quantile", 0.01)),
    (0.01, 5.078550147127921e-302, True, ("tabulated", (5.5, [0], [7, 7, 0, 7, 7])), ("quantile", 0.01)),
    (1000.0, -7.0, True, ("arctan", 7.5), ("huber_mean", 84.59038804151987)),
    (1000.0, 7.5, True, ("arctan", 7.5), ("huber_mean", 84.59038804151987)),
    (1000000000.0, -929192880118.8396, False, ("arctan", -1.875), ("quantile", 0.8877764587447378)),
    (1000000000.0, -929192880118.8396, False, ("arctan", -1.875), ("quantile", 0.01)),
    (1000000000.0, 0.01, False, ("arctan", -1.875), ("quantile", 0.01)),
    (293842751948.36255, 4.043252655904805, False, ("arctan", 6.125), ("quantile", 0.5)),
    (293842751948.36255, 4.043252655904805, False, ("arctan", 6.125), ("quantile", 0.01)),
    (0.01, 4.043252655904805, False, ("arctan", 6.125), ("quantile", 0.01)),
    (0.01, 0.01, False, ("arctan", 6.125), ("quantile", 0.01)),
]


def test_components_match_exact_oracle_at_any_magnitude():
    for case in CASES:
        try:
            _check(*case)
        except AssertionError as exc:
            raise AssertionError(f"{case}: {exc}") from exc


def _check(y, delta, near_y, layout, spec):
    # knots sit around 0, or around y on the grid of eighths
    origin = round(y * 8) / 8 if near_y else 0.0
    partition = _partition(layout, origin)
    functional, param = spec
    x = y + delta
    s = _spec(functional, param)
    comps = score_components(decompose(s, partition), x, y)
    exact = _exact_total(functional, param, x, y)
    bound = 1e-9 * max(1.0, abs(exact))
    total = score(s, x, y)
    assert abs(total - exact) <= bound
    assert abs(comps.sum() - total) <= bound
    assert np.all(comps >= 0.0)
    for j, w in enumerate(partition):
        if layout[0] == "arctan":
            want = _arctan_component(w, j == 1, functional, param, x, y)
        else:
            want = _exact_component(w, functional, param, x, y)
            lo, hi = w.support()
            if max(x, y) <= lo or min(x, y) >= hi:
                assert comps[j] == 0.0
        assert abs(comps[j] - want) <= bound, (j, comps[j], want)


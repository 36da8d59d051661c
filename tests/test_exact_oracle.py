"""Score components against exact oracles at magnitudes up to 1e12.

Partitions are drawn with dyadic knots and power-of-two ramp widths, so
every piecewise-linear weight is exact in binary and its component
integrals are exact rationals, computed here with ``fractions.Fraction``.
The arctan pair is checked against mpmath quadrature at 40 digits.
Each drawn case checks the identity, nonnegativity, exact zeros off a
weight's support, the total, and every component against the oracle,
all within 1e-9 * max(1, |S|) for the exact total S.
"""

from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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

EIGHTHS = st.integers(-64, 64).map(lambda k: k / 8)

LAYOUTS = st.one_of(
    st.tuples(st.just("rectangular"), st.lists(EIGHTHS, min_size=1, max_size=4)),
    # ramp i starts at 4 * start_i and has width 0 or a power of two <= 2
    st.tuples(
        st.just("trapezoidal"),
        st.lists(
            st.tuples(st.integers(-6, 6), st.sampled_from([0.0, 0.125, 0.5, 1.0, 2.0])),
            min_size=1,
            max_size=3,
            unique_by=lambda r: r[0],
        ),
    ),
    # breakpoint gaps are powers of two, values multiples of 1/8
    st.tuples(
        st.just("tabulated"),
        st.tuples(
            EIGHTHS,
            st.lists(st.integers(-3, 2), min_size=1, max_size=4),
            st.lists(st.integers(0, 8), min_size=5, max_size=5),
        ),
    ),
    st.tuples(st.just("arctan"), EIGHTHS),
)

SPECS = st.one_of(
    st.tuples(st.just("quantile"), st.floats(0.01, 0.99)),
    st.tuples(st.just("expectile"), st.floats(0.01, 0.99)),
    st.tuples(st.just("huber_mean"), st.floats(0.01, 100.0)),
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


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    y=st.one_of(
        st.floats(-1e12, 1e12),
        st.sampled_from([1e3, 1e5, 1e6, 1e7, 1e9, 1e12, -1e12]),
    ),
    delta=st.one_of(EIGHTHS, st.floats(-16.0, 16.0), st.floats(-1e12, 1e12)),
    near_y=st.booleans(),
    layout=LAYOUTS,
    spec=SPECS,
)
@example(y=1e9, delta=1.0, near_y=False, layout=("rectangular", [10.0]), spec=("expectile", 0.5))
@example(y=1e12, delta=1.0, near_y=False, layout=("rectangular", [10.0]), spec=("huber_mean", 5.0))
# squared error on arctan_pair(10): the lower component is 3.18339598e-6
# at y = 1e5 and 3.18310183e-8 at y = 1e7
@example(y=1e5, delta=1.0, near_y=False, layout=("arctan", 10.0), spec=("expectile", 0.5))
@example(y=1e7, delta=1.0, near_y=False, layout=("arctan", 10.0), spec=("expectile", 0.5))
def test_components_match_exact_oracle_at_any_magnitude(y, delta, near_y, layout, spec):
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


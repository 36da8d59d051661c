"""Scoring-family values, functional solvers, and validation."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from veriscore import (
    DiscreteDistribution,
    GeneratorSpec,
    ScoringSpec,
    ValidationError,
    absolute_error,
    cap,
    check_generator,
    decompose,
    elementary_score,
    expectile_score,
    functional_value,
    huber_loss,
    murphy_curve,
    quantile_score,
    rectangular_partition,
    score,
    score_components,
    squared_error,
)


def test_quantile_score_frozen_value():
    # ind = 0, (0 - 0.25) * (2 - 5) = 0.75
    assert score(quantile_score(0.25), 2.0, 5.0) == pytest.approx(0.75)


def test_expectile_score_frozen_value():
    # |1 - 0.5| * (2*64 - 2*144 - 48*(8 - 12)) = 16
    assert score(expectile_score(0.5), 12.0, 8.0) == pytest.approx(16.0)


def test_huber_score_frozen_value():
    # k = 1, 0.5 * (0 - 1 + 1 * 6) = 2.5
    assert score(huber_loss(1.0), 3.0, 0.0) == pytest.approx(2.5)


def test_absolute_and_squared_error_reduce_to_familiar_forms():
    rng = np.random.default_rng(0)
    x = rng.uniform(-20, 20, 200)
    y = rng.uniform(-20, 20, 200)
    np.testing.assert_allclose(score(absolute_error(), x, y), np.abs(x - y))
    np.testing.assert_allclose(score(squared_error(), x, y), (x - y) ** 2)
    np.testing.assert_allclose(
        2.0 * score(quantile_score(0.5), x, y), np.abs(x - y)
    )


def test_huber_matches_piecewise_formula():
    rng = np.random.default_rng(1)
    x = rng.uniform(-10, 10, 500)
    y = rng.uniform(-10, 10, 500)
    for nu in (0.5, 1.0, 3.0):
        d = np.abs(x - y)
        expected = np.where(d <= nu, 0.5 * d**2, nu * (d - 0.5 * nu))
        np.testing.assert_allclose(score(huber_loss(nu), x, y), expected)


def test_score_zero_at_coincidence_and_nonnegative():
    rng = np.random.default_rng(2)
    specs = [
        quantile_score(0.3),
        expectile_score(0.8),
        huber_loss(2.0),
        absolute_error(),
        squared_error(),
    ]
    pts = rng.uniform(-50, 50, 100)
    for spec in specs:
        np.testing.assert_array_equal(score(spec, pts, pts), np.zeros(100))
        x = rng.uniform(-50, 50, 400)
        y = rng.uniform(-50, 50, 400)
        assert np.all(score(spec, x, y) >= 0.0)


def test_quantile_zeros_are_positive():
    # (ind - alpha) * 0.0 is -0.0 when ind = 0; scores and components
    # must give +0.0 there, or the cases CSV shows "-0"
    assert math.copysign(1.0, score(quantile_score(0.3), 1.0, 1.0)) == 1.0
    regions = decompose(quantile_score(0.3), rectangular_partition([10.0]))
    assert score_components(regions, 1.0, 1.0).tolist() == [0.0, 0.0]
    # x == y, then each component off its cell on either side
    for x, y in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (12.0, 11.0), (11.0, 12.0)):
        assert np.all(np.copysign(1.0, score_components(regions, x, y)) == 1.0)


def test_score_scalar_returns_float_and_broadcasts():
    out = score(quantile_score(0.5), 1.0, 2.0)
    assert isinstance(out, float)
    grid = score(squared_error(), np.linspace(0, 1, 5)[:, None], np.zeros(3))
    assert grid.shape == (5, 3)


def test_score_rejects_nonfinite():
    with pytest.raises(ValidationError):
        score(squared_error(), np.nan, 1.0)
    with pytest.raises(ValidationError):
        score(squared_error(), 1.0, np.inf)


def test_spec_validation_matrix():
    g = GeneratorSpec.identity_g()
    phi = GeneratorSpec.quadratic_phi()
    with pytest.raises(ValidationError):
        ScoringSpec("quantile", g)  # missing alpha
    with pytest.raises(ValidationError):
        ScoringSpec("quantile", g, alpha=0.0)
    with pytest.raises(ValidationError):
        ScoringSpec("expectile", phi, alpha=1.0)
    with pytest.raises(ValidationError):
        ScoringSpec("quantile", g, alpha=0.5, nu=1.0)
    with pytest.raises(ValidationError):
        ScoringSpec("huber_mean", phi)  # missing nu
    with pytest.raises(ValidationError):
        ScoringSpec("huber_mean", phi, nu=-1.0)
    with pytest.raises(ValidationError):
        ScoringSpec("huber_mean", phi, alpha=0.5, nu=1.0)
    with pytest.raises(ValidationError):
        ScoringSpec("quantile", phi, alpha=0.5)  # family mismatch
    with pytest.raises(ValidationError):
        ScoringSpec("expectile", g, alpha=0.5)
    with pytest.raises(ValidationError):
        ScoringSpec("mean", phi, nu=1.0)


# (functional, alpha, nu) triples that no entry point may accept
BAD_PARAMETERS = [
    ("quantile", None, None),
    ("quantile", 0.0, None),
    ("expectile", 1.0, None),
    ("expectile", math.nan, None),
    ("quantile", 0.5, 3.0),
    ("expectile", 0.5, 1.0),
    ("huber_mean", None, None),
    ("huber_mean", None, 0.0),
    ("huber_mean", None, -1.0),
    ("huber_mean", None, math.inf),
    ("huber_mean", None, math.nan),
    ("huber_mean", 0.5, 1.0),
    ("mean", 0.5, None),
]


@pytest.mark.parametrize("functional, alpha, nu", BAD_PARAMETERS)
def test_every_entry_point_rejects_the_same_parameters(functional, alpha, nu):
    g = GeneratorSpec.identity_g() if functional == "quantile" else GeneratorSpec.quadratic_phi()
    calls = (
        lambda: ScoringSpec(functional, g, alpha=alpha, nu=nu),
        lambda: elementary_score(functional, 1.5, 2.0, 1.0, alpha=alpha, nu=nu),
        lambda: murphy_curve({"S": ([2.0], [1.0])}, functional, alpha=alpha, nu=nu),
    )
    messages = set()
    for call in calls:
        with pytest.raises(ValidationError) as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1, messages


def test_custom_generator_probed_at_construction():
    bad_g = GeneratorSpec.custom_g(
        lambda t: np.full_like(np.asarray(t, dtype=float), -1.0)
    )
    with pytest.raises(ValidationError):
        ScoringSpec("quantile", bad_g, alpha=0.5)
    bad_phi = GeneratorSpec.custom_phi(
        lambda t: np.full_like(np.asarray(t, dtype=float), -2.0)
    )
    with pytest.raises(ValidationError):
        ScoringSpec("expectile", bad_phi, alpha=0.5)
    with pytest.raises(ValidationError):
        check_generator(GeneratorSpec.custom_phi(None))


def test_custom_generator_density_must_be_finite_array():
    for density, where in (
        (lambda t: np.where(np.asarray(t) > 3.0, np.nan, 1.0), "t=4"),
        (lambda t: np.where(np.asarray(t) < -50.0, np.inf, 1.0), "t=-100"),
        (lambda t: 1.0, r"shape \(\), t \(201,\)"),
    ):
        with pytest.raises(ValidationError, match=where):
            check_generator(GeneratorSpec.custom_g(density))
        with pytest.raises(ValidationError, match=where):
            ScoringSpec("expectile", GeneratorSpec.custom_phi(density), alpha=0.5)


def test_custom_generator_total_matches_components_at_large_magnitude():
    # without deriv_const the total is a quadrature of phi'' in coordinates
    # local to y, the form its components use; phi(x) - phi(y) would cancel
    gen = GeneratorSpec.custom_phi(
        lambda t: np.full_like(np.asarray(t, dtype=float), 4.0)
    )
    x, y = 1e9 + 1, 1e9
    for spec, want in (
        (ScoringSpec("expectile", gen, alpha=0.5), 1.0),
        (ScoringSpec("huber_mean", gen, nu=0.5), 0.75),
    ):
        total = score(spec, x, y)
        comps = score_components(decompose(spec, rectangular_partition([10])), x, y)
        assert total == want
        assert comps.tolist() == [0.0, want]


def test_describe_echo():
    assert quantile_score(0.25).describe() == {
        "functional": "quantile",
        "generator": "identity_g",
        "alpha": 0.25,
    }
    assert huber_loss(2.0).describe() == {
        "functional": "huber_mean",
        "generator": "quadratic_phi",
        "nu": 2.0,
    }


def test_cap_clamps_and_validates():
    np.testing.assert_array_equal(
        cap(np.array([-5.0, 0.3, 5.0]), 1.5), np.array([-1.5, 0.3, 1.5])
    )
    with pytest.raises(ValidationError):
        cap(1.0, 0.0)
    # the cap takes the same nu as huber_mean: positive and finite
    for nu in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="Huber cap nu must be positive and finite"):
            cap(5.0, nu)


def test_discrete_distribution_normalizes_and_merges():
    d = DiscreteDistribution([2.0, 1.0, 2.0, 3.0], [0.25, 0.25, 0.25, 0.25])
    np.testing.assert_array_equal(d.values, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(d.probs, [0.25, 0.5, 0.25])
    assert d.mean() == pytest.approx(2.0)
    dz = DiscreteDistribution([1.0, 5.0, 9.0], [0.5, 0.0, 0.5])
    np.testing.assert_array_equal(dz.values, [1.0, 9.0])


def test_discrete_distribution_merge_matches_a_sorted_loop():
    # the reference merge: drop zero masses, sort stably, add equal values'
    # masses in order, then normalize
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        v = rng.integers(-3, 4, n) * rng.choice([1.0, 0.1, 1e300])
        p = rng.random(n) * (rng.random(n) > 0.2)
        p[0] += 0.1
        p = p / p.sum()
        vals, probs = [], []
        for vi, pi in sorted(zip(v[p > 0], p[p > 0]), key=lambda vp: vp[0]):
            if vals and vi == vals[-1]:
                probs[-1] += pi
            else:
                vals.append(vi)
                probs.append(pi)
        probs = np.array(probs)
        d = DiscreteDistribution(v, p)
        assert d.values.tobytes() == np.array(vals).tobytes()
        assert d.probs.tobytes() == (probs / probs.sum()).tobytes()


def test_discrete_distribution_validation():
    with pytest.raises(ValidationError):
        DiscreteDistribution([1.0, 2.0], [0.6, 0.6])
    with pytest.raises(ValidationError):
        DiscreteDistribution([1.0, 2.0], [1.2, -0.2])
    with pytest.raises(ValidationError):
        DiscreteDistribution([np.inf], [1.0])
    with pytest.raises(ValidationError):
        DiscreteDistribution([1.0, 2.0], [1.0])


def test_expected_score_matches_manual_sum():
    d = DiscreteDistribution([0.0, 2.0, 7.0], [0.2, 0.5, 0.3])
    spec = expectile_score(0.7)
    xs = np.array([-1.0, 2.5, 6.0])
    got = d.expected_score(spec, xs)
    manual = np.array(
        [
            sum(p * score(spec, x, v) for v, p in zip(d.values, d.probs))
            for x in xs
        ]
    )
    np.testing.assert_allclose(got, manual)


def test_median_of_three_points():
    d = DiscreteDistribution([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3])
    fv = functional_value(quantile_score(0.5), d)
    assert fv.value == 2.0
    assert (fv.lower, fv.upper) == (2.0, 2.0)


def test_median_interval_when_level_hit_exactly():
    d = DiscreteDistribution([1.0, 3.0], [0.5, 0.5])
    fv = functional_value(quantile_score(0.5), d)
    assert (fv.value, fv.lower, fv.upper) == (1.0, 1.0, 3.0)


def test_expectile_linear_in_level_for_two_points():
    d = DiscreteDistribution([0.0, 6.0], [0.5, 0.5])
    # alpha * E(Y - x)+ = (1 - alpha) * E(x - Y)+ gives x = 6 alpha
    for alpha in (0.25, 0.5, 0.75):
        fv = functional_value(expectile_score(alpha), d)
        assert fv.value == pytest.approx(6.0 * alpha, abs=1e-10)
        assert fv.lower == fv.upper == fv.value


def test_huber_mean_interval_and_unique_root():
    d = DiscreteDistribution([0.0, 6.0], [0.5, 0.5])
    fv = functional_value(huber_loss(1.0), d)
    assert (fv.lower, fv.upper) == (1.0, 5.0)
    assert fv.value == 3.0
    skew = DiscreteDistribution([0.0, 6.0], [0.25, 0.75])
    fv2 = functional_value(huber_loss(1.0), skew)
    assert fv2.value == pytest.approx(17.0 / 3.0, abs=1e-9)
    assert fv2.lower == fv2.upper


def _oracle_root_set(kinks, ident):
    """Exact ends of the root set of a nonincreasing piecewise-linear function.

    The function is evaluated exactly at every kink; each end is the
    linear interpolation between the kink before the first one where it
    is <= 0 (lower end) or < 0 (upper end) and that kink.
    """
    ks = sorted(set(kinks))
    fs = [ident(k) for k in ks]

    def end(hit):
        j = next((j for j, f in enumerate(fs) if hit(f)), None)
        if j is None:  # zero at the last kink and never negative
            return ks[-1]
        if j == 0:
            return ks[0]
        return ks[j - 1] + fs[j - 1] * (ks[j] - ks[j - 1]) / (fs[j - 1] - fs[j])

    return end(lambda f: f <= 0), end(lambda f: f < 0)


def _oracle_expectile(d, alpha):
    v = [Fraction(t) for t in d.values]
    p = [Fraction(t) for t in d.probs]
    a = Fraction(alpha)

    def ident(x):
        return sum(
            pi * (a * max(vi - x, 0) - (1 - a) * max(x - vi, 0)) for vi, pi in zip(v, p)
        )

    return _oracle_root_set(v, ident)


def _oracle_huber(d, nu):
    v = [Fraction(t) for t in d.values]
    p = [Fraction(t) for t in d.probs]
    c = Fraction(nu)

    def ident(x):
        return sum(pi * min(max(vi - x, -c), c) for vi, pi in zip(v, p))

    return _oracle_root_set([vi + s for vi in v for s in (-c, c)], ident)


def test_functional_values_match_exact_oracle():
    # 1,000 seeded distributions, 1 to 8 points, Dirichlet or 1/k masses,
    # real or integer support; every expectile and Huber end lies within
    # 8 ulp of max|v| of the exact root set
    rng = np.random.default_rng(25)
    intervals = 0
    for i in range(1000):
        k = int(rng.integers(1, 9))
        if i % 2:
            vals = rng.integers(-10, 11, k).astype(float)
        else:
            vals = rng.uniform(-10.0, 10.0, k)
        probs = np.full(k, 1.0 / k) if i % 4 < 2 else rng.dirichlet(np.ones(k))
        d = DiscreteDistribution(vals, probs)
        bound = 8 * 2.0**-52 * float(np.abs(d.values).max())
        alpha = float(rng.uniform(0.01, 0.99))
        nu = float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 5.0)]))
        fv = functional_value(expectile_score(alpha), d)
        lo, hi = _oracle_expectile(d, alpha)
        assert lo == hi
        assert fv.lower == fv.upper == fv.value
        assert abs(Fraction(fv.value) - lo) <= bound, (d, alpha)
        fv = functional_value(huber_loss(nu), d)
        lo, hi = _oracle_huber(d, nu)
        assert abs(Fraction(fv.lower) - lo) <= bound, (d, nu)
        assert abs(Fraction(fv.upper) - hi) <= bound, (d, nu)
        assert (fv.upper > fv.lower) == (hi > lo), (d, nu, fv)
        intervals += hi > lo
    assert intervals >= 20


def test_functional_values_exact_in_hard_cases():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a flat piece of the Huber identification function is found exactly
        d = DiscreteDistribution([0, 1, 2, 10, 11, 12], [1 / 6] * 6)
        fv = functional_value(huber_loss(1.0), d)
        assert (fv.lower, fv.upper) == (3.0, 9.0)
        # a point mass has one root, not an interval around it
        point = DiscreteDistribution([3.0], [1.0])
        for spec in (huber_loss(1.0), expectile_score(0.3)):
            fv = functional_value(spec, point)
            assert (fv.value, fv.lower, fv.upper) == (3.0, 3.0, 3.0)
        # a small root keeps its relative accuracy
        d = DiscreteDistribution([0.0, 1.0, 5.0], [0.2, 0.5, 0.3])
        fv = functional_value(expectile_score(1e-9), d)
        lo, hi = _oracle_expectile(d, 1e-9)
        assert abs(Fraction(fv.value) - lo) <= 8 * 2.0**-52 * lo
        # nothing overflows at the largest magnitudes
        d = DiscreteDistribution([-1e308, 1e308], [0.5, 0.5])
        fv = functional_value(huber_loss(1e308), d)
        assert (fv.value, fv.lower, fv.upper) == (0.0, 0.0, 0.0)


def test_huber_mean_approaches_mean_for_large_cap():
    d = DiscreteDistribution([0.0, 6.0], [0.5, 0.5])
    fv = functional_value(huber_loss(10.0), d)
    assert fv.value == pytest.approx(3.0, abs=1e-9)


def test_functional_minimizes_expected_score():
    # the reported functional should sit at the argmin of the expected score
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = rng.integers(2, 6)
        vals = np.sort(rng.uniform(-10, 10, k))
        probs = rng.dirichlet(np.ones(k))
        d = DiscreteDistribution(vals, probs)
        for spec in (
            quantile_score(float(rng.uniform(0.1, 0.9))),
            expectile_score(float(rng.uniform(0.1, 0.9))),
            huber_loss(float(rng.uniform(0.2, 3.0))),
        ):
            fv = functional_value(spec, d)
            grid = np.linspace(vals[0] - 1, vals[-1] + 1, 2001)
            es = d.expected_score(spec, grid)
            best = grid[np.argmin(es)]
            step = grid[1] - grid[0]
            assert fv.lower - step <= best <= fv.upper + step


def test_sampling_respects_probabilities():
    d = DiscreteDistribution([0.0, 1.0], [0.25, 0.75])
    draws = d.sample(np.random.default_rng(3), 20000)
    assert abs(draws.mean() - 0.75) < 0.01

"""Score components: exact goldens, additivity, and quadrature fallback."""

import numpy as np
import pytest
from scipy import integrate

from veriscore import (
    ArctanLowerWeight,
    ArctanUpperWeight,
    GeneratorSpec,
    PartitionOfUnity,
    RectangularWeight,
    RegionGenerator,
    ScoringSpec,
    TrapezoidalWeight,
    ValidationError,
    WeightFunction,
    arctan_pair,
    decompose,
    expectile_score,
    huber_loss,
    quantile_score,
    rectangular_partition,
    score,
    score_components,
    squared_error,
    trapezoidal_partition,
)

TWO_CELLS_AT_TEN = rectangular_partition([10.0])


def test_squared_error_split_at_ten_goldens():
    upper = RegionGenerator(squared_error(), RectangularWeight(10.0, np.inf))
    lower = RegionGenerator(squared_error(), RectangularWeight(-np.inf, 10.0))
    assert upper.score(12.0, 8.0) == 12.0
    assert lower.score(12.0, 8.0) == 4.0
    assert upper.score(5.0, 7.0) == 0.0
    assert upper.score(15.0, 20.0) == 25.0
    assert lower.score(15.0, 20.0) == 0.0


def test_component_value_and_derivative_goldens():
    w = RectangularWeight(10.0, np.inf)
    phi2 = RegionGenerator(squared_error(), w, anchor=10.0)
    assert phi2.value(12.0) == pytest.approx(8.0)
    assert phi2.derivative(12.0) == pytest.approx(8.0)
    g2 = RegionGenerator(quantile_score(0.5), w, anchor=10.0)
    assert g2.value(12.0) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        g2.derivative(12.0)


def test_components_vanish_exactly_off_support():
    w = RectangularWeight(0.0, 1.0)
    for spec in (quantile_score(0.3), expectile_score(0.7), huber_loss(0.5)):
        r = RegionGenerator(spec, w)
        # both points to the right, then both to the left: exact zero
        assert r.score(5.0, 7.0) == 0.0
        assert r.score(7.0, 5.0) == 0.0
        assert r.score(-4.0, -2.0) == 0.0
        assert r.score(-2.0, -4.0) == 0.0


def test_anchor_choice_moves_values_not_scores():
    w = TrapezoidalWeight(-1.0, 0.0, 2.0, 4.0)
    spec = expectile_score(0.6)
    r0 = RegionGenerator(spec, w, anchor=0.0)
    r7 = RegionGenerator(spec, w, anchor=7.0)
    assert r0.value(3.0) != r7.value(3.0)
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 8, 50)
    y = rng.uniform(-5, 8, 50)
    np.testing.assert_allclose(r0.score(x, y), r7.score(x, y), rtol=0, atol=1e-12)


def test_components_sum_to_total_across_families_and_partitions():
    rng = np.random.default_rng(11)
    partitions = [
        TWO_CELLS_AT_TEN,
        rectangular_partition([-3.0, 1.0, 6.0]),
        trapezoidal_partition([(-2.0, 0.0), (3.0, 5.0)]),
        arctan_pair(2.0),
    ]
    specs = [
        quantile_score(0.25),
        expectile_score(0.9),
        huber_loss(1.5),
    ]
    for partition in partitions:
        for spec in specs:
            regions = decompose(spec, partition)
            x = rng.uniform(-40, 40, 60)
            y = rng.uniform(-40, 40, 60)
            comps = score_components(regions, x, y)
            total = score(spec, x, y)
            tol = 1e-9 * np.maximum(1.0, np.abs(total))
            assert np.all(np.abs(comps.sum(axis=0) - total) <= tol)
            assert np.all(comps >= -1e-12)


def test_components_are_consistent_scores_themselves():
    # each component must vanish at x = y and stay nonnegative
    regions = decompose(huber_loss(2.0), arctan_pair(0.0))
    pts = np.linspace(-30, 30, 41)
    for r in regions:
        np.testing.assert_array_equal(r.score(pts, pts), np.zeros_like(pts))


def test_closed_form_flag_and_quadrature_agreement():
    # same phi with and without the declared constant second derivative:
    # the latter takes the quadrature path and must agree closely
    fast = expectile_score(0.35)
    slow_gen = GeneratorSpec.custom_phi(
        lambda t: np.full_like(np.asarray(t, dtype=float), 4.0)
    )
    slow = ScoringSpec("expectile", slow_gen, alpha=0.35)
    w = TrapezoidalWeight(-1.0, 0.0, 2.0, 4.0)
    r_fast = RegionGenerator(fast, w)
    r_slow = RegionGenerator(slow, w)
    assert r_fast.has_closed_form
    assert not r_slow.has_closed_form
    rng = np.random.default_rng(12)
    x = rng.uniform(-6, 9, 25)
    y = rng.uniform(-6, 9, 25)
    np.testing.assert_allclose(
        r_fast.score(x, y), r_slow.score(x, y), rtol=0, atol=1e-9
    )
    # anchored values and derivatives on the quadrature path
    u = np.linspace(-6.0, 9.0, 31)
    for anchor in (0.0, 3.0, -2.0):
        a_fast = RegionGenerator(fast, w, anchor=anchor)
        a_slow = RegionGenerator(slow, w, anchor=anchor)
        np.testing.assert_allclose(
            a_slow.value(u), a_fast.value(u), rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            a_slow.derivative(u), a_fast.derivative(u), rtol=0, atol=1e-9
        )


def test_zero_width_outer_ramp_matches_rectangular_cells():
    # a ramp with lo == hi is a jump: the same table as a cut point
    trap = trapezoidal_partition([(5.0, 5.0)])
    rect = rectangular_partition([5.0])
    rng = np.random.default_rng(15)
    x = np.concatenate([rng.uniform(-10, 20, 200), [5.0, 4.0, 6.0]])
    y = np.concatenate([rng.uniform(-10, 20, 200), [7.0, 5.0, 5.0]])
    for spec in (quantile_score(0.3), expectile_score(0.7), huber_loss(1.5)):
        got = score_components(decompose(spec, trap), x, y)
        want = score_components(decompose(spec, rect), x, y)
        assert np.array_equal(got, want)


def test_quadrature_path_quantile_and_huber():
    slow_g = GeneratorSpec.custom_g(lambda t: np.ones_like(np.asarray(t, dtype=float)))
    pairs = [
        (quantile_score(0.7), ScoringSpec("quantile", slow_g, alpha=0.7)),
        (
            huber_loss(1.0),
            ScoringSpec(
                "huber_mean",
                GeneratorSpec.custom_phi(
                    lambda t: np.full_like(np.asarray(t, dtype=float), 2.0)
                ),
                nu=1.0,
            ),
        ),
    ]
    w = ArctanUpperWeight(1.0)
    rng = np.random.default_rng(13)
    x = rng.uniform(-8, 8, 15)
    y = rng.uniform(-8, 8, 15)
    for fast_spec, slow_spec in pairs:
        r_fast = RegionGenerator(fast_spec, w)
        r_slow = RegionGenerator(slow_spec, w)
        np.testing.assert_allclose(
            r_fast.score(x, y), r_slow.score(x, y), rtol=0, atol=1e-9
        )


def test_arctan_components_closed_form_sums():
    # strictly positive weights: both components positive when x != y
    spec = expectile_score(0.5)
    regions = decompose(spec, arctan_pair(2.0))
    a, b = regions
    assert a.has_closed_form and b.has_closed_form
    total = score(spec, 12.0, 8.0)
    pa, pb = a.score(12.0, 8.0), b.score(12.0, 8.0)
    assert pa > 0.0 and pb > 0.0
    assert pa + pb == pytest.approx(total, rel=1e-12)


def test_score_components_stack_shape_and_broadcast():
    regions = decompose(quantile_score(0.5), rectangular_partition([0.0, 5.0]))
    x = np.linspace(-3, 8, 7)
    out = score_components(regions, x, 2.0)
    assert out.shape == (3, 7)
    assert score_components(regions, 3.0, 1.0).shape == (3,)
    assert isinstance(score(quantile_score(0.5), 3.0, 1.0), float)
    with pytest.raises(ValidationError):
        score_components([], 1.0, 2.0)


def test_normalized_partition_components_still_sum():
    from veriscore import normalized_partition, TabulatedWeight

    raw = [
        TabulatedWeight([-5.0, 0.0, 5.0], [0.5, 0.9, 0.5]),
        TabulatedWeight([-5.0, 0.0, 5.0], [1.0, 0.3, 1.0]),
    ]
    partition = normalized_partition(raw)
    regions = decompose(expectile_score(0.4), partition)
    rng = np.random.default_rng(14)
    x = rng.uniform(-4.5, 4.5, 20)
    y = rng.uniform(-4.5, 4.5, 20)
    total = score(expectile_score(0.4), x, y)
    comp = score_components(regions, x, y).sum(axis=0)
    np.testing.assert_allclose(comp, total, rtol=0, atol=1e-8)


class _CosineRamp(WeightFunction):
    # a user-defined weight: only __call__ and support, no knot table
    kind = "cosine_ramp"

    def __init__(self, upper):
        self.upper = upper

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        up = 0.5 - 0.5 * np.cos(np.pi * np.clip(0.5 * t, 0.0, 1.0))
        return up if self.upper else 1.0 - up

    def support(self):
        return (0.0, np.inf) if self.upper else (-np.inf, 2.0)


def test_custom_weight_subclass_goes_through_quadrature():
    lower, upper = _CosineRamp(False), _CosineRamp(True)
    partition = PartitionOfUnity([lower, upper])
    assert upper.finite_knots() == ()
    assert not upper.has_exact_integrals
    assert upper.integral(0.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    # moments without a table come from quadrature
    lo = np.array([0.0, 1.0, 3.0])
    m0, m1 = (upper.moment(k, lo - 1.0, 2.0 - 1.0, 1.0) for k in (0, 1))
    for lo, got0, got1 in zip((0.0, 1.0, 3.0), m0, m1):
        ref0 = integrate.quad(lambda t: float(upper(t)), lo, 2.0)[0]
        ref1 = integrate.quad(lambda t: (t - 1.0) * float(upper(t)), lo, 2.0)[0]
        assert got0 == pytest.approx(ref0, abs=1e-12)
        assert got1 == pytest.approx(ref1, abs=1e-12)
    with pytest.raises(NotImplementedError):
        upper.config()
    rng = np.random.default_rng(16)
    x = rng.uniform(-3, 5, 15)
    y = rng.uniform(-3, 5, 15)
    for spec in (quantile_score(0.3), expectile_score(0.6), huber_loss(1.0)):
        regions = decompose(spec, partition)
        assert not any(r.has_closed_form for r in regions)
        comp = score_components(regions, x, y)
        assert np.all(comp >= 0.0)
        np.testing.assert_allclose(
            comp.sum(axis=0), score(spec, x, y), rtol=0, atol=1e-9
        )


def test_region_generator_input_validation():
    with pytest.raises(ValidationError):
        RegionGenerator("not a spec", RectangularWeight(0.0, 1.0))
    with pytest.raises(ValidationError):
        RegionGenerator(squared_error(), "not a weight")
    with pytest.raises(ValidationError):
        RegionGenerator(
            squared_error(), RectangularWeight(0.0, 1.0), anchor=np.inf
        )


def test_default_anchor_finite_for_unbounded_weight():
    r = RegionGenerator(squared_error(), ArctanLowerWeight(3.0))
    assert r.anchor == 0.0
    r2 = RegionGenerator(squared_error(), RectangularWeight(2.0, np.inf))
    assert r2.anchor == 2.0

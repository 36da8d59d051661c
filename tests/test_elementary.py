"""Elementary scores, Murphy curves, and mixture checks."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from veriscore import (
    ArctanLowerWeight,
    ArctanUpperWeight,
    NormalizedWeight,
    TrapezoidalWeight,
    ValidationError,
    elementary_score,
    expectile_score,
    huber_loss,
    murphy_area,
    murphy_curve,
    quantile_score,
    score,
    squared_error,
    verify_mixture,
    write_murphy_csv,
    write_murphy_meta,
)


def test_elementary_frozen_values():
    # y = 8 below theta = 10 below x = 12
    assert elementary_score("quantile", 10.0, 12.0, 8.0, alpha=0.25) == 0.75
    assert elementary_score("expectile", 10.0, 12.0, 8.0, alpha=0.5) == 1.0
    assert elementary_score("huber_mean", 10.0, 12.0, 8.0, nu=1.5) == 0.75
    # over side: x = 8 below theta = 10 below y = 12
    assert elementary_score("quantile", 10.0, 8.0, 12.0, alpha=0.25) == 0.25
    assert elementary_score("huber_mean", 10.0, 8.0, 12.0, nu=10.0) == 1.0


def test_elementary_half_open_boundaries():
    # thresholds charge on [min(x, y), max(x, y)): the left endpoint
    # counts, the right endpoint does not, on either side
    assert elementary_score("quantile", 8.0, 12.0, 8.0, alpha=0.5) == 0.5
    assert elementary_score("quantile", 12.0, 12.0, 8.0, alpha=0.5) == 0.0
    assert elementary_score("quantile", 8.0, 8.0, 12.0, alpha=0.5) == 0.5
    assert elementary_score("quantile", 12.0, 8.0, 12.0, alpha=0.5) == 0.0
    assert elementary_score("quantile", 11.99, 12.0, 8.0, alpha=0.5) == 0.5
    # outside the interval: zero on both sides
    assert elementary_score("expectile", 5.0, 12.0, 8.0, alpha=0.5) == 0.0
    assert elementary_score("expectile", 15.0, 12.0, 8.0, alpha=0.5) == 0.0


def test_elementary_broadcasts_and_validates():
    thetas = np.linspace(0, 10, 11)
    out = elementary_score("quantile", thetas[:, None], 8.0, np.array([2.0, 9.0]), alpha=0.3)
    assert out.shape == (11, 2)
    with pytest.raises(ValidationError):
        elementary_score("quantile", 1.0, 2.0, 3.0)  # missing alpha
    with pytest.raises(ValidationError):
        elementary_score("expectile", 1.0, 2.0, 3.0, alpha=1.5)
    with pytest.raises(ValidationError):
        elementary_score("huber_mean", 1.0, 2.0, 3.0)  # missing nu
    with pytest.raises(ValidationError):
        elementary_score("huber_mean", 1.0, 2.0, 3.0, nu=0.0)
    with pytest.raises(ValidationError):
        elementary_score("mean", 1.0, 2.0, 3.0, alpha=0.5)


def test_murphy_curve_grid_and_shapes():
    x_a = np.array([1.0, 3.0, 5.0])
    y = np.array([2.0, 2.0, 6.0])
    curve = murphy_curve(
        {"A": (x_a, y), "B": (x_a + 0.5, y)},
        "quantile",
        alpha=0.5,
        grid=(0.0, 7.0, 15),
    )
    assert curve.names == ("A", "B")
    assert curve.thresholds.shape == (15,)
    assert curve.means.shape == (2, 15)
    np.testing.assert_array_equal(curve.mean_for("A"), curve.means[0])
    with pytest.raises(ValidationError):
        curve.mean_for("C")
    # default grid pads the data hull by 5 percent
    auto = murphy_curve({"A": (x_a, y)}, "quantile", alpha=0.5)
    assert auto.thresholds.size == 501
    assert auto.thresholds[0] == pytest.approx(1.0 - 0.25)
    assert auto.thresholds[-1] == pytest.approx(6.0 + 0.25)


def test_murphy_default_grid_spans_the_whole_float_range():
    # ends and pad are taken in halves, so data 2e308 apart still give a finite grid
    x, y = np.array([-1e308, 1e308]), np.array([0.0, 1.0])
    curve = murphy_curve({"big": (x, y)}, "quantile", alpha=0.5, grid=5)
    theta = curve.thresholds
    assert np.isfinite(theta).all() and (np.diff(theta) > 0).all()
    assert theta[0] <= x.min() and theta[-1] >= x.max()
    direct = [elementary_score("quantile", t, x, y, alpha=0.5).mean() for t in theta]
    np.testing.assert_array_equal(curve.means[0], direct)
    assert curve.means[0].tolist() == [0.0, 0.25, 0.0, 0.25, 0.0]


def test_murphy_curve_point_matches_elementary_mean():
    x = np.array([12.0, 8.0])
    y = np.array([8.0, 12.0])
    curve = murphy_curve(
        [("sys", (x, y))], "expectile", alpha=0.5, grid=np.array([9.0, 10.0, 11.0])
    )
    assert curve.thresholds.tolist() == [9.0, 10.0, 11.0]
    manual = np.array(
        [
            elementary_score("expectile", t, x, y, alpha=0.5).mean()
            for t in curve.thresholds
        ]
    )
    np.testing.assert_allclose(curve.means[0], manual)


def test_murphy_curve_validation():
    x = np.array([1.0])
    y = np.array([2.0])
    with pytest.raises(ValidationError):
        murphy_curve({}, "quantile", alpha=0.5)
    with pytest.raises(ValidationError):
        murphy_curve([("A", (x, y)), ("A", (x, y))], "quantile", alpha=0.5)
    with pytest.raises(ValidationError):
        murphy_curve({"A": (x, y)}, "quantile", alpha=0.5, grid=1)
    with pytest.raises(ValidationError):
        murphy_curve(
            {"A": (x, y)}, "quantile", alpha=0.5, grid=np.array([2.0, 1.0, 0.0])
        )
    with pytest.raises(ValidationError):
        murphy_curve({"A": (np.array([]), np.array([]))}, "quantile", alpha=0.5)
    with pytest.raises(ValidationError, match="pair"):
        murphy_curve({"A": [x, y]}, "quantile", alpha=0.5)


PARAMS = (
    ("quantile", {"alpha": 0.3}),
    ("expectile", {"alpha": 0.7}),
    ("huber_mean", {"nu": 1.5}),
)


def _dense_means(functional, thresholds, x, y, **params):
    """The thresholds x cases broadcast the sweep replaced, kept as its oracle."""
    return elementary_score(
        functional, thresholds[:, None], x[None, :], y[None, :], **params
    ).mean(axis=1)


def _exact_mean(functional, theta, x, y, alpha=None, nu=None):
    """Mean elementary score in rational arithmetic (rates as the floats used)."""
    t, total = Fraction(theta), Fraction(0)
    for xi, yi in zip(x.tolist(), y.tolist()):
        if not min(xi, yi) <= theta < max(xi, yi):
            continue
        dist = abs(t - Fraction(yi))
        if functional == "huber_mean":
            total += min(dist, Fraction(nu)) / 2
        else:
            rate = Fraction(1.0 - alpha) if yi < xi else Fraction(alpha)
            total += rate * (dist if functional == "expectile" else 1)
    return total / len(x)


def test_murphy_sweep_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for n in (1, 7, 500):
        y = rng.normal(4, 15, n)
        x = y + rng.normal(0, 2, n) * rng.choice([0.0, 1.0, 10.0], n)
        grid = np.unique(np.concatenate([rng.uniform(-60, 70, 200), x, y, y + 1.5]))
        for functional, params in PARAMS:
            got = murphy_curve({"S": (x, y)}, functional, grid=grid, **params).means[0]
            want = _dense_means(functional, grid, x, y, **params)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, want.max())


def test_murphy_sweep_edge_cases():
    # ties x == y (cases 0, 3 and 6), duplicate cases (1 and 2), and a grid
    # holding every x, y and y +- nu, where the half-open convention decides
    x = np.array([1.0, 2.0, 2.0, 2.0, 5.0, -3.0, 4.0])
    y = np.array([1.0, 4.0, 4.0, 2.0, 0.5, -1.0, 4.0])
    grid = np.unique(np.concatenate([x, y, y - 1.5, y + 1.5, [-9.0, 20.0]]))
    for functional, params in PARAMS:
        curve = murphy_curve({"S": (x, y)}, functional, grid=grid, **params)
        want = [float(_exact_mean(functional, t, x, y, **params)) for t in grid]
        assert curve.means[0].tolist() == want
        # a grid that misses the data, and ties alone, give exact zeros
        off = murphy_curve({"S": (x, y)}, functional, grid=(10.0, 12.0, 5), **params)
        ties = murphy_curve({"S": (x[[0, 3, 6]], y[[0, 3, 6]])}, functional, **params)
        assert off.means.tolist() == [[0.0] * 5]
        assert not ties.means.any()
    one = murphy_curve(
        {"S": (np.array([3.0]), np.array([1.0]))}, "expectile", alpha=0.25,
        grid=np.array([0.0, 1.0, 2.0, 3.0]),
    )
    assert one.means.tolist() == [[0.0, 0.0, 0.75, 0.0]]


def test_murphy_sweep_is_correctly_rounded_at_any_magnitude():
    # the grid holds the rounded y +- nu, which the exact Huber split must
    # place on the right side of the unrounded kink
    rng = np.random.default_rng(22)
    for scale in (1.0, 1e6, 1e12):
        y = rng.normal(0, 1, 30) * scale
        x = y + rng.normal(0, 1, 30) * rng.choice([1e-3, 1.0, 1e3], 30)
        grid = np.unique(
            np.concatenate([x, y, y + 0.3, y - 0.3, rng.normal(0, 1, 30) * scale])
        )
        for functional, _ in PARAMS:
            kw = {"nu": 0.3} if functional == "huber_mean" else {"alpha": 0.3}
            curve = murphy_curve({"S": (x, y)}, functional, grid=grid, **kw)
            want = [float(_exact_mean(functional, t, x, y, **kw)) for t in grid]
            assert curve.means[0].tolist() == want


def test_murphy_sweep_zero_off_support_and_nonnegative():
    # two clusters far from the origin; the thresholds between them see
    # no case, where float prefix sums would leave rounding residue
    rng = np.random.default_rng(23)
    y = np.concatenate([rng.uniform(1000, 1001, 300), rng.uniform(5000, 5001, 300)])
    x = y + rng.uniform(-0.5, 0.5, 600)
    grid = np.linspace(990.0, 5010.0, 4021)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    inside = ((lo[None, :] < grid[:, None]) & (grid[:, None] < hi[None, :])).any(axis=1)
    covered = ((lo[None, :] <= grid[:, None]) & (grid[:, None] < hi[None, :])).any(axis=1)
    for functional, params in PARAMS:
        means = murphy_curve({"S": (x, y)}, functional, grid=grid, **params).means[0]
        assert np.all(means[~covered] == 0.0)
        assert np.all(means[inside] > 0.0)
        assert np.all(means >= 0.0)


def test_murphy_sweep_memory_is_linear():
    rng = np.random.default_rng(24)
    y = rng.normal(4, 15, 200_000)
    x = y + rng.normal(0, 2, y.size)
    for functional, params in PARAMS:
        tracemalloc.start()
        try:
            murphy_curve({"S": (x, y)}, functional, grid=2001, **params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20  # the dense array alone would be 3.2 GB


def test_murphy_area_recovers_mean_score():
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, 40)
    y = rng.uniform(-5, 5, 40)
    spec = expectile_score(0.7)
    curve = murphy_curve(
        {"S": (x, y)}, "expectile", alpha=0.7, grid=(-6.0, 6.0, 4001)
    )
    area = murphy_area(curve, density=spec.generator.density)
    mean_score = score(spec, x, y).mean()
    assert area == pytest.approx(mean_score, rel=5e-3)
    # identity generator: density defaults to one
    curve_q = murphy_curve(
        {"S": (x, y)}, "quantile", alpha=0.3, grid=(-6.0, 6.0, 4001)
    )
    area_q = murphy_area(curve_q)
    mean_q = score(quantile_score(0.3), x, y).mean()
    assert area_q == pytest.approx(mean_q, rel=5e-3)


def test_murphy_area_rejects_bad_explicit_inputs():
    with pytest.raises(ValidationError, match="needs means"):
        murphy_area([0.0, 1.0, 2.0])
    with pytest.raises(ValidationError, match="strictly ascending"):
        murphy_area([2.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValidationError, match="last axis"):
        murphy_area([0.0, 1.0, 2.0], [1.0, 1.0])


def test_murphy_writers(tmp_path):
    x = np.array([1.0, 2.0])
    y = np.array([0.5, 3.0])
    curve = murphy_curve({"A": (x, y)}, "quantile", alpha=0.5, grid=(0.0, 3.0, 4))
    csv_path = tmp_path / "curve.csv"
    write_murphy_csv(curve, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "theta,A_mean"
    assert len(lines) == 5
    assert lines[1].startswith("0,")
    assert csv_path.read_bytes() == b"theta,A_mean\r\n0,0\r\n1,0\r\n2,0.25\r\n3,0\r\n"
    meta_path = tmp_path / "curve.json"
    write_murphy_meta(curve, meta_path)
    meta = json.loads(meta_path.read_text())
    assert meta["functional"] == "quantile"
    assert meta["alpha"] == 0.5
    assert meta["nu"] is None
    assert meta["grid"] == {"lo": 0.0, "hi": 3.0, "n": 4}
    assert meta["systems"] == ["A"]
    assert meta["weight"] is None
    assert meta_path.read_text() == (
        '{\n  "functional": "quantile",\n  "alpha": 0.5,\n  "nu": null,\n'
        '  "grid": {\n    "lo": 0.0,\n    "hi": 3.0,\n    "n": 4\n  },\n'
        '  "systems": [\n    "A"\n  ],\n'
        '  "weight": null\n}\n'
    )


def test_verify_mixture_exact_for_polynomial_families():
    # Gauss-Kronrod is exact on polynomial pieces, so residuals vanish
    checks = [
        (quantile_score(0.25), 2.0, 5.0),
        (expectile_score(0.5), 12.0, 8.0),
        (huber_loss(1.0), 3.0, 0.0),
        (squared_error(), -4.0, 7.0),
    ]
    for spec, x, y in checks:
        c = verify_mixture(spec, x, y)
        assert c.direct == pytest.approx(score(spec, x, y), rel=1e-14)
        assert c.residual <= 1e-12 * max(1.0, abs(c.direct))


def test_verify_mixture_coincident_inputs():
    c = verify_mixture(squared_error(), 3.0, 3.0)
    assert c.direct == 0.0 and c.mixture == 0.0 and c.residual == 0.0


def test_verify_mixture_random_loop():
    rng = np.random.default_rng(5)
    for _ in range(60):
        x = float(rng.uniform(-10, 10))
        y = float(rng.uniform(-10, 10))
        spec = [
            quantile_score(float(rng.uniform(0.1, 0.9))),
            expectile_score(float(rng.uniform(0.1, 0.9))),
            huber_loss(float(rng.uniform(0.2, 4.0))),
        ][int(rng.integers(3))]
        c = verify_mixture(spec, x, y)
        assert c.residual <= 1e-6 * max(1.0, abs(c.direct))


def test_verify_mixture_weighted_component():
    weights = (
        TrapezoidalWeight(-1.0, 0.0, 2.0, 4.0),
        ArctanUpperWeight(10.0),
        NormalizedWeight(1, (ArctanLowerWeight(-1.0), ArctanUpperWeight(2.0))),
    )
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = float(rng.uniform(-5, 7))
        y = float(rng.uniform(-5, 7))
        for spec in (quantile_score(0.4), expectile_score(0.6), huber_loss(1.2)):
            for w in weights:
                c = verify_mixture(spec, x, y, weight=w)
                assert c.residual <= 1e-6 * max(1.0, abs(c.direct))


def test_verify_mixture_at_a_width_of_1e12():
    # the integral is cut at the kinks and knots only, so its cost and
    # memory do not grow with |x - y|
    w = TrapezoidalWeight(-1.0, 0.0, 2.0, 4.0)
    for spec in (squared_error(), huber_loss(1.5), quantile_score(0.3)):
        for x, y in ((1e12, 0.0), (-3.0, 1e12 - 3.0)):
            for weight in (None, w):
                c = verify_mixture(spec, x, y, weight=weight)
                assert type(c.mixture) is float
                assert c.residual <= 1e-12 * max(1.0, abs(c.direct))


def test_verify_mixture_validates_inputs():
    with pytest.raises(ValidationError):
        verify_mixture(squared_error(), np.inf, 0.0)

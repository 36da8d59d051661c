"""Weight functions, partitions of unity, and their config round trip."""

import json

import numpy as np
import pytest
from scipy import integrate

from veriscore import (
    ArctanLowerWeight,
    ArctanUpperWeight,
    IntervalDomain,
    NormalizedWeight,
    PartitionOfUnity,
    REAL_LINE,
    RectangularWeight,
    TabulatedWeight,
    TrapezoidalWeight,
    ValidationError,
    arctan_pair,
    load_partition_config,
    parse_partition_config,
    partition_config,
    rectangular_partition,
    trapezoidal_partition,
    normalized_partition,
    validate_partition,
)


def test_domain_membership_is_half_open():
    d = IntervalDomain(0.0, 6.0)
    assert d.contains(0.0) and not d.contains(6.0)
    assert list(d.contains(np.array([-0.1, 0.0, 5.999, 6.0]))) == [
        False,
        True,
        True,
        False,
    ]
    with pytest.raises(ValidationError):
        d.require(np.array([1.0, 7.0]), "probe")


def test_domain_validation():
    with pytest.raises(ValidationError):
        IntervalDomain(3.0, 3.0)
    with pytest.raises(ValidationError):
        IntervalDomain(5.0, 1.0)
    assert REAL_LINE.contains(1e308)


def test_rectangular_weight_is_half_open_indicator():
    w = RectangularWeight(2.0, 5.0)
    t = np.array([1.9, 2.0, 3.0, 4.999, 5.0])
    assert list(w(t)) == [0.0, 1.0, 1.0, 1.0, 0.0]
    assert w.support() == (2.0, 5.0)


def test_rectangular_weight_infinite_ends():
    w = RectangularWeight(-np.inf, 3.0)
    assert w(np.array([-1e9]))[0] == 1.0 and w(np.array([3.0]))[0] == 0.0
    w2 = RectangularWeight(3.0, np.inf)
    assert w2(np.array([3.0]))[0] == 1.0 and w2(np.array([2.999]))[0] == 0.0
    with pytest.raises(ValidationError):
        RectangularWeight(5.0, 2.0)


def test_rectangular_integrals_exact():
    w = RectangularWeight(2.0, 5.0)
    assert w.integral(2.0, 5.0) == 3.0
    assert w.integral(0.0, 2.0) == 0.0
    assert w.integral(5.0, 9.0) == 0.0
    assert w.integral(1.0, 3.5) == 1.5
    # signed orientation
    assert w.integral(5.0, 2.0) == -3.0


def test_trapezoidal_hand_values():
    w = TrapezoidalWeight(1.0, 2.0, 4.0, 5.0)
    assert w(np.array([1.5]))[0] == 0.5
    assert w(np.array([3.0]))[0] == 1.0
    assert w(np.array([4.5]))[0] == 0.5
    assert w(np.array([0.9]))[0] == 0.0 and w(np.array([5.1]))[0] == 0.0
    # ramp areas: 0.5 each, plateau 2
    assert abs(w.integral(0.0, 6.0) - 3.0) < 1e-15


def test_trapezoidal_collapsed_and_infinite():
    sharp = TrapezoidalWeight(2.0, 2.0, 4.0, 5.0)  # no left ramp
    assert sharp(np.array([2.0]))[0] == 1.0 and sharp(np.array([1.999]))[0] == 0.0
    plateau = TrapezoidalWeight(-np.inf, -np.inf, 0.0, 1.0)
    assert plateau(np.array([-1e8]))[0] == 1.0
    assert plateau(np.array([0.5]))[0] == 0.5
    with pytest.raises(ValidationError):
        TrapezoidalWeight(-np.inf, -1.0, 0.0, 1.0)  # infinite left needs a == b
    with pytest.raises(ValidationError):
        TrapezoidalWeight(3.0, 2.0, 4.0, 5.0)
    with pytest.raises(ValidationError):
        TrapezoidalWeight(1.0, 1.0, 1.0, 1.0)  # zero function
    with pytest.raises(ValidationError, match="infinite length"):
        TrapezoidalWeight(0.0, np.inf, np.inf, np.inf)
    with pytest.raises(ValidationError, match="infinite length"):
        TrapezoidalWeight(-np.inf, -np.inf, -np.inf, 0.0)
    # zero-width outer ramps are jumps, as for rectangular cells
    inf = np.inf
    for trap, rect in (
        (TrapezoidalWeight(2.0, 2.0, inf, inf), RectangularWeight(2.0, inf)),
        (TrapezoidalWeight(-inf, -inf, 2.0, 2.0), RectangularWeight(-inf, 2.0)),
    ):
        t = np.array([-1e8, 1.999, 2.0, 2.001, 1e8])
        np.testing.assert_array_equal(trap(t), rect(t))
        assert trap.support() == rect.support()


def test_arctan_pair_values_and_complement():
    up = ArctanUpperWeight(0.0)
    lo = ArctanLowerWeight(0.0)
    assert up(np.array([0.0]))[0] == 0.5
    t = np.linspace(-20, 20, 101)
    np.testing.assert_allclose(up(t) + lo(t), 1.0, rtol=0, atol=1e-15)
    assert np.all(up(t) > 0) and np.all(lo(t) > 0)
    assert up(np.array([30.0]))[0] > 0.98


def test_arctan_antiderivatives_match_numeric():
    up = ArctanUpperWeight(1.5)
    t = np.linspace(-8.0, 10.0, 41)
    h = 1e-5
    d1 = (up.antideriv(t + h) - up.antideriv(t - h)) / (2 * h)
    np.testing.assert_allclose(d1, up(t), rtol=0, atol=1e-9)
    d2 = (up.antideriv2(t + h) - up.antideriv2(t - h)) / (2 * h)
    np.testing.assert_allclose(d2, up.antideriv(t), rtol=0, atol=1e-9)
    lo = ArctanLowerWeight(1.5)
    d1 = (lo.antideriv(t + h) - lo.antideriv(t - h)) / (2 * h)
    np.testing.assert_allclose(d1, lo(t), rtol=0, atol=1e-9)


def test_tabulated_weight_interpolates_and_extends():
    w = TabulatedWeight([-2.0, 0.0, 3.0], [0.2, 0.9, 0.4])
    assert w(np.array([-1.0]))[0] == pytest.approx(0.55)
    assert w(np.array([-10.0]))[0] == 0.2
    assert w(np.array([10.0]))[0] == 0.4
    with pytest.raises(ValidationError):
        TabulatedWeight([0.0, 1.0], [0.5, 1.5])
    with pytest.raises(ValidationError):
        TabulatedWeight([0.0, 0.0], [0.5, 0.5])


def test_tabulated_integral_matches_quadrature():
    w = TabulatedWeight([-2.0, 0.0, 3.0], [0.2, 0.9, 0.4])
    for lo, hi in [(-5.0, 5.0), (-1.0, 2.0), (0.0, 0.0)]:
        ref, _ = integrate.quad(lambda t: float(w(np.array([t]))[0]), lo, hi, limit=200)
        assert w.integral(lo, hi) == pytest.approx(ref, abs=1e-10)


def test_normalized_weight_divides_pointwise():
    comps = (lambda t: np.exp(-t * t), lambda t: np.ones_like(t))
    w0 = NormalizedWeight(0, comps)
    w1 = NormalizedWeight(1, comps)
    t = np.linspace(-3, 3, 21)
    np.testing.assert_allclose(w0(t) + w1(t), 1.0, atol=1e-15)
    assert w0(np.array([0.0]))[0] == pytest.approx(0.5)
    zero = NormalizedWeight(0, (lambda t: np.zeros_like(t), lambda t: np.zeros_like(t)))
    with pytest.raises(ValidationError):
        zero(np.array([1.0]))


def test_rectangular_partition_cells():
    p = rectangular_partition([0.0, 10.0], IntervalDomain(-20.0, 30.0))
    assert len(p) == 3
    t = np.array([-20.0, -0.5, 0.0, 9.9, 10.0, 29.9])
    mat = p.eval_matrix(t)
    np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=0)
    # membership is unique per point
    assert np.all((mat == 1.0).sum(axis=0) == 1)
    with pytest.raises(ValidationError):
        rectangular_partition([5.0, 5.0])
    with pytest.raises(ValidationError):
        rectangular_partition([0.0], IntervalDomain(1.0, 2.0))


def test_trapezoidal_partition_sums_to_one():
    p = trapezoidal_partition([(0.0, 1.0), (4.0, 6.0)], IntervalDomain(-5.0, 10.0))
    assert len(p) == 3
    t = np.linspace(-5.0, 9.999, 777)
    np.testing.assert_allclose(p.eval_matrix(t).sum(axis=0), 1.0, atol=1e-12)
    with pytest.raises(ValidationError):
        trapezoidal_partition([(2.0, 1.0)])
    with pytest.raises(ValidationError):
        trapezoidal_partition([(0.0, 3.0), (2.0, 5.0)])  # overlap


def test_arctan_pair_is_valid_partition():
    p = arctan_pair(10.0)
    rep = validate_partition(p)
    assert rep.passed and rep.max_sum_error <= 1e-12
    assert p.weights[1].kind == "arctan_upper"


def test_partition_rejects_gaps_and_overlaps():
    gap = [RectangularWeight(0.0, 1.0), RectangularWeight(2.0, 3.0)]
    with pytest.raises(ValidationError):
        PartitionOfUnity(gap, IntervalDomain(0.0, 3.0))
    overlap = [RectangularWeight(0.0, 2.0), RectangularWeight(1.0, 3.0)]
    rep = PartitionOfUnity(
        overlap, IntervalDomain(0.0, 3.0), validate=False
    ).validate()
    assert not rep.passed
    assert rep.max_sum_error >= 1.0 - 1e-12


def test_random_partitions_sum_to_one():
    rng = np.random.default_rng(42)
    for _ in range(25):
        cuts = np.sort(rng.uniform(-40, 40, rng.integers(1, 5)))
        cuts = np.unique(cuts)
        p = rectangular_partition(list(cuts))
        t = rng.uniform(-60, 60, 300)
        np.testing.assert_allclose(p.eval_matrix(t).sum(axis=0), 1.0, atol=1e-12)
    for _ in range(25):
        edges = np.sort(rng.uniform(-40, 40, 4))
        if len(np.unique(edges)) < 4:
            continue
        p = trapezoidal_partition([(edges[0], edges[1]), (edges[2], edges[3])])
        t = rng.uniform(-60, 60, 300)
        np.testing.assert_allclose(p.eval_matrix(t).sum(axis=0), 1.0, atol=1e-12)


def test_eval_matrix_enforces_domain():
    p = rectangular_partition([1.0], IntervalDomain(0.0, 2.0))
    with pytest.raises(ValidationError):
        p.eval_matrix(np.array([2.5]))


def test_config_round_trip(tmp_path):
    p = trapezoidal_partition([(0.0, 1.0)], IntervalDomain(-10.0, np.inf))
    cfg = partition_config(p)
    p2 = parse_partition_config(cfg)
    assert partition_config(p2) == cfg
    path = tmp_path / "part.json"
    path.write_text(json.dumps(cfg))
    p3 = load_partition_config(path)
    assert partition_config(p3) == cfg
    tabulated = [
        TabulatedWeight([-5.0, 0.0, 5.0], [0.5, 0.9, 0.5]),
        TabulatedWeight([-5.0, 0.0, 5.0], [1.0, 0.3, 1.0]),
    ]
    partitions = [
        rectangular_partition([-10.0, 0.0, 10.0]),
        rectangular_partition([2.0], IntervalDomain(0.0, 6.0)),
        trapezoidal_partition([(-2.0, 0.0), (3.0, 5.0)]),
        trapezoidal_partition([(5.0, 5.0)]),
        PartitionOfUnity(
            [
                TabulatedWeight([0.0, 1.0], [1.0, 0.0]),
                TabulatedWeight([0.0, 1.0], [0.0, 1.0]),
            ]
        ),
        arctan_pair(10.0),
        normalized_partition(list(rectangular_partition([0.0]))),
        normalized_partition(tabulated),
    ]
    for p in partitions:
        cfg = partition_config(p)
        echo = json.loads(json.dumps(cfg))
        assert partition_config(parse_partition_config(echo)) == cfg
    assert partitions[0].weights[0].config() == {
        "kind": "rectangular",
        "a": "-inf",
        "b": -10.0,
    }
    assert partitions[3].weights[1].config() == {
        "kind": "trapezoidal",
        "a": 5.0,
        "b": 5.0,
        "c": "inf",
        "d": "inf",
    }
    assert tabulated[0].config() == {
        "kind": "tabulated",
        "breakpoints": [-5.0, 0.0, 5.0],
        "values": [0.5, 0.9, 0.5],
    }
    assert partitions[5].weights[0].config() == {
        "kind": "arctan_lower",
        "center": 10.0,
    }


def test_config_cutpoints_shorthand():
    p = parse_partition_config({"cutpoints": [0.0, 10.0]})
    assert len(p) == 3
    assert p.weights[0].kind == "rectangular"


def test_config_errors_cite_field():
    with pytest.raises(ValidationError, match=r"weights\[1\]"):
        parse_partition_config(
            {
                "weights": [
                    {"kind": "rectangular", "a": "-inf", "b": 0.0},
                    {"kind": "rectangular", "a": 0.0},
                ]
            }
        )
    with pytest.raises(ValidationError, match="kind"):
        parse_partition_config({"weights": [{"kind": "hexagonal"}]})
    with pytest.raises(ValidationError, match="object"):
        parse_partition_config([1, 2, 3])


def test_config_file_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"weights": [}')
    with pytest.raises(ValidationError, match="line 1"):
        load_partition_config(path)
    with pytest.raises(ValidationError, match="cannot read"):
        load_partition_config(tmp_path / "absent.json")


def test_antiderivative_chain_by_finite_differences():
    h = 1e-6
    for w in (
        TrapezoidalWeight(-1.0, 0.0, 2.0, 4.0),
        RectangularWeight(-2.0, 3.0),
        TabulatedWeight([-2.0, 0.0, 3.0], [0.2, 0.9, 0.4]),
        TrapezoidalWeight(1.0, 1.0, np.inf, np.inf),
    ):
        # probe between knots so the central difference sees a smooth piece
        t = np.linspace(-6.0, 8.0, 113) + 0.0037
        d1 = (w.antideriv(t + h) - w.antideriv(t - h)) / (2 * h)
        np.testing.assert_allclose(d1, w(t), rtol=0, atol=1e-6)
        d2 = (w.antideriv2(t + h) - w.antideriv2(t - h)) / (2 * h)
        np.testing.assert_allclose(d2, w.antideriv(t), rtol=0, atol=1e-6)


def test_double_integral_consistent_with_antiderivative():
    w = TrapezoidalWeight(-1.0, 0.0, 2.0, 4.0)
    rng = np.random.default_rng(5)
    lo = rng.uniform(-8, 8, 64)
    hi = rng.uniform(-8, 8, 64)
    got = w.double_integral(lo, hi)
    ref = w.antideriv2(hi) - w.antideriv2(lo)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    # off-support spans vanish exactly, including against orientation
    assert float(w.double_integral(-9.0, -5.0)) == 0.0
    assert float(w.double_integral(6.0, 9.0)) == float(
        w.antideriv(np.array([6.0]))[0]
    ) * 3.0
    assert float(w.double_integral(9.0, 6.0)) == -float(w.double_integral(6.0, 9.0))

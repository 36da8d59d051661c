"""Weight functions, partitions of unity, and their config round trip."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from veriscore import (
    ArctanLowerWeight,
    ArctanUpperWeight,
    IntervalDomain,
    NormalizedWeight,
    PartitionOfUnity,
    REAL_LINE,
    RectangularWeight,
    RegionGenerator,
    TabulatedWeight,
    TrapezoidalWeight,
    ValidationError,
    WeightFunction,
    arctan_pair,
    expectile_score,
    huber_loss,
    load_partition_config,
    parse_partition_config,
    partition_config,
    quantile_score,
    rectangular_partition,
    trapezoidal_partition,
    normalized_partition,
)
from veriscore.partition import SUM_TOLERANCE


def _moments(w, lo, hi, y):
    # both moments over t in [lo, hi], centred at y
    p, q = np.subtract(lo, y), np.subtract(hi, y)
    return tuple(w.moment(k, p, q, y) for k in (0, 1))


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
    t = np.linspace(-8.0, 10.0, 41)
    h = 1e-5
    y = 0.5
    for w in (ArctanUpperWeight(1.5), ArctanLowerWeight(1.5)):
        # d/dh of the moments from a fixed point to h: chi(h), (h - y) chi(h)
        up, down = _moments(w, -9.0, t + h, y), _moments(w, -9.0, t - h, y)
        d0 = (up[0] - down[0]) / (2 * h)
        np.testing.assert_allclose(d0, w(t), rtol=0, atol=1e-9)
        d1 = (up[1] - down[1]) / (2 * h)
        np.testing.assert_allclose(d1, (t - y) * w(t), rtol=0, atol=1e-9)
        # short spans far from the centre, long spans across it, both ways
        for lo, hi in ((2.0, 2.001), (40.0, 40.01), (-3.0, 7.0), (7.0, -3.0)):
            for k in (0, 1):
                ref, _ = integrate.quad(
                    lambda s: (s - y) ** k * float(w(np.array([s]))[0]),
                    lo,
                    hi,
                    epsabs=1e-13,
                    epsrel=1e-13,
                )
                assert float(w.moment(k, lo - y, hi - y, y)) == pytest.approx(ref, abs=1e-12)


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


def test_ramps_longer_than_the_largest_float_are_refused():
    # the length 2e308 would overflow to inf and flatten the ramp into a step
    inf = np.inf
    with pytest.raises(ValidationError, match="tabulated weight .* longer than the largest"):
        TabulatedWeight([-1e308, 1e308], [0.0, 1.0])
    with pytest.raises(ValidationError, match="tabulated weight .* longer than the largest"):
        TabulatedWeight([-1e308, -5e307, 1.5e308], [0.0, 0.5, 1.0])
    with pytest.raises(ValidationError, match="trapezoidal weight .* longer than the largest"):
        TrapezoidalWeight(-1e308, 1e308, inf, inf)
    with pytest.raises(ValidationError, match="trapezoidal weight .* longer than the largest"):
        TrapezoidalWeight(-inf, -inf, -1e308, 1e308)
    with pytest.raises(ValidationError, match="longer than the largest"):
        trapezoidal_partition([(-1e308, 1e308)])
    # a ramp of 2e307 is still a ramp
    t = np.array([0.0])
    assert TabulatedWeight([-1e307, 1e307], [0.0, 1.0])(t)[0] == 0.5
    assert TrapezoidalWeight(-1e307, 1e307, inf, inf)(t)[0] == 0.5
    p = trapezoidal_partition([(-1e307, 1e307)])
    assert p.report.passed
    np.testing.assert_array_equal(p.eval_matrix(t)[:, 0], [0.5, 0.5])


def test_arctan_pair_is_valid_partition():
    p = arctan_pair(10.0)
    rep = p.report
    assert rep.passed and rep.max_sum_error <= 1e-12
    assert p.weights[1].kind == "arctan_upper"


def test_weights_refuse_bool_parameters():
    for build in (
        lambda: arctan_pair(True),
        lambda: ArctanUpperWeight(np.False_),
        lambda: RectangularWeight(False, True),
        lambda: TrapezoidalWeight(0.0, 1.0, 2.0, True),
    ):
        with pytest.raises(ValidationError, match="expected a number"):
            build()


def test_partition_rejects_gaps_and_overlaps():
    gap = [RectangularWeight(0.0, 1.0), RectangularWeight(2.0, 3.0)]
    with pytest.raises(ValidationError):
        PartitionOfUnity(gap, IntervalDomain(0.0, 3.0))
    overlap = [RectangularWeight(0.0, 2.0), RectangularWeight(1.0, 3.0)]
    with pytest.raises(ValidationError) as caught:
        PartitionOfUnity(overlap, IntervalDomain(0.0, 3.0))
    rep = caught.value.report
    assert not rep.passed
    assert rep.max_sum_error >= 1.0 - 1e-12


def _nan_point(message):
    # the point a "weight j is nan at t=..." message names
    found = re.search(r"weight (\d+) is nan at t=([^;\s]+)", message)
    assert found, message
    return int(found[1]), float(found[2])


class _NanOnUnitCell(WeightFunction):
    # a user-defined weight: 1 below 0, NaN on [0, 1), 0 from 1 on
    kind = "nan_on_unit_cell"

    def __init__(self):
        pass

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 1.0, np.where(t < 1.0, np.nan, 0.0))


def test_nan_weights_fail_the_check():
    with pytest.raises(ValidationError) as caught:
        PartitionOfUnity([_NanOnUnitCell(), RectangularWeight(0.0, np.inf)])
    rep = caught.value.report
    assert not rep.passed and rep.max_sum_error == np.inf
    j, t = _nan_point(str(caught.value))
    assert j == 0 and 0.0 <= t < 1.0


def test_normalized_nan_component_fails_the_check():
    def nan_above_5(t):
        return np.where(np.asarray(t) > 5.0, np.nan, 1.0)

    with pytest.raises(ValidationError) as caught:
        normalized_partition([RectangularWeight(0.0, 10.0), nan_above_5])
    assert not caught.value.report.passed
    j, t = _nan_point(str(caught.value))
    assert j == 0 and t > 5.0


def _exact_chi(shape, t, left):
    # chi(t) of the trapezoid a <= b <= c <= d, or its left limit at t,
    # in exact arithmetic; a rectangle [a, b) is the trapezoid (a, a, b, b)
    a, b, c, d = shape
    below = (lambda e: t <= e) if left else (lambda e: t < e)
    if below(a):
        return Fraction(0)
    if below(b):
        return (t - Fraction(a)) / (Fraction(b) - Fraction(a))
    if below(c):
        return Fraction(1)
    if below(d):
        return (Fraction(d) - t) / (Fraction(d) - Fraction(c))
    return Fraction(0)


def _exact_deviation(shapes):
    # the sum is linear between the union knots, constant beyond them
    # and right-continuous, so its sup distance from 1 is attained at a
    # knot or as a left limit there
    knots = {Fraction(v) for shape in shapes for v in shape if math.isfinite(v)}
    return max(
        abs(sum(_exact_chi(shape, k, left) for shape in shapes) - 1)
        for k in knots
        for left in (False, True)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["rectangular", "trapezoidal"]),
    ints=st.lists(st.integers(-1000, 1000), min_size=2, max_size=6, unique=True),
    scale=st.floats(1e-3, 1e3),
    offset=st.floats(-1e4, 1e4),
    pick=st.integers(0, 1000),
    frac=st.floats(0.0, 1e-3),
    sign=st.sampled_from([-1.0, 1.0]),
)
@example(kind="rectangular", ints=[0, 1], scale=1.0, offset=0.0, pick=1, frac=0.0, sign=1.0)
@example(kind="rectangular", ints=[0, 1], scale=1.0, offset=0.5, pick=2, frac=0.0, sign=-1.0)
@example(kind="trapezoidal", ints=[0, 1], scale=1.0, offset=0.0, pick=0, frac=1e-3, sign=1.0)
def test_partition_check_matches_an_exact_check_at_the_knots(
    kind, ints, scale, offset, pick, frac, sign
):
    # a valid family with one cutpoint of one weight moved by 1 ulp to 1e-3 of the span
    cuts = sorted(offset + scale * k for k in ints)
    span = cuts[-1] - cuts[0]
    assume(min(np.diff(cuts)) > 2.5e-3 * span)  # the move keeps each weight well formed
    if kind == "rectangular":
        edges = [-math.inf, *cuts, math.inf]
        params = [[a, b] for a, b in zip(edges[:-1], edges[1:])]
    else:
        ramps = [(-math.inf, -math.inf), *zip(cuts[0:-1:2], cuts[1::2]), (math.inf, math.inf)]
        params = [[*lo, *hi] for lo, hi in zip(ramps[:-1], ramps[1:])]
    slots = [(j, i) for j, p in enumerate(params) for i, v in enumerate(p) if math.isfinite(v)]
    j, i = slots[pick % len(slots)]
    v = params[j][i]
    moved = v + sign * frac * span
    params[j][i] = moved if moved != v else float(np.nextafter(v, sign * math.inf))
    if kind == "rectangular":
        weights = [RectangularWeight(a, b) for a, b in params]
        shapes = [(a, a, b, b) for a, b in params]
    else:
        weights = [TrapezoidalWeight(*p) for p in params]
        shapes = params
    deviation = _exact_deviation(shapes)
    # within rounding of the tolerance itself either verdict is right
    assume(abs(deviation - Fraction(SUM_TOLERANCE)) > Fraction(SUM_TOLERANCE) / 100)
    if deviation > SUM_TOLERANCE:
        with pytest.raises(ValidationError, match="not a partition of unity"):
            PartitionOfUnity(weights)
    else:
        assert PartitionOfUnity(weights).report.passed


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
    for kind in ("hexagonal", ["rectangular"]):
        with pytest.raises(ValidationError, match="kind"):
            parse_partition_config({"weights": [{"kind": kind}]})
    with pytest.raises(ValidationError, match="object"):
        parse_partition_config([1, 2, 3])
    # a weight entry, nested or not, holds only its kind's fields
    rect = {"kind": "rectangular", "a": "-inf", "b": 0}
    upper = {"kind": "rectangular", "a": 0, "b": "inf"}
    with pytest.raises(ValidationError, match=r"weights\[0\]: unknown fields \['center'\]"):
        parse_partition_config({"weights": [{**rect, "center": 3}, upper]})
    nested = {
        "kind": "normalized",
        "index": 0,
        "components": [{"kind": "arctan_upper", "center": 1, "b": 2}],
    }
    with pytest.raises(
        ValidationError, match=r"weights\[0\]\.components\[0\]: unknown fields \['b'\]"
    ):
        parse_partition_config({"weights": [nested]})
    with pytest.raises(ValidationError, match=r"weights\[0\]: unknown fields \['scale'\]"):
        parse_partition_config({"weights": [{**nested, "scale": 2}]})


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
        for y in (0.0, 2.5):
            # d/dh of the moments from a fixed point to h: chi(h), (h - y) chi(h)
            up, down = _moments(w, -7.0, t + h, y), _moments(w, -7.0, t - h, y)
            d0 = (up[0] - down[0]) / (2 * h)
            np.testing.assert_allclose(d0, w(t), rtol=0, atol=1e-6)
            d1 = (up[1] - down[1]) / (2 * h)
            np.testing.assert_allclose(d1, (t - y) * w(t), rtol=0, atol=1e-6)


def test_double_integral_consistent_with_antiderivative():
    w = TrapezoidalWeight(-1.0, 0.0, 2.0, 4.0)
    rng = np.random.default_rng(5)
    lo = rng.uniform(-8, 8, 64)
    hi = rng.uniform(-8, 8, 64)
    y = rng.uniform(-8, 8, 64)
    m0, m1 = _moments(w, lo, hi, y)
    np.testing.assert_allclose(m0, w.integral(lo, hi), rtol=0, atol=1e-12)
    # moving the centre from y to 0 adds y * m0
    np.testing.assert_allclose(
        w.moment(1, lo, hi, 0.0), m1 + y * m0, rtol=0, atol=1e-12
    )
    # off-support spans vanish exactly, including against orientation
    for a, b in ((-9.0, -5.0), (-5.0, -9.0), (6.0, 9.0), (9.0, 6.0)):
        assert float(w.integral(a, b)) == 0.0
        assert [float(m) for m in _moments(w, a, b, 7.0)] == [0.0, 0.0]
    assert float(w.integral(9.0, -9.0)) == -float(w.integral(-9.0, 9.0)) == -3.5
    # and so do the score forms built on them
    for spec in (quantile_score(0.3), expectile_score(0.7), huber_loss(0.5)):
        r = RegionGenerator(spec, w)
        assert r.score(-9.0, -5.0) == r.score(-5.0, -9.0) == 0.0
        assert r.score(6.0, 9.0) == r.score(9.0, 6.0) == 0.0
    # reversed orientation flips the sign of m0 and of ind - alpha together
    q = RegionGenerator(quantile_score(0.3), w)
    assert q.score(9.0, -9.0) == pytest.approx(0.7 * 3.5, rel=1e-15)
    assert q.score(-9.0, 9.0) == pytest.approx(0.3 * 3.5, rel=1e-15)

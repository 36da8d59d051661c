"""CRPS exactness, decomposition additivity, and ensemble input."""

import numpy as np
import pytest

from veriscore import (
    EmpiricalCDF,
    RectangularWeight,
    ValidationError,
    arctan_pair,
    crps,
    crps_components,
    crps_decomposed,
    read_ensemble_csv,
    rectangular_partition,
    trapezoidal_partition,
)


def test_two_point_hand_value():
    cdf = EmpiricalCDF.from_ensemble([0.0, 2.0])
    # (0.5)^2 on [0, 1) and (0.5 - 1)^2 on [1, 2)
    assert crps(cdf, 1.0) == 0.5


def test_degenerate_forecast_is_absolute_error():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.uniform(-50, 50))
        y = float(rng.uniform(-50, 50))
        assert crps(EmpiricalCDF.from_ensemble([x]), y) == abs(x - y)


def test_matches_energy_form_on_random_ensembles():
    # CRPS = E|M - y| - 0.5 E|M - M'| for the empirical distribution
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = rng.uniform(-30, 30, int(rng.integers(1, 21)))
        y = float(rng.uniform(-35, 35))
        direct = crps(EmpiricalCDF.from_ensemble(m), y)
        energy = np.abs(m - y).mean() - 0.5 * np.abs(
            m[:, None] - m[None, :]
        ).mean()
        assert direct == pytest.approx(energy, rel=1e-12, abs=1e-12)


def test_cdf_evaluate_is_right_continuous():
    cdf = EmpiricalCDF.from_ensemble([0.0, 2.0])
    np.testing.assert_array_equal(
        cdf.evaluate(np.array([-0.5, 0.0, 1.0, 2.0, 3.0])),
        np.array([0.0, 0.5, 0.5, 1.0, 1.0]),
    )


def test_from_ensemble_merges_duplicates():
    cdf = EmpiricalCDF.from_ensemble([1.0, 1.0, 2.0, 4.0])
    np.testing.assert_array_equal(cdf.breakpoints, [1.0, 2.0, 4.0])
    np.testing.assert_allclose(cdf.values, [0.5, 0.75, 1.0])


def test_cdf_validation():
    with pytest.raises(ValidationError):
        EmpiricalCDF([1.0, 1.0], [0.5, 1.0])  # not strictly ascending
    with pytest.raises(ValidationError):
        EmpiricalCDF([1.0, 2.0], [0.8, 0.5])  # decreasing values
    with pytest.raises(ValidationError):
        EmpiricalCDF([1.0, 2.0], [0.5, 0.9])  # tail mass never reaches 1
    with pytest.raises(ValidationError):
        EmpiricalCDF([np.inf], [1.0])
    with pytest.raises(ValidationError):
        EmpiricalCDF([0.0, 1.0], [-0.1, 1.0])
    with pytest.raises(ValidationError):
        EmpiricalCDF.from_ensemble([])
    with pytest.raises(ValidationError):
        crps(EmpiricalCDF.from_ensemble([0.0]), np.nan)


def test_components_sum_to_total():
    rng = np.random.default_rng(2)
    partitions = [
        rectangular_partition([-5.0, 0.0, 5.0]),
        trapezoidal_partition([(-4.0, -1.0), (2.0, 6.0)]),
        arctan_pair(1.0),
    ]
    for _ in range(50):
        m = rng.uniform(-20, 20, int(rng.integers(1, 15)))
        y = float(rng.uniform(-25, 25))
        cdf = EmpiricalCDF.from_ensemble(m)
        total = crps(cdf, y)
        for partition in partitions:
            comp = crps_components(cdf, y, partition)
            assert comp.sum() == pytest.approx(
                total, rel=1e-9, abs=1e-9 * max(1.0, total)
            )
            assert np.all(comp >= -1e-12)


def test_components_localize():
    # a cell that never sees the integrand contributes exactly zero
    cdf = EmpiricalCDF.from_ensemble([0.0, 1.0])
    partition = rectangular_partition([5.0])
    comp = crps_components(cdf, 0.5, partition)
    assert comp[1] == 0.0
    assert comp[0] == pytest.approx(crps(cdf, 0.5), rel=1e-12)


def test_decomposed_wrapper():
    cdf = EmpiricalCDF.from_ensemble([0.0, 2.0])
    d = crps_decomposed(cdf, 1.0, rectangular_partition([1.0]))
    assert d.total == 0.5
    assert d.per_component.shape == (2,)
    assert d.component_sum == pytest.approx(0.5, rel=1e-12)


def test_components_respect_domain():
    from veriscore import IntervalDomain

    partition = rectangular_partition([1.0], domain=IntervalDomain(0.0, 10.0))
    cdf = EmpiricalCDF.from_ensemble([2.0, 3.0])
    with pytest.raises(ValidationError):
        crps_components(cdf, -5.0, partition)  # observation outside
    with pytest.raises(ValidationError):
        crps_components(
            EmpiricalCDF.from_ensemble([-2.0, 3.0]), 2.0, partition
        )  # breakpoint outside


def test_read_ensemble_csv_round_trip(tmp_path):
    p = tmp_path / "ens.csv"
    p.write_text(
        "case_id,obs,m1,m2,m3\n"
        "a,1.0,0.0,2.0,2.0\n"
        "\n"
        "b,0.25,1.0,1.0,1.0\n"
    )
    rows = read_ensemble_csv(p)
    assert [r[0] for r in rows] == ["a", "b"]
    assert rows[0][1] == 1.0
    np.testing.assert_array_equal(rows[0][2].breakpoints, [0.0, 2.0])
    assert crps(rows[1][2], 0.25) == 0.75


def test_read_ensemble_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("case_id,obs,q1\n" "a,1.0,2.0\n")
    with pytest.raises(ValidationError, match="m1"):
        read_ensemble_csv(p)
    p.write_text("case_id,obs,m1\n" "a,1.0\n")
    with pytest.raises(ValidationError, match=":2"):
        read_ensemble_csv(p)
    p.write_text("case_id,obs,m1\n" "a,1.0,oops\n")
    with pytest.raises(ValidationError, match="not a number"):
        read_ensemble_csv(p)
    p.write_text("case_id,obs,m1\n")
    with pytest.raises(ValidationError, match="no forecast cases"):
        read_ensemble_csv(p)
    p.write_text("case_id,obs\n" "a,1.0\n")
    with pytest.raises(ValidationError, match="header"):
        read_ensemble_csv(p)
    p.write_text("case_id,obs,m1,m2\n" "a,1.0,0.0,2.0\n" "a,2.0,1.0,3.0\n")
    with pytest.raises(ValidationError, match="duplicate"):
        read_ensemble_csv(p)
    with pytest.raises(ValidationError, match="cannot read"):
        read_ensemble_csv(tmp_path / "missing.csv")

"""CRPS exactness, decomposition additivity, and ensemble input."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import veriscore.ensemble
from veriscore import (
    EmpiricalCDF,
    EnsembleSet,
    IntervalDomain,
    RectangularWeight,
    ValidationError,
    arctan_pair,
    crps,
    read_ensemble_csv,
    rectangular_partition,
    trapezoidal_partition,
)


def test_two_point_hand_value():
    cdf = EmpiricalCDF.from_ensemble([0.0, 2.0])
    # (0.5)^2 on [0, 1) and (0.5 - 1)^2 on [1, 2)
    assert crps(cdf, 1.0) == (0.5, None)


def test_degenerate_forecast_is_absolute_error():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.uniform(-50, 50))
        y = float(rng.uniform(-50, 50))
        assert crps(EmpiricalCDF.from_ensemble([x]), y)[0] == abs(x - y)


def test_matches_energy_form_on_random_ensembles():
    # CRPS = E|M - y| - 0.5 E|M - M'| for the empirical distribution
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = rng.uniform(-30, 30, int(rng.integers(1, 21)))
        y = float(rng.uniform(-35, 35))
        direct, _ = crps(EmpiricalCDF.from_ensemble(m), y)
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
        total, _ = crps(cdf, y)
        for partition in partitions:
            _, comp = crps(cdf, y, partition)
            assert comp.sum() == pytest.approx(
                total, rel=1e-9, abs=1e-9 * max(1.0, total)
            )
            assert np.all(comp >= -1e-12)


def test_components_localize():
    # a cell that never sees the integrand contributes exactly zero
    cdf = EmpiricalCDF.from_ensemble([0.0, 1.0])
    partition = rectangular_partition([5.0])
    _, comp = crps(cdf, 0.5, partition)
    assert comp[1] == 0.0
    assert comp[0] == pytest.approx(crps(cdf, 0.5)[0], rel=1e-12)


def test_crps_returns_the_total_and_its_components():
    cdf = EmpiricalCDF.from_ensemble([0.0, 2.0])
    total, comps = crps(cdf, 1.0, rectangular_partition([1.0]))
    assert type(total) is float and total == 0.5
    assert comps.shape == (2,)
    assert comps.sum() == pytest.approx(0.5, rel=1e-12)


def test_components_respect_domain():
    from veriscore import IntervalDomain

    partition = rectangular_partition([1.0], domain=IntervalDomain(0.0, 10.0))
    cdf = EmpiricalCDF.from_ensemble([2.0, 3.0])
    with pytest.raises(ValidationError):
        crps(cdf, -5.0, partition)  # observation outside
    with pytest.raises(ValidationError):
        crps(EmpiricalCDF.from_ensemble([-2.0, 3.0]), 2.0, partition)  # breakpoint outside


def test_read_ensemble_csv_round_trip(tmp_path):
    p = tmp_path / "ens.csv"
    p.write_text(
        "case_id,obs,m1,m2,m3\n"
        "a,1.0,0.0,2.0,2.0\n"
        "\n"
        "b,0.25,1.0,1.0,1.0\n"
    )
    ens = read_ensemble_csv(p)
    assert ens.ids == ("a", "b")
    np.testing.assert_array_equal(ens.observations, [1.0, 0.25])
    np.testing.assert_array_equal(ens.members, [[0.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
    assert crps(EmpiricalCDF.from_ensemble(ens.members[1]), 0.25)[0] == 0.75


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


def _exact(members, y, cutpoints):
    """Step-CDF CRPS and its rectangular-cell components, in rationals."""
    m = len(members)
    edges = sorted(set(members) | {y})
    cells = [None, *map(Fraction, cutpoints), None]
    total, comps = Fraction(0), [Fraction(0)] * (len(cells) - 1)
    for left, right in zip(edges, edges[1:]):
        below = Fraction(sum(x <= left for x in members), m)
        height = (below - (y <= left)) ** 2
        lo, hi = Fraction(left), Fraction(right)
        total += height * (hi - lo)
        for j, (a, b) in enumerate(zip(cells, cells[1:])):
            a = lo if a is None else max(lo, a)
            b = hi if b is None else min(hi, b)
            if b > a:
                comps[j] += height * (b - a)
    return total, comps


def _energy(members, y):
    # E|X - y| - E|X - X'| / 2 over the ensemble, in rationals
    xs, y, m = [Fraction(x) for x in members], Fraction(y), len(members)
    spread = sum(abs(a - b) for a in xs for b in xs)
    return sum(abs(x - y) for x in xs) / m - spread / (2 * m * m)


def _oracle_batches():
    rng = np.random.default_rng(41)
    n = 40
    # ties: members on a 0.1 grid; every fifth observation equals a member
    tied = np.round(rng.normal(0.0, 3.0, (n, 12)), 1)
    y_tied = rng.normal(0.0, 3.5, n)
    y_tied[::5] = tied[::5, 2]
    tied[3] = [1.1, 1.1, 2.3, 2.3, 2.3, -0.7, -0.7, 1.1, 0.4, 0.4, 0.4, 0.4]
    # single members: the CRPS is |x - y|
    single = rng.normal(0.0, 4.0, (n, 1))
    y_single = rng.normal(0.0, 4.0, n)
    y_single[0] = single[0, 0]
    # |y| up to 1e12, members a few units away
    big = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(3, 12, n)
    far = big[:, None] + np.round(rng.normal(0.0, 2.0, (n, 7)), 2)
    y_far = big + rng.normal(0.0, 2.0, n)
    return [(tied, y_tied), (single, y_single), (far, y_far)]


CELLS = [-4.0, 0.0, 2.5, 1e6]


def test_kernel_matches_exact_oracle():
    partition = rectangular_partition(CELLS)
    for members, y in _oracle_batches():
        ens = EnsembleSet([f"c{i}" for i in range(y.size)], y, members)
        totals, comps = crps(ens, y, partition)
        assert totals.shape == y.shape and comps.shape == (len(CELLS) + 1, y.size)
        for i in range(y.size):
            row = members[i].tolist()
            total, exact = _exact(row, float(y[i]), CELLS)
            assert total == _energy(row, float(y[i]))
            for got, want in ((totals[i], total), *zip(comps[:, i], exact)):
                err = abs(Fraction(float(got)) - want)
                assert err <= Fraction(1e-9) * max(1, abs(want)), (i, got, want)
                if want == 0:
                    assert got == 0.0 and math.copysign(1.0, got) == 1.0
            if members.shape[1] == 1:
                assert totals[i] == abs(members[i, 0] - y[i])
    # the off-support cells are exercised: most rows touch one or two cells
    assert np.count_nonzero(comps == 0.0) > comps.size // 2


def _loop(members, y, partition):
    # the per-case form the kernel replaced: one dot product per case over
    # the distinct edges; the arithmetic is the same, so the results are too
    cdf = EmpiricalCDF.from_ensemble(members)
    edges = np.union1d(cdf.breakpoints, [y])
    left, right = edges[:-1], edges[1:]
    heights = (cdf.evaluate(left) - (y <= left)) ** 2
    comps = [heights @ np.asarray(w.integral(left, right)) for w in partition]
    return heights @ (right - left), np.array(comps)


def test_results_do_not_depend_on_the_block_budget(monkeypatch):
    # each row's dot products run over its own segments only; 20 members
    # on a grid of 0.3 leave rows of 9 to 20 segments
    rng = np.random.default_rng(5)
    n, m = 200, 20
    members = np.round(rng.normal(0.0, 3.0, (n, m)) / 0.3) * 0.3
    y = np.round(rng.normal(0.0, 3.0, n) / 0.3) * 0.3
    ens = EnsembleSet([f"c{i}" for i in range(n)], y, members)
    partition = arctan_pair(0.5)

    def results():
        totals, comps = crps(ens, y, partition)
        # the totals of the pass with components are those of the pass
        # without, bit for bit
        assert totals.tobytes() == crps(ens, y)[0].tobytes()
        return totals.tobytes(), comps.tobytes()

    default = results()  # every row in one block
    for rows in (1, 3):
        monkeypatch.setattr(veriscore.ensemble, "CRPS_BLOCK_BYTES", 8 * (m + 1) * rows)
        assert results() == default
    totals, comps = crps(ens, y, partition)
    for i, obs in enumerate(y):
        cdf = EmpiricalCDF.from_ensemble(members[i])
        assert crps(cdf, obs)[0] == totals[i]
        total, parts = crps(cdf, obs, partition)
        assert type(total) is float and total == totals[i]
        assert parts.tobytes() == comps[:, i].tobytes()
        total, parts = _loop(members[i], obs, partition)
        assert total == totals[i] and parts.tobytes() == comps[:, i].tobytes()


def test_components_memory_is_bounded():
    rng = np.random.default_rng(6)
    n, m = 20_000, 50
    y = rng.normal(0.0, 5.0, n)
    ens = EnsembleSet([f"c{i}" for i in range(n)], y, y[:, None] + rng.normal(0, 2, (n, m)))
    partition = rectangular_partition([-2.0, 0.0, 2.0])
    tracemalloc.start()
    try:
        _, comps = crps(ens, y, partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comps.shape == (4, n)
    assert peak < 32 * 2**20  # unblocked, the segment arrays alone pass 100 MB


def test_ensemble_set_rows_and_checks():
    ens = EnsembleSet(["a", "b"], [1.0, 0.25], [[0.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
    assert len(ens) == 2 and ens.members.shape == (2, 3)
    totals, comps = crps(ens, ens.observations)
    np.testing.assert_array_equal(totals, [0.5 + 1.0 / 18, 0.75])
    assert comps is None
    with pytest.raises(ValidationError, match="equal length"):
        EnsembleSet(["a"], [1.0, 2.0], [[1.0], [2.0]])
    with pytest.raises(ValidationError, match="finite"):
        EnsembleSet(["a"], [1.0], [[np.nan]])
    with pytest.raises(ValidationError, match="unique"):
        EnsembleSet(["a", "a"], [1.0, 2.0], [[1.0], [2.0]])
    with pytest.raises(ValidationError, match="a case and a member"):
        EnsembleSet(["a"], [1.0], np.empty((1, 0)))
    with pytest.raises(ValidationError, match="expected 2 observations"):
        crps(ens, [1.0])
    with pytest.raises(ValidationError, match="finite"):
        crps(ens, [1.0, np.inf])


def test_domain_errors_name_the_first_case_in_row_order():
    partition = rectangular_partition([1.0], domain=IntervalDomain(0.0, 10.0))
    members = [[1.0, 2.0], [-1.0, -3.0], [-2.0, 4.0], [3.0, 4.0]]
    y = [1.0, 2.0, -1.0, 12.0]
    ens = EnsembleSet(["ok", "low", "both", "high"], y, members)
    # the smallest offending member of the first offending case
    with pytest.raises(ValidationError, match=r"^case low: cdf breakpoint -3\.0 lies"):
        crps(ens, ens.observations, partition)
    # within a case the observation comes first
    ens = EnsembleSet(["both", "high"], y[2:], members[2:])
    with pytest.raises(ValidationError, match=r"^case both: observation -1\.0 lies"):
        crps(ens, ens.observations, partition)


def test_cli_domain_errors_name_the_first_case(tmp_path, capsys):
    from veriscore.cli import main

    part = tmp_path / "part.json"
    part.write_text('{"domain": {"lower": 0, "upper": "inf"}, "cutpoints": [10]}')
    ens = tmp_path / "ens.csv"
    for rows, message in (
        ("ok,1,1,2\nlow,3,-1,-3\nboth,-1,-2,4\n", "case low: cdf breakpoint -3.0"),
        ("ok,1,1,2\nboth,-1,-2,4\nlow,3,-1,-3\n", "case both: observation -1.0"),
    ):
        ens.write_text("case_id,obs,m1,m2\n" + rows)
        argv = ["crps", "--input", str(ens), "--partition", str(part)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {message} lies outside the domain [0.0, inf)\n"
        )
    assert not list(tmp_path.glob("out*"))


def _tied_ensemble_csv(path):
    # 300 cases of 20 members on a 0.1 grid (ties in most rows); every
    # seventh observation equals a member
    rng = np.random.default_rng(20260)
    members = np.round(rng.normal(0.0, 3.0, (300, 20)), 1)
    obs = rng.normal(0.0, 3.5, 300)
    obs[::7] = members[::7, 3]
    lines = ["case_id,obs," + ",".join(f"m{k}" for k in range(1, 21))]
    for i in range(300):
        cells = [repr(float(v)) for v in (obs[i], *members[i])]
        lines.append(f"c{i:03d}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def test_cli_crps_runs_the_kernel_once(tmp_path, monkeypatch):
    from veriscore.cli import main

    calls = []
    kernel = veriscore.ensemble._step_crps

    def counted(*args, **kwargs):
        rows = kernel(*args, **kwargs)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(veriscore.ensemble, "_step_crps", counted)
    _tied_ensemble_csv(tmp_path / "ens.csv")
    (tmp_path / "part.json").write_text('{"cutpoints": [-2.5, 0, 2.5]}')
    argv = ["crps", "--input", str(tmp_path / "ens.csv"), "--out", str(tmp_path / "c")]
    assert main([*argv, "--partition", str(tmp_path / "part.json")]) == 0
    assert calls == [5]  # one pass gives the total and the four components
    assert main(argv) == 0
    assert calls == [5, 1]


def test_cli_crps_output_bytes_are_pinned(tmp_path):
    # digests of the output of the earlier per-case loop: a change to the
    # kernel's arithmetic that moves any 12-digit cell fails here
    from veriscore.cli import main

    _tied_ensemble_csv(tmp_path / "ens.csv")
    (tmp_path / "part.json").write_text('{"cutpoints": [-2.5, 0, 2.5]}')
    argv = ["crps", "--input", str(tmp_path / "ens.csv")]
    argv += ["--partition", str(tmp_path / "part.json"), "--out", str(tmp_path / "c")]
    assert main(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / f"c.{name}").read_bytes()).hexdigest()
        for name in ("cases.csv", "summary.json")
    }
    assert digests == {
        "cases.csv": "b4749f14a2f5ac97afe7538703155258345780b0baa2d7be0f54eeb1026dab96",
        "summary.json": "06243fc9f5620c7db2b75abd7c08a44385fd8c5a7a2bd8dded36fab822ff91db",
    }

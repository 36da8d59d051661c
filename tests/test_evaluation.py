"""Comparison reports, synthetic data, helpers, and the hedging model."""

import dataclasses
import math
import threading
import time

import mpmath
import numpy as np
import pytest

from veriscore import evaluation

from veriscore import (
    CaseSet,
    SyntheticConfig,
    ValidationError,
    case_scores,
    compare,
    generate_synthetic,
    lognormal_mean,
    lognormal_tail_mean,
    quantile_score,
    rectangular_partition,
    simulate_hedging,
    squared_error,
    stream_rng,
    write_json,
)
from veriscore.cli import _parse_labels

SPLIT_AT_TEN = rectangular_partition([10.0])


def _cases(ids, x, y):
    return CaseSet(tuple(ids), np.asarray(x, float), np.asarray(y, float))


def test_stream_rng_reproducible_and_independent():
    a = stream_rng(7, "synthetic", "observations").standard_normal(5)
    b = stream_rng(7, "synthetic", "observations").standard_normal(5)
    c = stream_rng(7, "synthetic", "errors_a").standard_normal(5)
    d = stream_rng(8, "synthetic", "observations").standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)
    assert np.any(a != d)
    with pytest.raises(ValidationError):
        stream_rng(0, "synthetic", "nope")
    with pytest.raises(ValidationError):
        stream_rng(0, "nope", "observations")


def test_case_scores_totals_and_components():
    cs = _cases(["a", "b"], [12.0, 5.0], [8.0, 7.0])
    totals, comps = case_scores(squared_error(), cs, SPLIT_AT_TEN)
    np.testing.assert_allclose(totals, [16.0, 4.0])
    np.testing.assert_allclose(comps[:, 0], [4.0, 12.0])
    np.testing.assert_allclose(comps[:, 1], [4.0, 0.0])
    only_totals, none_comps = case_scores(squared_error(), cs)
    np.testing.assert_allclose(only_totals, totals)
    assert none_comps is None


def test_compare_frozen_normal_ci():
    x_a = np.array([12.0, 5.0, 15.0, 9.0])
    x_b = np.array([11.0, 6.0, 16.0, 8.0])
    y = np.array([8.0, 7.0, 20.0, 9.0])
    ids = ["c1", "c2", "c3", "c4"]
    rep = compare(_cases(ids, x_a, y), _cases(ids, x_b, y), squared_error())
    d = rep.to_dict()
    assert d["n"] == 4
    # hand check: mean difference and z-interval with ddof = 1
    diffs = (x_a - y) ** 2 - (x_b - y) ** 2
    m = diffs.mean()
    half = 1.96 * diffs.std(ddof=1) / np.sqrt(4)
    assert d["difference"]["total"] == pytest.approx(m, rel=1e-12)
    assert d["ci"]["total"][0] == pytest.approx(m - half, rel=1e-9)
    assert d["ci"]["total"][1] == pytest.approx(m + half, rel=1e-9)


def test_compare_alignment_is_by_case_id():
    ids = ["a", "b", "c"]
    x_a = np.array([1.0, 2.0, 3.0])
    x_b = np.array([1.5, 2.5, 3.5])
    y = np.array([0.5, 2.0, 4.0])
    rep1 = compare(_cases(ids, x_a, y), _cases(ids, x_b, y), squared_error())
    perm = [2, 0, 1]
    rep2 = compare(
        _cases(ids, x_a, y),
        _cases([ids[i] for i in perm], x_b[perm], y[perm]),
        squared_error(),
    )
    assert rep1.mean_diff == rep2.mean_diff
    assert rep1.ci_total == rep2.ci_total


def test_compare_rejects_mismatched_cases():
    ids = ["a", "b"]
    y = np.array([1.0, 2.0])
    base = _cases(ids, [1.0, 2.0], y)
    with pytest.raises(ValidationError, match="missing"):
        compare(base, _cases(["a", "x"], [1.0, 2.0], y), squared_error())
    with pytest.raises(ValidationError, match="observation"):
        compare(
            base, _cases(ids, [1.0, 2.0], [1.0, 2.5]), squared_error()
        )
    with pytest.raises(ValidationError):
        compare(base, base, squared_error(), ci="magic")


def test_many_mismatched_ids_raise_quickly_with_both_counts():
    n = 50_000
    y = np.zeros(n)
    cases_a = _cases([f"a{i}" for i in range(n)], y, y)
    cases_b = _cases([f"b{i}" for i in range(n)], y, y)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"{n} ids missing .*, {n} extra"):
        compare(cases_a, cases_b, squared_error())
    assert time.perf_counter() - start < 5.0


def test_compare_bootstrap_deterministic():
    rng = np.random.default_rng(9)
    n = 40
    ids = [f"c{i}" for i in range(n)]
    y = rng.normal(0, 3, n)
    a = _cases(ids, y + rng.normal(0, 1, n), y)
    b = _cases(ids, y + rng.normal(0, 1.2, n), y)
    r1 = compare(a, b, squared_error(), ci="bootstrap", bootstrap_samples=500, seed=3)
    r2 = compare(a, b, squared_error(), ci="bootstrap", bootstrap_samples=500, seed=3)
    r3 = compare(a, b, squared_error(), ci="bootstrap", bootstrap_samples=500, seed=4)
    assert r1.ci_total == r2.ci_total
    assert r1.ci_total != r3.ci_total
    d = r1.to_dict()
    assert d["ci"]["method"] == "bootstrap"
    assert d["ci"]["bootstrap_samples"] == 500
    assert d["ci"]["seed"] == 3
    lo, hi = r1.ci_total
    assert lo < r1.mean_diff < hi


def test_bootstrap_bounds_do_not_depend_on_the_chunk_budget(monkeypatch):
    # the index stream and each resample's mean are the same in any chunking
    rng = np.random.default_rng(12)
    n = 300
    ids = [f"c{i}" for i in range(n)]
    y = rng.normal(4, 15, n)
    a = _cases(ids, y + rng.normal(0, 2, n), y)
    b = _cases(ids, y + rng.normal(0, 3, n), y)

    def bounds():
        rep = compare(
            a, b, squared_error(), SPLIT_AT_TEN,
            ci="bootstrap", bootstrap_samples=700, seed=2,
        )
        return np.vstack([rep.ci_total, rep.ci_components]).tobytes()

    default = bounds()  # every resample in one chunk
    for budget in (1, 4 * 8 * n):  # chunks of 1 and of 3 resamples
        monkeypatch.setattr(evaluation, "BOOTSTRAP_CHUNK_BYTES", budget)
        assert bounds() == default


class _FailingRng:
    """A generator whose ``integers`` raises on its k-th call."""

    def __init__(self, k):
        self.rng, self.k, self.calls = np.random.default_rng(0), k, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.k:
            raise RuntimeError(f"draw {self.k} failed")
        return self.rng.integers(*args, **kwargs)


def test_bootstrap_draw_errors_reach_the_caller_and_the_worker_is_joined(monkeypatch):
    n = 50
    ids = [f"c{i}" for i in range(n)]
    y = np.linspace(-20.0, 30.0, n)
    a, b = _cases(ids, y + 1.0, y), _cases(ids, y - 2.0, y)
    threads = threading.active_count()
    # 60 resamples in one draw call, in 15 calls of 4, and in 60 calls of 1
    for budget, calls in ((evaluation.BOOTSTRAP_CHUNK_BYTES, 1), (136 * n, 15), (1, 60)):
        monkeypatch.setattr(evaluation, "BOOTSTRAP_CHUNK_BYTES", budget)
        for k in sorted({1, min(2, calls), calls}):
            monkeypatch.setattr(evaluation, "stream_rng", lambda *args, k=k: _FailingRng(k))
            with pytest.raises(RuntimeError, match=f"draw {k} failed"):
                compare(
                    a, b, squared_error(), SPLIT_AT_TEN, ci="bootstrap", bootstrap_samples=60
                )
            assert threading.active_count() == threads
    # an error on the caller's side, after the first chunk of one resample,
    # stops and joins the worker too
    monkeypatch.setattr(evaluation, "BOOTSTRAP_CHUNK_BYTES", 1)
    monkeypatch.setattr(evaluation, "slices", lambda rows, n: (np.zeros((1, 2, n)), [0]))
    monkeypatch.setattr(evaluation, "as_int", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        evaluation._resample_means(np.ones((2, n)), 60, np.random.default_rng(0))
    assert threading.active_count() == threads


def test_compare_components_present_with_partition():
    ids = ["a", "b", "c"]
    y = np.array([5.0, 12.0, 15.0])
    rep = compare(
        _cases(ids, [6.0, 11.0, 13.0], y),
        _cases(ids, [4.0, 14.0, 18.0], y),
        squared_error(),
        SPLIT_AT_TEN,
    )
    d = rep.to_dict()
    assert len(d["difference"]["components"]) == 2
    assert len(d["ci"]["components"]) == 2
    total_from_components = sum(d["difference"]["components"])
    assert total_from_components == pytest.approx(d["difference"]["total"], abs=1e-9)


def test_generate_synthetic_shapes_and_frozen_report():
    a, b = generate_synthetic(SyntheticConfig(n=10000, seed=0))
    assert len(a) == len(b) == 10000
    assert a.ids[0] == "case_000000" and a.ids[-1] == "case_009999"
    assert a.ids == b.ids
    np.testing.assert_array_equal(a.observations, b.observations)
    rep = compare(a, b, squared_error(), SPLIT_AT_TEN)
    d = rep.to_dict()
    assert d["means"]["A"]["total"] == 4.27156208444
    assert d["means"]["B"]["total"] == 3.97178640727
    assert d["difference"]["total"] == 0.299775677166
    assert d["difference"]["components"] == [-1.92036682356, 2.22014250072]
    assert d["ci"]["components"][0][1] < 0.0
    assert d["ci"]["components"][1][0] > 0.0


def test_generate_synthetic_error_structure():
    # forecaster B misses by N(0, 2) everywhere; A's miss scale depends
    # on the observation through arctan(y - 10) + 2
    cfg = SyntheticConfig(n=1_000_000, seed=1)
    a, b = generate_synthetic(cfg)
    y = a.observations
    mse_b = np.mean((b.forecasts - y) ** 2)
    assert mse_b == pytest.approx(4.0, abs=0.05)
    err_a = a.forecasts - y
    near = np.abs(y - 10.0) < 0.05
    assert near.sum() > 500
    local_sd = err_a[near].std()
    assert local_sd == pytest.approx(2.0, abs=0.15)
    assert np.mean(err_a**2) == pytest.approx(4.1208, abs=0.05)
    assert cfg.error_sd_a(10.0) == pytest.approx(2.0)


def test_synthetic_config_validation():
    with pytest.raises(ValidationError):
        SyntheticConfig(n=0)
    with pytest.raises(ValidationError):
        SyntheticConfig(clim_sd=-1.0)
    with pytest.raises(ValidationError):
        SyntheticConfig(err_a_base=1.5)  # arctan can reach -pi/2


def test_real_arguments_are_finite_numbers_and_never_bools(tmp_path):
    for call, name in (
        (lambda: SyntheticConfig(clim_mean=True), "clim_mean"),
        (lambda: SyntheticConfig(err_a_center="10"), "err_a_center"),
        (lambda: SyntheticConfig(err_a_base=float("nan")), "err_a_base"),
        (lambda: SyntheticConfig(clim_sd=np.bool_(True)), "clim_sd"),
        (lambda: simulate_hedging(1, mu_mean=True), "mu_mean"),
        (lambda: simulate_hedging(1, mu_sd="2"), "mu_sd"),
        (lambda: simulate_hedging(1, threshold=None), "threshold"),
        (lambda: simulate_hedging(1, rival_sd=10**400), "rival_sd"),
    ):
        with pytest.raises(ValidationError, match=f"^{name} must be a finite real number"):
            call()
    with pytest.raises(ValidationError, match="^log_sd must be positive"):
        simulate_hedging(1, log_sd=0)
    # Python and numpy numbers are kept as floats, so every report writes as JSON
    config = SyntheticConfig(n=10, clim_mean=np.float32(4), clim_sd=15, err_b_sd=np.int64(2))
    assert all(type(getattr(config, f)) is float for f in ("clim_mean", "clim_sd", "err_b_sd"))
    assert config == SyntheticConfig(n=10)
    hedge = simulate_hedging(1, n=500, threshold=np.int64(20), mu_mean=np.float64(1.5))
    assert hedge.to_dict() == simulate_hedging(1, n=500).to_dict()
    write_json(hedge.to_dict(), tmp_path / "hedge.json")


def test_lognormal_helpers():
    assert lognormal_mean(1.5, 0.4) == pytest.approx(np.exp(1.5 + 0.08), rel=1e-12)
    tail = lognormal_tail_mean(1.5, 0.4, 20.0)
    assert tail == pytest.approx(22.097437456707098, rel=1e-10)
    assert tail > 20.0
    # Monte Carlo spot check
    rng = np.random.default_rng(2)
    draws = np.exp(rng.normal(1.5, 0.4, 4_000_000))
    mc = draws[draws >= 20.0].mean()
    assert tail == pytest.approx(mc, rel=0.01)
    assert lognormal_tail_mean(1.5, 0.4, 0.0) == pytest.approx(
        lognormal_mean(1.5, 0.4), rel=1e-12
    )
    with pytest.raises(ValidationError):
        lognormal_mean(0.0, -0.1)


def test_lognormal_tail_mean_refuses_nan_bound():
    # a NaN bound is neither above nor below 0; it used to return NaN
    with pytest.raises(ValidationError, match="NaN"):
        lognormal_tail_mean(1.5, 0.4, np.nan)


def test_lognormal_means_refuse_overflow():
    # exp(800.5) is past the largest float; it used to return inf with a warning
    with pytest.raises(ValidationError, match="overflows"):
        lognormal_mean(800, 1.0)
    with pytest.raises(ValidationError, match="overflows"):
        lognormal_tail_mean(800, 1.0, 20.0)
    with pytest.raises(ValidationError, match="underflows"):
        lognormal_tail_mean(0.0, 1.0, np.exp(40.0))


def _mp_tail(z):
    return mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2


def test_tail_probability_matches_mpmath():
    # with sigma = 100 the upper tail P(N > z - 100) rounds to exactly 1, so the
    # helper returns 1 / P(N > z), its normal tail at z = -mu / 100
    mu = -100.0 * np.linspace(-8.0, 37.0, 2001)
    means, usable = evaluation._tail_mean(1.0, mu, 100.0, 1.0)
    assert usable.all()
    z = -mu / 100
    with mpmath.workdps(40):
        worst = max(abs(1 / (m * _mp_tail(v)) - 1) for m, v in zip(means.tolist(), z.tolist()))
    assert worst < 4e-13
    # at z = 38 erfc gives a subnormal tail, where norm.sf gives 0: neither is used
    assert 0 < math.erfc(38 * math.sqrt(0.5)) / 2 < np.finfo(float).tiny
    assert not evaluation._tail_mean(1.0, -3800.0, 100.0, 1.0)[1]


def test_lognormal_tail_mean_matches_mpmath():
    worst = 0.0
    with mpmath.workdps(40):
        for mu in (-3.0, 0.0, 1.5, 10.0):
            for sigma in (0.1, 0.4, 1.0, 2.5):
                for lower in np.exp(mu + sigma * np.linspace(-8.0, 36.0, 300)).tolist():
                    z = (mpmath.log(lower) - mu) / sigma
                    mean = mpmath.exp(mu + sigma**2 / 2)
                    want = mean * _mp_tail(z - sigma) / _mp_tail(z)
                    got = lognormal_tail_mean(mu, sigma, lower)
                    worst = max(worst, abs((got - want) / want))
    assert worst < 4e-13


def test_hedging_option1_frozen():
    r = simulate_hedging(1, seed=0)
    assert r.option == 1 and r.n_events == 8000
    assert r.honest.n_assessed == 642
    assert r.honest.mean_score == pytest.approx(375.059035776, rel=1e-9)
    (s,) = r.strategies
    assert s.name == "tail_conditional_mean"
    assert s.n_assessed == 642
    assert s.mean_score == pytest.approx(330.076491969, rel=1e-9)
    assert s.gain == pytest.approx(44.9825438068, rel=1e-9)
    assert s.gain_se == pytest.approx(3.74814153449, rel=1e-9)


def test_hedging_options_2_and_3_frozen():
    r2 = simulate_hedging(2, seed=0)
    assert r2.honest.n_assessed == 818
    (s2,) = r2.strategies
    assert s2.name == "forced_assessment"
    assert s2.n_assessed == 958
    assert s2.gain == pytest.approx(36.7051353924, rel=1e-9)
    r3 = simulate_hedging(3, seed=0)
    assert r3.honest.n_assessed == 987
    (s3,) = r3.strategies
    assert s3.name == "threshold_dodge"
    assert s3.n_assessed == 1087
    assert s3.gain == pytest.approx(32.9262641622, rel=1e-9)


def test_hedging_option4_strategic_identical():
    r = simulate_hedging(4, seed=0)
    (s,) = r.strategies
    assert s.name == "strategic"
    assert s.n_assessed == r.honest.n_assessed == 713
    assert s.mean_score == r.honest.mean_score
    assert s.gain == 0.0 and s.gain_se == 0.0


def test_hedging_option5_gains_vanish():
    r = simulate_hedging(5, seed=0)
    assert r.n_events == 8000
    names = [s.name for s in r.strategies]
    assert names == ["tail_conditional_mean", "forced_assessment", "threshold_dodge"]
    tail, forced, dodge = r.strategies
    # scoring every event with the upper-region component removes the
    # incentive: the two threshold games gain exactly nothing, and
    # understating the tail now costs
    assert forced.gain == 0.0
    assert dodge.gain == 0.0
    assert tail.gain == pytest.approx(-61.7065315534, rel=1e-9)
    assert tail.gain < -2.0 * tail.gain_se


def test_hedging_report_dict_and_validation():
    r = simulate_hedging(1, seed=0)
    d = r.to_dict()
    assert d["option"] == 1
    assert d["threshold"] == 20.0
    assert d["seed"] == 0
    assert d["honest"]["n_assessed"] == 642
    assert [s["name"] for s in d["strategies"]] == ["tail_conditional_mean"]
    assert isinstance(d["note"], str) and d["note"]
    with pytest.raises(ValidationError):
        simulate_hedging(6)
    with pytest.raises(ValidationError):
        simulate_hedging(1, n=0)
    with pytest.raises(ValidationError):
        simulate_hedging(1, threshold=-3.0)


def test_hedging_too_few_tail_events():
    # a tiny sample leaves no events above the threshold to assess
    with pytest.raises(ValidationError):
        simulate_hedging(1, n=2, seed=0, threshold=1e6)


def test_integer_arguments_are_ints_and_never_bools(tmp_path):
    ids = [f"c{i}" for i in range(5)]
    y = np.arange(5.0)
    a, b = _cases(ids, y + 1.0, y), _cases(ids, y - 0.5, y)
    boot = dict(ci="bootstrap", bootstrap_samples=10)
    for bad in (10.0, 2.5, True):
        with pytest.raises(ValidationError, match="bootstrap_samples must be an integer"):
            compare(a, b, squared_error(), **dict(boot, bootstrap_samples=bad))
    with pytest.raises(ValidationError, match="seed must be an integer"):
        compare(a, b, squared_error(), **boot, seed=True)
    # checked before the cases are paired up or scored
    with pytest.raises(ValidationError, match="bootstrap_samples must be an integer"):
        compare(a, _cases(["x"], [1.0], [0.0]), squared_error(), **dict(boot, bootstrap_samples=2.5))
    # numpy integers are kept as ints, so every report writes as JSON
    rep = compare(a, b, squared_error(), ci="bootstrap", bootstrap_samples=np.int64(10), seed=np.int64(3))
    assert type(rep.bootstrap_samples) is int and type(rep.seed) is int
    assert rep.to_dict() == compare(a, b, squared_error(), **boot, seed=3).to_dict()
    write_json(rep.to_dict(), tmp_path / "report.json")
    hedge = simulate_hedging(np.int64(1), n=np.int64(500), seed=np.int64(2))
    assert hedge.to_dict() == simulate_hedging(1, n=500, seed=2).to_dict()
    write_json(hedge.to_dict(), tmp_path / "hedge.json")
    config = SyntheticConfig(n=np.int64(10), seed=np.int64(1))
    assert type(config.n) is int and type(config.seed) is int
    write_json(dataclasses.asdict(config), tmp_path / "meta.json")
    for call, name in (
        (lambda: simulate_hedging(1.0), "option"),
        (lambda: simulate_hedging(1, n=500.0), "n"),
        (lambda: simulate_hedging(1, seed=True), "seed"),
        (lambda: SyntheticConfig(n=10.5), "n"),
        (lambda: SyntheticConfig(seed=True), "seed"),
        (lambda: stream_rng(True, "synthetic", "observations"), "seed"),
    ):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            call()


def test_compare_labels_are_two_distinct_strings_and_synthetic_seeds_not_negative():
    ids = ["c1", "c2"]
    y = np.array([1.0, 2.0])
    a, b = _cases(ids, y + 1.0, y), _cases(ids, y - 0.5, y)
    for labels in (("A",), "AB", ("A", "B", "C"), ("A", "A"), ("A", ""), ("A", 1), None):
        with pytest.raises(ValidationError, match="labels must be two distinct"):
            compare(a, b, squared_error(), labels=labels)
    rep = compare(a, b, squared_error(), labels=_parse_labels("ens, det"))
    assert rep.to_dict()["labels"] == ["ens", "det"]
    assert compare(a, b, squared_error(), labels=["x", "y"]).label_b == "y"
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        SyntheticConfig(seed=-1)

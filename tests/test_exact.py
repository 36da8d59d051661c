"""Exact integer slices, and bootstrap resample means against a Fraction oracle."""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from veriscore import evaluation
from veriscore.exact import as_int, slices

SUBNORMAL = 5e-324


def _mixed_rows(rng, n):
    """Four rows: |r| up to 1e12 over 24 decades, all zeros, one subnormal
    entry among moderate values, and only subnormal entries."""
    mixed = rng.normal(size=n) * 10.0 ** rng.uniform(-12, 12, n)
    mixed[0] = -1e12 / 3
    moderate = rng.normal(0, 3, n)
    moderate[-1] = SUBNORMAL
    tiny = rng.integers(-3, 4, n) * SUBNORMAL
    return np.vstack([mixed, np.zeros(n), moderate, tiny])


def test_slices_are_exact_integers_below_the_bound():
    rng = np.random.default_rng(0)
    for n in (2, 300, 100_000):
        values = _mixed_rows(rng, 40)
        levels, exps = slices(values, n)
        bits = 53 - n.bit_length()
        total = np.zeros(values.shape, dtype=object)
        for q, b in zip(levels, exps):
            assert q.shape == values.shape
            assert np.all(q == np.trunc(q)) and np.abs(q).max() < 2**bits
            total += q.astype(object) * Fraction(2) ** b
        assert all(
            t == Fraction(v) for t, v in zip(total.ravel(), values.ravel())
        )
    levels, exps = slices(np.zeros((3, 5)), 5)
    assert levels.shape == (0, 3, 5) and exps == []
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            slices([1.0, bad], 2)


def _list_slices(values, n):
    """The list-based loop that slices replaced, a level at a time: the oracle."""
    rest = np.array(values, dtype=float)
    bits = 53 - int(n).bit_length()
    qs, exps = [], []
    while rest.any():
        b = max(int(np.frexp(np.abs(rest).max())[1]) - bits, -1074)
        q = np.trunc(np.ldexp(rest, -b))
        rest -= np.ldexp(q, b)
        qs.append(q)
        exps.append(b)
    return np.array(qs).reshape(len(qs), *rest.shape), exps


def _depth_bound(values, n):
    """The level count that slices reserves, from its docstring's argument."""
    mags = np.abs(np.asarray(values, dtype=float))
    mags = mags[mags > 0]
    if mags.size == 0:
        return 0
    unit = max(math.frexp(mags.min())[1] - 53, -1074)
    return (math.frexp(mags.max())[1] - unit - 1) // (53 - int(n).bit_length()) + 1


def _slice_inputs():
    rng = np.random.default_rng(8)
    full = np.nextafter(2.0, 0.0)  # every bit of the significand set
    return [
        np.zeros((3, 5)),
        np.array([0.0, -0.0, 0.0]),
        np.array([SUBNORMAL, -3 * SUBNORMAL, 2.5e-310, 0.0, -0.0]),
        np.array([1e308, -1e-300, 1e-300, 0.0, -1.7e308, np.finfo(float).max]),
        np.array([-2.5]),
        np.array(7.0 / 3.0),
        np.array([]),
        np.zeros((3, 0)),
        _mixed_rows(rng, 40),
        rng.normal(0, 15, (2, 3, 50)),
        # full significands on every exponent of a range, where the bound is met
        full * 2.0 ** np.arange(-60, 61),
        np.array([full * 2.0**1023, SUBNORMAL]),
        rng.uniform(1, 2, 200) * 2.0 ** rng.integers(-1074, 1000, 200),
    ]


@pytest.mark.parametrize("n", [2, 3, 64, 300, 100_000, 1_000_000])
def test_slices_match_the_list_loop_bit_for_bit(n):
    met = 0
    for values in _slice_inputs():
        levels, exps = slices(values, n)
        expected, expected_exps = _list_slices(values, n)
        assert exps == expected_exps
        assert levels.shape == expected.shape and levels.dtype == expected.dtype
        assert levels.tobytes() == expected.tobytes()
        # the stack reserved is never too small, and is filled on some inputs
        bound = _depth_bound(values, n)
        assert len(exps) <= bound
        met += bound > 0 and len(exps) == bound
    assert met >= 2


def test_slices_hold_the_stack_and_one_row_of_temporaries():
    values = np.random.default_rng(4).normal(0, 15, (5, 200_000))
    tracemalloc.start()
    try:
        levels, _ = slices(values, values.shape[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= levels.nbytes + values[0].nbytes


def test_as_int_shifts_each_value():
    got = as_int(np.array([3.0, -5.0, 0.0]), np.array([0, 2, 70]))
    assert list(got) == [3, -20, 0]


def _oracle(rows, samples, seed):
    """Each resample's exact mean, rounded once, from the same index stream."""
    rng = np.random.default_rng(seed)
    m, n = rows.shape
    exact = [[Fraction(v) for v in row] for row in rows]
    out = np.empty((samples, m))
    for k in range(samples):
        idx = rng.integers(0, n, size=n)
        for j in range(m):
            out[k, j] = float(sum(exact[j][i] for i in idx) / n)
    return out


@pytest.mark.parametrize("n", [2, 3, 64])
def test_resample_means_are_the_fraction_mean_rounded_once(n, monkeypatch):
    rows = _mixed_rows(np.random.default_rng(n), n)
    expected = _oracle(rows, 25, seed=7)
    for budget in (evaluation.BOOTSTRAP_CHUNK_BYTES, 8 * n, 8 * 8 * n):
        monkeypatch.setattr(evaluation, "BOOTSTRAP_CHUNK_BYTES", budget)
        got = evaluation._resample_means(rows, 25, np.random.default_rng(7))
        assert got.tobytes() == expected.tobytes(), budget
    assert np.all(got[:, 1] == 0.0)


def test_resample_means_do_not_depend_on_the_draw_groups(monkeypatch):
    # budgets of 330n and 250n bytes draw 4 and 3 resamples a call, in chunks
    # of 37 and 28 counts, so groups and chunks end at different resamples
    n = 64
    rows = _mixed_rows(np.random.default_rng(5), n)
    expected = _oracle(rows, 40, seed=11)
    for budget in (330 * n, 250 * n):
        monkeypatch.setattr(evaluation, "BOOTSTRAP_CHUNK_BYTES", budget)
        got = evaluation._resample_means(rows, 40, np.random.default_rng(11))
        assert got.tobytes() == expected.tobytes(), budget


def test_concurrent_resamplers_each_keep_their_stream(monkeypatch):
    # more resamplers than cores, each with its own draw thread, handing over
    # one resample at a time while the interpreter switches threads often
    n = 64
    rows = _mixed_rows(np.random.default_rng(9), n)
    expected = {seed: _oracle(rows, 30, seed).tobytes() for seed in range(4)}
    monkeypatch.setattr(evaluation, "BOOTSTRAP_CHUNK_BYTES", 4 * 8 * n)
    got = {}

    def run(seed):
        got[seed] = evaluation._resample_means(rows, 30, np.random.default_rng(seed)).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in expected]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_a_single_resample_mean_is_the_fraction_mean_rounded_once():
    for n in (2, 64):
        rows = _mixed_rows(np.random.default_rng(n), n)
        got = evaluation._resample_means(rows, 1, np.random.default_rng(3))
        assert got.tobytes() == _oracle(rows, 1, seed=3).tobytes()


def test_resample_means_hold_the_stack_and_the_chunk_budget():
    n = 200_000
    rows = np.random.default_rng(6).normal(0, 15, (5, n))
    stack = slices(rows, n)[0].nbytes
    tracemalloc.start()
    try:
        evaluation._resample_means(rows, 20, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # bincount's int64 copy of one draw and its int64 counts come on top
    assert peak <= stack + evaluation.BOOTSTRAP_CHUNK_BYTES + 16 * n


def test_resample_means_of_a_zero_matrix_are_zero():
    got = evaluation._resample_means(np.zeros((2, 5)), 4, np.random.default_rng(0))
    assert got.shape == (4, 2) and not got.any()

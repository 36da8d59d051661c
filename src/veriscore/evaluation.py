"""Forecast system comparison and two simulation studies.

``compare`` pairs two forecast systems case by case, scores both with
the same scoring function (optionally decomposed over a partition of
unity), and attaches a confidence interval to each mean score
difference.  Positive differences mean the second system scored
better (lower).

``generate_synthetic`` draws a climatological observation series and
two synthetic forecast systems around it: system A carries an error
whose spread grows with the observed value through an arctan ramp,
system B carries homoscedastic errors.  Overall the two systems are
close to indistinguishable in mean score, while region components
separate them sharply on either side of the ramp center.

``simulate_hedging`` reproduces a forecaster who games event-selection
rules for extreme-event verification.  Four selection rules (assess
when the observation, either forecast, any of the two, or only the
rival forecast exceeds a threshold) each get the submitting system's
optimal strategy; a fifth rule scores every event with the
upper-region component of squared error and removes the incentive.

Randomness
----------
Every simulation derives named substreams from one integer seed via
``stream_rng``; the stream table below fixes the substream indices, so
results are reproducible and individual streams can be re-drawn in
isolation.
"""

from __future__ import annotations

import math
import threading
from contextlib import closing, suppress
from dataclasses import dataclass

import numpy as np

from .decomposition import RegionGenerator, decompose, score_components
from .errors import NumericError, ValidationError
from .exact import as_int, slices
from .io import CaseSet, round12
from .partition import PartitionOfUnity, RectangularWeight, partition_config
from .scoring import ScoringSpec, score, squared_error

__all__ = [
    "STREAMS",
    "stream_rng",
    "case_scores",
    "ComparisonReport",
    "compare",
    "SyntheticConfig",
    "generate_synthetic",
    "lognormal_mean",
    "lognormal_tail_mean",
    "StrategyResult",
    "HedgingReport",
    "simulate_hedging",
]

STREAMS = {
    "synthetic": {"observations": 0, "errors_a": 1, "errors_b": 2},
    "hedging": {"situations": 0, "observations": 1, "rival": 2},
    "comparison": {"bootstrap": 3},
}


def _integer(name: str, value) -> int:
    """``value`` as an int: an int or a numpy integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite float, above 0 if ``positive``: a Python or
    numpy real number, never a bool."""
    x = math.nan
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int beyond the float range
            x = float(value)
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")
    if positive and x <= 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")
    return x


def stream_rng(seed: int, group: str, name: str) -> np.random.Generator:
    """Independent generator for one named substream of a seed."""
    try:
        index = STREAMS[group][name]
    except KeyError:
        raise ValidationError(
            f"unknown stream {group!r}/{name!r}; see STREAMS"
        ) from None
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def case_scores(spec: ScoringSpec, cases: CaseSet, partition=None):
    """Per-case total scores and, with a partition, their components.

    Returns (totals, components) where totals has one entry per case
    and components has one row per partition member, or None.  A
    quadrature failure or a score that is not finite raises
    NumericError, and a value outside the partition's domain raises
    ValidationError, naming the case id.
    """
    x, y = cases.forecasts, cases.observations
    comps = None
    try:
        # an overflow shows as a score that require_finite names, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            totals = np.asarray(score(spec, x, y))
            if partition is not None:
                partition.domain.require(x, "forecast", cases.ids)
                partition.domain.require(y, "observation", cases.ids)
                comps = score_components(decompose(spec, partition), x, y)
    except NumericError as exc:
        raise NumericError(f"case {cases.ids[exc.index]}: {exc}") from exc
    require_finite(cases.ids, totals, comps)
    return totals, comps


def require_finite(ids, totals, comps=None) -> None:
    """Raise NumericError naming the first case whose score is not finite."""
    finite = np.isfinite(totals)
    if comps is not None:
        finite &= np.isfinite(comps).all(axis=0)
    if finite.all():
        return
    i = int(np.argmin(finite))
    column = np.concatenate([[totals[i]], [] if comps is None else comps[:, i]])
    j = int(np.argmin(np.isfinite(column)))
    what = "total" if j == 0 else f"component {j - 1}"
    raise NumericError(f"case {ids[i]}: {what} is {column[j]}, not a finite score")


@dataclass(frozen=True)
class ComparisonReport:
    """Paired mean-score comparison of two forecast systems.

    ``mean_diff`` is mean score of the first system minus the second;
    positive values favor the second system.  Component entries follow
    the partition order and are None when no partition was used.
    """

    label_a: str
    label_b: str
    n: int
    spec: ScoringSpec
    partition: PartitionOfUnity | None
    mean_a: float
    mean_b: float
    mean_components_a: np.ndarray | None
    mean_components_b: np.ndarray | None
    mean_diff: float
    mean_diff_components: np.ndarray | None
    ci_total: tuple[float, float]
    ci_components: np.ndarray | None
    ci_method: str
    ci_level: float
    bootstrap_samples: int | None
    seed: int | None

    def to_dict(self) -> dict:
        def arr(a):
            return None if a is None else [round12(v) for v in np.asarray(a).ravel()]

        def pair_rows(a):
            if a is None:
                return None
            return [[round12(lo), round12(hi)] for lo, hi in np.asarray(a)]

        ci = {
            "method": self.ci_method,
            "level": self.ci_level,
            "total": [round12(self.ci_total[0]), round12(self.ci_total[1])],
            "components": pair_rows(self.ci_components),
        }
        if self.ci_method == "bootstrap":
            ci["bootstrap_samples"] = self.bootstrap_samples
            ci["seed"] = self.seed
        return {
            "labels": [self.label_a, self.label_b],
            "n": self.n,
            "score": self.spec.describe(),
            "partition": (
                None if self.partition is None else partition_config(self.partition)
            ),
            "means": {
                self.label_a: {
                    "total": round12(self.mean_a),
                    "components": arr(self.mean_components_a),
                },
                self.label_b: {
                    "total": round12(self.mean_b),
                    "components": arr(self.mean_components_b),
                },
            },
            "difference": {
                "total": round12(self.mean_diff),
                "components": arr(self.mean_diff_components),
            },
            "ci": ci,
        }

    def summary_lines(self) -> list[str]:
        """Lines for stdout, printing the rounded numbers of ``to_dict``."""
        d = self.to_dict()
        diff, ci = d["difference"], d["ci"]
        lines = [
            f"n={d['n']} paired cases, score {d['score']}",
            f"mean {self.label_a}: {d['means'][self.label_a]['total']:.2f}   "
            f"mean {self.label_b}: {d['means'][self.label_b]['total']:.2f}   "
            f"diff: {diff['total']:.2f}",
            f"{int(self.ci_level * 100)}% CI ({self.ci_method}) for diff: "
            f"[{ci['total'][0]:.2f}, {ci['total'][1]:.2f}]",
        ]
        if diff["components"] is not None:
            for j, (dj, (lo, hi)) in enumerate(zip(diff["components"], ci["components"])):
                lines.append(
                    f"  component {j}: diff {dj:.2f}  CI [{lo:.2f}, {hi:.2f}]"
                )
        return lines


def _align(cases_a: CaseSet, cases_b: CaseSet) -> CaseSet:
    """Reorder the second case set to the first one's ids."""
    if cases_a.ids == cases_b.ids:
        aligned = cases_b
    else:
        pos = {cid: i for i, cid in enumerate(cases_b.ids)}
        missing = [cid for cid in cases_a.ids if cid not in pos]
        if missing or len(cases_a) != len(cases_b):
            ids_a = set(cases_a.ids)
            extra = [cid for cid in cases_b.ids if cid not in ids_a]
            raise ValidationError(
                "case sets do not pair up: "
                f"{len(missing)} ids missing from the second set "
                f"(first {missing[:3]}), {len(extra)} extra "
                f"(first {extra[:3]})"
            )
        perm = np.asarray([pos[cid] for cid in cases_a.ids])
        aligned = CaseSet(
            cases_a.ids, cases_b.forecasts[perm], cases_b.observations[perm]
        )
    bad = np.nonzero(cases_a.observations != aligned.observations)[0]
    if bad.size:
        i = bad[0]
        raise ValidationError(
            f"paired cases must share observations; case {cases_a.ids[i]!r} "
            f"has {cases_a.observations[i]!r} vs {aligned.observations[i]!r}"
        )
    return aligned


BOOTSTRAP_CHUNK_BYTES = 40 << 20  # resample counts of one chunk plus two groups of draws


def _normal_ci(rows: np.ndarray, means: np.ndarray):
    n = rows.shape[1]
    if n < 2:
        raise ValidationError("confidence intervals need at least 2 cases")
    half = 1.96 * rows.std(axis=1, ddof=1) / math.sqrt(n)
    return np.column_stack([means - half, means + half])


def _index_draws(rng: np.random.Generator, n: int, samples: int, group: int):
    """Yield ``samples`` draws of n case indices from ``rng``, in stream order.

    A worker thread, the only user of ``rng``, draws ``group`` resamples
    at a time, one (group, n) call, while the caller works through the
    group before; so at most two groups are alive.  An error in the
    worker is raised here; closing the generator stops the worker and
    joins it.
    """
    slot = [None]
    free, ready = threading.Semaphore(1), threading.Semaphore(0)
    stop = False

    def draw():
        try:
            for done in range(0, samples, group):
                free.acquire()
                if stop:
                    return
                size = (min(group, samples - done), n)
                slot[0] = rng.integers(0, n, size=size, dtype=np.int32)
                ready.release()
        except BaseException as exc:  # raised again in the caller below
            slot[0] = exc
            ready.release()

    worker = threading.Thread(target=draw, name="bootstrap-draws")
    worker.start()
    try:
        for _ in range(0, samples, group):
            ready.acquire()
            block, slot[0] = slot[0], None
            if isinstance(block, BaseException):
                raise block
            free.release()
            yield from block
    finally:
        stop = True
        free.release()
        worker.join()


def _resample_means(rows: np.ndarray, samples: int, rng: np.random.Generator):
    """(samples, m) means of the rows over case resamples, each correctly rounded.

    A resample's means are its case counts c times the rows, over n.  On
    integer slices (``veriscore.exact``) every c . q is an integer below
    2**53, so one float matrix product per chunk of resamples is exact.
    A second thread draws the indices of the next group of resamples
    (``_index_draws``) while this one counts and multiplies.  One
    (g, n) draw equals g draws of size n, in int32 as in int64, so the
    means depend neither on that thread nor on BOOTSTRAP_CHUNK_BYTES.
    That budget bounds the float counts of one chunk and the two groups
    of int32 draws together; a group takes at most an eighth of it.
    """
    m, n = rows.shape
    q, exps = slices(rows, n)
    q = q.reshape(-1, n)
    unit = min([0] + exps)
    group = max(1, BOOTSTRAP_CHUNK_BYTES // (32 * n))
    # two groups of int32 draws take the bytes of `group` float count rows
    counts = np.empty((max(1, min(samples, BOOTSTRAP_CHUNK_BYTES // (8 * n) - group)), n))
    means = np.empty((samples, m))
    with closing(_index_draws(rng, n, samples, group)) as draws:
        for done in range(0, samples, len(counts)):
            c = counts[: samples - done]
            for row in c:
                row[:] = np.bincount(next(draws), minlength=n)
            sums = (q @ c.T).T.reshape(len(c), len(exps), m)
            num = sum(as_int(sums[:, k], b - unit) for k, b in enumerate(exps))
            means[done : done + len(c)] = num / (n << -unit)  # int / int rounds once
    return means


def _bootstrap_ci(rows: np.ndarray, samples: int, rng: np.random.Generator):
    if rows.shape[1] < 2:
        raise ValidationError("confidence intervals need at least 2 cases")
    means = _resample_means(rows, samples, rng)
    lo = np.percentile(means, 2.5, axis=0)
    hi = np.percentile(means, 97.5, axis=0)
    return np.column_stack([lo, hi])


def compare(
    cases_a: CaseSet,
    cases_b: CaseSet,
    spec: ScoringSpec,
    partition: PartitionOfUnity | None = None,
    *,
    ci: str = "normal",
    bootstrap_samples: int = 10000,
    seed: int = 0,
    labels: tuple[str, str] = ("A", "B"),
) -> ComparisonReport:
    """Score two systems on paired cases and compare mean scores.

    Cases pair by id (order need not match); the paired observations
    must be identical.  ``ci`` selects the interval for the mean score
    differences: "normal" uses the paired large-sample interval with
    z = 1.96, "bootstrap" the percentile interval over case resamples
    drawn from the named bootstrap stream of ``seed``.
    """
    pair = labels if isinstance(labels, (tuple, list)) else ()
    strings = len(pair) == 2 and all(isinstance(s, str) and s for s in pair)
    if not strings or pair[0] == pair[1]:
        raise ValidationError(f"labels must be two distinct non-empty strings, got {labels!r}")
    label_a, label_b = pair
    if ci not in ("normal", "bootstrap"):
        raise ValidationError(f"ci must be 'normal' or 'bootstrap', got {ci!r}")
    bootstrap_samples = _integer("bootstrap_samples", bootstrap_samples)
    seed = _integer("seed", seed)
    if ci == "bootstrap":
        if not 1 <= bootstrap_samples <= 10**6:
            raise ValidationError(
                f"bootstrap_samples must be in [1, 1e6], got {bootstrap_samples}"
            )
        rng = stream_rng(seed, "comparison", "bootstrap")
    aligned_b = _align(cases_a, cases_b)
    # the difference rows outlive the per-system scores; allocated first, they
    # leave no holes under them when the scores are released
    rows = np.empty((1 if partition is None else 1 + len(partition), len(cases_a)))
    totals_a, comps_a = case_scores(spec, cases_a, partition)
    totals_b, comps_b = case_scores(spec, aligned_b, partition)
    mean_a, mean_b = float(totals_a.mean()), float(totals_b.mean())
    comp_means_a = None if comps_a is None else comps_a.mean(axis=1)
    comp_means_b = None if comps_b is None else comps_b.mean(axis=1)
    np.subtract(totals_a, totals_b, out=rows[0])
    if partition is not None:
        np.subtract(comps_a, comps_b, out=rows[1:])
    del totals_a, totals_b, comps_a, comps_b  # only rows is needed from here on
    means = rows.mean(axis=1)
    if ci == "normal":
        bounds = _normal_ci(rows, means)
        samples_used = None
    else:
        bounds = _bootstrap_ci(rows, bootstrap_samples, rng)
        samples_used = bootstrap_samples
    return ComparisonReport(
        label_a=label_a,
        label_b=label_b,
        n=len(cases_a),
        spec=spec,
        partition=partition,
        mean_a=mean_a,
        mean_b=mean_b,
        mean_components_a=comp_means_a,
        mean_components_b=comp_means_b,
        mean_diff=float(means[0]),
        mean_diff_components=None if partition is None else means[1:],
        ci_total=(float(bounds[0, 0]), float(bounds[0, 1])),
        ci_components=None if partition is None else bounds[1:],
        ci_method=ci,
        ci_level=0.95,
        bootstrap_samples=samples_used,
        seed=seed if ci == "bootstrap" else None,
    )


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the two-system synthetic experiment.

    Observations are N(clim_mean, clim_sd^2).  System A's error is
    centered normal with standard deviation arctan(y - err_a_center)
    + err_a_base, so A is sharp below the center and noisy above it;
    system B's error has constant standard deviation err_b_sd.
    """

    n: int = 10000
    seed: int = 0
    clim_mean: float = 4.0
    clim_sd: float = 15.0
    err_b_sd: float = 2.0
    err_a_center: float = 10.0
    err_a_base: float = 2.0

    def __post_init__(self):
        for name in ("n", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("clim_mean", "clim_sd", "err_b_sd", "err_a_center", "err_a_base"):
            value = _real(name, getattr(self, name), name in ("clim_sd", "err_b_sd"))
            object.__setattr__(self, name, value)
        if self.n < 1:
            raise ValidationError(f"n must be positive, got {self.n}")
        if self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed}")
        if self.err_a_base <= math.pi / 2:
            raise ValidationError(
                "err_a_base must exceed pi/2 so the error spread stays positive"
            )

    def error_sd_a(self, y):
        """Standard deviation of system A's error given the outcome."""
        return np.arctan(np.asarray(y, dtype=float) - self.err_a_center) + self.err_a_base


def generate_synthetic(config: SyntheticConfig = SyntheticConfig()):
    """Draw paired forecast cases for the two synthetic systems.

    Returns (cases_a, cases_b) sharing ids and observations.  Streams:
    observations, errors_a, errors_b (see STREAMS["synthetic"]).
    """
    n = config.n
    y = stream_rng(config.seed, "synthetic", "observations").normal(
        config.clim_mean, config.clim_sd, n
    )
    e_a = stream_rng(config.seed, "synthetic", "errors_a").standard_normal(n)
    e_b = stream_rng(config.seed, "synthetic", "errors_b").normal(
        0.0, config.err_b_sd, n
    )
    x_a = y + e_a * config.error_sd_a(y)
    x_b = y + e_b
    width = max(6, len(str(n - 1)))
    ids = [f"case_{i:0{width}d}" for i in range(n)]
    return CaseSet(ids, x_a, y), CaseSet(ids, x_b, y)


def lognormal_mean(mu: float, sigma: float) -> float:
    """Mean of exp(N(mu, sigma^2))."""
    if not (np.isfinite(mu) and np.isfinite(sigma) and sigma > 0):
        raise ValidationError(f"need finite mu and positive sigma, got {mu}, {sigma}")
    with np.errstate(over="ignore"):
        mean = float(np.exp(mu + 0.5 * sigma * sigma))
    if not math.isfinite(mean):
        raise ValidationError(f"lognormal mean overflows for mu={mu}, sigma={sigma}")
    return mean


def lognormal_tail_mean(mu: float, sigma: float, lower: float) -> float:
    """Mean of exp(N(mu, sigma^2)) conditioned on exceeding lower."""
    full = lognormal_mean(mu, sigma)
    if math.isnan(lower):
        raise ValidationError("lower bound must not be NaN")
    if lower <= 0:
        return full
    mean, usable = _tail_mean(full, mu, sigma, lower)
    if not usable:
        raise ValidationError(
            f"tail probability above {lower} underflows for mu={mu}, sigma={sigma}"
        )
    return float(mean)


def _tail_mean(mean, mu, sigma: float, lower: float):
    """E[X | X > lower] of X = exp(N(mu, sigma^2)) with E[X] = ``mean``, elementwise,
    and where P(X > lower) is a normal float.  Tails are erfc(z / sqrt 2) / 2."""
    z = (math.log(lower) - mu) / sigma
    half = np.stack([z, z - sigma]) * math.sqrt(0.5)
    tail, upper = np.vectorize(math.erfc, otypes=[float])(half) / 2  # numpy has no erfc
    usable = tail >= np.finfo(float).tiny  # a subnormal tail loses digits
    return mean * upper / np.where(usable, tail, 1.0), usable


@dataclass(frozen=True)
class StrategyResult:
    """Mean score of one forecast policy under one assessment rule.

    ``gain`` is the honest policy's mean score minus this policy's,
    each over its own assessment set; positive gain means the policy
    improved the submitting system's apparent performance.
    """

    name: str
    n_assessed: int
    mean_score: float
    se: float
    gain: float
    gain_se: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_assessed": self.n_assessed,
            "mean_score": round12(self.mean_score),
            "se": round12(self.se),
            "gain": round12(self.gain),
            "gain_se": round12(self.gain_se),
        }


@dataclass(frozen=True)
class HedgingReport:
    """Honest versus strategic mean scores under one assessment option."""

    option: int
    n_events: int
    threshold: float
    seed: int
    params: dict
    note: str
    honest: StrategyResult
    strategies: tuple[StrategyResult, ...]

    def to_dict(self) -> dict:
        return {
            "option": self.option,
            "n_events": self.n_events,
            "threshold": self.threshold,
            "seed": self.seed,
            "params": dict(self.params),
            "note": self.note,
            "honest": self.honest.to_dict(),
            "strategies": [s.to_dict() for s in self.strategies],
        }

    def summary_lines(self) -> list[str]:
        """Lines for stdout, printing the rounded numbers of ``to_dict``."""
        d = self.to_dict()
        honest = d["honest"]
        lines = [
            f"option {d['option']}: {d['note']}",
            f"events: {d['n_events']}, threshold: {d['threshold']:.2f}",
            f"honest mean score: {honest['mean_score']:.2f} "
            f"over {honest['n_assessed']} assessed",
        ]
        for s in d["strategies"]:
            lines.append(
                f"  {s['name']}: mean {s['mean_score']:.2f} over {s['n_assessed']} "
                f"assessed, gain {s['gain']:.2f} (se {s['gain_se']:.2f})"
            )
        return lines


def _squared(f, y, t):
    return (f - y) ** 2


def _upper_squared(f, y, t):
    # the upper-region component of squared error split at the threshold
    upper = RegionGenerator(squared_error(), RectangularWeight(t, np.inf))
    return np.asarray(upper.score(f, y))


# option: (note, assessed set of a submitted forecast f given the outcome y,
# the rival's forecast r and the threshold t, score, whether the set ignores
# f so that gains are paired, strategies played against honest forecasting)
_HEDGING_RULES = {
    1: (
        "assess events whose observation reaches the threshold",
        lambda f, y, r, t: y >= t, _squared, True, ("tail_conditional_mean",),
    ),
    2: (
        "assess events where either submitted forecast reaches the threshold",
        lambda f, y, r, t: np.maximum(r, f) >= t, _squared, False,
        ("forced_assessment",),
    ),
    3: (
        "assess events where a forecast or the observation reaches the threshold",
        lambda f, y, r, t: (np.maximum(r, f) >= t) | (y >= t), _squared, False,
        ("threshold_dodge",),
    ),
    4: (
        "assess events where the rival forecast reaches the threshold",
        lambda f, y, r, t: r >= t, _squared, True, ("strategic",),
    ),
    5: (
        "assess all events with the upper-region component of squared error",
        lambda f, y, r, t: np.ones(y.shape, dtype=bool), _upper_squared, True,
        ("tail_conditional_mean", "forced_assessment", "threshold_dodge"),
    ),
}


def _masked_mean(scores: np.ndarray, sel: np.ndarray, what: str):
    cnt = int(sel.sum())
    if cnt < 2:
        raise ValidationError(
            f"{what}: only {cnt} events assessed; increase n or lower the threshold"
        )
    vals = scores[sel]
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(cnt)), cnt


def simulate_hedging(
    option: int,
    *,
    n: int = 8000,
    seed: int = 0,
    threshold: float = 20.0,
    mu_mean: float = 1.5,
    mu_sd: float = 1.0,
    log_sd: float = 0.4,
    rival_sd: float = 0.35,
) -> HedgingReport:
    """Simulate honest and strategic forecasting under one assessment rule.

    Each event i has a latent level mu_i ~ N(mu_mean, mu_sd^2); the
    outcome is lognormal, Y_i = exp(N(mu_i, log_sd^2)), and the
    submitting system knows that distribution exactly, so its honest
    point forecast is the lognormal mean.  The rival system issues the
    lognormal mean perturbed by a multiplicative information error
    with log standard deviation rival_sd.  Strategies follow the
    assessment rule of the chosen option:

    1. tail_conditional_mean: submit the mean conditioned on exceeding
       the threshold (the conditioning event always has positive
       probability here; were it not so, the threshold itself would be
       submitted).
    2. forced_assessment: if neither the rival's forecast nor the
       honest mean reaches the threshold, submit the threshold exactly
       when its expected squared error beats the rival's, which drags
       the event into the assessed set.
    3. threshold_dodge: as 2, but when forcing does not pay, submit
       just below the threshold so only the observation can trigger
       assessment.
    4. honest forecasting; nothing the submitting system does changes
       the assessed set.  (A rival capping its own forecast just below
       the threshold would empty the set entirely; that lever belongs
       to the rival and is not simulated.)
    5. all events are scored with the upper-region component of
       squared error split at the threshold; strategies 1 to 3 are
       re-evaluated under it and their gains collapse.

    Gains compare each strategy with honest forecasting under the same
    option; standard errors are paired when the assessed set cannot
    change (options 1, 4, 5) and conservative otherwise.
    """
    option, n, seed = _integer("option", option), _integer("n", n), _integer("seed", seed)
    if option not in _HEDGING_RULES:
        raise ValidationError(f"option must be 1..5, got {option}")
    if n < 2:
        raise ValidationError(f"n must be at least 2, got {n}")
    threshold, mu_mean = _real("threshold", threshold, True), _real("mu_mean", mu_mean)
    mu_sd, log_sd = _real("mu_sd", mu_sd, True), _real("log_sd", log_sd, True)
    rival_sd = _real("rival_sd", rival_sd, True)

    # an overflow shows as a result the finite check below names, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        mu = stream_rng(seed, "hedging", "situations").normal(mu_mean, mu_sd, n)
        y = np.exp(stream_rng(seed, "hedging", "observations").normal(mu, log_sd, n))
        delta = stream_rng(seed, "hedging", "rival").normal(0.0, rival_sd, n)

        half_var = 0.5 * log_sd * log_sd
        m = np.exp(mu + half_var)  # honest point forecast: Mean(F_B)
        x_rival = np.exp(mu + delta + half_var)
        t = threshold

        tail_mean, usable = _tail_mean(m, mu, log_sd, t)
        tail_mean = np.where(usable, tail_mean, t)

        neither = np.maximum(x_rival, m) < t
        forcing_pays = neither & ((t - m) ** 2 < (x_rival - m) ** 2)
        forecasts = {
            "tail_conditional_mean": tail_mean,
            "forced_assessment": np.where(forcing_pays, t, m),
            "threshold_dodge": np.where(forcing_pays, t, np.where(neither, t - 0.1, m)),
            # the assessed set ignores the submitted forecast and the outcome
            # distribution is unchanged by conditioning on the rival, so the
            # optimal strategic submission is the honest mean itself
            "strategic": m,
        }

        params = {
            "n": n,
            "threshold": t,
            "mu_mean": mu_mean,
            "mu_sd": mu_sd,
            "log_sd": log_sd,
            "rival_sd": rival_sd,
        }

        note, assessed, score_fn, paired, names = _HEDGING_RULES[option]
        h_scores = score_fn(m, y, t)
        sel = assessed(m, y, x_rival, t)
        h_mean, h_se, cnt = _masked_mean(h_scores, sel, "honest")
        honest = StrategyResult("honest", cnt, h_mean, h_se, 0.0, 0.0)
        strategies = []
        for name in names:
            s = forecasts[name]
            s_scores = score_fn(s, y, t)
            s_sel = sel if paired else assessed(s, y, x_rival, t)
            s_mean, s_se, s_cnt = _masked_mean(s_scores, s_sel, name)
            if paired:
                d = (h_scores - s_scores)[sel]
                gain, gain_se = float(d.mean()), float(d.std(ddof=1) / math.sqrt(cnt))
            else:
                gain, gain_se = h_mean - s_mean, float(np.hypot(h_se, s_se))
            strategies.append(StrategyResult(name, s_cnt, s_mean, s_se, gain, gain_se))

    for result in (honest, *strategies):
        for key in ("mean_score", "se", "gain", "gain_se"):
            value = getattr(result, key)
            if not math.isfinite(value):
                raise NumericError(f"hedging strategy {result.name}: {key} is {value}")

    return HedgingReport(
        option=option,
        n_events=n,
        threshold=t,
        seed=seed,
        params=params,
        note=note,
        honest=honest,
        strategies=tuple(strategies),
    )

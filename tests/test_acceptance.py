"""Acceptance checks, one per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line for
every criterion alongside pytest's own report.  Each criterion is
asserted exactly as stated; none are weakened to make the suite green.
Criterion 7's first clause (the interval for the total difference
contains zero in at least 95 of 100 runs) cannot hold for this data
generating process: the two systems genuinely differ by about 0.12 in
mean squared error while the interval half-width at n = 10000 is about
0.24, so the interval excludes zero in roughly one run in six and the
clause fails in expectation.  It is asserted anyway, and its failure is
the expected outcome; the remaining clauses of criterion 7 pass with
wide margins.
"""

import csv
import json
import time

import numpy as np

from veriscore import (
    ArctanLowerWeight,
    ArctanUpperWeight,
    EmpiricalCDF,
    GeneratorSpec,
    RectangularWeight,
    RegionGenerator,
    ScoringSpec,
    SyntheticConfig,
    TabulatedWeight,
    TrapezoidalWeight,
    arctan_pair,
    compare,
    crps,
    decompose,
    expectile_score,
    functional_value,
    generate_synthetic,
    huber_loss,
    murphy_area,
    murphy_curve,
    quantile_score,
    rectangular_partition,
    score,
    score_components,
    simulate_hedging,
    squared_error,
    trapezoidal_partition,
    verify_mixture,
)
from veriscore.cli import main
from veriscore.scoring import DiscreteDistribution


def _report(name, body):
    try:
        body()
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def _random_spec(rng):
    fam = int(rng.integers(3))
    if fam == 0:
        return quantile_score(float(rng.uniform(0.02, 0.98)))
    if fam == 1:
        return expectile_score(float(rng.uniform(0.02, 0.98)))
    return huber_loss(float(rng.uniform(0.05, 5.0)))


def _random_partition(rng):
    kind = int(rng.integers(3))
    if kind == 0:
        k = int(rng.integers(1, 5))  # between 2 and 5 cells
        cuts = np.sort(rng.choice(np.linspace(-45.0, 45.0, 4001), k, replace=False))
        return rectangular_partition(cuts)
    if kind == 1:
        k = int(rng.integers(1, 3))
        pts = np.sort(rng.choice(np.linspace(-40.0, 40.0, 4001), 2 * k, replace=False))
        ramps = [(float(pts[2 * i]), float(pts[2 * i + 1])) for i in range(k)]
        return trapezoidal_partition(ramps)
    return arctan_pair(float(rng.uniform(-40.0, 40.0)))


def test_criterion_1_decomposition_identity():
    def body():
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        n_cases = 0
        for _ in range(500):
            spec = _random_spec(rng)
            partition = _random_partition(rng)
            regions = decompose(spec, partition)
            x = rng.uniform(-50.0, 50.0, 20)
            y = rng.uniform(-50.0, 50.0, 20)
            total = np.asarray(score(spec, x, y))
            parts = score_components(regions, x, y).sum(axis=0)
            bound = 1e-9 * np.maximum(1.0, np.abs(total))
            worst = np.max(np.abs(parts - total) - bound)
            assert worst <= 0.0, f"identity violated by {worst:.3e} beyond bound"
            n_cases += x.size
        elapsed = time.perf_counter() - t0
        assert n_cases == 10000
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"

    _report("criterion 1: component sums equal totals on 10^4 random cases", body)


def test_criterion_2_squared_error_split_goldens():
    def body():
        upper = RegionGenerator(squared_error(), RectangularWeight(10.0, np.inf))
        lower = RegionGenerator(squared_error(), RectangularWeight(-np.inf, 10.0))
        assert upper.score(12.0, 8.0) == 12.0
        assert upper.score(5.0, 7.0) == 0.0
        assert upper.score(15.0, 20.0) == 25.0
        assert lower.score(15.0, 20.0) == 0.0

    _report("criterion 2: split squared error reproduces the worked values", body)


def test_criterion_3_closed_forms_match_quadrature():
    def body():
        weights = [
            RectangularWeight(-1.5, 2.5),
            TrapezoidalWeight(-1.0, 0.0, 2.0, 4.0),
            ArctanLowerWeight(0.5),
            ArctanUpperWeight(0.5),
            TabulatedWeight([-2.0, 0.0, 3.0], [0.2, 0.9, 0.4]),
        ]
        quad_g = GeneratorSpec.custom_g(
            lambda t: np.ones_like(np.asarray(t, dtype=float))
        )
        quad_phi2 = GeneratorSpec.custom_phi(
            lambda t: np.full_like(np.asarray(t, dtype=float), 4.0)
        )
        quad_phi1 = GeneratorSpec.custom_phi(
            lambda t: np.full_like(np.asarray(t, dtype=float), 2.0)
        )
        pairs = [
            (quantile_score(0.35), ScoringSpec("quantile", quad_g, alpha=0.35)),
            (expectile_score(0.7), ScoringSpec("expectile", quad_phi2, alpha=0.7)),
            (huber_loss(1.2), ScoringSpec("huber_mean", quad_phi1, nu=1.2)),
        ]
        rng = np.random.default_rng(103)
        worst = 0.0
        for w in weights:
            for closed_spec, quad_spec in pairs:
                r_closed = RegionGenerator(closed_spec, w)
                r_quad = RegionGenerator(quad_spec, w)
                assert r_closed.has_closed_form
                assert not r_quad.has_closed_form
                x = rng.uniform(-6.0, 7.0, 1000)
                y = rng.uniform(-6.0, 7.0, 1000)
                diff = np.max(np.abs(r_closed.score(x, y) - r_quad.score(x, y)))
                worst = max(worst, float(diff))
        assert worst <= 1e-9, f"max closed-vs-quadrature gap {worst:.3e}"

    _report(
        "criterion 3: closed forms match quadrature on 1000 points per cell",
        body,
    )


def test_criterion_4_components_are_consistent():
    def body():
        rng = np.random.default_rng(104)
        for i in range(100):
            k = int(rng.integers(2, 7))
            vals = np.sort(rng.choice(np.linspace(-10.0, 10.0, 5001), k, replace=False))
            if vals[-1] - vals[0] < 0.5:
                vals = vals + np.linspace(0.0, 1.0, k)
            probs = rng.dirichlet(np.ones(k))
            dist = DiscreteDistribution(vals, probs)
            if i % 3 == 0:
                spec = quantile_score(float(rng.uniform(0.1, 0.9)))
            elif i % 3 == 1:
                spec = expectile_score(float(rng.uniform(0.1, 0.9)))
            else:
                spec = huber_loss(float(rng.uniform(0.3, 3.0)))
            oracle = functional_value(spec, dist)
            center = float(rng.uniform(vals[0], vals[-1]))
            regions = decompose(spec, arctan_pair(center))
            lo, hi = float(dist.values[0]), float(dist.values[-1])
            grid = np.linspace(lo, hi, 1001)
            pitch = (hi - lo) * 1e-3
            for r in regions:
                expected = np.asarray(
                    r.score(grid[:, None], dist.values[None, :])
                ) @ dist.probs
                best = float(grid[np.argmin(expected)])
                assert oracle.lower - pitch - 1e-12 <= best <= oracle.upper + pitch + 1e-12, (
                    f"component argmin {best} outside "
                    f"[{oracle.lower}, {oracle.upper}] +- {pitch}"
                )

    _report(
        "criterion 4: every strictly weighted component is minimized at the functional",
        body,
    )


def test_criterion_5_mixture_representation():
    def body():
        rng = np.random.default_rng(105)
        for i in range(1000):
            x = float(rng.uniform(-10.0, 10.0))
            y = float(rng.uniform(-10.0, 10.0))
            spec = _random_spec(rng)
            if i % 3 == 0:
                weight = None
            elif i % 3 == 1:
                a, b = np.sort(rng.uniform(-9.0, 9.0, 2))
                weight = RectangularWeight(float(a), float(b))
            else:
                p = np.sort(rng.uniform(-9.0, 9.0, 4))
                weight = TrapezoidalWeight(*map(float, p))
            c = verify_mixture(spec, x, y, weight=weight)
            assert c.residual <= 1e-6 * max(1.0, abs(c.direct)), (
                f"mixture residual {c.residual:.3e} for {spec.describe()} "
                f"at x={x}, y={y}"
            )
        # the area under a weighted Murphy curve recovers the mean score
        x = rng.uniform(-5.0, 5.0, 60)
        y = rng.uniform(-5.0, 5.0, 60)
        trios = [
            ("quantile", dict(alpha=0.3), quantile_score(0.3)),
            ("expectile", dict(alpha=0.65), expectile_score(0.65)),
            ("huber_mean", dict(nu=1.5), huber_loss(1.5)),
        ]
        for functional, params, spec in trios:
            curve = murphy_curve(
                {"S": (x, y)}, functional, grid=(-6.0, 6.0, 2501), **params
            )
            area = murphy_area(curve, density=spec.generator.density)
            mean_score = float(np.mean(score(spec, x, y)))
            assert abs(area - mean_score) <= 0.01 * mean_score, (
                f"{functional}: area {area} vs mean score {mean_score}"
            )

    _report(
        "criterion 5: mixture residuals below 1e-6 and Murphy areas within 1%",
        body,
    )


def test_criterion_6_crps_checks():
    def body():
        rng = np.random.default_rng(106)
        for _ in range(200):
            x = float(rng.uniform(-50.0, 50.0))
            y = float(rng.uniform(-50.0, 50.0))
            assert crps(EmpiricalCDF.from_ensemble([x]), y)[0] == abs(x - y)
        assert crps(EmpiricalCDF.from_ensemble([0.0, 2.0]), 1.0)[0] == 0.5
        for _ in range(1000):
            m = rng.uniform(-30.0, 30.0, int(rng.integers(1, 21)))
            y = float(rng.uniform(-35.0, 35.0))
            cdf = EmpiricalCDF.from_ensemble(m)
            partition = _random_partition(rng)
            total, comp = crps(cdf, y, partition)
            assert abs(comp.sum() - total) <= 1e-9 * max(1.0, total), (
                f"components sum to {comp.sum()} but total is {total}"
            )

    _report(
        "criterion 6: CRPS degenerate, hand value, and component sums",
        body,
    )


def test_criterion_7_synthetic_experiment():
    def body():
        split = rectangular_partition([10.0])
        spec = squared_error()
        t0 = time.perf_counter()
        n_total_ci, n_comp1_neg, n_comp2_pos, n_mean_b = 0, 0, 0, 0
        for seed in range(100):
            a, b = generate_synthetic(SyntheticConfig(n=10000, seed=seed))
            rep = compare(a, b, spec, split)
            lo, hi = rep.ci_total
            if lo <= 0.0 <= hi:
                n_total_ci += 1
            if rep.ci_components[0][1] < 0.0:
                n_comp1_neg += 1
            if rep.ci_components[1][0] > 0.0:
                n_comp2_pos += 1
            if 3.8 <= rep.mean_b <= 4.2:
                n_mean_b += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
        counts = (
            f"total CI covers 0 in {n_total_ci}/100, "
            f"component 1 CI negative in {n_comp1_neg}/100, "
            f"component 2 CI positive in {n_comp2_pos}/100, "
            f"mean score of B in [3.8, 4.2] in {n_mean_b}/100"
        )
        assert (
            n_total_ci >= 95
            and n_comp1_neg >= 95
            and n_comp2_pos >= 95
            and n_mean_b >= 95
        ), counts

    _report(
        "criterion 7: synthetic experiment interval clauses in >= 95 of 100 runs",
        body,
    )


def test_criterion_8_hedging_incentives():
    def body():
        gains = {1: [], 2: [], 3: []}
        for seed in range(50):
            for option in (1, 2, 3):
                rep = simulate_hedging(option, seed=seed)
                (s,) = rep.strategies
                assert s.gain > 0.0, (
                    f"option {option}, seed {seed}: strategic gain {s.gain}"
                )
                gains[option].append(s.gain)
            rep4 = simulate_hedging(4, seed=seed)
            (s4,) = rep4.strategies
            assert s4.mean_score == rep4.honest.mean_score
            assert s4.n_assessed == rep4.honest.n_assessed
            assert s4.gain == 0.0
            rep5 = simulate_hedging(5, seed=seed)
            for s in rep5.strategies:
                assert s.gain <= 2.0 * s.gain_se, (
                    f"option 5, seed {seed}: {s.name} gained {s.gain} "
                    f"(se {s.gain_se})"
                )
        for option, g in gains.items():
            g = np.asarray(g)
            se = g.std(ddof=1) / np.sqrt(g.size)
            assert g.mean() > 2.0 * se, (
                f"option {option}: mean gain {g.mean()} not significant (se {se})"
            )

    _report(
        "criterion 8: hedging pays under options 1-3, never under 4-5",
        body,
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    def body():
        d1 = tmp_path / "run1"
        d2 = tmp_path / "run2"
        d1.mkdir()
        d2.mkdir()

        ens_rows = "case_id,obs,m1,m2,m3\nc1,1.0,0.0,2.0,2.0\nc2,4.5,3.0,4.0,8.0\n"
        single_rows = "case_id,forecast,obs\na,12,8\nb,5,7\nc,15,20\n"
        part_cfg = json.dumps({"cutpoints": [10.0]})

        def run_all(d):
            (d / "ens.csv").write_text(ens_rows)
            (d / "cases.csv").write_text(single_rows)
            (d / "part.json").write_text(part_cfg)
            cmds = [
                ["synth", "--n", "300", "--seed", "7", "--out", str(d / "synth")],
                [
                    "compare",
                    "--functional", "expectile", "--alpha", "0.5",
                    "--input", str(d / "synth.cases.csv"),
                    "--ci", "bootstrap",
                    "--bootstrap-samples", "400",
                    "--seed", "5",
                    "--partition", str(d / "part.json"),
                    "--out", str(d / "cmp"),
                ],
                [
                    "hedge",
                    "--option", "2", "--n", "2000", "--seed", "3",
                    "--out", str(d / "hedge"),
                ],
                [
                    "score",
                    "--functional", "huber_mean", "--nu", "1.0",
                    "--input", str(d / "cases.csv"),
                    "--partition", str(d / "part.json"),
                    "--out", str(d / "score"),
                ],
                [
                    "murphy",
                    "--functional", "quantile", "--alpha", "0.5",
                    "--input", str(d / "synth.cases.csv"),
                    "--grid", "0,30,101",
                    "--out", str(d / "murphy"),
                ],
                ["crps", "--input", str(d / "ens.csv"), "--out", str(d / "crps")],
            ]
            for cmd in cmds:
                assert main(cmd) == 0, f"command failed: {cmd}"

        run_all(d1)
        run_all(d2)
        outputs = sorted(
            p.name
            for p in d1.iterdir()
            if p.suffix in (".csv", ".json") and p.name not in (
                "ens.csv", "cases.csv", "part.json",
            )
        )
        assert len(outputs) >= 10
        for name in outputs:
            b1 = (d1 / name).read_bytes()
            b2 = (d2 / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"

    _report("criterion 9: seeded commands rerun byte-identically", body)

"""The Gauss–Kronrod routine: rule exactness, agreement with QUADPACK,
batch independence and the error contract."""

import numpy as np
import pytest
from scipy import integrate

from veriscore import (
    ArctanLowerWeight,
    ArctanUpperWeight,
    CaseSet,
    GeneratorSpec,
    NormalizedWeight,
    NumericError,
    PartitionOfUnity,
    RectangularWeight,
    RegionGenerator,
    ScoringSpec,
    TabulatedWeight,
    TrapezoidalWeight,
    ValidationError,
    WeightFunction,
    case_scores,
    decompose,
    expectile_score,
    huber_loss,
    normalized_partition,
    quantile_score,
    score_components,
)
from veriscore.cli import main
from veriscore.quadrature import GAUSS, KRONROD, NODES, gauss_kronrod


def test_rules_integrate_monomials_exactly():
    def error(weights, degree):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        return abs(float(weights @ NODES**degree) - exact)

    assert max(error(KRONROD, d) for d in range(23)) <= 1e-15
    assert max(error(GAUSS, d) for d in range(14)) <= 1e-15
    # and not beyond: degrees 23 and 15 are odd, so exact by symmetry
    assert error(KRONROD, 24) > 1e-10 and error(GAUSS, 14) > 1e-6
    np.testing.assert_allclose(
        (NODES[1::2], GAUSS[1::2]), np.polynomial.legendre.leggauss(7), atol=1e-15
    )
    assert not np.any(GAUSS[::2])


def test_signed_integrals_and_knots():
    got = gauss_kronrod(np.exp, [0.0, 1.0, 2.0], 1.0, k=1)
    np.testing.assert_allclose(got, [1.0, 0.0, -np.exp(2.0)], rtol=1e-15, atol=0)
    assert gauss_kronrod(np.exp, 3.0, 3.0, 5.0).tobytes() == np.float64(0.0).tobytes()
    # a jump listed as a knot is a panel end, so the step integrates exactly
    step = lambda t: (t >= 0.3).astype(float)  # noqa: E731
    assert gauss_kronrod(step, -1.0, 1.0, 0.0, knots=(0.3,)) == 0.7
    # infinite limits are rejected, not integrated to a silent 0.0
    bump = NormalizedWeight(0, [lambda t: np.exp(-t * t), np.ones_like])
    for lo, hi in ((-np.inf, np.inf), (0.0, np.inf)):
        with pytest.raises(ValidationError, match="must be finite"), np.errstate(invalid="ignore"):
            bump.integral(lo, hi)


# the custom generators of acceptance criterion 3: no deriv_const, so
# every component goes through the quadrature routine
QUAD_G = GeneratorSpec.custom_g(lambda t: np.ones_like(np.asarray(t, dtype=float)))
QUAD_PHI2 = GeneratorSpec.custom_phi(lambda t: np.full_like(np.asarray(t, dtype=float), 4.0))
QUAD_PHI1 = GeneratorSpec.custom_phi(lambda t: np.full_like(np.asarray(t, dtype=float), 2.0))
CUSTOM_SPECS = (
    ScoringSpec("quantile", QUAD_G, alpha=0.35),
    ScoringSpec("expectile", QUAD_PHI2, alpha=0.7),
    ScoringSpec("huber_mean", QUAD_PHI1, nu=1.2),
)
NORMALIZED_ARCTAN = normalized_partition([ArctanLowerWeight(10.0), ArctanUpperWeight(10.0)])
NORMALIZED_TABLES = normalized_partition(
    [TabulatedWeight([-2.0, 0.0, 3.0], [0.2, 0.9, 0.4]), TabulatedWeight([-1.0, 4.0], [0.1, 0.8])]
)


def _oracle(spec, weight, x, y):
    # the component forms of veriscore.decomposition, each moment by QUADPACK
    dens = spec.generator.density

    def moment(k, p, q):
        lo, hi = min(p, q), max(p, q)
        pts = [t - y for t in weight.finite_knots() if lo < t - y < hi]
        def f(u):
            t = np.array([y + u])
            return float(dens(t)[0] * weight(t)[0]) * u**k

        val, _ = integrate.quad(
            f, lo, hi, points=pts or None, epsabs=1e-13, epsrel=1e-13, limit=200
        )
        return val if p <= q else -val

    d = x - y
    ind = float(y < x)
    if spec.functional == "quantile":
        return (ind - spec.alpha) * moment(0, 0.0, d)
    if spec.functional == "expectile":
        return abs(ind - spec.alpha) * abs(moment(1, 0.0, d))
    k = min(max(d, -spec.nu), spec.nu)
    return 0.5 * (abs(moment(1, 0.0, k)) + spec.nu * abs(moment(0, k, d)))


def test_components_match_quadpack():
    rng = np.random.default_rng(71)
    y = rng.uniform(-10.0, 25.0, 12)
    x = y + rng.uniform(-6.0, 6.0, 12)
    cases = [(spec, w) for spec in CUSTOM_SPECS for w in (
        RectangularWeight(-1.5, 2.5),
        TrapezoidalWeight(-1.0, 0.0, 2.0, 4.0),
        ArctanLowerWeight(0.5),
        ArctanUpperWeight(0.5),
        TabulatedWeight([-2.0, 0.0, 3.0], [0.2, 0.9, 0.4]),
    )]
    for spec in (quantile_score(0.3), expectile_score(0.5), huber_loss(5.0)):
        cases += [(spec, w) for w in (*NORMALIZED_ARCTAN, *NORMALIZED_TABLES)]
    for spec, w in cases:
        region = RegionGenerator(spec, w)
        assert not region.has_closed_form
        got = region.score(x, y)
        want = np.array([_oracle(spec, w, a, b) for a, b in zip(x, y)])
        bound = 1e-12 * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= bound), (spec.functional, w)


def test_case_alone_equals_case_in_batch():
    rng = np.random.default_rng(72)
    y = rng.normal(4.0, 15.0, 2000)
    x = y + rng.normal(0.0, 2.0, 2000)
    for spec in (expectile_score(0.5), huber_loss(5.0), CUSTOM_SPECS[0]):
        regions = decompose(spec, NORMALIZED_ARCTAN)
        batch = score_components(regions, x, y)
        for i in (0, 1, 1000, 1999):
            alone = score_components(regions, x[i], y[i])
            assert alone.tobytes() == np.ascontiguousarray(batch[:, i]).tobytes()


class _Comb(WeightFunction):
    # jumps at every multiple of 1/7, none of them listed in finite_knots
    kind = "comb"

    def __init__(self, upper):
        self.upper = upper

    def __call__(self, t):
        on = np.floor(7.0 * np.asarray(t, dtype=float)) % 2.0
        return on if self.upper else 1.0 - on


COMB = PartitionOfUnity([_Comb(False), _Comb(True)])


def test_exhausted_panel_budget_names_the_case(tmp_path, monkeypatch, capsys):
    with pytest.raises(NumericError) as info:
        gauss_kronrod(_Comb(True), [0.0, 0.0, 0.1], [0.1, 6.1, 0.0], 0.2)
    assert info.value.index == 1
    assert "quadrature of element 1 on [0.2, 6.3" in str(info.value)
    cases = CaseSet(["calm", "storm"], [1.0, 6.3], [1.0, 0.2])
    with pytest.raises(NumericError, match=r"^case storm: quadrature of element 1 on "):
        case_scores(expectile_score(0.5), cases, COMB)
    # the CLI reports it with exit code 3, for scores and for CRPS
    monkeypatch.setattr("veriscore.cli.load_partition_config", lambda path: COMB)
    (tmp_path / "cases.csv").write_text("case_id,forecast,obs\ncalm,1,1\nstorm,6.3,0.2\n")
    (tmp_path / "ens.csv").write_text("case_id,obs,m1,m2\ncalm,1,1,1\nstorm,0.2,3.1,6.3\n")
    for argv in (
        ["score", "--functional", "expectile", "--alpha", "0.5", "--input", "cases.csv"],
        ["crps", "--input", "ens.csv"],
    ):
        argv = [*argv[:-1], str(tmp_path / argv[-1]), "--partition", "comb.json"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: case storm: quadrature of element "), err
    assert not list(tmp_path.glob("out*"))

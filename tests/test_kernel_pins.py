"""Bit-level pins of the component kernels.

Each digest is the sha256 of the raw float64 bytes of a component
array.  The cases are fixed by a seed and reach |y| = 1e9, so every
path of the moment kernels is covered: the table's segments, the
arctan pair's quadrature about its centre, and the vectorized
quadrature of normalized weights.  A change to any of them that moves
a single bit of a single component changes a digest.
"""

import hashlib

import numpy as np
import pytest

from veriscore import (
    EnsembleSet,
    PartitionOfUnity,
    TabulatedWeight,
    arctan_pair,
    crps,
    decompose,
    expectile_score,
    huber_loss,
    parse_partition_config,
    quantile_score,
    rectangular_partition,
    score_components,
    trapezoidal_partition,
)

HATS = [-15.0, -5.0, 5.0, 15.0]
PARTITIONS = {
    "rectangular": lambda: rectangular_partition([-10.0, 0.0, 10.0]),
    "trapezoidal": lambda: trapezoidal_partition([(-12.0, -8.0), (-1.0, 1.0), (8.0, 12.0)]),
    "tabulated": lambda: PartitionOfUnity(
        [TabulatedWeight(HATS, np.eye(4)[j]) for j in range(4)]
    ),
    "arctan_pair": lambda: arctan_pair(10.0),
    "normalized_arctan": lambda: parse_partition_config({
        "weights": [
            {"kind": "normalized", "index": j, "components": [
                {"kind": "arctan_lower", "center": 10.0},
                {"kind": "arctan_upper", "center": 10.0},
            ]}
            for j in range(2)
        ]
    }),
}
SPECS = {
    "quantile_0.9": lambda: quantile_score(0.9),
    "expectile_0.5": lambda: expectile_score(0.5),
    "huber_5": lambda: huber_loss(5.0),
}


def _cases(n=2000):
    # log-uniform magnitudes of y up to 1e9 and of the error up to 1e4,
    # with a tenth of the cases exact (x == y)
    rng = np.random.default_rng(20220)
    y = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-1.0, 9.0, n)
    x = y + rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 4.0, n)
    x[::10] = y[::10]
    return x, y


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


COMPONENT_DIGESTS = {
    ("rectangular", "quantile_0.9"): "b03f7861124f295a41bb8f36bff46e292aa3b0765df29e82be6ce237baaf0bf2",
    ("rectangular", "expectile_0.5"): "ccfa8d940e330b175861f237b79be931782ccec6ef840cae2aad88905704a9ad",
    ("rectangular", "huber_5"): "d3bd79180f7134331615e4fe4c05dcf058a8053957a759d22f7e075a58a41939",
    ("trapezoidal", "quantile_0.9"): "d3dbb5e8ae0ea4e893d4323407ed8d914da5551e99584afcb5788c8c3c7cd34b",
    ("trapezoidal", "expectile_0.5"): "dbc1222d6550d1ee3520688b4f3405fd333ddd1093c8d3484580260b87b0610a",
    ("trapezoidal", "huber_5"): "07d172a4749684fd9bfcbdcaef2b572748bb65bf8ebfcb6a1cf6d1ff9b6f4083",
    ("tabulated", "quantile_0.9"): "ce74b189a5a5f51963b381f4f905e690ab78a3674459018dc0feaa638a0fe7fa",
    ("tabulated", "expectile_0.5"): "4448b0e2e0ae7f87d82abaf633870fc8962aeeaa83c0405dae3850bed07fb231",
    ("tabulated", "huber_5"): "a2f50f6e537ecfa86d6074ffd28994a5ff3161b2b3b4e947be0ded0478e7ae10",
    ("arctan_pair", "quantile_0.9"): "ce0b12013d74e923cde44078a4e350ab7b5da07c3ad7e6640f1886b805fdfd91",
    ("arctan_pair", "expectile_0.5"): "dd1103319b06852c432d11ddb75bc944f580f4b966d5872e816f74c99c161691",
    ("arctan_pair", "huber_5"): "3531eb8bb46b4dd3a75d778983719b4ce9349ee12a5b3eb78005946b762bfb6a",
    ("normalized_arctan", "quantile_0.9"): "e11eade39734d42314158686d04248cbe438598149a078454814af87180e3839",
    ("normalized_arctan", "expectile_0.5"): "ba53b6951a030f2d14e379b19105606713bb20c6465533a4f24978e5954987c4",
    ("normalized_arctan", "huber_5"): "31bc055904a76f7c9fae96ff2e3b6d27c8607826fa01034edab479223d008a00",
}

CRPS_DIGESTS = {
    "rectangular": "cdea631dd716b5ffedf051dddbe5e9ca334862290b384d05fca6476d173224b8",
    "trapezoidal": "34e569fce0d99d52cf15cb3562c9e7f3f04092b7e4a1832ad0cec07025922695",
    "tabulated": "69252c1378237454e49eb051bb644f5e114001f0d0719dac470cd444daf0eede",
    "arctan_pair": "40a01aadc18847c19b7e6fa7e9eb041c6d81d5ad4c594bd17db47cab9a6de375",
    "normalized_arctan": "40a01aadc18847c19b7e6fa7e9eb041c6d81d5ad4c594bd17db47cab9a6de375",
}


def _tied_ensembles() -> EnsembleSet:
    # repeated members, observations on a member, and large magnitudes
    members = np.array([
        [1.0, 1.0, 2.0, 3.0, 3.0],
        [-12.0, -12.0, -12.0, 0.0, 0.0],
        [9.5, 10.0, 10.0, 10.5, 11.0],
        [-5.0, -5.0, 5.0, 5.0, 5.0],
        [1e6, 1e6, 1e6 + 1.0, 1e6 + 1.0, 1e6 + 2.0],
        [-3e8, -3e8 + 0.5, -3e8 + 0.5, -3e8 + 4.0, -3e8 + 4.0],
    ])
    y = np.array([3.0, -12.0, 10.0, 0.0, 1e6 + 1.0, -3e8 + 1.0])
    return EnsembleSet([f"e{i}" for i in range(len(y))], y, members)


@pytest.mark.parametrize("key", sorted(COMPONENT_DIGESTS))
def test_score_component_bytes_are_pinned(key):
    part, spec = key
    x, y = _cases()
    comps = score_components(decompose(SPECS[spec](), PARTITIONS[part]()), x, y)
    assert _digest(comps) == COMPONENT_DIGESTS[key]


@pytest.mark.parametrize("part", sorted(CRPS_DIGESTS))
def test_crps_component_bytes_are_pinned(part):
    ens = _tied_ensembles()
    _, comps = crps(ens, ens.observations, PARTITIONS[part]())
    assert _digest(comps) == CRPS_DIGESTS[part]


if __name__ == "__main__":
    # print the digests of the installed package, in the tables' form
    x, y = _cases()
    for part, spec in COMPONENT_DIGESTS:
        regions = decompose(SPECS[spec](), PARTITIONS[part]())
        print(f'    ("{part}", "{spec}"): "{_digest(score_components(regions, x, y))}",')
    ens = _tied_ensembles()
    for part in CRPS_DIGESTS:
        _, comps = crps(ens, ens.observations, PARTITIONS[part]())
        print(f'    "{part}": "{_digest(comps)}",')

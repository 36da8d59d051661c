"""Bit-level pins of the component kernels.

Each digest is the sha256 of the raw float64 bytes of a component
array.  The cases are fixed by a seed and reach |y| = 1e9, so every
path of the moment kernels is covered: the table's segments, the
arctan pair's primitives and its Gauss-Legendre branch, and the
vectorized quadrature of normalized weights.  A change to any of them
that moves a single bit of a single component changes a digest.
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
    ("arctan_pair", "quantile_0.9"): "b88658f33889ccadeec83845bc32e04c58587d1dbcc75c297429e0bb60bb9b82",
    ("arctan_pair", "expectile_0.5"): "975e083d59b77ebcf0e281b66b9818a6c78487365e0ddbc65e2a7340aeeafdcb",
    ("arctan_pair", "huber_5"): "9266e76bf4129d1c4c4a3aa52f595615e989b48f448eacb36821898be214ca03",
    ("normalized_arctan", "quantile_0.9"): "7f643136b2cd293e31fdd76340e84e732e8ec8b439e63a36a986e60e1850c8db",
    ("normalized_arctan", "expectile_0.5"): "0eeefb4967cda2ff64de54cf0819ac9fb590478c7b5d0226054e0d397f36c02f",
    ("normalized_arctan", "huber_5"): "058083bfb1b5ab8eaf4f03d67ab059675b80711e4c13c2e9dda67f2ac795ee44",
}

CRPS_DIGESTS = {
    "rectangular": "cdea631dd716b5ffedf051dddbe5e9ca334862290b384d05fca6476d173224b8",
    "trapezoidal": "34e569fce0d99d52cf15cb3562c9e7f3f04092b7e4a1832ad0cec07025922695",
    "tabulated": "69252c1378237454e49eb051bb644f5e114001f0d0719dac470cd444daf0eede",
    "arctan_pair": "e4278c8450e9c040db9a82a4caffee53d5753c9d1a4ca4753aa2cc0ab95bb80f",
    "normalized_arctan": "8957c3bab08876840b8c552607cfebed689aa827b2df899de0d7772381bc4b8d",
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

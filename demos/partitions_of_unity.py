"""Build each weight kind, check they sum to one, and round-trip a config.

Run from anywhere: python demos/partitions_of_unity.py
Outputs land in ./demo_output/.
"""

import json
import os

import numpy as np

from veriscore import (
    IntervalDomain,
    TabulatedWeight,
    arctan_pair,
    normalized_partition,
    parse_partition_config,
    partition_config,
    rectangular_partition,
    trapezoidal_partition,
)

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

print("Rectangular cells: indicator weights on half-open intervals.")
rect = rectangular_partition([0.0, 10.0])
report = rect.report
print(f"  {len(rect)} cells, max deviation from 1: {report.max_sum_error:.2e}")

print("Trapezoidal weights: linear cross-fades between plateaus.")
trap = trapezoidal_partition([(-2.0, 0.0), (5.0, 8.0)])
t = np.array([-3.0, -1.0, 2.0, 6.5, 9.0])
for j, w in enumerate(trap):
    print(f"  weight {j}: w({t.tolist()}) = {np.round(w(t), 3).tolist()}")

print("Arctan pair: strictly positive everywhere, so every region")
print("keeps a say at every threshold (strict consistency).")
pair = arctan_pair(10.0)
lower, upper = pair
print(f"  lower(10) = {float(lower(np.array([10.0]))[0]):.3f},"
      f" upper(10) = {float(upper(np.array([10.0]))[0]):.3f}")
print(f"  lower(40) = {float(lower(np.array([40.0]))[0]):.5f}"
      " (decays like 1/t, never reaches 0)")

print("Tabulated weights normalize pointwise into a partition.")
raw = [
    TabulatedWeight([-5.0, 0.0, 5.0], [0.6, 0.9, 0.2]),
    TabulatedWeight([-5.0, 0.0, 5.0], [0.8, 0.3, 0.9]),
]
norm = normalized_partition(raw, domain=IntervalDomain(-5.0, 5.0))
s = sum(w(np.array([1.7]))[0] for w in norm)
print(f"  normalized weights at t=1.7 sum to {s}")

config = partition_config(trap)
path = os.path.join(OUT, "trapezoid_partition.json")
with open(path, "w") as fh:
    json.dump(config, fh, indent=2)
    fh.write("\n")
again = parse_partition_config(config)
print(f"Config round trip: wrote {path}, reloaded {len(again)} weights.")
print("The same file drives the CLI via --partition.")

"""Splitting one score into regional components that add back exactly.

Run: python demos/decomposed_scores.py
"""

import numpy as np

from veriscore import (
    RectangularWeight,
    RegionGenerator,
    arctan_pair,
    decompose,
    huber_loss,
    rectangular_partition,
    score,
    score_components,
    squared_error,
)

print("Split squared error at 10: errors are attributed to the region")
print("the threshold falls in, not smeared across both.")
split = rectangular_partition([10.0])
regions = decompose(squared_error(), split)
for x, y in [(12.0, 8.0), (5.0, 7.0), (15.0, 20.0)]:
    total = score(squared_error(), x, y)
    low, high = score_components(regions, x, y)
    print(f"  x={x:>4}, y={y:>4}: total {total:>5}  below-10 {low:>4}  above-10 {high:>4}")
print("A miss entirely below the cut leaves the upper component at exact 0.0,")
print("not merely something tiny: the closed forms cancel in floating point.")

upper = RegionGenerator(squared_error(), RectangularWeight(10.0, np.inf))
print(f"  upper component of (5,7): {upper.score(5.0, 7.0)!r}")

print()
print("Components do not depend on where the per-region generator is anchored.")
r0 = RegionGenerator(huber_loss(1.0), RectangularWeight(0.0, 4.0), anchor=0.0)
r9 = RegionGenerator(huber_loss(1.0), RectangularWeight(0.0, 4.0), anchor=9.0)
print(f"  anchored at 0: {r0.score(3.0, 1.0):.12f}")
print(f"  anchored at 9: {r9.score(3.0, 1.0):.12f}")
print(f"  (pointwise generator values differ: {r0.value(3.0):.3f} vs {r9.value(3.0):.3f})")

print()
print("With the strictly positive arctan pair, both components keep charging")
print("every error, so each remains strictly consistent for the functional.")
pair_regions = decompose(squared_error(), arctan_pair(10.0))
rng = np.random.default_rng(0)
x = rng.uniform(-20, 30, 5)
y = rng.uniform(-20, 30, 5)
total = score(squared_error(), x, y)
comps = score_components(pair_regions, x, y)
for i in range(5):
    print(
        f"  x={x[i]:>7.2f} y={y[i]:>7.2f}: "
        f"total {total[i]:>8.3f} = {comps[0][i]:>8.3f} + {comps[1][i]:>8.3f}"
    )
gap = np.max(np.abs(comps.sum(axis=0) - total))
print(f"largest additivity gap on these cases: {gap:.2e}")

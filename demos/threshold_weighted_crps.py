"""CRPS of ensemble forecasts, split over threshold regions.

Run: python demos/threshold_weighted_crps.py
"""

import numpy as np

from veriscore import (
    EmpiricalCDF,
    crps,
    rectangular_partition,
    trapezoidal_partition,
)

print("CRPS integrates (F(z) - [y <= z])^2; for step CDFs the integral")
print("is an exact finite sum.")
cdf = EmpiricalCDF.from_ensemble([0.0, 2.0])
print(f"  two members at 0 and 2, observation 1: CRPS = {crps(cdf, 1.0)[0]}")
point = EmpiricalCDF.from_ensemble([3.0])
print(f"  a point forecast reduces to absolute error: {crps(point, 7.5)[0]}")

print()
print("Splitting over thresholds shows where the probability mass misses.")
rng = np.random.default_rng(1)
members = np.sort(rng.normal(15.0, 4.0, 12))
obs = 23.0
cdf = EmpiricalCDF.from_ensemble(members)
split = rectangular_partition([20.0])
total, (below, above) = crps(cdf, obs, split)
print(f"  12-member ensemble around 15, observation {obs}")
print(f"  total {total:.4f} = below-20 {below:.4f} + above-20 {above:.4f}")
print("  most of the penalty sits above 20: the ensemble put almost no")
print("  mass where the observation landed.")

print()
print("A trapezoidal partition fades the emphasis in instead of cutting.")
fade = trapezoidal_partition([(18.0, 22.0)])
total, comps = crps(cdf, obs, fade)
print(f"  total {total:.4f} = low-side {comps[0]:.4f} + high-side {comps[1]:.4f}")
print(f"  components always re-add: gap {abs(comps.sum() - total):.2e}")

print()
print("Averaging the upper component across cases gives a verification")
print("score that only rewards skill on the high-threshold region while")
print("staying proper, because it is a score component, not a filter.")
obs_draws = rng.normal(16.0, 5.0, 2000)
sharp = [EmpiricalCDF.from_ensemble(rng.normal(o, 1.0, 20)) for o in obs_draws]
vague = [EmpiricalCDF.from_ensemble(rng.normal(o, 6.0, 20)) for o in obs_draws]
for name, cdfs in [("sharp", sharp), ("vague", vague)]:
    comp = np.mean([
        crps(c, o, split)[1][1]
        for c, o in zip(cdfs, obs_draws)
    ])
    print(f"  mean above-20 component, {name} ensembles: {comp:.4f}")

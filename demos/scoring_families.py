"""The three scoring families and the functionals they elicit.

Run: python demos/scoring_families.py
"""

import numpy as np

from veriscore import (
    DiscreteDistribution,
    absolute_error,
    expectile_score,
    functional_value,
    huber_loss,
    quantile_score,
    score,
    squared_error,
)

print("Quantile scores generalize the pinball loss.")
print(f"  pinball(alpha=0.25) at x=2, y=5: {score(quantile_score(0.25), 2.0, 5.0)}")
print(f"  2 * pinball(0.5) equals |x - y|: {score(absolute_error(), 2.0, 5.0)}")

print("Expectile scores generalize squared error.")
print(f"  squared error at x=12, y=8: {score(squared_error(), 12.0, 8.0)}")
print(f"  tilted to alpha=0.9 (underforecasts cost more):"
      f" {score(expectile_score(0.9), 12.0, 8.0)}"
      f" vs overforecast {score(expectile_score(0.9), 8.0, 12.0)}")

print("Huber scores interpolate between them via the cap nu.")
x, y = 3.0, 0.0
for nu in (0.5, 1.0, 3.0, 10.0):
    print(f"  nu={nu:>4}: S(3, 0) = {score(huber_loss(nu), x, y)}")
print("  small errors are quadratic, large ones linear.")

print()
print("Each family's expected score is minimized by its own functional.")
dist = DiscreteDistribution([0.0, 2.0, 6.0], [0.3, 0.4, 0.3])
print(f"distribution: values {dist.values.tolist()}, masses {dist.probs.tolist()}")
for label, spec in [
    ("median        ", quantile_score(0.5)),
    ("0.8-quantile  ", quantile_score(0.8)),
    ("mean          ", squared_error()),
    ("0.8-expectile ", expectile_score(0.8)),
    ("huber nu=1    ", huber_loss(1.0)),
]:
    fv = functional_value(spec, dist)
    grid = np.linspace(-1.0, 7.0, 1601)
    es = dist.expected_score(spec, grid)
    argmin = float(grid[np.argmin(es)])
    is_interval = fv.upper > fv.lower
    interval = (
        f"[{fv.lower:g}, {fv.upper:g}]" if is_interval else f"{fv.value:g}"
    )
    print(f"  {label} solution {interval:>12}, grid argmin {argmin:.3f}")
print("Huber means and exactly attained quantiles can be whole intervals;")
print("any point inside minimizes the expected score:")
spread = DiscreteDistribution([0.0, 6.0], [0.5, 0.5])
fv = functional_value(huber_loss(1.0), spread)
print(f"  huber nu=1 of a 50/50 mass on 0 and 6: [{fv.lower:g}, {fv.upper:g}]")

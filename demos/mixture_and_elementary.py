"""Every score here is a mixture of elementary threshold scores.

Run: python demos/mixture_and_elementary.py
"""

import numpy as np

from veriscore import (
    TrapezoidalWeight,
    elementary_score,
    huber_loss,
    quantile_score,
    score,
    squared_error,
    verify_mixture,
)

print("The elementary score charges only when the threshold separates")
print("forecast from observation (on [min, max), left endpoint included):")
for theta in (7.0, 8.0, 10.0, 12.0, 13.0):
    v = elementary_score("expectile", theta, 12.0, 8.0, alpha=0.5)
    print(f"  theta = {theta:>4}: {v}")

print()
print("Integrating elementary scores against the generator's mixing")
print("density reproduces the score itself.")
for label, spec, x, y in [
    ("pinball(0.25)(2, 5) ", quantile_score(0.25), 2.0, 5.0),
    ("squared error(12, 8)", squared_error(), 12.0, 8.0),
    ("huber(nu=1)(3, 0)   ", huber_loss(1.0), 3.0, 0.0),
]:
    c = verify_mixture(spec, x, y)
    print(f"  {label}: direct {c.direct:>5}, mixture {c.mixture:>18.15f},"
          f" residual {c.residual:.1e}")
print("The built-in generators have polynomial densities, so Gauss-Kronrod")
print("panels cut at the kinks integrate them exactly and residuals are zero.")

print()
print("The same identity holds for a region component: multiply the")
print("mixing density by the region weight.")
w = TrapezoidalWeight(-1.0, 0.0, 2.0, 4.0)
rng = np.random.default_rng(2)
worst = 0.0
for _ in range(200):
    x = float(rng.uniform(-5, 7))
    y = float(rng.uniform(-5, 7))
    c = verify_mixture(squared_error(), x, y, weight=w)
    worst = max(worst, c.residual / max(1.0, abs(c.direct)))
print(f"  200 random weighted checks, worst relative residual: {worst:.2e}")

print()
print("This mixture view is what makes Murphy curves meaningful: a curve")
print(f"is the mean elementary score as a function of theta, e.g.")
x = np.array([12.0, 8.0, 15.0])
y = np.array([8.0, 12.0, 20.0])
print(f"  at theta=10: {elementary_score('expectile', 10.0, x, y, alpha=0.5).mean():.3f}"
      f" over {x.size} cases; see murphy_diagrams.py.")

"""Murphy curves: which thresholds favor which forecast system.

Run: python demos/murphy_diagrams.py
Writes demo_output/murphy.csv and demo_output/murphy.json.
"""

import os

import numpy as np

from veriscore import (
    murphy_area,
    murphy_curve,
    score,
    squared_error,
    write_murphy_csv,
    write_murphy_meta,
)

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

rng = np.random.default_rng(7)
n = 4000
y = rng.normal(10.0, 6.0, n)

# system L is accurate for low outcomes and sloppy above 12;
# system H is the mirror image
noise_l = np.where(y > 12.0, 4.0, 1.0) * rng.standard_normal(n)
noise_h = np.where(y > 12.0, 1.0, 4.0) * rng.standard_normal(n)
sys_l = y + noise_l
sys_h = y + noise_h

curve = murphy_curve(
    {"low_skill_high": (sys_l, y), "high_skill_high": (sys_h, y)},
    "expectile",
    alpha=0.5,
    grid=(-12.0, 32.0, 2201),
)
write_murphy_csv(curve, os.path.join(OUT, "murphy.csv"))
write_murphy_meta(curve, os.path.join(OUT, "murphy.json"))

print("Mean elementary score by threshold region (lower is better):")
for lo, hi in [(-12.0, 6.0), (6.0, 12.0), (12.0, 18.0), (18.0, 32.0)]:
    sel = (curve.thresholds >= lo) & (curve.thresholds < hi)
    a = curve.mean_for("low_skill_high")[sel].mean()
    b = curve.mean_for("high_skill_high")[sel].mean()
    lead = "L" if a < b else "H"
    print(f"  theta in [{lo:>5}, {hi:>5}): L {a:.3f}  H {b:.3f}  -> {lead} leads")
print("Neither system dominates: the curves cross near 12, exactly where")
print("their error structures swap.")

print()
print("Integrating a curve against a mixing density recovers a mean score.")
spec = squared_error()
areas = murphy_area(curve, density=spec.generator.density)
for i, name in enumerate(curve.names):
    x = {"low_skill_high": sys_l, "high_skill_high": sys_h}[name]
    direct = float(np.mean(score(spec, x, y)))
    print(f"  {name}: area {areas[i]:.3f} vs mean squared error {direct:.3f}")
print(f"Wrote {OUT}/murphy.csv and {OUT}/murphy.json;")
print("plot theta against the *_mean columns to see the crossing.")

"""Map toll prices to equilibrium patterns, low and high DWPT share.

For a given scenario the toll axis splits into half-open bands: every
price inside a band produces the same qualitative equilibrium pattern.
With few DWPT vehicles there are three bands; past a 50% share the
mixed band splits by which link carries more traffic.  Every edge is
the closed-form toll at which a given DWPT mass on the ERS link is in
equilibrium, so no edge needs the solver.
"""

import math
from dataclasses import replace

import numpy as np

from erstoll.analysis import classify, metrics, toll_bands
from erstoll.equilibrium import solve
from erstoll.harness import apply_overrides, table1_scenario
from erstoll.model import FixedToll


def show_bands(scenario, title):
    print(title)
    for band in toll_bands(scenario):
        hi = f"{band.c_high:9.3f}" if math.isfinite(band.c_high) else "      inf"
        print(f"  {band.pattern.value:<8} [{band.c_low:9.3f}, {hi})")
    print()


base = table1_scenario()
show_bands(base, "20% DWPT share")

# the 20% edges are just the indifference prices of the SoC extremes:
# voe*(1/s - 1) at s = 0.9 and s = 0.1
voe, s_lo, s_hi = base.prefs.voe, base.soc.s_lo, base.soc.s_hi
print(f"  closed forms: voe*(1/{s_hi} - 1) = {voe * (1 / s_hi - 1):.3f}, "
      f"voe*(1/{s_lo} - 1) = {voe * (1 / s_lo - 1):.3f}")
print()

high = apply_overrides(base, {"dwpt_ratio": 0.6})
show_bands(high, "60% DWPT share")

# sweep the toll through the 60% bands and watch the equilibrium walk
# from a DWPT-crowded corner, through the balanced interior, and out to
# the empty-lane corner; revenue is not monotone in the price
print("price sweep at 60% share")
print(f"{'price':>7} {'pattern':>8} {'x1_d':>8} {'x1_o':>8} {'t1':>7} {'t2':>7} {'tcv':>8} {'revenue':>10}")
for price in np.linspace(0.0, 1100.0, 12):
    cell = replace(high, toll=FixedToll(float(price)))
    result, _ = solve(cell)
    label = classify(cell, result)
    m = metrics(cell, result)
    print(
        f"{price:>7.0f} {label.value:>8} {result.x1_d:>8.2f} {result.x1_o:>8.2f}"
        f" {result.t1:>7.3f} {result.t2:>7.3f} {m.tcv:>8.1f} {m.revenue:>10.1f}"
    )

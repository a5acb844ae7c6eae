"""The charging threshold as a function of toll price and charging value.

At equal link times a DWPT vehicle charges iff its SoC is below
s* = voe / (voe + C): the toll price C pushes the threshold down, the
value of charging voe pulls it up, and a free lane (C = 0) makes every
vehicle charge regardless of SoC. The text grid below is the surface
sampled on a coarse mesh.
"""

import numpy as np

from erstoll.harness import fig2_data
from erstoll.model import Preferences, threshold_soc

prefs = Preferences(vot=50.0, voe=100.0)
prices = [float(p) for p in np.linspace(0.0, 500.0, 11)]
voes = [float(v) for v in np.linspace(50.0, 300.0, 6)]

grid = fig2_data(prices, voes)
surface = {(voe, price): s for voe, price, s in grid}

print("threshold SoC at equal link times (rows: voe, columns: toll price)")
print(f"{'voe':>6} " + " ".join(f"{p:>6.0f}" for p in prices))
for voe in voes:
    cells = " ".join(f"{surface[(voe, p)]:>6.3f}" for p in prices)
    print(f"{voe:>6.0f} {cells}")
print()

# the closed form only bends when the links are not equally fast: a
# slower electrified link eats into the charging gain like an extra toll
print("same threshold with the electrified link 2 minutes slower")
for price in (0.0, 100.0, 300.0):
    flat = threshold_soc(prefs, price, 10.0, 10.0)
    slow = threshold_soc(prefs, price, 12.0, 10.0)
    print(f"  C = {price:>5.0f}: equal times {flat:.4f}, slower link {slow:.4f}")
print()

# C = 0 with a no-slower link is the all-charge sentinel: the threshold
# reports 1.0 because every SoC in (0,1) is below it
print(f"free and no slower: s* = {threshold_soc(prefs, 0.0, 10.0, 10.0)}")
print(f"free but 2 min slower: s* = {threshold_soc(prefs, 0.0, 12.0, 10.0):.4f}")

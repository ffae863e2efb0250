#!/usr/bin/env python3
"""Tour of the seeded Monte Carlo experiments: empirical frequencies against
their closed-form floors and ceilings, at desk scale.

Run: python3 demos/monte_carlo_tour.py   (a few seconds)
"""

import time

from presdim import mc_clique_number, mc_diameter2, mc_planted, mc_theorem2

start = time.time()

print("1. Almost every dense random graph has diameter 2")
res = mc_diameter2(40, 0.5, trials=1000, seed=101)
print(f"   empirical {res.empirical:.4f} vs floor {res.bound:.4f} "
      f"({res.trials} trials)")

print()
print("2. The clique number of G(64, 1/2) stays below 16")
res = mc_clique_number(64, trials=100, seed=102)
print(f"   empirical frequency {res.empirical} vs first-moment ceiling "
      f"{res.bound:.2e}; largest clique seen: {res.extras['max_clique_number']}")

print()
print("3. Typical graphs meet the clique-partition dimension floor")
res = mc_theorem2(82, 1.0, trials=150, seed=103)
print(f"   fraction meeting {res.extras['formula_value']:.4f}: "
      f"{res.empirical:.4f} (floor {res.bound:.6f}, regime n>=82: "
      f"{res.extras['in_regime']})")

print()
print("4. Clustered graphs: with cross-cluster noise every vertex keeps a")
print("   distinct closed neighborhood, forcing the recoverability floor")
res = mc_planted(60, 6, p=1.0, q=0.3, alpha=1.5, trials=300, seed=104)
print(f"   all-classes-distinct frequency {res.empirical:.4f} "
      f"(clamped floor {res.bound}); diameter<=2 frequency "
      f"{res.extras['frac_diameter_le_2']:.4f}")
print(f"   recoverability dimension floor at level 1.5: "
      f"{res.extras['planted_recovery_formula']:.4f}")

print()
print("5. Without noise (q=0) the clusters separate and the floor vanishes")
res = mc_planted(60, 6, p=1.0, q=0.0, alpha=1.5, trials=50, seed=105)
print(f"   all-classes-distinct frequency {res.empirical:.4f}; "
      f"mean clique number {res.extras['mean_clique_number']:.1f} "
      f"(= block size)")

print()
print(f"total wall time: {time.time() - start:.1f}s")

"""
A tour of the rank test battery
===============================

The study never compares variants with t-tests: replicate-level error
metrics are skewed and can differ in spread as much as in location. The
battery pairs two location tests with three dispersion tests and a
rank-based fallback that stays valid when variances differ.
"""

import numpy as np

from bcfsim.ranktests import (
    fligner_policello, kruskal_wallis, levene_family, mann_whitney_u,
    select_and_run,
)

rng = np.random.default_rng(2)

# A clean location shift: both location tests see it, the dispersion tests
# (correctly) do not.
x = rng.normal(0.0, 1.0, 40)
y = rng.normal(0.8, 1.0, 40)
print("location shift, equal spread:")
print(f"  mann-whitney    p={mann_whitney_u(x, y).p:.4f}")
print(f"  kruskal-wallis  p={kruskal_wallis([x, y]).p:.4f}")
print(f"  levene          p={levene_family(x, y, center='mean').p:.4f}")
print(f"  brown-forsythe  p={levene_family(x, y, center='median').p:.4f}")

# Same medians, very different spreads: the classic trap for location
# tests, whose size breaks when dispersion differs between groups.
x = rng.normal(0.0, 0.3, 40)
y = rng.normal(0.0, 2.5, 40)
print("equal medians, unequal spread:")
print(f"  levene          p={levene_family(x, y, center='mean').p:.2g}")
print(f"  fligner-policello p={fligner_policello(x, y).p:.4f}")

# select_and_run packages the decision rule used for the study tables:
# if the spreads differ (Levene p < 0.05), only the Fligner-Policello
# result is reported; otherwise Mann-Whitney and Kruskal-Wallis are.
report = select_and_run(x, y)
print(f"gate for equal-median/unequal-spread data: "
      f"selected={'+'.join(report.selected)}")

x = rng.normal(0.0, 1.0, 40)
y = rng.normal(0.4, 1.0, 40)
report = select_and_run(x, y)
print(f"gate for shifted/equal-spread data:        "
      f"selected={'+'.join(report.selected)}")

# Tiny exact case: with 3 observations per group and complete separation,
# the two-sided exact p-value is 2 / C(6, 3) = 0.1.
result = mann_whitney_u(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
print(f"exact separated triples: U={result.stat}, p={result.p}")

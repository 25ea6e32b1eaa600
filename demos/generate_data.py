"""
Synthetic draws and their geometry
==================================

Every draw couples a nonlinear prognostic surface with a treatment effect
that depends on the first two covariates and a treatment assignment whose
dependence on the prognostic level is tunable. This script builds one draw
per selection strength and shows the quantities the study pivots on.
"""

import numpy as np

from bcfsim.dgp import DgpSpec, Selection, baseline, generate, signal_ratio
from bcfsim.harness import write_dataset

# A draw is fully determined by (selection, alpha, n) plus one seed.
# alpha divides the treatment effect, so larger alpha means the prognostic
# signal dominates and effect estimation gets harder.
for selection in Selection:
    spec = DgpSpec(selection, alpha=4.0, n=250)
    data = generate(spec, seed=20260819)
    treated = data.D == 1
    print(f"{selection.value:9s}"
          f"  treated {treated.mean():.2f}"
          f"  sd(b) {baseline(data.X).std():.3f}"
          f"  ate {data.ate_true:.4f}"
          f"  corr(pi, b) {np.corrcoef(data.pi_true, baseline(data.X))[0, 1]:.2f}")

# The selection strengths differ only in how strongly the treatment
# probability tracks the prognostic level: under "extreme" the sickest units
# are the most likely to be treated, under "slight" assignment is nearly
# independent of b, which is what the corr(pi, b) column shows.

# How outgunned is the effect? The ratio of mean absolute baseline signal to
# mean absolute effect is around 3, 6 and 12 for alpha = 1, 2, 4.
for alpha in (1.0, 2.0, 4.0):
    ratio = signal_ratio(DgpSpec(Selection.EXTREME, alpha), 50_000, seed=7)
    print(f"alpha={alpha:g}: baseline/effect magnitude ratio {ratio:.1f}")

# Draws can be dumped for external tools; the CSV carries the ground truth
# columns (pi_true, cate_true) alongside the observables.
out = "demo_draw_extreme.csv"
write_dataset(generate(DgpSpec(Selection.EXTREME, 4.0, n=250), seed=20260819),
              out)
print(f"wrote {out}")

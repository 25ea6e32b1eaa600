"""
Fitting one causal forest
=========================

A single end-to-end fit: draw a dataset under extreme selection, estimate
the propensity internally, and read effect summaries off the posterior.
Runs in a few seconds.
"""

import numpy as np

from bcfsim.bcf import ate_posterior, cate_intervals, fit_bcf
from bcfsim.dgp import DgpSpec, Selection, generate
from bcfsim.harness import ExperimentConfig

spec = DgpSpec(Selection.EXTREME, alpha=4.0, n=250)
data = generate(spec, seed=31)

# The default forests mirror the study (200 prognostic trees, 50 effect
# trees); only the chains are shorter than the study's 2,000 iterations,
# to keep the demo snappy.
config = ExperimentConfig(iterations=200, burn_in=100).bcf_config()

fit = fit_bcf(data.X, data.D, data.Y, "estimated_propensity",
              config=config, seed=41)
print(f"fit took {fit.fit_seconds:.1f}s, "
      f"{fit.tau_draws.shape[0]} retained draws")

# Internal propensity estimate vs the (normally unknowable) truth.
rmse_pi = np.sqrt(np.mean((fit.pi_used - data.pi_true) ** 2))
print(f"propensity rmse {rmse_pi:.3f}")

# Average effect: posterior mean and an equal-tailed 95% interval.
ate = ate_posterior(fit, level=0.95)
print(f"ate {ate['mean']:.3f} [{ate['lower']:.3f}, {ate['upper']:.3f}] "
      f"(truth {data.ate_true:.3f})")

# Unit-level effects with pointwise intervals.
ci = cate_intervals(fit, level=0.95)
rmse = np.sqrt(np.mean((ci["mean"] - data.cate_true) ** 2))
cover = np.mean((ci["lower"] <= data.cate_true)
                & (data.cate_true <= ci["upper"]))
print(f"cate rmse {rmse:.3f}, interval coverage {cover:.2f}")

# The effect grows in x1 + x2 by construction; the posterior mean should
# recover that gradient.
lo = data.X[:, 0] + data.X[:, 1] < 0.8
hi = data.X[:, 0] + data.X[:, 1] > 1.2
print(f"mean effect, low x1+x2 group:  est {ci['mean'][lo].mean():.3f}  "
      f"true {data.cate_true[lo].mean():.3f}")
print(f"mean effect, high x1+x2 group: est {ci['mean'][hi].mean():.3f}  "
      f"true {data.cate_true[hi].mean():.3f}")

"""Bayesian Causal Forest simulation study toolkit.

Synthetic data generators with controlled confounding strength, a
from-scratch BART backfitting sampler, the BCF treatment effect model with
three propensity-handling variants, replication metrics, rank-based
hypothesis tests, and the experiment harness tying them together.
"""

__version__ = "0.1.0"

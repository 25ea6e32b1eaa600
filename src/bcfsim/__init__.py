"""Bayesian Causal Forest simulation study toolkit.

Synthetic data generators with controlled confounding strength, a
from-scratch BART backfitting sampler, the BCF treatment effect model with
three propensity-handling variants, replication metrics, rank-based
hypothesis tests, and the experiment harness tying them together.
"""

from .dgp import (
    Selection, DgpSpec, Dataset, baseline, propensity, cate, beta_cdf_2_4,
    generate, signal_ratio,
)
from .metrics import (
    pointwise_errors, interval_metrics, ReplicateRecord, RECORD_FIELDS,
    METRIC_FIELDS,
)
from .ranktests import (
    TestResult, TestReport, mann_whitney_u, kruskal_wallis, levene_family,
    fligner_policello, select_and_run,
)
from .bart import (
    HalfCauchy, HalfNormal, FixedScale, SigmaPrior, FixedSigma, ForestPrior,
    ChainConfig, BartPosterior, ForestSampler, fit_continuous,
    fit_binary_probit,
)
from .bcf import (
    PropensityMode, BcfConfig, BcfFit, build_design, fit_bcf,
    cate_intervals, ate_posterior,
)
from .harness import (
    ExperimentConfig, CellValues, SummaryTable, PValueTable, derive_seed,
    dataset_digest, evaluate_fit, run_experiment, cell_values, summarize,
    compare_models, timing_report, report_from, apply_profile,
    load_config_file, read_replicates_csv,
)

__version__ = "0.1.0"

"""Command line entry point: run studies, rebuild reports, dump datasets."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .dgp import DgpSpec, Selection, generate
from .harness import (
    ExperimentConfig, apply_profile, load_config_file, report_from,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcfsim",
        description="Simulation study of propensity handling in Bayesian "
                    "Causal Forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run the replication grid and write all artifacts")
    run_p.add_argument("--config", metavar="FILE",
                       help="flat key=value config file (defaults apply "
                            "when omitted)")
    run_p.add_argument("--profile", choices=("quick", "full"),
                       help="quick: 20 replicates, 500 retained draws; "
                            "full: leave the configuration as-is")
    run_p.add_argument("--out", required=True, metavar="DIR",
                       help="output directory")
    run_p.add_argument("--seed", type=int, metavar="N",
                       help="master seed (overrides the config file)")
    run_p.add_argument("--resume", action="store_true",
                       help="reuse completed per-cell artifacts in --out")

    report_p = sub.add_parser(
        "report", help="rebuild summaries, p-values and plots from a run")
    report_p.add_argument("--from", dest="from_dir", required=True,
                          metavar="DIR", help="existing run directory")

    gen_p = sub.add_parser(
        "generate", help="write one synthetic dataset as CSV")
    gen_p.add_argument("--dgp", required=True,
                       choices=[s.value for s in Selection],
                       help="selection strength")
    gen_p.add_argument("--alpha", required=True, type=float,
                       help="effect scale divisor")
    gen_p.add_argument("--n", type=int, default=250, help="sample size")
    gen_p.add_argument("--seed", required=True, type=int, help="RNG seed")
    gen_p.add_argument("--out", required=True, metavar="FILE",
                       help="destination CSV path")
    return parser


def _cmd_run(args) -> int:
    if args.config is not None:
        config = load_config_file(args.config)
    else:
        config = ExperimentConfig()
    if args.profile is not None:
        config = apply_profile(config, args.profile)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)

    def progress(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    records = run_experiment(config, args.out, resume=args.resume,
                             progress=progress)
    print(f"wrote {len(records)} replicate records and reports to {args.out}")
    return 0


def _cmd_report(args) -> int:
    records = report_from(args.from_dir)
    print(f"rebuilt reports for {len(records)} records in {args.from_dir}")
    return 0


def _cmd_generate(args) -> int:
    dataset = generate(DgpSpec(args.dgp, args.alpha, args.n), args.seed)
    dataset.to_csv(args.out)
    print(f"wrote {args.n} rows ({args.dgp}, alpha={args.alpha:g}, "
          f"seed={args.seed}) to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "report": _cmd_report,
                "generate": _cmd_generate}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

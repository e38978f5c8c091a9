"""Command-line front end: run simulated measurement campaigns, evaluate
the port-guessing success oracle, and analyze result files."""

from __future__ import annotations

import argparse
import json
import sys

import yaml

from . import analysis, campaign
from .strategies import BirthdayPlan, BirthdayScenario, birthday_probability

EXIT_OK = 0
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def _load_config(path: str) -> campaign.CampaignConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML/JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping")
    try:
        return campaign.config_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if args.trials <= 0:
        raise ConfigError("--trials must be positive")
    records = campaign.run_campaign(config, n_trials=args.trials,
                                    seed=args.seed, workers=args.workers)
    campaign.export_results(records, args.out, seed=args.seed, config=config)
    print(f"wrote {len(records)} records to {args.out}")
    if args.report:
        report = campaign.aggregate(records, seed=args.seed,
                                    config_hash=campaign.config_hash(config))
        campaign.export_report(report, args.report)
        rate = "n/a" if report.success_rate is None else f"{report.success_rate:.4f}"
        print(f"wrote report to {args.report} (success rate {rate} "
              f"over {report.n_filtered} filtered records)")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.m <= 0 or args.k <= 0 or args.space <= 0:
        raise ConfigError("--m, --k, and --space must be positive")
    if args.m + args.k > args.space:
        raise ConfigError("--m plus --k cannot exceed the port space")
    plan = BirthdayPlan(m_open=args.m, k_probe=args.k, port_space=args.space,
                        scenario=BirthdayScenario(args.scenario))
    prob = birthday_probability(plan)
    print(json.dumps({"m": args.m, "k": args.k, "port_space": args.space,
                      "scenario": args.scenario, "probability": prob}))
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        records, _meta = campaign.load_results(args.infile)
    except OSError as exc:
        raise ConfigError(f"cannot read input file: {exc}") from exc
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"input file is not a results file: {exc}") from exc
    if args.min_per_client < 0:
        raise ConfigError("--min-per-client must be non-negative")
    if not 0.0 < args.bin_width <= 1.0:
        raise ConfigError("--bin-width must be in (0, 1]")
    try:
        report = analysis.analyze(records, min_per_client=args.min_per_client,
                                  bin_width=args.bin_width)
    except analysis.MalformedRecord as exc:
        raise ConfigError(str(exc)) from exc
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"analyzed {report['n_records']} records "
          f"({report['n_networks']} networks); wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="punchsim",
        description="Deterministic NAT hole-punching simulator and analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a measurement campaign")
    sim.add_argument("--config", required=True, help="campaign config (YAML or JSON)")
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="results file (.json or .csv)")
    sim.add_argument("--report", help="also write an aggregate report here")
    sim.add_argument("--workers", type=int, default=1)
    sim.set_defaults(func=_cmd_simulate)

    orc = sub.add_parser("oracle",
                         help="closed-form port-guessing success probability")
    orc.add_argument("--m", type=int, required=True,
                     help="ports opened by the hard-to-predict side")
    orc.add_argument("--k", type=int, required=True,
                     help="ports probed by the other side")
    orc.add_argument("--scenario", required=True,
                     choices=[s.value for s in BirthdayScenario])
    orc.add_argument("--space", type=int, default=65536)
    orc.set_defaults(func=_cmd_oracle)

    ana = sub.add_parser("analyze", help="analyze a results file")
    ana.add_argument("--in", dest="infile", required=True,
                     help="results file (.json or .csv)")
    ana.add_argument("--out", required=True, help="report file (JSON)")
    ana.add_argument("--min-per-client", type=int, default=0)
    ana.add_argument("--bin-width", type=float, default=0.05)
    ana.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

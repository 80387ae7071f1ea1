"""Command-line front end: run scenarios, sweeps, attack batteries, the mask
cancellation check, and transcript replay verification.

Exit codes: 0 success, 2 configuration error or unreadable file, 3 failed
check (a scenario's pass/fail check, or a replay mismatch).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness
from .harness import ConfigError, ScenarioConfig, load_scenario, scenario_from_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERTION = 3


def _load_config(args) -> ScenarioConfig:
    if args.config:
        cfg = load_scenario(args.config)
    else:
        cfg = scenario_from_dict({})
    overrides = {}
    if args.kind is not None:
        overrides["kind"] = args.kind
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.out:
        overrides["output_dir"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def cmd_run(args) -> int:
    """Run the scenario (or the subcommand's kind), print it, apply its check."""
    cfg = _load_config(args)
    report = harness.run_scenario(cfg)
    print(report.to_csv(), end="")
    for key, value in report.summary.items():
        print(f"# {key}: {value}")
    failure = harness.SCENARIOS[cfg.kind].check(report)
    if failure:
        print(f"# FAIL: {failure}")
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_replay(args) -> int:
    """Re-execute a recorded protocol round and verify byte-identity."""
    cfg = _load_config(args)
    with open(args.transcript, encoding="utf-8") as fh:
        recorded = fh.read().rstrip("\n")
    _, transcript = harness.secagg_round(cfg, cfg.seeds[0])
    if transcript.to_jsonl() != recorded:
        print("replay mismatch: transcript does not reproduce byte-for-byte")
        return EXIT_ASSERTION
    print("replay ok: transcript reproduced byte-for-byte")
    return EXIT_OK


def cmd_record(args) -> int:
    """Run one protocol round and write its transcript for later replay."""
    cfg = _load_config(args)
    _, transcript = harness.secagg_round(cfg, cfg.seeds[0])
    with open(args.transcript, "w", encoding="utf-8") as fh:
        fh.write(transcript.to_jsonl() + "\n")
    print(f"wrote transcript ({len(transcript.messages)} messages) to {args.transcript}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedmask", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, func, kind=None, transcript=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="path to a JSON scenario config")
        p.add_argument("--seed", type=int, help="override the seed battery with one seed")
        p.add_argument("--out", help="output directory for reports")
        if transcript:
            p.add_argument("--transcript", required=True, help="transcript JSONL path")
        p.set_defaults(func=func, kind=kind)

    command("run", "run the scenario in the config file", cmd_run)
    for kind, scenario in harness.SCENARIOS.items():
        if scenario.alias:
            command(scenario.alias, f"run with the config's kind set to {kind}", cmd_run, kind)
    command("replay", "verify a recorded transcript", cmd_replay, "secagg_run", transcript=True)
    command("record", "record a protocol transcript", cmd_record, "secagg_run", transcript=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # an undecodable transcript is an unreadable file, as a missing one is
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

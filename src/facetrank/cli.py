"""Command-line entry point: one subcommand per stage plus `pipeline`."""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import STAGES, load_config, run_pipeline, run_stage


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--dataset", required=True, help="dataset .jsonl")
    parser.add_argument("--corpus", required=True, help="corpus .jsonl")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--k", type=int)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--aspect-mode", choices=["gold", "predicted"])
    parser.add_argument("--allow-repetition", action="store_const", const=True)
    parser.add_argument("--ablation", choices=["none", "no-sa", "random-pairs"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facetrank",
        description="Multi-faceted retrieval and coverage-aware ranking pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in (*STAGES, "pipeline"):
        _add_common(sub.add_parser(stage))
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command, config_path, dataset, corpus, out_dir = (
        args.pop(name) for name in ("command", "config", "dataset", "corpus", "out"))
    config = load_config(config_path, **args)  # every other argument is an override
    if command == "pipeline":
        report = run_pipeline(config, dataset, corpus, out_dir)
        out = {"config_fingerprint": report["config_fingerprint"],
               "num_queries": report["num_queries"],
               "means": report["means"]}
    else:
        stats = run_stage(command, config, dataset, corpus, out_dir)
        out = {k: v for k, v in stats.items() if k != "report"}
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

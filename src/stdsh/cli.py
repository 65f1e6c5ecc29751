"""Command line front end: train, eval, report.

Scenario arguments accept a built-in id (1..5) or a path to a config
file. Ablations name the components to disable during training:

    hg    skip the hypergraph entirely (flat shared critic)
    dsha  replace both attention stages with uniform averaging
    she   drop the spatial hyperedges
    the   drop the temporal hyperedges
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

from .experiment import CONTROLLERS, report, run_experiment
from .sim import ConfigError
from .trainer import TrainConfig, TrainingStopped, train_run

ABLATIONS = {"hg": "use_hypergraph", "dsha": "use_dsha",
             "she": "use_spatial", "the": "use_temporal"}


def _scenario_arg(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    path = Path(text)
    if not path.exists():
        raise argparse.ArgumentTypeError(
            f"scenario must be an id (1..5) or an existing config file, got {text!r}")
    return path


def _seed_arg(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _ablation_arg(text: str) -> dict:
    flags = {}
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if part not in ABLATIONS:
            raise argparse.ArgumentTypeError(
                f"unknown ablation {part!r}, expected any of {sorted(ABLATIONS)}")
        flags[ABLATIONS[part]] = False
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stdsh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a corridor policy")
    p_train.add_argument("--scenario", type=_scenario_arg, required=True)
    p_train.add_argument("--ablation", type=_ablation_arg, default={},
                         help="comma list of components to disable "
                              "(hg,dsha,she,the)")
    p_train.add_argument("--seed", type=_seed_arg, default=0)
    p_train.add_argument("--out", type=Path, required=True)
    p_train.add_argument("--episodes", type=int, default=200)

    p_eval = sub.add_parser("eval", help="run one evaluation cell")
    p_eval.add_argument("--checkpoint", type=Path, default=None)
    p_eval.add_argument("--scenario", type=_scenario_arg, required=True)
    p_eval.add_argument("--controller", choices=CONTROLLERS, required=True)
    p_eval.add_argument("--seed", type=_seed_arg, default=0)
    p_eval.add_argument("--horizon", type=int, default=1800)
    p_eval.add_argument("--out", type=Path, default=None,
                        help="directory for metrics/heatmap/summary CSVs")
    for p in (p_train, p_eval):
        p.add_argument("--profile", action="store_true",
                       help="write a cProfile top-30 by cumulative time to "
                            "profile.txt in --out (timings vary run to run); "
                            "critic updates that train runs in its worker "
                            "process show up as the wait for it")

    p_report = sub.add_parser("report", help="aggregate summary.csv")
    p_report.add_argument("--in", dest="in_dir", type=Path, required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not getattr(args, "profile", False):
            return _dispatch(args)
        if args.out is None:
            raise ValueError("--profile needs --out: profile.txt is written there")
        profiler = cProfile.Profile()
        code = profiler.runcall(_dispatch, args)
    except (ValueError, OSError, ConfigError, TrainingStopped) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.out / "profile.txt", "w") as fh:
        pstats.Stats(profiler, stream=fh).sort_stats("cumulative").print_stats(30)
    return code


def _dispatch(args) -> int:
    if args.command == "train":
        cfg = TrainConfig(**args.ablation)
        out = train_run(args.scenario, args.seed, args.episodes, cfg, args.out)
        last = out["history"][-1]
        print(f"trained {args.episodes} episodes in {out['wall_s']:.0f}s; "
              f"final mean reward {last['mean_reward']:.1f}; "
              f"checkpoint {out['checkpoint']}")
        return 0
    if args.command == "eval":
        row, _ = run_experiment(args.scenario, args.controller, args.seed,
                                horizon_s=args.horizon,
                                checkpoint=args.checkpoint, out_dir=args.out)
        awt_bus = "-" if row.awt_bus is None else f"{row.awt_bus:.1f}"
        awt_tram = "-" if row.awt_tram is None else f"{row.awt_tram:.1f}"
        print(f"scenario {row.scenario} {row.controller} seed {row.seed}: "
              f"ANP={row.anp:.2f} AQL={row.aql:.2f} "
              f"AWT(bus)={awt_bus} AWT(tram)={awt_tram}")
        return 0
    out = report(args.in_dir)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Evaluation cells: one (scenario, controller, seed) run -> metrics files.

A cell runs a fresh world for the horizon under one controller, then
writes a per-second metrics CSV, a long-format heatmap CSV, and returns
the summary row (ANP, AQL, per-mode AWT). Runs are deterministic given
the seed: identical invocations produce byte-identical files.

Learned controllers replay a trained checkpoint greedily. The `stdsh`
controller expects a checkpoint trained with the hypergraph on; `mappo`
is the hypergraph-off ablation checkpoint. The checkpoint itself is the
source of truth for the network shapes and ablation flags.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import env
from .baselines import FixedTimeController, fixed_time_fswf, random_policy
from .metrics import anp, aql, awt, write_heatmap_csv, write_metrics_csv
from .nets import act
from .sim.world import load_scenario
from .trainer import TrainState, load_checkpoint

CONTROLLERS = ("stdsh", "mappo", "fswf", "random")


@dataclass
class SummaryRow:
    scenario: str
    controller: str
    seed: int
    horizon_s: int
    anp: float
    aql: float
    awt_bus: float | None
    awt_tram: float | None

    def as_csv_row(self) -> list:
        def cell(v):
            return "" if v is None else f"{v:.6f}"
        return [self.scenario, self.controller, self.seed, self.horizon_s,
                f"{self.anp:.6f}", f"{self.aql:.6f}",
                cell(self.awt_bus), cell(self.awt_tram)]


SUMMARY_HEADER = ["scenario", "controller", "seed", "horizon_s",
                  "anp", "aql", "awt_bus", "awt_tram"]


def _scenario_label(scenario) -> str:
    """A scenario id, or a config file's stem; config text and objects are "custom"."""
    if isinstance(scenario, int):
        return str(scenario)
    if isinstance(scenario, (str, Path)) and "\n" not in str(scenario):
        return Path(scenario).stem
    return "custom"


def run_experiment(scenario, controller: str, seed: int, horizon_s: int = 1800,
                   checkpoint=None, out_dir=None,
                   state: TrainState | None = None) -> tuple[SummaryRow, object]:
    """Run one evaluation cell; returns (summary row, MetricsLog)."""
    if controller not in CONTROLLERS:
        raise ValueError(f"controller must be one of {CONTROLLERS}, got {controller!r}")
    if horizon_s <= 0:
        raise ValueError(f"horizon must be > 0 seconds, got {horizon_s}")
    world = load_scenario(scenario, seed)
    if controller in ("stdsh", "mappo"):
        if state is None:
            if checkpoint is None:
                raise ValueError(f"controller {controller!r} needs a checkpoint")
            if not Path(checkpoint).exists():
                raise ValueError(f"checkpoint not found: {checkpoint}")
            state = load_checkpoint(checkpoint)
        if controller == "stdsh" and not state.cfg.use_hypergraph:
            raise ValueError("stdsh controller needs a hypergraph-on checkpoint")
        if controller == "mappo" and state.cfg.use_hypergraph:
            raise ValueError("mappo controller needs a hypergraph-off checkpoint")
        # the greedy actor is per intersection, so only the row width must fit
        width = env.obs_width(len(world.net.lanes_of(0)))
        if state.policy.in_width != width:
            raise ValueError(
                f"checkpoint observation width {state.policy.in_width} does not "
                f"fit scenario observation width {width}")
        decide = _greedy(state.policy)
    elif controller == "fswf":
        decide = FixedTimeController(world, fixed_time_fswf(scenario, seed))
    else:
        decide = _uniform(np.random.default_rng(seed))
    env.drive(world, horizon_s, decide)
    log = world.log
    row = SummaryRow(
        scenario=_scenario_label(scenario), controller=controller, seed=seed,
        horizon_s=horizon_s, anp=anp(log, horizon_s), aql=aql(log),
        awt_bus=awt(log, "bus"), awt_tram=awt(log, "tram"))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{row.scenario}_{controller}_seed{seed}"
        write_metrics_csv(log, out_dir / f"{stem}_metrics.csv")
        write_heatmap_csv(log, out_dir / f"{stem}_heatmap.csv")
        _append_summary(out_dir / "summary.csv", row)
    return row, log


def _greedy(policy):
    def decide(world, due: list[int]) -> list[int]:
        # env.observe is looked up at call time, so a patched one (the
        # benchmark tracer's span) sees every call
        obs = env.observe(world)
        return [act(policy, obs[i], env.action_mask(world.controllers[i].phase),
                    None, greedy=True) for i in due]
    return decide


def _uniform(rng):
    def decide(world, due: list[int]) -> list[int]:
        return [random_policy(env.action_mask(world.controllers[i].phase), rng)
                for i in due]
    return decide


def _append_summary(path: Path, row: SummaryRow) -> None:
    new = not path.exists()
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if new:
            w.writerow(SUMMARY_HEADER)
        w.writerow(row.as_csv_row())


def _float_or_none(text: str) -> float | None:
    return float(text) if text else None


_PARSERS = (str, str, int, int, float, float, _float_or_none, _float_or_none)


def _summary_row(fields: list[str], where: str) -> SummaryRow:
    """One summary.csv record, read field by field in SUMMARY_HEADER order."""
    if len(fields) != len(SUMMARY_HEADER):
        raise ValueError(f"{where}: {len(fields)} fields, expected {len(SUMMARY_HEADER)}")
    values = []
    for name, parse, text in zip(SUMMARY_HEADER, _PARSERS, fields):
        try:
            values.append(parse(text))
        except ValueError:
            raise ValueError(f"{where}, column {name!r}: cannot read {text!r}") from None
    return SummaryRow(*values)


def report(in_dir) -> Path:
    """Aggregate summary.csv into per-(scenario, controller) seed means,
    written to report.csv beside it. A header other than SUMMARY_HEADER or a
    field that does not parse raises ValueError naming the file and line."""
    in_dir = Path(in_dir)
    src = in_dir / "summary.csv"
    if not src.exists():
        raise ValueError(f"no summary.csv under {in_dir}")
    groups: dict[tuple, list[SummaryRow]] = {}
    with open(src, newline="") as fh:
        records = csv.reader(fh)
        head = next(records, [])
        if head != SUMMARY_HEADER:
            missing = [c for c in SUMMARY_HEADER if c not in head]
            raise ValueError(f"{src} line 1: header must be {','.join(SUMMARY_HEADER)}"
                             + (f"; column {missing[0]!r} is missing" if missing else ""))
        for rec in records:
            if rec:
                row = _summary_row(rec, f"{src} line {records.line_num}")
                groups.setdefault((row.scenario, row.controller), []).append(row)
    out = in_dir / "report.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "controller", "seeds",
                    "anp_mean", "aql_mean", "awt_bus_mean", "awt_tram_mean"])
        for (scenario, controller), rows in sorted(groups.items()):
            def mean_of(vals):
                vals = [v for v in vals if v is not None]
                return f"{sum(vals) / len(vals):.6f}" if vals else ""
            w.writerow([scenario, controller, len(rows),
                        mean_of([r.anp for r in rows]),
                        mean_of([r.aql for r in rows]),
                        mean_of([r.awt_bus for r in rows]),
                        mean_of([r.awt_tram for r in rows])])
    return out

"""The two benchmark workloads: set-up, one closed-loop operation, checks.

    train_hg    scenario 1 (off-peak), hypergraph critic on: encoder, tape
                and Adam do most of the work, the simulator little.
    eval_sweep  scenarios 1-5 x fswf, random, stdsh, mappo at 1800 s: the
                simulator and env run for inference only, plus the CSVs;
                the encoder never runs, so it is the bypass for critic work.

One operation is one `trainer.train_run` call of two episodes, or one
pass over the evaluation grid. Inputs come from the benchmark seed through
fixed pools (training seeds 0..7, evaluation seeds 10000..10007) so that
every operation has pinned reference outputs in references.json.

The program is called through module attributes (`trainer.train_run`,
`experiment.run_experiment`) so that the tracer's patches see the calls.
Import this module only after `src/` is on the path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import stdsh.experiment as experiment
import stdsh.trainer as trainer
from stdsh.sim import resolve_config

from gauge import wall_s

TRAIN_POOL = 8
EVAL_POOL = 8
EVAL_SEED_BASE = 10_000     # held out: training worlds use seeds < 8000
CHECKPOINT_SEED = 0         # learned eval cells replay untrained weights
CONTROLLERS = ("fswf", "random", "stdsh", "mappo")
# Episode 0 is rolled out before any update, so its mean reward must match
# bit for bit. Later episodes follow updates whose arithmetic a change may
# legitimately reorder, which re-samples actions; their mean reward must
# stay within this share of the reference.
REWARD_TOLERANCE = 0.3


@dataclass(frozen=True)
class Sizes:
    horizon_s: int = 1800
    episodes: int = 2
    scenarios: tuple = (1, 2, 3, 4, 5)


FULL = Sizes()
TINY = Sizes(horizon_s=60, episodes=2, scenarios=(1, 3))
WARM_UP_HORIZON_S = 60      # untimed, unchecked pass before timing starts


@dataclass
class OpResult:
    wall_s: float                 # timed wall seconds of the operation
    units: int                    # episodes or cells attempted
    clock_s: float = math.nan     # the same time on the run's clock
    failed: int = 0
    problems: list = field(default_factory=list)
    cells: list = field(default_factory=list)     # (controller, clock s)
    outputs: dict = field(default_factory=dict)   # what references pin


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class TrainWorkload:
    """Closed loop of `train_run` calls, each on the next pooled seed."""

    def __init__(self, name: str, scenario: int, use_hypergraph: bool,
                 sizes: Sizes, refs: dict | None):
        self.name = name
        self.scenario = scenario
        self.use_hypergraph = use_hypergraph
        self.sizes = sizes
        self.refs = refs

    def config(self, horizon_s: int | None = None):
        return trainer.corridor_train_config(
            use_hypergraph=self.use_hypergraph,
            horizon_s=horizon_s or self.sizes.horizon_s)

    def setup(self, work: Path) -> None:
        resolve_config(self.scenario)
        trainer.make_train_state(self.config(), self.scenario, seed=0)

    def warm_up(self, work: Path) -> None:
        trainer.train_run(self.scenario, 0, 1, self.config(WARM_UP_HORIZON_S),
                          work / "warm-up")

    def op_seed(self, seed: int, k: int) -> int:
        return (seed + k) % TRAIN_POOL

    def run_op(self, seed: int, k: int, out: Path, clock=wall_s) -> OpResult:
        """One `train_run`; `clock(t0, t1)` converts its wall interval."""
        episodes = self.sizes.episodes
        train_seed = self.op_seed(seed, k)
        res = OpResult(wall_s=math.nan, units=episodes)
        try:
            run = trainer.train_run(self.scenario, train_seed, episodes,
                                    self.config(), out)
        except Exception as exc:        # counted, and the loop goes on
            res.failed = episodes
            res.problems.append(f"seed {train_seed}: {type(exc).__name__}: {exc}")
            return res
        end = time.perf_counter()
        res.wall_s = run["wall_s"]
        res.clock_s = clock(end - res.wall_s, end)
        history = run["history"]
        rewards = [row["mean_reward"] for row in history]
        res.outputs = {"seed": train_seed, "mean_reward": rewards}
        ref = None
        if self.refs is not None:
            ref = self.refs["seeds"].get(str(train_seed), [])
        for ep in range(episodes):
            row = history[ep] if ep < len(history) else None
            why = self._check_episode(ep, row, ref)
            if why:
                res.failed += 1
                res.problems.append(f"seed {train_seed} episode {ep}: {why}")
        return res

    @staticmethod
    def _check_episode(ep: int, row: dict | None, ref) -> str | None:
        if row is None:
            return "missing from history"
        if row["aborted"]:
            return "update aborted"
        if not _finite(row["mean_reward"], row["actor_loss"],
                       row["critic_loss"], row["entropy"], row["grad_norm"]):
            return f"non-finite statistics {row}"
        if ref is None:
            return None
        if ep >= len(ref):
            return "no reference"
        got, want = row["mean_reward"], ref[ep]
        if ep == 0 and got != want:
            return f"mean reward {got!r} != reference {want!r}"
        if abs(got - want) > REWARD_TOLERANCE * abs(want):
            return f"mean reward {got!r} not within {REWARD_TOLERANCE} of {want!r}"
        return None


class EvalWorkload:
    """Closed loop of passes over scenario x controller cells."""

    name = "eval_sweep"

    def __init__(self, sizes: Sizes, refs: dict | None):
        self.sizes = sizes
        self.refs = refs
        self.checkpoints: dict[str, Path] = {}

    def setup(self, work: Path) -> None:
        for scenario in self.sizes.scenarios:
            resolve_config(scenario)
        for controller, hg in (("stdsh", True), ("mappo", False)):
            cfg = trainer.corridor_train_config(use_hypergraph=hg)
            state = trainer.make_train_state(cfg, self.sizes.scenarios[0],
                                             seed=CHECKPOINT_SEED)
            path = work / f"{controller}.ckpt"
            trainer.save_checkpoint(state, path)
            self.checkpoints[controller] = path

    def warm_up(self, work: Path) -> None:
        for controller in CONTROLLERS:
            experiment.run_experiment(
                self.sizes.scenarios[0], controller, EVAL_SEED_BASE,
                horizon_s=WARM_UP_HORIZON_S,
                checkpoint=self.checkpoints.get(controller),
                out_dir=work / "warm-up")

    def op_seed(self, seed: int, k: int) -> int:
        return EVAL_SEED_BASE + (seed + k) % EVAL_POOL

    def run_op(self, seed: int, k: int, out: Path, clock=wall_s) -> OpResult:
        """One pass over the cells; `clock(t0, t1)` converts each cell's time."""
        eval_seed = self.op_seed(seed, k)
        ref = None
        if self.refs is not None:
            ref = self.refs["seeds"].get(str(eval_seed), {})
        res = OpResult(wall_s=0.0, units=0, clock_s=0.0)
        rows = {}
        cells = [(s, c) for s in self.sizes.scenarios for c in CONTROLLERS]
        for scenario, controller in cells:
            key = f"{scenario}/{controller}"
            res.units += 1
            t0 = time.perf_counter()
            try:
                row, _ = experiment.run_experiment(
                    scenario, controller, eval_seed,
                    horizon_s=self.sizes.horizon_s,
                    checkpoint=self.checkpoints.get(controller), out_dir=out)
            except Exception as exc:    # counted, and the pass goes on
                t1 = time.perf_counter()
                res.wall_s += t1 - t0
                res.clock_s += clock(t0, t1)
                res.failed += 1
                res.problems.append(f"seed {eval_seed} {key}: "
                                    f"{type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            seconds = clock(t0, t1)
            res.wall_s += t1 - t0
            res.clock_s += seconds
            res.cells.append((controller, seconds))
            got = [row.anp, row.aql, row.awt_bus, row.awt_tram]
            rows[key] = got
            if ref is not None and ref.get(key) != got:
                res.failed += 1
                res.problems.append(f"seed {eval_seed} {key}: summary {got} "
                                    f"!= reference {ref.get(key)}")
        res.outputs = {"seed": eval_seed, "rows": rows}
        return res


def make(name: str, sizes: Sizes, refs: dict | None):
    """Build a workload; `refs` is references.json (None skips the checks)."""
    def pick(key):
        if refs is None:
            return None
        ref = refs[key]
        if ref["horizon_s"] != sizes.horizon_s or \
                ref.get("episodes", sizes.episodes) != sizes.episodes:
            raise ValueError(f"references for {key} were made at other sizes")
        return ref

    if name == "train_hg":
        return TrainWorkload(name, 1, True, sizes, pick(name))
    if name == "eval_sweep":
        return EvalWorkload(sizes, pick(name))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train_hg", "eval_sweep")

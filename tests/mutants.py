"""Opt-in mutation check: does the suite notice each of these one-edit bugs?

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

Each mutant is one exact text in one file of src/stdsh, a replacement, and
the tests expected to fail. For each, the script copies src/, tests/,
configs/ and pyproject.toml into a temporary directory, checks that the
old text occurs there exactly once, applies the edit and runs `pytest -x`
on the named tests, then on the whole tier-1 suite if those pass. It
prints KILLED with the first failing test, or SURVIVED, and exits 1 if a
mutant survived or an edit no longer applies. Before the mutants it runs
every named test on the unedited copy, so that a test failing for another
reason cannot pass for a kill.

This is not part of tier-1 (pytest collects only test_*.py here): a killed
mutant costs seconds, a survivor the whole suite.

Equivalent mutants, argued here and not listed:
- swapping W_LOCAL and W_NETWORK in env.compute_rewards changes nothing
  while both weights are 0.5, so no test can tell the two apart;
- a car arrival tested with `self._random() <= p` in place of `<` differs
  only when a uniform draw equals p exactly, which no seed reaches.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str           # under src/stdsh
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # ---- seeded from the hand checks of earlier changes
    Mutant("advantages_ddof1", "trainer.py",
           "std = adv.std()", "std = adv.std(ddof=1)",
           ("tests/test_trainer.py::test_advantages_examples",)),
    Mutant("conservation_checked_with_lt", "sim/world.py",
           "if self.spawned_total != len(ids) + self.exited_total:",
           "if self.spawned_total < len(ids) + self.exited_total:",
           ("tests/test_sim.py::test_drive_catches_broken_conservation",)),
    Mutant("webster_plus_6", "baselines.py",
           "(1.5 * LOST_TIME_S + 5.0)", "(1.5 * LOST_TIME_S + 6.0)",
           ("tests/test_baselines.py::test_webster_cycle_examples",)),
    Mutant("empty_lane_speed_zero", "env.py",
           "speed_sum / np.maximum(veh, 1), freeflow)",
           "speed_sum / np.maximum(veh, 1), 0.0)",
           ("tests/test_env.py",)),
    Mutant("abort_stop_tested_with_gt", "trainer.py",
           "if len(aborted) == MAX_ABORTS_IN_A_ROW:",
           "if len(aborted) > MAX_ABORTS_IN_A_ROW:",
           ("tests/test_trainer.py::test_training_stops_after_repeated_aborts",)),
    Mutant("awt_tram_reads_buses", "experiment.py",
           'awt_tram=awt(log, "tram")', 'awt_tram=awt(log, "bus")',
           ("tests/test_golden.py",)),
    Mutant("critic_norm_check_deleted", "trainer.py",
           "            norm = clip_grad_norm(grads, GRAD_CLIP)\n"
           "            if not np.isfinite(norm):\n"
           '                stats["aborted"] = True\n'
           "                return stats\n"
           '            stats["grad_norm"] = norm\n'
           "            state.opt_critic.step(grads)",
           "            norm = clip_grad_norm(grads, GRAD_CLIP)\n"
           '            stats["grad_norm"] = norm\n'
           "            state.opt_critic.step(grads)",
           ("tests/test_trainer.py::test_aborted_updates_leave_adam_and_weights_untouched",)),
    # the old `done` flag off by one; the flag is gone, so the mutant moves
    # to what it was derived from: where the last window of an agent stops
    Mutant("last_window_stops_a_second_early", "trainer.py",
           "stop[k] = upcoming.get(rows[k][0], len(log))",
           "stop[k] = upcoming.get(rows[k][0], len(log) - 1)",
           ("tests/test_trainer.py::test_rollout_decision_spacing_and_mask_compliance",)),
    Mutant("anp_over_log_length", "metrics.py",
           "return int(log.net_delayed.sum()) / float(horizon)",
           "return int(log.net_delayed.sum()) / float(len(log))",
           ("tests/test_metrics.py::test_anp_simple",)),
    Mutant("report_counts_missing_awt_as_zero", "experiment.py",
           "vals = [v for v in vals if v is not None]",
           "vals = [0.0 if v is None else v for v in vals]",
           ("tests/test_experiment.py::test_report_means_awt_over_the_seeds_that_have_one",)),
    Mutant("first_bus_missed", "sim/world.py",
           "t >= first_s and", "t > first_s and",
           ("tests/test_sim.py::test_bus_and_tram_schedules",)),
    Mutant("reward_averaged_over_one_second_more", "env.py",
           "return -(W_LOCAL * local + W_NETWORK * network) / m",
           "return -(W_LOCAL * local + W_NETWORK * network) / (m + 1)",
           ("tests/test_env.py::test_reward_example",)),
    Mutant("returns_discount_per_decision", "trainer.py",
           "acc = r * (1.0 - decay) / (1.0 - gamma) + decay * acc",
           "acc = r * (1.0 - decay) / (1.0 - gamma) + gamma * acc",
           ("tests/test_trainer.py::test_returns_time_weighted_examples",)),
    Mutant("ppo_surrogate_takes_the_max", "autodiff.py",
           "surrogate = np.minimum(m1, m2).sum()", "surrogate = np.maximum(m1, m2).sum()",
           ("tests/test_trainer.py::test_hand_gradients_match_the_tape",)),
    Mutant("ppo_clip_band_too_wide", "autodiff.py",
           "lo, hi = 1.0 - eps, 1.0 + eps", "lo, hi = 1.0 - eps, 1.0 + 2 * eps",
           ("tests/test_trainer.py::test_hand_gradients_match_the_tape",)),
    Mutant("encoder_softmax_over_the_whole_array", "encoder.py",
           "return e / e.sum(axis=axis, keepdims=True)", "return e / e.sum()",
           ("tests/test_encoder.py::test_encode_window_matches_per_row_encode",)),
    Mutant("encoder_inter_stage_over_windows", "encoder.py",
           "beta = _softmax(np.stack(np.broadcast_arrays(*u)), 0)",
           "beta = _softmax(np.stack(np.broadcast_arrays(*u)), 1)",
           ("tests/test_encoder.py::test_encode_window_matches_per_row_encode",)),
    Mutant("checkpoint_arrays_not_restored", "trainer.py",
           "        arr[...] = named[name]\n", "",
           ("tests/test_trainer.py::test_checkpoint_round_trip_preserves_behavior",)),
    # ---- one per test whose assertions moved off a deleted reader
    Mutant("trace_redrawn_on_every_read", "sim/world.py",
           "        return self.seconds[t]\n", "        return self._arrivals(t)\n",
           ("tests/test_sim.py::test_same_seed_same_trace",)),
    Mutant("stop_line_reached_a_second_late", "sim/world.py",
           "self._schedule(v, entered + self.plan[s][0])",
           "self._schedule(v, entered + self.plan[s][0] + 1)",
           ("tests/test_sim.py::test_moving_vehicle_reaches_stop_line",)),
    Mutant("delay_counts_vehicles_not_passengers", "sim/world.py",
           "occ = self._occupancy[v]", "occ = 1",
           ("tests/test_sim.py::test_queued_vehicle_counts_as_delayed_with_occupancy",)),
    Mutant("discharge_never_decrements_delayed_pax", "sim/world.py",
           "    def _advance_leg(self, v: int) -> None:\n        self._delay(v, False)\n",
           "    def _advance_leg(self, v: int) -> None:\n",
           ("tests/test_sim.py::test_delayed_recount_matches_log",)),
    Mutant("delay_drops_earlier_spells", "sim/world.py",
           "self.waiting[v] += self.t - self.since[v]",
           "self.waiting[v] = self.t - self.since[v]",
           ("tests/test_sim.py::test_bookkeeping_matches_an_independent_recount",)),
    Mutant("schedule_appends_a_vehicle_twice", "sim/world.py",
           "self.calendar.setdefault(t, []).append(v)",
           "self.calendar.setdefault(t, []).extend((v, v))",
           ("tests/test_sim.py::test_bookkeeping_matches_an_independent_recount",)),
    Mutant("drive_calls_decide_when_none", "env.py",
           "if due and decide is not None:", "if due:",
           ("tests/test_sim.py::test_zero_demand_stays_empty",)),
    Mutant("next_decision_read_a_second_late", "trainer.py",
           "upcoming[rows[k][0]] = rows[k][1]", "upcoming[rows[k][0]] = rows[k][1] + 1",
           ("tests/test_trainer.py::test_rollout_time_discount_uses_window_lengths",)),
    Mutant("loaded_state_read_as_a_path", "experiment.py",
           "if not isinstance(state, TrainState):", "if True:",
           ("tests/test_experiment.py::test_checkpoint_file_drives_cell",)),
    # ---- the one-pass green split
    Mutant("green_split_ignores_ratio_order", "baselines.py",
           "for p in sorted(range(N_PHASES), key=lambda p: (-ratios[p], p)):",
           "for p in range(N_PHASES):",
           ("tests/test_baselines.py::test_green_split_caps_dominant_phase_and_redistributes",)),
    Mutant("green_split_drops_the_overflow", "baselines.py",
           "        greens[p] += take\n", "        greens[p] += 0\n",
           ("tests/test_baselines.py::test_green_split_caps_dominant_phase_and_redistributes",)),
)

TIMEOUT_S = 900


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests", "configs"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def pytest(where: Path, args: list[str]) -> tuple[bool, str]:
    """(passed, first failing test or a reason) of one pytest run in `where`."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", *args]
    try:
        done = subprocess.run(cmd, cwd=where, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return False, failed.group(1) if failed else f"pytest exit {done.returncode}"


def run(mutant: Mutant, base: Path) -> str:
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        where = Path(tmp)
        copy_tree(where)
        path = where / "src" / "stdsh" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"NOT APPLIED: the old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new))
        passed, first = pytest(where, list(mutant.tests))
        if passed:
            passed, first = pytest(where, [])
            if not passed:
                return f"KILLED outside the named tests by {first}"
            return "SURVIVED"
        return f"KILLED by {first}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        clean = base / "clean"
        copy_tree(clean)
        named = sorted({t for m in chosen for t in m.tests})
        passed, first = pytest(clean, named)
        if not passed:
            print(f"the unedited tree fails {first}; no mutant can be judged")
            return 2
        shutil.rmtree(clean)
        bad = 0
        for m in chosen:
            t0 = time.perf_counter()
            verdict = run(m, base)
            bad += not verdict.startswith("KILLED")
            print(f"{m.name:40s} {verdict} ({time.perf_counter() - t0:.0f} s)", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

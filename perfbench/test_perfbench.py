"""The benchmark's own tests, on tiny versions of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

run.import_program()

from workloads import (CONTROLLERS, EVAL_POOL, EVAL_SEED_BASE, FULL,  # noqa: E402
                       TINY, TRAIN_POOL, WORKLOADS, make)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((run.HERE / "references.json").read_text())

# Layers the issue says do work on each workload (calls > 0 there).
WORKS_ON = {
    "sim.step": WORKLOADS,
    "env.observe": WORKLOADS,
    "env.snapshot": WORKLOADS,
    "env.reward": ("train_hg",),
    "metrics.window": ("train_hg",),
    "metrics.csv": ("eval_sweep",),
    "hypergraph.build": ("train_hg", "eval_sweep"),
    "encoder.encode": ("train_hg",),
    "autodiff.backward": ("train_hg",),
    "nets.act": WORKLOADS,
    "optim.adam": ("train_hg",),
    "optim.clip": ("train_hg",),
    "trainer.rollout": ("train_hg",),
    "trainer.values": ("train_hg",),
    "trainer.ppo": ("train_hg",),
    "trainer.critic": ("train_hg",),
    "baselines.fswf_plan": ("eval_sweep",),
    "checkpoint.save": WORKLOADS,
    "checkpoint.load": ("eval_sweep",),
}
EXACT = ("sim.step.calls", "trainer.decisions", "autodiff.ops",
         "env.observe.calls")


def tiny(name: str, trace: int, work: Path, seed: int = 3) -> dict:
    work.mkdir(parents=True)
    return run.run_benchmark(make(name, TINY, None), seed, 1, trace, work,
                             reps=1)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    out = {}
    for name in WORKLOADS:
        out[name, 0] = tiny(name, 0, base / f"{name}-0")
        out[name, 1] = tiny(name, 1, base / f"{name}-1")
        out[name, "again"] = tiny(name, 1, base / f"{name}-again")
    return out


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(runs, name):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        metrics = runs[name, trace]["metrics"]
        assert {k: u for k, (_, u, _) in metrics.items()} == _declared(kind)
        for key, (value, _, samples) in metrics.items():
            assert isinstance(value, (int, float)) and value == value, key
            assert samples >= 1
    for key in ("setup_s", "op_s", "peak_rss_mb"):
        assert runs[name, 0]["metrics"][key][0] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_runs_pass_their_checks(runs, name):
    for trace in (0, 1):
        result = runs[name, trace]
        assert result["attempted"] >= 1
        assert result["failed"] == 0, result["problems"]


def test_named_figures_cover_the_issue_metrics(runs):
    assert "episode_s" in runs["train_hg", 0]["named"]
    named = runs["eval_sweep", 0]["named"]
    for controller in CONTROLLERS:
        value, unit, samples = named[f"eval_cell_s.{controller}"]
        assert value > 0 and unit == "s"
        assert samples % len(TINY.scenarios) == 0
    for name in WORKLOADS:
        assert runs[name, 0]["named"]["failed_ratio"][0] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_layers_are_busy_exactly_where_expected(runs, name):
    metrics = runs[name, 1]["metrics"]
    for span, busy_on in WORKS_ON.items():
        calls = metrics[f"{span}.calls"][0]
        if name in busy_on:
            assert calls > 0, span
        else:
            assert calls == 0, span
    read_ratio = metrics["env.snapshot.read_ratio"][0]
    assert (read_ratio > 0) == (name == "train_hg")
    assert runs[name, 1]["not_patched"] == []


def test_encoder_is_idle_on_the_bypass_workload(runs):
    metrics = runs["eval_sweep", 1]["metrics"]
    assert metrics["encoder.encode.calls"][0] == 0
    assert metrics["encoder.encode.s"][0] == 0


def test_backward_time_is_split_by_caller(runs):
    metrics = runs["train_hg", 1]["metrics"]
    split = (metrics["autodiff.backward.s.critic"][0]
             + metrics["autodiff.backward.s.actor"][0])
    assert split == pytest.approx(metrics["autodiff.backward.s"][0])
    assert metrics["autodiff.backward.s.critic"][0] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_counts_repeat(runs, name):
    first, second = runs[name, 1]["metrics"], runs[name, "again"]["metrics"]
    for key in EXACT:
        assert first[key][0] == second[key][0], key
    assert first["trainer.decisions"][0] > 0 or name == "eval_sweep"


def test_self_times_add_up_to_each_root():
    from tracing import Tracer
    t = Tracer()
    with t.span("op", new_op=True):
        with t.span("sim.step"):
            with t.span("env.observe"):
                pass
        with t.span("env.observe"):
            pass
    own = t.self_times()
    assert sum(own) == pytest.approx(t.spans[0][2] - t.spans[0][1])
    assert all(s >= 0 for s in own)
    assert [s[3] for s in t.spans] == [-1, 0, 1, 0]


def test_references_cover_every_pooled_input():
    ref = REFS["train_hg"]
    assert ref["horizon_s"] == FULL.horizon_s
    assert ref["episodes"] == FULL.episodes
    assert sorted(map(int, ref["seeds"])) == list(range(TRAIN_POOL))
    for rewards in ref["seeds"].values():
        assert len(rewards) == FULL.episodes
    ref = REFS["eval_sweep"]
    assert sorted(map(int, ref["seeds"])) == [EVAL_SEED_BASE + k
                                              for k in range(EVAL_POOL)]
    cells = {f"{s}/{c}" for s in FULL.scenarios for c in CONTROLLERS}
    for rows in ref["seeds"].values():
        assert set(rows) == cells


def test_benchmark_json_follows_its_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"]
                                              for m in BENCH["end_to_end"])


def test_a_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_hg",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_gauge_takes_probe_time_out_and_rescales():
    from gauge import REFERENCE_PROBE_S, SpeedGauge
    g = SpeedGauge()
    g.starts = [0.0, 1.0, 2.0, 3.0]
    g.durations = [0.001, 0.002, 0.002, 0.004]
    # two probes inside [0.5, 2.5), median 2 ms: twice as slow as reference
    assert g.reference_s(0.5, 2.5) == pytest.approx(
        (2.0 - 0.004) * REFERENCE_PROBE_S / 0.002)
    # no probe inside: the median of all probes so far
    assert g.reference_s(3.5, 3.6) == pytest.approx(
        0.1 * REFERENCE_PROBE_S / 0.002)


def test_gauge_samples_while_active_and_restores_the_handler():
    from gauge import SpeedGauge
    before = signal.getsignal(signal.SIGALRM)
    with SpeedGauge(interval_s=0.01, calibration=2) as g:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    assert len(g.durations) > 2
    assert 0 < g.reference_s(t0, t1)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_untraced_runs_report_wall_time_beside_reference_time(runs):
    for name in WORKLOADS:
        result = runs[name, 0]
        assert result["named"]["op_wall_s"][0] > 0
        assert result["probe"]["samples"] > 0
        assert len(result["startup_reps_s"]) == 1
        assert result["startup_reps_s"][0] > 0


def test_startups_give_the_cores_back():
    before = os.sched_getaffinity(0)
    times = run.time_startups(2)
    assert len(times) == 2 and all(t > 0 for t in times)
    assert os.sched_getaffinity(0) == before

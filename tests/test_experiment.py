"""Evaluation cells: determinism, file outputs, controller validation."""

import gc
import hashlib
import weakref
from pathlib import Path

import numpy as np
import pytest

from stdsh import env as envmod
from stdsh.baselines import WARMUP_S
from stdsh.experiment import (CONTROLLERS, SUMMARY_HEADER, SummaryRow, report,
                              run_experiment)
import stdsh.sim.world as world_module
from stdsh.sim import ScenarioConfig, SimWorld
from stdsh.trainer import TrainConfig, make_train_state, save_checkpoint

HORIZON = 300
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_state(use_hypergraph: bool, seed=0):
    cfg = TrainConfig(hidden=16, d_model=8, heads=4,
                      use_hypergraph=use_hypergraph)
    return make_train_state(cfg, 1, seed)


def test_controller_and_checkpoint_validation(tmp_path):
    with pytest.raises(ValueError):
        run_experiment(1, "sotl", seed=0)
    with pytest.raises(ValueError):
        run_experiment(1, "stdsh", seed=0)                 # no checkpoint
    with pytest.raises(ValueError):
        run_experiment(1, "stdsh", seed=0, checkpoint=tmp_path / "nope.ckpt")
    # ablation flags must match the requested controller
    with pytest.raises(ValueError):
        run_experiment(1, "stdsh", seed=0, checkpoint=small_state(False))
    with pytest.raises(ValueError):
        run_experiment(1, "mappo", seed=0, checkpoint=small_state(True))


@pytest.mark.parametrize("controller", ["random", "fswf"])
@pytest.mark.parametrize("horizon_s", [0, -5])
def test_bad_horizon_is_rejected_before_any_simulation(monkeypatch, controller,
                                                       horizon_s):
    steps = []
    monkeypatch.setattr(SimWorld, "step", lambda world: steps.append(world.t))
    with pytest.raises(ValueError, match=f"horizon.*{horizon_s}"):
        run_experiment(1, controller, seed=0, horizon_s=horizon_s)
    assert steps == []


NO_TRAM = "[network]\ntram_enabled = false\n"


@pytest.mark.parametrize("use_hypergraph", [True, False])
def test_checkpoint_width_must_fit_the_scenario(use_hypergraph):
    controller = "stdsh" if use_hypergraph else "mappo"
    with pytest.raises(ValueError, match="width 148 .*width 132"):
        run_experiment(NO_TRAM, controller, seed=0, horizon_s=HORIZON,
                       checkpoint=small_state(use_hypergraph))


FOUR = "[network]\nintersections = 4\ntram_stop_intersections = 1,3\n"


@pytest.mark.parametrize("use_hypergraph", [True, False])
def test_checkpoint_runs_on_another_intersection_count(use_hypergraph):
    # the greedy actor is per intersection and the critic never runs here
    controller = "stdsh" if use_hypergraph else "mappo"
    row, _ = run_experiment(FOUR, controller, seed=0, horizon_s=HORIZON,
                            checkpoint=small_state(use_hypergraph))
    assert np.isfinite(row.anp)


def test_random_cell_writes_summary_and_metrics(tmp_path):
    row, log = run_experiment(1, "random", seed=7, horizon_s=HORIZON,
                              out_dir=tmp_path)
    assert row.scenario == "1" and row.controller == "random"
    assert row.horizon_s == HORIZON
    assert row.anp >= 0 and row.aql >= 0
    assert (tmp_path / "1_random_seed7_metrics.csv").exists()
    assert (tmp_path / "1_random_seed7_heatmap.csv").exists()
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(SUMMARY_HEADER)
    assert len(lines) == 2


@pytest.mark.parametrize("scenario", [ScenarioConfig(), "[signal]\ninitial_green_s = 10\n"],
                         ids=["object", "text"])
def test_a_custom_scenario_cell_is_labelled_custom(tmp_path, scenario):
    row, _ = run_experiment(scenario, "fswf", seed=0, horizon_s=10, out_dir=tmp_path)
    assert row.scenario == "custom"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "custom_fswf_seed0_heatmap.csv", "custom_fswf_seed0_metrics.csv", "summary.csv"]
    assert (tmp_path / "summary.csv").read_text().splitlines()[1].startswith("custom,fswf,0,")


def test_cells_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run_experiment(1, "random", seed=3, horizon_s=HORIZON, out_dir=out)
        run_experiment(1, "fswf", seed=3, horizon_s=HORIZON, out_dir=out)
    for name in ("1_random_seed3_metrics.csv", "1_random_seed3_heatmap.csv",
                 "1_fswf_seed3_metrics.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_learned_cells_run_untrained(tmp_path):
    row, _ = run_experiment(1, "stdsh", seed=0, horizon_s=HORIZON,
                            checkpoint=small_state(True))
    assert np.isfinite(row.anp)
    row2, _ = run_experiment(1, "mappo", seed=0, horizon_s=HORIZON,
                             checkpoint=small_state(False))
    assert np.isfinite(row2.anp)


def test_checkpoint_file_drives_cell(tmp_path):
    # a cell given the loaded state writes the bytes the same cell given
    # its saved path writes
    state = small_state(True, seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(state, path)
    for checkpoint, out in ((path, tmp_path / "file"), (state, tmp_path / "state")):
        run_experiment(1, "stdsh", seed=1, horizon_s=HORIZON, checkpoint=checkpoint,
                       out_dir=out)
    for name in ("1_stdsh_seed1_metrics.csv", "1_stdsh_seed1_heatmap.csv", "summary.csv"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "state" / name).read_bytes()


@pytest.mark.parametrize("controller", ("fswf", "random", "stdsh", "mappo"))
def test_every_cell_serves_the_t0_trigger_and_none_past_the_horizon(
        controller, monkeypatch):
    # with no initial green every controller is consulted before the first
    # step; nothing is decided after the last one. The fswf warm-up world
    # runs 300 s too, so the same holds for it.
    served = {}
    apply_signal = SimWorld.apply_signal

    def record(world, i, phase, green):
        served.setdefault(world, []).append((world.t, i))
        apply_signal(world, i, phase, green)

    monkeypatch.setattr(SimWorld, "apply_signal", record)
    state = (small_state(controller == "stdsh")
             if controller in ("stdsh", "mappo") else None)
    run_experiment("[signal]\ninitial_green_s = 0\n", controller, seed=0,
                   horizon_s=300, checkpoint=state)
    assert len(served) == (2 if controller == "fswf" else 1)
    for calls in served.values():
        assert calls[:6] == [(0, i) for i in range(6)]
        assert max(t for t, _ in calls) < 300


@pytest.mark.parametrize("controller", ("stdsh", "mappo"))
def test_greedy_cells_observe_each_decided_second_once(controller, monkeypatch):
    observed, decided = [], []
    observe, apply_signal = envmod.observe, SimWorld.apply_signal
    state = small_state(controller == "stdsh")

    def recorded_observe(world):
        observed.append(world.t)
        return observe(world)

    def record(world, i, phase, green):
        decided.append(world.t)
        apply_signal(world, i, phase, green)

    monkeypatch.setattr(envmod, "observe", recorded_observe)
    monkeypatch.setattr(SimWorld, "apply_signal", record)
    run_experiment("[signal]\ninitial_green_s = 0\n", controller, seed=0,
                   horizon_s=HORIZON, checkpoint=state)
    assert len(decided) > len(set(decided))     # seconds with several decisions
    assert observed == sorted(set(decided))


@pytest.mark.parametrize("scenario, seed, digest", [
    (1, 0, "cf7b06e737c5302f"), (1, 7, "40d4da386214f117"),
    (3, 0, "4bbde384aa8e32fe"), (3, 7, "5007ad3ae365f343")])
def test_every_controller_faces_the_same_arrivals(scenario, seed, digest, monkeypatch):
    # common random numbers: no spawn depends on the world's state, so every
    # cell at one (scenario, seed) spawns the same (second, mode, occupancy,
    # route) sequence and the fswf warm-up spawns its first WARMUP_S seconds
    spawns = {}
    spawn = SimWorld._spawn_vehicle

    def record(world, mode, occupancy, route):
        spawns.setdefault(world, []).append(
            (world.t, mode, occupancy, tuple((link.id, mv) for link, mv in route)))
        return spawn(world, mode, occupancy, route)

    monkeypatch.setattr(SimWorld, "_spawn_vehicle", record)
    states = {"stdsh": make_train_state(TrainConfig(), scenario, seed=0),
              "mappo": make_train_state(TrainConfig(use_hypergraph=False), scenario, seed=0)}
    cells = {}
    for controller in ("fswf", "random", "stdsh", "mappo"):
        spawns.clear()
        _, log = run_experiment(scenario, controller, seed, horizon_s=1800,
                                checkpoint=states.get(controller))
        (world,) = [w for w in spawns if w.log is log]
        cells[controller] = spawns.pop(world)
        if controller == "fswf":
            (warm_up,) = spawns.values()
    fswf = cells["fswf"]
    assert all(cells[c] == fswf for c in ("random", "stdsh", "mappo"))
    assert warm_up == [s for s in fswf if s[0] < WARMUP_S]
    assert {mode for _, mode, _, _ in warm_up} == {"bus", "tram", "car"}
    assert hashlib.sha256(repr(fswf).encode()).hexdigest()[:16] == digest


# scenario 1 but for one demand field only the arrival trace reads
MORE_RIDERS = (CONFIGS / "scenario1.cfg").read_text().replace(
    "car_occupancy_poisson_mean = 0.5", "car_occupancy_poisson_mean = 0.6")


@pytest.mark.parametrize("scenario, seed, horizon_s", [
    (1, 3, 600), (1, 4, 600), (MORE_RIDERS, 3, 600), (1, 3, 200)],
    ids=["same", "another_seed", "one_demand_field", "shorter"])
def test_a_warm_trace_writes_what_a_cold_one_does(tmp_path, scenario, seed, horizon_s):
    # the target fswf cell on scenario 1, seed 3, after a random cell that
    # leaves its trace (or another, or a shorter one) in the cache; only
    # the last trace asked for outlives its worlds
    traces = []

    def cell_bytes(out):
        run_experiment(1, "fswf", seed=3, horizon_s=600, out_dir=out)
        traces.append(weakref.ref(world_module._last_trace))
        return [(out / f"1_fswf_seed3_{kind}.csv").read_bytes()
                for kind in ("metrics", "heatmap")]

    world_module._last_trace = None
    cold = cell_bytes(tmp_path / "cold")
    world_module._last_trace = None
    run_experiment(scenario, "random", seed=seed, horizon_s=horizon_s)
    traces.append(weakref.ref(world_module._last_trace))
    assert cell_bytes(tmp_path / "warm") == cold
    gc.collect()
    assert {ref() for ref in traces} == {None, world_module._last_trace}


def test_a_replay_leaves_the_trace_unchanged():
    world_module._last_trace = None
    run_experiment(1, "fswf", seed=5, horizon_s=600)
    trace = world_module._last_trace
    drawn = [[(mode, occ, tuple(route)) for mode, occ, route in second]
             for second in trace.seconds]
    assert len(drawn) == 600 and any(drawn)
    run_experiment(1, "random", seed=5, horizon_s=600)
    assert world_module._last_trace is trace
    assert trace.seconds == drawn
    assert all(type(route) is tuple for second in trace.seconds for *_, route in second)


def test_report_aggregates_seed_means(tmp_path):
    for seed in (1, 2):
        run_experiment(1, "random", seed=seed, horizon_s=HORIZON,
                       out_dir=tmp_path)
    out = report(tmp_path)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("scenario,controller,seeds")
    rec = lines[1].split(",")
    assert rec[:3] == ["1", "random", "2"]
    rows = [run_experiment(1, "random", seed=s, horizon_s=HORIZON)[0]
            for s in (1, 2)]
    assert abs(float(rec[3]) - np.mean([r.anp for r in rows])) < 1e-6


def test_report_means_awt_over_the_seeds_that_have_one(tmp_path):
    # awt_bus is empty in seed 0, awt_tram in every seed: no bus or tram finished
    (tmp_path / "summary.csv").write_text("\r\n".join([
        ",".join(SUMMARY_HEADER),
        "1,fswf,0,300,1.0,2.0,,",
        "1,fswf,1,300,3.0,4.0,6.0,",
        "1,fswf,2,300,5.0,6.0,9.0,"]) + "\r\n")
    lines = report(tmp_path).read_text().splitlines()
    assert lines[1] == "1,fswf,3,3.000000,4.000000,7.500000,"


def test_report_requires_summary(tmp_path):
    with pytest.raises(ValueError):
        report(tmp_path)


def test_report_rejects_a_header_without_a_column(tmp_path):
    (tmp_path / "summary.csv").write_text(
        "scenario,controller,seed,horizon_s,anp,aql,awt_bus\r\n"
        "1,fswf,0,300,1.0,2.0,3.0\r\n")
    with pytest.raises(ValueError, match=r"summary\.csv line 1: .*column 'awt_tram'"):
        report(tmp_path)


@pytest.mark.parametrize("line, column", [
    ("1,fswf,x,300,1.0,2.0,,", "seed"),
    ("1,fswf,0,300,1.0,much,,", "aql"),
    ("1,fswf,0,300,1.0,2.0,,3.0,4.0", None),
])
def test_report_rejects_a_bad_row_naming_line_and_column(tmp_path, line, column):
    good = "1,fswf,1,300,1.0,2.0,,"
    (tmp_path / "summary.csv").write_text(
        "\r\n".join([",".join(SUMMARY_HEADER), good, line, good]) + "\r\n")
    where = r"summary\.csv line 3" + (f", column '{column}'" if column else ": 9 fields")
    with pytest.raises(ValueError, match=where):
        report(tmp_path)
    assert not (tmp_path / "report.csv").exists()


def test_summary_row_formats_cells():
    row = SummaryRow("1", "fswf", 0, 1800, 1.5, 2.25, None, 3.125)
    cells = row.as_csv_row()
    assert cells[4] == "1.500000"
    assert cells[6] == ""
    assert cells[7] == "3.125000"

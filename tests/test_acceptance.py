"""Acceptance gate: the ten pinned criteria, one printed line each.

Heavy artifacts (trained checkpoints, ablation histories) are cached under
tests/_artifacts, one directory per training, and rebuilt when missing or
stale. Committed there: model.ckpt, training_log.csv and run.json for
stdsh_full and mappo_hg_off (criteria 8 and 10); training_log.csv and
run.json for the four ablation_* entries (criterion 9, which reads only the
history in run.json). run.json holds a fingerprint of the training inputs
and the sha256 of each file a criterion reads; an entry whose files are
missing or altered, or whose fingerprint differs from the one asked for, is
retrained. Delete an entry's run.json to force its rebuild; a full rebuild
with OPENBLAS_NUM_THREADS=1, the arithmetic the committed entries hold,
took 149 s on 2 cores.
"""

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

import oracle as tape
from bandit import run_bandit
from conftest import _openblas_corename, _x86_dispatch_group
from oracle import (Tensor, encode, finite_diff_check, hyperedge_embed, incidence,
                    inter_attention, intra_attention, taped, taped_encoder)
from stdsh.baselines import random_policy
from stdsh.checkpoint import MAGIC as CHECKPOINT_MAGIC
from stdsh.encoder import init_encoder
from stdsh.env import (N_ACTIONS, W_LOCAL, W_NETWORK, action_mask,
                       compute_rewards, decode_action, encode_action)
from stdsh.experiment import run_experiment
from stdsh.metrics import MetricsLog
from stdsh.nets import CriticNet
from stdsh.sim import load_scenario
from stdsh.trainer import TrainConfig, _blas_threads, load_checkpoint, train_run

ARTIFACTS = Path(__file__).parent / "_artifacts"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SCENARIO = 1
TRAIN_SEED = 0
EPISODES = 200                  # canonical full-training budget
ABLATION_UPDATES = 50
EVAL_SEEDS = (100, 101, 102, 103, 104)
HORIZON = 1800


_report_started = False


def report_line(num: int, name: str, ok: bool, detail: str) -> None:
    global _report_started
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict} criterion {num} ({name}): {detail}"
    print(line, flush=True)
    ARTIFACTS.mkdir(exist_ok=True)
    mode = "a" if _report_started else "w"    # fresh file once per session
    _report_started = True
    with open(ARTIFACTS / "acceptance_report.txt", mode) as fh:
        fh.write(line + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def training_fingerprint(episodes: int, cfg) -> dict:
    """Everything a cached training's outputs are a function of."""
    return {"config": dataclasses.asdict(cfg),
            "scenario": SCENARIO,
            "scenario_sha256": _sha256(CONFIGS / f"scenario{SCENARIO}.cfg"),
            "train_seed": TRAIN_SEED,
            "episodes": episodes,
            "checkpoint_magic": CHECKPOINT_MAGIC.decode()}


def provenance() -> dict:
    """Where a training ran and on which arithmetic (BLAS threads, OpenBLAS
    kernel, numpy's x86 dispatch group); recorded for the reader, never
    matched."""
    try:
        rev = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"git_revision": rev, "host": platform.node() or "unknown",
            "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": _blas_threads(),
            "openblas_core": _openblas_corename(), "numpy_dispatch": _x86_dispatch_group()}


def cache_hit(meta: dict, fingerprint: dict, out_dir: Path,
              files: tuple[str, ...]) -> bool:
    """An entry counts only if it is current and every file it names is intact."""
    if meta.get("fingerprint") != fingerprint:
        return False
    recorded = meta.get("files", {})
    for fname in set(files) | set(recorded):
        path = out_dir / fname
        if fname not in recorded or not path.is_file():
            return False
        if _sha256(path) != recorded[fname]:
            return False
    return True


def cached_training(name: str, episodes: int, files: tuple[str, ...] = (),
                    root: Path = ARTIFACTS, **cfg_overrides) -> dict:
    """Train once per artifact name; later runs reload checkpoint + history.

    `files` names the outputs the caller reads besides run.json (the
    checkpoint, for criterion 8); their sha256 hashes go into run.json. The
    entry is retrained when run.json is missing, when its fingerprint differs
    from the one this call asks for, or when a named file is missing or its
    hash differs.
    """
    out_dir = root / name
    meta_path = out_dir / "run.json"
    cfg = TrainConfig(**cfg_overrides)
    fingerprint = training_fingerprint(episodes, cfg)
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if cache_hit(meta, fingerprint, out_dir, files):
            return {"checkpoint": out_dir / "model.ckpt", **meta}
    out = train_run(SCENARIO, TRAIN_SEED, episodes, cfg, out_dir)
    meta = {"fingerprint": fingerprint,
            "files": {f: _sha256(out_dir / f) for f in files},
            "provenance": provenance(),
            "wall_s": out["wall_s"], "episodes": episodes,
            "entropy": [h["entropy"] for h in out["history"]],
            "aborted": [bool(h["aborted"]) for h in out["history"]],
            "mean_reward": [h["mean_reward"] for h in out["history"]]}
    meta_path.write_text(json.dumps(meta))
    return {"checkpoint": out_dir / "model.ckpt", **meta}


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_encoder_normalization():
    """Both attention stages produce exact distributions on random graphs."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    with tape.no_grad():
        for _ in range(100):
            n = int(rng.integers(1, 7))
            t = int(rng.integers(1, 6))
            K = int(rng.choice([1, 2, 4]))
            d = int(rng.integers(1, 4)) * K
            H = incidence(n, t)
            params = init_encoder(d, K, d_model=4, rng=rng)
            X = Tensor(rng.normal(size=(n * t, d)))
            for h in range(K):
                X_h = tape.matmul(X, Tensor(params.W[h]))
                alpha = intra_attention(X_h, H, Tensor(params.a[h]), 1.0).data
                col = alpha.sum(axis=0)
                worst = max(worst, np.abs(col - 1.0).max())
                assert np.all(alpha[H == 0] == 0.0)
                Z = hyperedge_embed(Tensor(alpha), X_h)
                beta = inter_attention(Z, H, Tensor(params.b[h]), 1.0).data
                row = beta.sum(axis=1)
                worst = max(worst, np.abs(row - 1.0).max())
                assert np.all(beta[H == 0] == 0.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report_line(1, "encoder normalization",
                ok, f"worst sum error {worst:.2e}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_gradient_integrity():
    """Finite differences through critic + encoder for every parameter."""
    rng = np.random.default_rng(1)
    n, t, K, d, d_model = 3, 3, 2, 6, 8
    H = incidence(n, t)
    params = taped_encoder(init_encoder(d, K, d_model, rng=rng))
    critic = taped(CriticNet(d_model, rng, hidden=8).params())
    X = Tensor(rng.normal(size=(n * t, d)))
    target = rng.normal(size=(1, 1))

    def loss_through(_):
        _, g = encode(X, H, params)
        return tape.half_mse(tape.two_layer(g, *critic.values()), target)

    t0 = time.perf_counter()
    worst, worst_name = 0.0, ""
    tensors = dict(params.tensors())
    tensors.update(critic)
    for name, tensor in tensors.items():
        err = finite_diff_check(lambda _: loss_through(None), tensor)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report_line(2, "gradient integrity",
                ok, f"max rel err {worst:.2e} at {worst_name}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_readout_invariance():
    """The graph embedding ignores simultaneous row permutations."""
    rng = np.random.default_rng(2)
    n, t, K, d = 4, 3, 2, 6
    H = incidence(n, t)
    params = init_encoder(d, K, d_model=8, rng=rng)
    X = rng.normal(size=(n * t, d))
    with tape.no_grad():
        _, g0 = encode(X, H, params)
        worst = 0.0
        for _ in range(50):
            perm = rng.permutation(n * t)
            _, g = encode(X[perm], H[perm], params)
            worst = max(worst, np.abs(g.data - g0.data).max())
    ok = worst <= 1e-12
    report_line(3, "readout invariance", ok,
                f"max deviation {worst:.2e} over 50 permutations")
    assert ok


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_action_codec():
    seen = set()
    for a in range(N_ACTIONS):
        phase, green = decode_action(a)
        assert encode_action(phase, green) == a
        seen.add((phase, green))
    assert len(seen) == N_ACTIONS
    masked_counts = []
    for phase in range(4):
        mask = action_mask(phase)
        blocked = np.flatnonzero(~mask)
        masked_counts.append(len(blocked))
        assert all(decode_action(a)[0] == phase for a in blocked)
    ok = masked_counts == [38, 38, 38, 38]
    report_line(4, "action codec", ok,
                f"152 indices bijective, masked per phase {masked_counts}")
    assert ok


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_simulator_conservation():
    """Exact vehicle accounting and clearance-interval discharge audit."""
    world = load_scenario(3, seed=11)
    rng = np.random.default_rng(11)
    for _ in range(HORIZON):
        world.step()
        for k, ctrl in enumerate(world.controllers):
            if ctrl.trigger:
                phase, green = decode_action(random_policy(action_mask(ctrl.phase), rng))
                world.apply_signal(k, phase, green)
        assert world.spawned_total == len(world.active) + world.exited_total
    stages = {stage for _, _, stage in world.discharge_events}
    ok = stages <= {"green"} and world.t == HORIZON
    report_line(5, "simulator conservation", ok,
                f"{world.spawned_total} vehicles conserved over {HORIZON}s, "
                f"discharge stages {sorted(stages)}")
    assert ok


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_reward_oracle():
    """compute_rewards against a plain-Python recount, exact equality."""
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 30))
        log = MetricsLog(n=n)
        for t in range(m):
            log.append(t, list(rng.integers(0, 40, size=n)),
                       list(rng.integers(0, 15, size=n)))
        i = int(rng.integers(0, n))
        got = compute_rewards(log, i, 0, m)
        total = 0.0
        for t in range(m):
            local = log.int_delayed[t][i]
            net = sum(log.int_delayed[t])
            total += W_LOCAL * local + W_NETWORK * net
        expected = -total / m
        if got != expected:
            mismatches += 1
    ok = mismatches == 0
    report_line(6, "reward oracle", ok,
                f"{100 - mismatches}/100 windows exactly equal")
    assert ok


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_ppo_bandit():
    converged = []
    ratios_ok = True
    for seed in range(5):
        out = run_bandit(seed)
        converged.append(out["converged_at"])
        first = out["first_update_stats"]
        ratios_ok &= first["ratio_min"] == 1.0 and first["ratio_max"] == 1.0
    ok = all(c is not None and c <= 500 for c in converged) and ratios_ok
    report_line(7, "ppo bandit", ok,
                f"converged at updates {converged}, first-epoch ratios exact")
    assert ok


# ------------------------------------------------------------- criteria 8-10

@pytest.fixture(scope="module")
def stdsh_run():
    return cached_training("stdsh_full", EPISODES, files=("model.ckpt",))


@pytest.fixture(scope="module")
def mappo_run():
    return cached_training("mappo_hg_off", EPISODES, files=("model.ckpt",),
                           use_hypergraph=False)


def directional_means(stdsh_run, mappo_run) -> tuple[dict, float]:
    """Seed-mean ANP per controller, and the stdsh-vs-fswf effect size."""
    # each checkpoint is loaded once and its state shared by its five cells
    stdsh, mappo = (load_checkpoint(run["checkpoint"]) for run in (stdsh_run, mappo_run))
    cells = {"fswf": dict(controller="fswf"),
             "stdsh": dict(controller="stdsh", state=stdsh),
             "mappo": dict(controller="mappo", state=mappo)}
    # seed-major, so each seed's arrivals are drawn once and replayed
    vals = {label: [] for label in cells}
    for s in EVAL_SEEDS:
        for label, kwargs in cells.items():
            vals[label].append(
                run_experiment(SCENARIO, seed=s, horizon_s=HORIZON, **kwargs)[0].anp)
    means = {label: float(np.mean(v)) for label, v in vals.items()}
    spread = {label: float(np.std(v, ddof=1)) for label, v in vals.items()}
    pooled = np.sqrt((spread["stdsh"] ** 2 + spread["fswf"] ** 2) / 2.0)
    effect = (means["fswf"] - means["stdsh"]) / pooled if pooled > 0 else np.inf
    return means, effect


def test_criterion_08_directional_ordering(request):
    """Seed-mean ANP: trained full model under FS-WF and under the
    hypergraph-off ablation."""
    try:
        # fixtures are fetched here so a failed training also gets its line
        means, effect = directional_means(request.getfixturevalue("stdsh_run"),
                                          request.getfixturevalue("mappo_run"))
    except Exception as exc:
        report_line(8, "directional ordering", False,
                    f"raised {type(exc).__name__}: {exc}")
        raise
    ok = means["stdsh"] < means["fswf"] and means["stdsh"] <= means["mappo"]
    report_line(8, "directional ordering", ok,
                f"mean ANP stdsh {means['stdsh']:.1f} < fswf {means['fswf']:.1f} "
                f"and <= hg-off {means['mappo']:.1f}; effect size d={effect:.2f}")
    assert ok


ABLATION_GRID = {
    # hypergraph, dual-stage attention, spatial edges, temporal edges
    "mappo": dict(use_hypergraph=False),
    "no_dsha": dict(use_dsha=False),
    "no_spatial": dict(use_spatial=False),
    "no_temporal": dict(use_temporal=False),
}


def test_criterion_09_ablation_trainability():
    floor = 0.1 * np.log(114.0)
    details = []
    ok = True
    for name, overrides in ABLATION_GRID.items():
        run = cached_training(f"ablation_{name}", ABLATION_UPDATES, **overrides)
        entropy = np.array(run["entropy"][:50])
        finite = np.all(np.isfinite(run["mean_reward"])) and not any(run["aborted"])
        good = finite and len(entropy) == 50 and entropy.min() > floor
        ok &= good
        details.append(f"{name}: min entropy {entropy.min():.2f}")
    report_line(9, "ablation trainability", ok,
                "; ".join(details) + f" (floor {floor:.3f})")
    assert ok


def test_criterion_10_budget(stdsh_run):
    train_wall = stdsh_run["wall_s"]
    t0 = time.perf_counter()
    run_experiment(SCENARIO, "fswf", seed=EVAL_SEEDS[0], horizon_s=HORIZON)
    eval_wall = time.perf_counter() - t0
    ok = stdsh_run["episodes"] == EPISODES and train_wall < 7200 and eval_wall < 60
    # the training time was measured where the entry was built, not now
    prov = stdsh_run["provenance"]
    report_line(10, "budget", ok,
                f"{EPISODES} episodes in {train_wall:.0f}s (< 7200) "
                f"trained at {prov['git_revision']} on {prov['host']} "
                f"({prov['cores']} cores, Python {prov['python']}, numpy {prov['numpy']} "
                f"{prov['numpy_dispatch']}, OpenBLAS {prov['openblas_core']}, "
                f"BLAS threads {prov['blas_threads']}), eval cell {eval_wall:.1f}s (< 60)")
    assert ok


# ------------------------------------------------------------ artifact cache

def test_cached_training_reuses_only_complete_current_entries(tmp_path,
                                                              monkeypatch):
    """A missing or altered checkpoint, or a fingerprint other than the one
    asked for, makes the entry a miss; a complete, matching entry is reused."""
    calls = []

    def fake_train_run(scenario, seed, episodes, cfg, out_dir):
        calls.append(episodes)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "model.ckpt").write_bytes(CHECKPOINT_MAGIC + bytes([len(calls)]))
        row = {"entropy": 1.0, "aborted": False, "mean_reward": -1.0}
        return {"wall_s": 0.5, "history": [row] * episodes}

    monkeypatch.setitem(globals(), "train_run", fake_train_run)
    entry = tmp_path / "entry"
    ckpt, meta_path = entry / "model.ckpt", entry / "run.json"

    def fetch(files=("model.ckpt",), episodes=2, **overrides):
        return cached_training("entry", episodes, files=files, root=tmp_path,
                               **overrides)

    first = fetch()
    assert len(calls) == 1 and first["checkpoint"] == ckpt
    assert first["files"] == {"model.ckpt": _sha256(ckpt)}
    assert fetch() == first and len(calls) == 1          # complete: reused

    ckpt.unlink()
    fetch()
    assert len(calls) == 2 and ckpt.is_file()            # missing checkpoint

    ckpt.write_bytes(b"not the recorded checkpoint")
    fetch()
    assert len(calls) == 3                               # hash differs

    meta = json.loads(meta_path.read_text())
    meta["fingerprint"]["config"]["lr"] *= 2
    meta_path.write_text(json.dumps(meta))
    fetch()
    assert len(calls) == 4                               # edited config field

    fetch(use_hypergraph=False)
    assert len(calls) == 5                               # other config asked
    fetch(use_hypergraph=False, episodes=3)
    assert calls[-1] == 3                                # other episode count
    assert fetch(use_hypergraph=False, episodes=3)["episodes"] == 3
    assert len(calls) == 6

    fetch(files=())                                      # fingerprint differs
    assert len(calls) == 7
    meta = json.loads(meta_path.read_text())
    assert meta["files"] == {}
    fetch()                                              # names no checkpoint
    assert len(calls) == 8

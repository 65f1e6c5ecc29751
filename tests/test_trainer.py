"""Returns, advantages, PPO/critic updates, rollouts, checkpoints, bandit."""

import csv
import hashlib
import multiprocessing
import os
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import oracle as tape
from bandit import run_bandit
from oracle import taped_encoder, window_op
from stdsh import autodiff as ad
from stdsh import env as envmod
from stdsh import trainer
from stdsh.checkpoint import load_params, save_params
from stdsh.env import (CorridorEnv, action_mask, decode_action, feature_scales,
                       obs_width)
from stdsh.trainer import (TrainConfig, TrainState, TransitionBatch,
                           advantages, collect_rollout, corridor_train_config,
                           critic_update, evaluate_values, load_checkpoint,
                           ppo_update, returns, save_checkpoint, train_run,
                           world_seed)


def small_cfg(**kw):
    base = dict(use_hypergraph=False, hidden=16, minibatch_size=4096)
    base.update(kw)
    return TrainConfig(**base)


def synthetic_batch(state, B=24, width=10, seed=0):
    """Random transitions consistent with the flat-critic layout."""
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(B, width))
    mask = np.stack([action_mask(int(p)) for p in rng.integers(0, 4, B)])
    action = np.array([rng.choice(np.flatnonzero(m)) for m in mask])
    reward = rng.normal(size=B)
    batch = TransitionBatch(
        agent=np.zeros(B, dtype=int), t=np.arange(B), obs=obs, mask=mask,
        action=action, reward=reward,
        ret=np.array(returns(reward, state.cfg.gamma)),
        done=np.zeros(B, dtype=bool), critic_input=obs.copy())
    return batch


# ------------------------------------------------------------------ returns

def test_returns_examples():
    assert returns([1.0, 2.0, 3.0], gamma=0.0) == [1.0, 2.0, 3.0]
    assert returns([1.0, 1.0, 1.0], gamma=1.0) == [3.0, 2.0, 1.0]
    out = returns([1.0, 2.0], gamma=0.9)
    assert abs(out[0] - 2.8) < 1e-12 and out[1] == 2.0


def test_returns_recursion_property():
    rng = np.random.default_rng(0)
    r = rng.normal(size=50)
    out = returns(r, gamma=0.97)
    for k in range(49):
        assert abs(out[k] - (r[k] + 0.97 * out[k + 1])) < 1e-12
    assert out[-1] == r[-1]


def test_returns_rejects_non_finite():
    with pytest.raises(ValueError):
        returns([1.0, np.nan], gamma=0.5)


def test_returns_unit_windows_match_per_step():
    rng = np.random.default_rng(3)
    r = rng.normal(size=20)
    assert np.allclose(returns(r, 0.9), returns(r, 0.9, dts=[1] * 20),
                       rtol=1e-12, atol=0)


def test_returns_time_weighted_examples():
    # one 2-second window at rate -1: -(1 + g)
    out = returns([-1.0], gamma=0.9, dts=[2])
    assert abs(out[0] + 1.9) < 1e-12
    # window accrual then discounted tail: r*(1-g^3)/(1-g) + g^3*R1
    out = returns([2.0, 5.0], gamma=0.5, dts=[3, 1])
    assert abs(out[1] - 5.0) < 1e-12
    assert abs(out[0] - (2.0 * 1.75 + 0.125 * 5.0)) < 1e-12


def test_returns_constant_rate_invariant_to_windowing():
    # the same per-second reward stream must produce the same head return
    # no matter how it is chopped into decision windows
    g = 0.93
    fine = returns([-4.0] * 12, g, dts=[1] * 12)[0]
    coarse = returns([-4.0] * 3, g, dts=[4, 4, 4])[0]
    lumpy = returns([-4.0] * 4, g, dts=[1, 5, 2, 4])[0]
    assert abs(fine - coarse) < 1e-9
    assert abs(fine - lumpy) < 1e-9


def test_returns_rejects_bad_windows():
    with pytest.raises(ValueError):
        returns([1.0, 2.0], 0.9, dts=[1])
    with pytest.raises(ValueError):
        returns([1.0], 0.9, dts=[0])


def test_advantages_examples():
    adv = advantages([2.0, 2.0], [1.0, 3.0], normalize=False)
    assert np.array_equal(adv, [1.0, -1.0])
    assert np.array_equal(advantages([5.0, 5.0], [5.0, 5.0], False), [0.0, 0.0])
    rng = np.random.default_rng(1)
    adv = advantages(rng.normal(size=100), rng.normal(size=100))
    assert abs(adv.mean()) < 1e-9
    assert abs(adv.std() - 1.0) < 1e-9
    with pytest.raises(ValueError):
        advantages([1.0], [1.0, 2.0])


def test_advantages_single_element_skips_normalization():
    assert np.array_equal(advantages([3.0], [1.0]), [2.0])


def test_world_seed_layout():
    assert world_seed(0, 5) == 5
    assert world_seed(3, 7) == 3007


# ------------------------------------------------------------------- config

def test_train_config_validation():
    for bad in (dict(gamma=0.0), dict(gamma=1.0), dict(lr=0.0),
                dict(return_scale=0.0), dict(entropy_coef=-0.1),
                dict(entropy_coef_final=-0.1),
                dict(d_model=65, heads=4),
                dict(use_spatial=False, use_temporal=False)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # both hyperedge families may go only when the hypergraph itself is off
    TrainConfig(use_hypergraph=False, use_spatial=False, use_temporal=False)


@pytest.mark.parametrize("name", ["lr", "clip_eps", "grad_clip", "entropy_coef",
                                  "entropy_coef_final", "return_scale", "attn_tau"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_config_rejects_non_finite_values(name, value):
    # NaN fails every `<= 0` check, so each field needs its own finite test
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        TrainConfig(**{name: value})
    TrainConfig(entropy_coef_final=None)


@pytest.mark.parametrize("size", ["ppo_epochs", "minibatch_size", "horizon_s",
                                  "hidden", "d_model", "heads", "window_depth",
                                  "window_cadence_s"])
@pytest.mark.parametrize("value", [0, -1])
def test_train_config_rejects_sizes_below_one(size, value):
    with pytest.raises(ValueError, match=f"^{size} must be >= 1, got {value}$"):
        TrainConfig(**{size: value})


def test_entropy_coef_schedule():
    cfg = TrainConfig(entropy_coef=0.01, entropy_coef_final=0.002)
    assert cfg.entropy_coef_at(0, 11) == 0.01
    assert abs(cfg.entropy_coef_at(10, 11) - 0.002) < 1e-15
    assert abs(cfg.entropy_coef_at(5, 11) - 0.006) < 1e-15
    const = TrainConfig(entropy_coef=0.01)
    assert const.entropy_coef_at(7, 100) == 0.01


# ------------------------------------------------------------------ updates

def test_ppo_first_epoch_ratios_exactly_one():
    cfg = small_cfg(ppo_epochs=1)
    state = TrainState(cfg, in_width=10, n_agents=1, seed=0)
    batch = synthetic_batch(state)
    adv = advantages(batch.ret, evaluate_values(state, batch))
    stats = ppo_update(state, batch, adv)
    assert stats["ratio_min"] == 1.0
    assert stats["ratio_max"] == 1.0
    # at ratio one the clipped surrogate collapses to the advantage mean
    assert abs(stats["surrogate_first"] - adv.mean()) < 1e-12
    assert not stats["aborted"]


def test_ppo_update_moves_only_policy_parameters():
    cfg = small_cfg(ppo_epochs=2)
    state = TrainState(cfg, in_width=10, n_agents=1, seed=1)
    batch = synthetic_batch(state, seed=2)
    adv = advantages(batch.ret, evaluate_values(state, batch))
    before_pi = {k: v.copy() for k, v in state.policy.params().items()}
    before_v = {k: v.copy() for k, v in state.critic.params().items()}
    ppo_update(state, batch, adv)
    assert any(not np.array_equal(before_pi[k], v)
               for k, v in state.policy.params().items())
    for k, v in state.critic.params().items():
        assert np.array_equal(before_v[k], v)


def test_critic_update_moves_only_critic_parameters():
    cfg = small_cfg(ppo_epochs=2)
    state = TrainState(cfg, in_width=10, n_agents=1, seed=3)
    batch = synthetic_batch(state, seed=4)
    before_pi = {k: v.copy() for k, v in state.policy.params().items()}
    before_v = {k: v.copy() for k, v in state.critic.params().items()}
    stats = critic_update(state, batch)
    assert stats["critic_loss"] > 0
    assert any(not np.array_equal(before_v[k], v)
               for k, v in state.critic.params().items())
    for k, v in state.policy.params().items():
        assert np.array_equal(before_pi[k], v)


def test_critic_loss_zero_when_predictions_match_targets():
    cfg = small_cfg(ppo_epochs=1)
    state = TrainState(cfg, in_width=10, n_agents=1, seed=5)
    batch = synthetic_batch(state, seed=6)
    batch.ret = evaluate_values(state, batch) / cfg.return_scale
    before = {k: v.copy() for k, v in state.critic.params().items()}
    stats = critic_update(state, batch)
    assert stats["critic_loss"] == 0.0
    for k, v in state.critic.params().items():
        assert np.array_equal(before[k], v)


def test_critic_loss_half_mse_example():
    # zeroed critic predicts 0 everywhere; target 2 gives 0.5 * 4 = 2
    cfg = small_cfg(ppo_epochs=1, return_scale=1.0)
    state = TrainState(cfg, in_width=4, n_agents=1, seed=0)
    for weights in state.critic.params().values():
        weights[...] = 0.0
    batch = TransitionBatch(
        agent=np.zeros(1, dtype=int), t=np.zeros(1, dtype=int),
        obs=np.ones((1, 4)), mask=np.ones((1, 152), dtype=bool),
        action=np.zeros(1, dtype=int),
        reward=np.array([2.0]), ret=np.array([2.0]),
        done=np.ones(1, dtype=bool), critic_input=np.ones((1, 4)))
    stats = critic_update(state, batch)
    assert stats["critic_loss"] == 2.0


def test_updates_reject_empty_batch():
    cfg = small_cfg()
    state = TrainState(cfg, in_width=10, n_agents=1, seed=0)
    with pytest.raises(ValueError):
        ppo_update(state, TransitionBatch(), np.zeros(0))
    with pytest.raises(ValueError):
        critic_update(state, TransitionBatch())


# the critic configurations of the gradient comparison
GRADIENT_CONFIGS = {"full": {}, "hg_off": {"use_hypergraph": False},
                    "no_dsha": {"use_dsha": False},
                    "no_spatial": {"use_spatial": False},
                    "no_temporal": {"use_temporal": False}}


def gradient_case(config, kind):
    """A corridor train state and a 300 s rollout, or a random batch of the
    same layout whose snapshot table opens with copies of one snapshot."""
    cfg = small_cfg(**{"use_hypergraph": True, "d_model": 8, "heads": 4,
                       "hidden": 32, **GRADIENT_CONFIGS[config]})
    env = CorridorEnv(1, seed=5)
    state = TrainState(cfg, obs_width(env.n_lanes), env.n_agents, seed=5,
                       input_scale=feature_scales(env.n_lanes))
    if kind == "rollout":
        return state, collect_rollout(env, state, 300)
    rng = np.random.default_rng(6)
    B, width = 96, obs_width(env.n_lanes)
    batch = synthetic_batch(state, B=B, width=width, seed=6)
    batch.obs *= 20.0
    if cfg.use_hypergraph:
        first = rng.normal(size=(1, env.n_agents, state.encoder.d))
        batch.snapshots = np.concatenate(
            [first.repeat(cfg.window_depth, axis=0),
             rng.normal(size=(12, env.n_agents, state.encoder.d))])
        batch.critic_input = rng.integers(0, 13, size=B)
        batch.critic_input[0] = 0
    return state, batch


def assert_same_gradients(got, tensors):
    """got holds a gradient for exactly the tensors the tape reached, in
    their order, each byte for byte the tape's and C-ordered as the tape's
    are: clip_grad_norm's sums of squares follow the memory order."""
    want = {k: t.grad for k, t in tensors.items() if t.grad is not None}
    assert list(got) == list(want)
    for k in want:
        assert got[k].shape == want[k].shape, k
        assert got[k].tobytes() == want[k].tobytes(), k
        assert got[k].flags.c_contiguous, k


@pytest.mark.parametrize("kind", ["random", "rollout"])
@pytest.mark.parametrize("config", GRADIENT_CONFIGS)
def test_hand_gradients_match_the_tape(config, kind):
    # the actor's and the critic's hand-written gradients against the same
    # losses built on the reference tape, on one minibatch that holds masked
    # actions, clipped and unclipped ratios (an unclipped ratio ties the two
    # arms of the minimum), zero advantages and, where the hypergraph is on,
    # windows with tied max readouts
    state, batch = gradient_case(config, kind)
    cfg, policy = state.cfg, state.policy
    rng = np.random.default_rng(7)
    rows = np.concatenate([[0], rng.permutation(np.arange(1, len(batch)))[:63]])
    old = ad.masked_log_softmax(policy.forward(batch.obs)[0], batch.mask)[0][
        np.arange(len(batch)), batch.action]
    for w in policy.params().values():
        w += rng.normal(scale=0.1, size=w.shape)
    adv = rng.normal(size=len(batch))
    adv[rows[:4]] = 0.0
    actor = (batch.mask[rows], batch.action[rows], old[rows], adv[rows],
             cfg.clip_eps, 0.01)

    logits, policy_backward = policy.forward(batch.obs[rows])
    loss, ratio, _, _, backward = ad.ppo_loss(logits, *actor)
    got = policy_backward(backward())[0]
    clipped = np.abs(ratio - 1.0) > cfg.clip_eps
    assert 0 < clipped.sum() < len(rows) and not batch.mask[rows].all()
    weights = tape.taped(policy.params())
    tape.clear_tape()
    taped_loss = tape.ppo_loss(tape.two_layer(batch.obs[rows] * policy.input_scale,
                                              *weights.values()), *actor)
    tape.backward(taped_loss)
    assert np.float64(loss).tobytes() == taped_loss.data.tobytes()
    assert_same_gradients(got, weights)

    target = batch.ret[rows][:, None] * cfg.return_scale
    v, values_backward = state.critic_values(batch, rows)
    loss, backward = ad.half_mse(v, target)
    got = values_backward(backward())
    weights = tape.taped(state.critic.params())
    x = batch.critic_input[rows]
    if cfg.use_hypergraph:
        encoder = taped_encoder(state.encoder)
        x = window_op(batch.snapshots, x[:, None] + np.arange(cfg.window_depth),
                      encoder, spatial=cfg.use_spatial, temporal=cfg.use_temporal,
                      uniform=not cfg.use_dsha)
        weights.update(encoder.tensors())
    taped_loss = tape.half_mse(tape.two_layer(x, *list(weights.values())[:4]), target)
    tape.backward(taped_loss)
    assert np.float64(loss).tobytes() == taped_loss.data.tobytes()
    assert_same_gradients(got, weights)


def test_value_pass_peak_memory_is_bounded():
    # encode_window builds its window grid and readout BLOCK windows at a
    # time and keeps only what its backward reads. On this rollout (347 rows,
    # 230 distinct windows over 365 snapshots of 6 x 148 features) the value
    # pass peaked at 32.9 MB of traced allocations when encode_window built
    # them whole, and peaks at 16.0 MB blocked (numpy 2.4)
    cfg = corridor_train_config()
    state = trainer.make_train_state(cfg, 1, seed=3)
    env = CorridorEnv(1, 11, cfg.window_depth, cfg.window_cadence_s)
    batch = collect_rollout(env, state, 1800)
    assert batch.snapshots.shape == (365, 6, 148)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate_values(state, batch)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# ------------------------------------------------------------------ rollout

def test_rollout_zero_seconds_is_empty():
    cfg = small_cfg()
    env = CorridorEnv(1, seed=0)
    state = TrainState(cfg, in_width=obs_width(env.n_lanes), n_agents=env.n_agents,
                       seed=0)
    assert len(collect_rollout(env, state, 0)) == 0


def test_rollout_decision_spacing_and_mask_compliance():
    """Consecutive decisions of one agent sit 5 s (amber plus all-red)
    plus the chosen green apart; every recorded action was unmasked."""
    cfg = small_cfg()
    env = CorridorEnv(1, seed=0)
    state = TrainState(cfg, in_width=obs_width(env.n_lanes), n_agents=env.n_agents,
                       seed=0)
    batch = collect_rollout(env, state, 400)
    assert len(batch) > 0
    assert np.all(batch.mask[np.arange(len(batch)), batch.action])
    for agent in range(env.n_agents):
        idx = np.flatnonzero(batch.agent == agent)
        ts = batch.t[idx]
        assert ts[0] == 10                      # initial green expires at 10
        for k in range(len(idx) - 1):
            _, green = decode_action(batch.action[idx[k]])
            assert ts[k + 1] - ts[k] == 5 + green
    # horizon closes exactly one open decision per agent
    assert batch.done.sum() == env.n_agents
    finals = {batch.agent[i] for i in np.flatnonzero(batch.done)}
    assert finals == set(range(env.n_agents))


def test_flat_critic_rollout_takes_no_snapshots():
    cfg = small_cfg()
    env = CorridorEnv(1, seed=0)
    state = TrainState(cfg, in_width=obs_width(env.n_lanes), n_agents=env.n_agents,
                       seed=0)
    before = env.window.table()
    batch = collect_rollout(env, state, 60)
    assert len(batch) > 0 and batch.snapshots is None
    assert env.window.start() == 0
    assert np.array_equal(env.window.table(), before)


@pytest.mark.parametrize("use_hypergraph", [True, False],
                         ids=["hg on", "hg off"])
def test_rollout_observes_once_per_decided_second(monkeypatch,
                                                  use_hypergraph):
    cfg = small_cfg(use_hypergraph=use_hypergraph, d_model=8, heads=4)
    env = CorridorEnv(1, seed=0)
    state = TrainState(cfg, in_width=obs_width(env.n_lanes),
                       n_agents=env.n_agents, seed=0)
    observed = []
    observe = envmod.observe

    def recorded_observe(world):
        observed.append(world.t)
        return observe(world)

    monkeypatch.setattr(envmod, "observe", recorded_observe)
    batch = collect_rollout(env, state, 900)
    seconds = np.unique(batch.t)
    assert len(batch) > len(seconds)       # some seconds hold two decisions
    # snapshots and decisions together observe each second at most once:
    # a decided second on the snapshot grid reads the snapshot
    assert len(observed) == len(set(observed))
    assert set(seconds) <= set(observed)
    on_grid = np.sum(seconds % cfg.window_cadence_s == 0)
    assert on_grid > 0
    # the table gains one entry per cadence second and none per decision
    snapshots = 900 // cfg.window_cadence_s if use_hypergraph else 0
    assert len(observed) == snapshots + len(seconds) - bool(snapshots) * on_grid
    assert len(env.window.table()) == cfg.window_depth + snapshots
    if use_hypergraph:
        assert batch.snapshots.shape == (cfg.window_depth + snapshots,
                                         env.n_agents, 148)
        assert np.array_equal(batch.critic_input,
                              batch.t // cfg.window_cadence_s)


def test_rollout_returns_are_per_agent_suffix_sums():
    cfg = small_cfg(gamma=0.9)
    env = CorridorEnv(1, seed=1)
    state = TrainState(cfg, in_width=obs_width(env.n_lanes), n_agents=env.n_agents,
                       seed=1)
    batch = collect_rollout(env, state, 300)
    for agent in range(env.n_agents):
        idx = np.flatnonzero(batch.agent == agent)
        expect = returns(batch.reward[idx], 0.9)
        assert np.allclose(batch.ret[idx], expect, atol=1e-12)


def test_rollout_time_discount_uses_window_lengths():
    cfg = small_cfg(gamma=0.995, time_discount=True)
    env = CorridorEnv(1, seed=1)
    state = TrainState(cfg, in_width=obs_width(env.n_lanes), n_agents=env.n_agents,
                       seed=1)
    batch = collect_rollout(env, state, 300)
    for agent in range(env.n_agents):
        idx = np.flatnonzero(batch.agent == agent)
        # non-final windows span phase change plus green exactly
        for k in idx[~batch.done[idx]]:
            _, green = decode_action(batch.action[k])
            assert batch.dt[k] == 5 + green
        expect = returns(batch.reward[idx], 0.995, dts=batch.dt[idx])
        assert np.allclose(batch.ret[idx], expect, atol=1e-9)


def test_training_log_records_an_aborted_update(tmp_path, monkeypatch):
    rollout = trainer.collect_rollout

    def rollout_with_nan_return(env, state, seconds):
        batch = rollout(env, state, seconds)
        batch.ret[0] = np.nan
        return batch

    cfg = small_cfg(horizon_s=60)
    train_run(1, 0, 1, cfg, tmp_path / "clean")
    monkeypatch.setattr(trainer, "collect_rollout", rollout_with_nan_return)
    out = train_run(1, 0, 1, cfg, tmp_path / "nan")
    assert out["history"][0]["aborted"]
    for run, flag in (("clean", "0"), ("nan", "1")):
        with open(tmp_path / run / "training_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["aborted"] == flag


def test_training_stops_after_repeated_aborts(tmp_path, monkeypatch):
    rollout = trainer.collect_rollout
    nan_episodes = set()

    def rollout_with_nan_return(env, state, seconds):
        batch = rollout(env, state, seconds)
        if env.world.seed in nan_episodes:
            batch.ret[0] = np.nan
        return batch

    monkeypatch.setattr(trainer, "collect_rollout", rollout_with_nan_return)
    cfg = small_cfg(horizon_s=60)
    # two aborts, a clean update, two more aborts: the streak never reaches 3
    nan_episodes.update(world_seed(0, ep) for ep in (0, 1, 3, 4))
    out = train_run(1, 0, 5, cfg, tmp_path / "broken")
    assert [row["aborted"] for row in out["history"]] == [True, True, False, True, True]
    nan_episodes.add(world_seed(0, 2))
    with pytest.raises(RuntimeError, match=r"episodes \[0, 1, 2\]"):
        train_run(1, 0, 5, cfg, tmp_path / "stopped")
    assert trainer.MAX_ABORTS_IN_A_ROW == 3
    with open(tmp_path / "stopped" / "training_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["aborted"] for row in rows] == ["1", "1", "1"]
    assert not (tmp_path / "stopped" / "model.ckpt").exists()


def test_identical_trainings_write_identical_files(tmp_path):
    cfg = corridor_train_config(horizon_s=300)
    assert cfg.use_hypergraph
    for run in ("a", "b"):
        train_run(1, 3, 2, cfg, tmp_path / run)
    for name in ("training_log.csv", "model.ckpt"):
        first = (tmp_path / "a" / name).read_bytes()
        assert first and first == (tmp_path / "b" / name).read_bytes(), name


# sha256 of what four trainings (scenario 1, 300 s episodes) write, the same
# whether the critic updates run in a child or in this process; "-" where
# the run stops before its checkpoint
PINNED_TRAININGS = {
    "clean": ("e2e623b884324421dd367ec49c4c2bfa172f1c16b3336b1e85abaa49f72969a9",
              "7acddde85bbdf832d4aca96bc55da29d2d0362e41aac01f1576b9b630dac0217"),
    "flat": ("32ce7d31785512cd47a7441ea42c838cd6dd247d1067610f0d9853fcd65b2854",
             "80326d07c8c72199d1909376c41c2bf3f9d3bb2ce6d831f882f7820d31c5bcee"),
    "nan_returns": ("0a8c13de86bd336f4416d0baf6e7cf4980bae7bce3fedf23372535952986de9f",
                    "6d1d5f5db06da42a2f47273a605106b73d43bf9207ea5123e8556354150af94a"),
    "one_sided_aborts": ("d55a17a145c6588be5bb5f44f73f8b556ce211d91c237b51ae8c8d57b2775b3b",
                         "-"),
}


def pinned_training(name, tmp_path, monkeypatch):
    """Run one pinned training; returns its two digests.

    The hypergraph critic is on except in flat. clean: 3 episodes at
    seed 3; flat: 2 episodes at seed 3. nan_returns: 5 episodes at seed 0
    with a NaN return in episodes 0 and 3, so both updates abort in their
    first epoch. one_sided_aborts: 4 episodes at seed 0, one minibatch per
    epoch; a NaN advantage in episode 0 aborts the actor update alone, and
    NaN critic gradients at the critic's sixth step (Adam's t == 5) abort
    episode 1's critic update alone, in its second epoch, before that
    step. An aborted step leaves t at 5, so episode 2's critic update
    aborts again at its first step while its actor update runs, and that
    third abort in a row stops the training before episode 3.
    """
    cfg = corridor_train_config(horizon_s=300, use_hypergraph=name != "flat")
    rollout, clip, make, advantage = (
        trainer.collect_rollout, trainer.clip_grad_norm,
        trainer.make_train_state, trainer.advantages)
    seed, episodes = {"clean": (3, 3), "flat": (3, 2), "nan_returns": (0, 5),
                      "one_sided_aborts": (0, 4)}[name]
    states, advantage_calls = [], []

    def poisoned_rollout(env, state, seconds):
        batch = rollout(env, state, seconds)
        ep = env.world.seed - world_seed(seed, 0)
        if name == "nan_returns" and ep in (0, 3):
            batch.ret[0] = np.nan
        return batch

    def poisoned_advantages(*args):
        adv = advantage(*args)
        advantage_calls.append(1)
        if len(advantage_calls) == 1:       # episode 0
            adv[0] = np.nan
        return adv

    def poisoned_clip(grads, max_norm):
        if "enc.Wo" in grads and states[0].opt_critic.t == 5:
            for k in grads:
                grads[k] = grads[k] * np.nan
        return clip(grads, max_norm)

    def recorded_state(*args, **kwargs):
        states.append(make(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(trainer, "collect_rollout", poisoned_rollout)
    if name == "one_sided_aborts":
        monkeypatch.setattr(trainer, "clip_grad_norm", poisoned_clip)
        monkeypatch.setattr(trainer, "make_train_state", recorded_state)
        monkeypatch.setattr(trainer, "advantages", poisoned_advantages)
        with pytest.raises(trainer.TrainingStopped, match=r"episodes \[0, 1, 2\]"):
            train_run(1, seed, episodes, cfg, tmp_path)
    else:
        train_run(1, seed, episodes, cfg, tmp_path)
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                 if path.exists() else "-"
                 for path in (tmp_path / "training_log.csv",
                              tmp_path / "model.ckpt"))


def one_cpu(monkeypatch):
    monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: {0})


def forked(monkeypatch):
    """Fork the critic updates wherever there is a second CPU, whatever
    the BLAS threads, which then only compete for the CPUs."""
    monkeypatch.setattr(trainer, "_blas_threads", lambda: 1)


@pytest.mark.parametrize("mode", [one_cpu, forked], ids=["one_cpu", "forked"])
@pytest.mark.parametrize("name", sorted(PINNED_TRAININGS))
def test_training_writes_pinned_bytes(name, mode, tmp_path, monkeypatch):
    mode(monkeypatch)
    assert pinned_training(name, tmp_path, monkeypatch) == PINNED_TRAININGS[name]
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("mode,forks", [(one_cpu, 0), (forked, 2)],
                         ids=["one_cpu", "forked"])
def test_critic_child_per_episode_only_with_two_cpus(mode, forks, tmp_path,
                                                     monkeypatch):
    if forks and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the critic child needs a second CPU")
    fork, started = os.fork, []

    def counted_fork():
        started.append(1)
        return fork()

    mode(monkeypatch)
    monkeypatch.setattr(os, "fork", counted_fork)
    train_run(1, 0, 2, small_cfg(horizon_s=60), tmp_path)
    assert len(started) == forks
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("mode", [one_cpu, forked], ids=["one_cpu", "forked"])
def test_critic_update_error_surfaces_from_train_run(mode, tmp_path,
                                                     monkeypatch):
    def broken(*args):
        raise ValueError("boom")

    mode(monkeypatch)
    monkeypatch.setattr(trainer, "critic_update", broken)
    with pytest.raises(ValueError, match="^boom$"):
        train_run(1, 0, 2, small_cfg(horizon_s=60), tmp_path)
    assert not multiprocessing.active_children()
    assert (tmp_path / "training_log.csv").read_text().count("\n") == 1


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the critic child needs a second CPU")
def test_critic_child_that_dies_is_reported_by_episode(tmp_path, monkeypatch):
    update = trainer.critic_update

    def dies_in_episode_1(state, batch, orders=None):
        if state.opt_critic.t:
            os._exit(3)
        return update(state, batch, orders)

    forked(monkeypatch)
    monkeypatch.setattr(trainer, "critic_update", dies_in_episode_1)
    with pytest.raises(RuntimeError, match="^episode 1: .* exited with 3"):
        train_run(1, 0, 3, small_cfg(horizon_s=60), tmp_path)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("mode", [one_cpu, forked], ids=["one_cpu", "forked"])
def test_rollout_error_comes_after_the_previous_row(mode, tmp_path,
                                                   monkeypatch):
    rollout = trainer.collect_rollout

    def fails_in_episode_1(env, state, seconds):
        if env.world.seed == world_seed(0, 1):
            raise RuntimeError("no road")
        return rollout(env, state, seconds)

    mode(monkeypatch)
    monkeypatch.setattr(trainer, "collect_rollout", fails_in_episode_1)
    with pytest.raises(RuntimeError, match="^no road$"):
        train_run(1, 0, 3, small_cfg(horizon_s=60), tmp_path)
    with open(tmp_path / "training_log.csv", newline="") as fh:
        assert [row["update"] for row in csv.DictReader(fh)] == ["0"]
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("episodes", [0, -3])
def test_train_run_rejects_no_episodes(tmp_path, episodes):
    with pytest.raises(ValueError, match="episodes must be >= 1"):
        train_run(1, 0, episodes, small_cfg(horizon_s=60), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _adam_bytes(opt):
    return (opt.t, [a.tobytes() for a in (*opt.params.values(), *opt._m, *opt._v)])


def test_aborted_updates_leave_adam_and_weights_untouched():
    """A NaN return or advantage makes the loss non-finite; a NaN
    observation row or snapshot leaves it finite and its gradients not.
    Either way the aborted step leaves Adam's step count, moments and
    weights as the last completed step left them, all finite."""
    flat = small_cfg(minibatch_size=8)
    hg = small_cfg(minibatch_size=8, use_hypergraph=True, d_model=8, heads=4)
    for poison, row in (("ret", 12), ("adv", 12), ("obs", 0), ("snapshots", 0)):
        if poison == "snapshots":
            state = trainer.make_train_state(hg, 1, 0)
            batch = collect_rollout(CorridorEnv(1, 0), state, 60)
        else:
            state = TrainState(flat, in_width=10, n_agents=1, seed=0)
            batch = synthetic_batch(state)
        adv = np.ones(len(batch))
        (adv if poison == "adv" else getattr(batch, poison))[row] = np.nan
        opt = state.opt_actor if poison in ("adv", "obs") else state.opt_critic
        step, completed = opt.step, [_adam_bytes(opt)]

        def recorded_step(grads):
            step(grads)
            completed.append(_adam_bytes(opt))

        opt.step = recorded_step
        if poison in ("adv", "obs"):
            stats = ppo_update(state, batch, adv)
        else:
            stats = critic_update(state, batch)
        assert stats["aborted"], poison
        assert _adam_bytes(opt) == completed[-1], poison
        assert opt.t == len(completed) - 1, poison
        params = [*state.policy.params().values(), *state.critic.params().values(),
                  *(state.encoder.tensors().values() if state.encoder else ())]
        assert all(np.isfinite(p).all() for p in params), poison
        assert np.isfinite(stats["grad_norm"]), poison


@pytest.mark.parametrize("aborts", [False, True], ids=["completes", "aborts"])
def test_updates_given_their_orders_draw_nothing(aborts):
    state = TrainState(small_cfg(minibatch_size=8), in_width=10, n_agents=1, seed=0)
    batch = synthetic_batch(state)
    adv = np.ones(len(batch))
    if aborts:
        batch.ret[12] = adv[12] = np.nan
    for update in (lambda orders: ppo_update(state, batch, adv, orders=orders),
                   lambda orders: critic_update(state, batch, orders)):
        orders = trainer.epoch_orders(state.rng, len(batch), state.cfg.ppo_epochs)
        drawn = state.rng.bit_generator.state
        assert update(orders)["aborted"] == aborts
        assert state.rng.bit_generator.state == drawn


def test_epoch_orders_are_that_many_shuffles():
    rng, fresh = np.random.default_rng(4), np.random.default_rng(4)
    orders = trainer.epoch_orders(rng, 9, 3)
    assert len(orders) == 3
    idx = np.arange(9)
    for order in orders:
        fresh.shuffle(idx)
        assert np.array_equal(order, idx)
    assert rng.bit_generator.state == fresh.bit_generator.state


# -------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_preserves_behavior(tmp_path):
    cfg = TrainConfig(hidden=32, d_model=8, heads=4, entropy_coef_final=0.003,
                      return_scale=1e-3, gamma=0.9)
    env = CorridorEnv(1, seed=2)
    from stdsh.env import feature_scales
    state = TrainState(cfg, in_width=obs_width(env.n_lanes), n_agents=env.n_agents,
                       seed=2, input_scale=feature_scales(env.n_lanes))
    batch = collect_rollout(env, state, 200)
    adv = advantages(batch.ret, evaluate_values(state, batch))
    ppo_update(state, batch, adv)
    critic_update(state, batch)

    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    clone = load_checkpoint(path)
    assert clone.cfg == cfg
    assert np.array_equal(state.policy.forward(batch.obs)[0],
                          clone.policy.forward(batch.obs)[0])
    va = evaluate_values(state, batch)
    vb = evaluate_values(clone, batch)
    assert np.array_equal(va, vb)


def test_checkpoint_meta_covers_every_config_field():
    # a field left out of _META would not survive a checkpoint
    assert set(trainer._META) == {f.name for f in fields(TrainConfig)} | {"n_agents"}


def _small_checkpoint(tmp_path):
    cfg = TrainConfig(hidden=8, d_model=8, heads=4)
    state = TrainState(cfg, in_width=12, n_agents=3, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    return path, load_params(path)


def test_checkpoint_with_a_misshapen_array_is_rejected(tmp_path):
    path, named = _small_checkpoint(tmp_path)
    named["pi.W1"] = named["pi.W1"][:, :1]          # (12, 1) broadcasts to (12, 8)
    save_params(path, named)
    with pytest.raises(ValueError, match=r"'pi\.W1' has shape \(12, 1\)"):
        load_checkpoint(path)


def test_checkpoint_missing_an_encoder_head_is_rejected(tmp_path):
    path, named = _small_checkpoint(tmp_path)
    for kind in "Wab":
        del named[f"enc.{kind}.h4"]                 # meta.heads still reads 4
    save_params(path, named)
    with pytest.raises(ValueError, match=r"has no entry 'enc\.W\.h4'"):
        load_checkpoint(path)


def test_checkpoint_with_a_non_finite_config_value_is_rejected(tmp_path):
    path, named = _small_checkpoint(tmp_path)
    named["meta.lr"] = np.array(np.nan)
    save_params(path, named)
    with pytest.raises(ValueError, match="^lr must be finite, got nan$"):
        load_checkpoint(path)


@pytest.mark.parametrize("heads", [np.nan, 4.5], ids=["nan", "fraction"])
def test_checkpoint_with_a_fractional_size_is_rejected(tmp_path, heads):
    path, named = _small_checkpoint(tmp_path)
    named["meta.heads"] = np.array(heads)
    save_params(path, named)
    with pytest.raises(ValueError, match=rf"^checkpoint entry 'meta\.heads' must be a "
                                         rf"whole number, got {heads}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["stdsh_full", "mappo_hg_off"])
def test_committed_checkpoints_load(name):
    state = load_checkpoint(Path(__file__).parent / "_artifacts" / name / "model.ckpt")
    assert state.cfg.use_hypergraph == (name == "stdsh_full")


def test_checkpoint_with_entries_its_config_lacks_is_rejected(tmp_path):
    path, named = _small_checkpoint(tmp_path)
    named["enc.W.h5"] = named["enc.W.h4"]           # meta.heads still reads 4
    named["junk"] = np.zeros(3)
    save_params(path, named)
    with pytest.raises(ValueError, match=r"\['enc\.W\.h5', 'junk'\] are not in its config"):
        load_checkpoint(path)


# ------------------------------------------------------------------- bandit

def test_bandit_converges_and_first_ratios_are_one():
    out = run_bandit(seed=0)
    assert out["converged_at"] is not None
    assert out["converged_at"] <= 500
    assert out["first_update_stats"]["ratio_min"] == 1.0
    assert out["first_update_stats"]["ratio_max"] == 1.0
    assert out["trajectory"][-1] > 0.95

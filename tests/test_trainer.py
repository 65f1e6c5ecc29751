"""Returns, advantages, PPO/critic updates, rollouts, checkpoints, bandit."""

import csv
import hashlib
import multiprocessing
import os
import re
import tracemalloc
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
from stdsh.env import (WINDOW_CADENCE_S, WINDOW_DEPTH, action_mask, decode_action,
                       feature_scales, obs_width)
from stdsh.sim import Network, load_scenario, resolve_config
from stdsh.trainer import (CLIP_EPS, TrainConfig, TrainState, TransitionBatch,
                           advantages, collect_rollout, critic_update,
                           evaluate_values, load_checkpoint, ppo_update, returns,
                           save_checkpoint, train_run, world_seed)


# scenario 1's corridor: lanes per intersection and intersections
_NET = Network(resolve_config(1))
N_LANES, N_AGENTS = len(_NET.lanes_of(0)), _NET.n


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
        ret=np.array(returns(reward, state.cfg.gamma, [1] * B)),
        critic_input=obs.copy())
    return batch


# ------------------------------------------------------------------ returns

def test_returns_examples():
    assert returns([1.0, 2.0, 3.0], 0.0, [1, 1, 1]) == [1.0, 2.0, 3.0]
    out = returns([1.0, 2.0], 0.9, [1, 1])
    assert abs(out[0] - 2.8) < 1e-12 and out[1] == 2.0


def test_returns_recursion_property():
    rng = np.random.default_rng(0)
    r = rng.normal(size=50)
    out = returns(r, 0.97, [1] * 50)
    for k in range(49):
        assert abs(out[k] - (r[k] + 0.97 * out[k + 1])) < 1e-12
    assert out[-1] == r[-1]


def test_returns_rejects_non_finite():
    with pytest.raises(ValueError):
        returns([1.0, np.nan], 0.5, [1, 1])


def test_returns_unit_windows_match_per_step():
    rng = np.random.default_rng(3)
    r = rng.normal(size=20)
    suffix, acc = [0.0] * 20, 0.0
    for k in range(19, -1, -1):
        acc = r[k] + 0.9 * acc
        suffix[k] = acc
    assert np.allclose(returns(r, 0.9, [1] * 20), suffix, rtol=1e-12, atol=0)


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
    # [1, -1] and [0, 0] already have zero mean and unit (or no) spread
    assert np.array_equal(advantages([2.0, 2.0], [1.0, 3.0]), [1.0, -1.0])
    assert np.array_equal(advantages([5.0, 5.0], [5.0, 5.0]), [0.0, 0.0])
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
                dict(d_model=65, heads=4),
                dict(use_spatial=False, use_temporal=False)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # both hyperedge families may go only when the hypergraph itself is off
    TrainConfig(use_hypergraph=False, use_spatial=False, use_temporal=False)


@pytest.mark.parametrize("name", ["lr", "entropy_coef", "return_scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_config_rejects_non_finite_values(name, value):
    # NaN fails every `<= 0` check, so each field needs its own finite test
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("size", ["ppo_epochs", "minibatch_size", "horizon_s",
                                  "hidden", "d_model", "heads"])
@pytest.mark.parametrize("value", [0, -1])
def test_train_config_rejects_sizes_below_one(size, value):
    with pytest.raises(ValueError, match=f"^{size} must be >= 1, got {value}$"):
        TrainConfig(**{size: value})


def test_entropy_coef_schedule():
    cfg = TrainConfig(entropy_coef=0.01)
    assert cfg.entropy_coef_at(0, 11) == 0.01
    assert abs(cfg.entropy_coef_at(10, 11) - 0.002) < 1e-15
    assert abs(cfg.entropy_coef_at(5, 11) - 0.006) < 1e-15


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
    cfg = small_cfg(ppo_epochs=1, return_scale=1.0)
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
        critic_input=np.ones((1, 4)))
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
    world = load_scenario(1, seed=5)
    state = TrainState(cfg, obs_width(N_LANES), N_AGENTS, seed=5,
                       input_scale=feature_scales(N_LANES))
    if kind == "rollout":
        return state, collect_rollout(world, state, 300)
    rng = np.random.default_rng(6)
    B, width = 96, obs_width(N_LANES)
    batch = synthetic_batch(state, B=B, width=width, seed=6)
    batch.obs *= 20.0
    if cfg.use_hypergraph:
        first = rng.normal(size=(1, N_AGENTS, state.encoder.d))
        batch.snapshots = np.concatenate(
            [first.repeat(WINDOW_DEPTH, axis=0),
             rng.normal(size=(12, N_AGENTS, state.encoder.d))])
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
             CLIP_EPS, 0.01)

    logits, policy_backward = policy.forward(batch.obs[rows])
    loss, ratio, _, _, backward = ad.ppo_loss(logits, *actor)
    got = policy_backward(backward())[0]
    clipped = np.abs(ratio - 1.0) > CLIP_EPS
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
        x = window_op(batch.snapshots, x[:, None] + np.arange(WINDOW_DEPTH),
                      encoder, spatial=cfg.use_spatial, temporal=cfg.use_temporal,
                      uniform=not cfg.use_dsha)
        weights.update(encoder.tensors())
    taped_loss = tape.half_mse(tape.two_layer(x, *list(weights.values())[:4]), target)
    tape.backward(taped_loss)
    assert np.float64(loss).tobytes() == taped_loss.data.tobytes()
    assert_same_gradients(got, weights)


@pytest.fixture(scope="module")
def scenario1_rollout():
    """An 1800 s scenario-1 rollout: 347 rows, 230 distinct windows over
    365 snapshots of 6 x 148 features."""
    cfg = TrainConfig()
    state = trainer.make_train_state(cfg, 1, seed=3)
    world = load_scenario(1, 11)
    batch = collect_rollout(world, state, 1800)
    assert batch.snapshots.shape == (365, 6, 148)
    return cfg, batch


def traced_peak(fn) -> int:
    """Peak bytes of traced allocations while fn() runs, above its start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_value_pass_peak_memory_is_bounded(scenario1_rollout):
    # encode_window builds its window grid and readout BLOCK windows at a
    # time, and without grad drops each family's pooled edges once Z is
    # projected from them. On this rollout the value pass peaked at 32.9 MiB
    # of traced allocations when encode_window built them whole, 16.0 MiB
    # blocked while it kept the pooled edges, and 9.2 MiB now (numpy 2.4)
    cfg, batch = scenario1_rollout
    state = trainer.make_train_state(cfg, 1, seed=3)
    assert traced_peak(lambda: evaluate_values(state, batch)) < 12 * 2**20


def test_critic_update_peak_memory_is_bounded(scenario1_rollout):
    # each minibatch's backward lets its pooled edges go once dW has read
    # them, before the as large dxe: 29.5 MiB of traced allocations while
    # the backward kept them, 24.2 MiB now (numpy 2.4)
    cfg, batch = scenario1_rollout
    state = trainer.make_train_state(cfg, 1, seed=3)
    assert traced_peak(lambda: critic_update(state, batch)) < 27 * 2**20


# ------------------------------------------------------------------ rollout

def test_rollout_zero_seconds_is_empty():
    cfg = small_cfg()
    world = load_scenario(1, seed=0)
    state = TrainState(cfg, in_width=obs_width(N_LANES), n_agents=N_AGENTS,
                       seed=0)
    assert len(collect_rollout(world, state, 0)) == 0


def test_rollout_decision_spacing_and_mask_compliance():
    """Consecutive decisions of one agent sit 5 s (amber plus all-red)
    plus the chosen green apart; every recorded action was unmasked."""
    cfg = small_cfg()
    world = load_scenario(1, seed=0)
    state = TrainState(cfg, in_width=obs_width(N_LANES), n_agents=N_AGENTS,
                       seed=0)
    batch = collect_rollout(world, state, 400)
    assert len(batch) > 0
    assert np.all(batch.mask[np.arange(len(batch)), batch.action])
    for agent in range(N_AGENTS):
        idx = np.flatnonzero(batch.agent == agent)
        ts = batch.t[idx]
        assert ts[0] == 10                      # initial green expires at 10
        for k in range(len(idx) - 1):
            _, green = decode_action(batch.action[idx[k]])
            assert ts[k + 1] - ts[k] == 5 + green
    # horizon closes exactly one open decision per agent
    final = batch.t + batch.dt == 400
    assert final.sum() == N_AGENTS
    assert set(batch.agent[final]) == set(range(N_AGENTS))


def test_flat_critic_rollout_takes_no_snapshots(monkeypatch):
    cfg = small_cfg()
    world = load_scenario(1, seed=0)
    state = TrainState(cfg, in_width=obs_width(N_LANES), n_agents=N_AGENTS,
                       seed=0)

    def no_window(world):
        raise AssertionError("a flat-critic rollout built a snapshot window")

    monkeypatch.setattr(envmod, "FeatureWindow", no_window)
    batch = collect_rollout(world, state, 60)
    assert len(batch) > 0 and batch.snapshots is None


@pytest.mark.parametrize("use_hypergraph", [True, False],
                         ids=["hg on", "hg off"])
def test_rollout_observes_once_per_decided_second(monkeypatch,
                                                  use_hypergraph):
    cfg = small_cfg(use_hypergraph=use_hypergraph, d_model=8, heads=4)
    world = load_scenario(1, seed=0)
    state = TrainState(cfg, in_width=obs_width(N_LANES),
                       n_agents=N_AGENTS, seed=0)
    observed = []
    observe = envmod.observe

    def recorded_observe(world):
        observed.append(world.t)
        return observe(world)

    monkeypatch.setattr(envmod, "observe", recorded_observe)
    batch = collect_rollout(world, state, 900)
    seconds = np.unique(batch.t)
    assert len(batch) > len(seconds)       # some seconds hold two decisions
    # snapshots and decisions together observe each second at most once:
    # a decided second on the snapshot grid reads the snapshot
    assert len(observed) == len(set(observed))
    assert set(seconds) <= set(observed)
    on_grid = np.sum(seconds % WINDOW_CADENCE_S == 0)
    assert on_grid > 0
    # the window observes the initial state once, then the table gains one
    # entry per cadence second and none per decision
    first, snapshots = (1, 900 // WINDOW_CADENCE_S) if use_hypergraph else (0, 0)
    assert len(observed) == first + snapshots + len(seconds) - first * on_grid
    assert (batch.snapshots is None) != use_hypergraph
    if use_hypergraph:
        assert batch.snapshots.shape == (WINDOW_DEPTH + snapshots,
                                         N_AGENTS, 148)
        assert np.array_equal(batch.critic_input,
                              batch.t // WINDOW_CADENCE_S)


def test_rollout_time_discount_uses_window_lengths():
    cfg = small_cfg(gamma=0.995)
    world = load_scenario(1, seed=1)
    state = TrainState(cfg, in_width=obs_width(N_LANES), n_agents=N_AGENTS,
                       seed=1)
    batch = collect_rollout(world, state, 300)
    for agent in range(N_AGENTS):
        idx = np.flatnonzero(batch.agent == agent)
        # non-final windows span phase change plus green exactly
        for k in idx[batch.t[idx] + batch.dt[idx] != 300]:
            _, green = decode_action(batch.action[k])
            assert batch.dt[k] == 5 + green
        expect = returns(batch.reward[idx], 0.995, batch.dt[idx])
        assert np.allclose(batch.ret[idx], expect, atol=1e-9)


@pytest.mark.parametrize("use_hypergraph", [True, False], ids=["hg on", "hg off"])
@pytest.mark.parametrize("scenario", [1, 3])
def test_rollout_prices_each_decision_until_its_next(scenario, use_hypergraph):
    # every row's reward is a plain-Python recount of the world's log over
    # [t, t + dt), where t + dt is its agent's next decision or, for its
    # last, the horizon; rows come in the order the windows close: (t + dt, agent)
    horizon = 600
    cfg = small_cfg(use_hypergraph=use_hypergraph, d_model=8, heads=4)
    state = trainer.make_train_state(cfg, scenario, seed=0)
    world = load_scenario(scenario, seed=world_seed(0, 0))
    batch = collect_rollout(world, state, horizon)
    log = world.log
    assert log.seconds.tolist() == list(range(horizon))
    delayed, network = log.int_delayed.tolist(), log.net_delayed.tolist()
    agent, t, dt = batch.agent.tolist(), batch.t.tolist(), batch.dt.tolist()
    assert len(batch) > 0
    for k in range(len(batch)):
        i, start, stop = agent[k], t[k], t[k] + dt[k]
        local = sum(row[i] for row in delayed[start:stop])
        total = sum(network[start:stop])
        want = -(envmod.W_LOCAL * local + envmod.W_NETWORK * total) / float(dt[k])
        assert batch.reward[k] == want, k
        later = [s for j, s in enumerate(t) if agent[j] == i and s > start]
        assert stop == (min(later) if later else horizon), k
    closes = list(zip([a + b for a, b in zip(t, dt)], agent))
    assert closes == sorted(set(closes))


def test_training_log_records_an_aborted_update(tmp_path, monkeypatch):
    rollout = trainer.collect_rollout

    def rollout_with_nan_return(world, state, seconds):
        batch = rollout(world, state, seconds)
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

    def rollout_with_nan_return(world, state, seconds):
        batch = rollout(world, state, seconds)
        if world.seed in nan_episodes:
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
    cfg = TrainConfig(horizon_s=300)
    assert cfg.use_hypergraph
    for run in ("a", "b"):
        train_run(1, 3, 2, cfg, tmp_path / run)
    for name in ("training_log.csv", "model.ckpt"):
        first = (tmp_path / "a" / name).read_bytes()
        assert first and first == (tmp_path / "b" / name).read_bytes(), name


# sha256 of what four trainings (scenario 1, 300 s episodes) write, the same
# whether the critic updates run in a child or in this process and whatever
# OpenBLAS thread count the caller set; "-" where the run stops before its
# checkpoint. `python tests/test_trainer.py` prints them
PINNED_TRAININGS = {
    "clean": ("b2cc405227fe22055e92fc5ac00e944264164f9f9de3a5ad8d08e9d1e2c1ef81",
              "e077b5004d05a49338beeaca5fe1daed6ec4b24f5d9764b431a07ba63fb9e306"),
    "flat": ("32ce7d31785512cd47a7441ea42c838cd6dd247d1067610f0d9853fcd65b2854",
             "fc7b6f069b2cb30b4b90c81a3d3363a44e438c6a94dc8a0df48f8a52fef416a5"),
    "nan_returns": ("e1195f895ba9436b3e4fac121f12a91ca099f272b58aff8b4e8c0da75a07afda",
                    "92f7d44a12c89121814bfbb8e278ea59802652bce00fd9fd8611f742b14505a2"),
    "one_sided_aborts": ("7c31a898250174f238605d901e9bddf38ad2e9bcb164669e3d09c47b41f797d4",
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
    cfg = TrainConfig(horizon_s=300, use_hypergraph=name != "flat")
    rollout, clip, make, advantage = (
        trainer.collect_rollout, trainer.clip_grad_norm,
        trainer.make_train_state, trainer.advantages)
    seed, episodes = {"clean": (3, 3), "flat": (3, 2), "nan_returns": (0, 5),
                      "one_sided_aborts": (0, 4)}[name]
    states, advantage_calls = [], []

    def poisoned_rollout(world, state, seconds):
        batch = rollout(world, state, seconds)
        ep = world.seed - world_seed(seed, 0)
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


def test_blas_lookup_without_proc_maps_finds_nothing(monkeypatch):
    # off Linux there is no /proc/self/maps: the lookup, the one-thread
    # pin and the pytest header all go on without the library
    import conftest

    def no_maps(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(trainer, "open", no_maps, raising=False)
    assert trainer._openblas_function("openblas_get_num_threads") is None
    with trainer._one_blas_thread() as pinned:
        assert not pinned
    assert "OpenBLAS core unknown" in conftest.pytest_report_header(None)


def _blas_threads_function(op):
    """OpenBLAS's get or set of its thread count; None without OpenBLAS."""
    return trainer._openblas_function(f"scipy_openblas_{op}_num_threads64_",
                                      f"openblas_{op}_num_threads64_",
                                      f"openblas_{op}_num_threads")


@pytest.mark.skipif(_blas_threads_function("set") is None, reason="needs OpenBLAS")
def test_training_runs_blas_on_one_thread_and_gives_the_count_back(tmp_path, monkeypatch):
    get, put = _blas_threads_function("get"), _blas_threads_function("set")
    before, seen = get(), []

    def fails(world, state, seconds):
        seen.append(get())
        raise RuntimeError("no road")

    put(2)
    try:
        assert pinned_training("clean", tmp_path / "clean", monkeypatch) == PINNED_TRAININGS["clean"]
        assert get() == 2
        monkeypatch.setattr(trainer, "collect_rollout", fails)
        with pytest.raises(RuntimeError, match="^no road$"):
            train_run(1, 0, 2, small_cfg(horizon_s=60), tmp_path / "raises")
        assert seen == [1] and get() == 2
    finally:
        put(before)


def one_cpu(monkeypatch):
    monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: {0})


def forked(monkeypatch):
    """Train as the host does: the critic updates fork wherever there is a
    second CPU."""


@pytest.mark.parametrize("mode", [one_cpu, forked], ids=["one_cpu", "forked"])
@pytest.mark.parametrize("name", sorted(PINNED_TRAININGS))
def test_training_writes_pinned_bytes(name, mode, tmp_path, monkeypatch):
    mode(monkeypatch)
    assert pinned_training(name, tmp_path, monkeypatch) == PINNED_TRAININGS[name]
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("mode,episodes,forks",
                         [(one_cpu, 2, 0), (forked, 2, 1), (forked, 3, 1)],
                         ids=["one_cpu", "forked", "forked_3_episodes"])
def test_one_critic_worker_per_training_only_with_two_cpus(mode, episodes, forks,
                                                           tmp_path, monkeypatch):
    if forks and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the critic worker needs a second CPU")
    fork, started = os.fork, []

    def counted_fork():
        started.append(1)
        return fork()

    mode(monkeypatch)
    monkeypatch.setattr(os, "fork", counted_fork)
    train_run(1, 0, episodes, small_cfg(horizon_s=60), tmp_path)
    assert len(started) == forks
    assert not multiprocessing.active_children()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the critic worker needs a second CPU")
def test_forked_training_returns_the_one_cpu_state(tmp_path, monkeypatch):
    """The worker sends back the critic and encoder after every update and
    Adam's moments and step count at the end: the state train_run returns
    is the one-process state, byte for byte."""
    cfg = small_cfg(horizon_s=120, use_hypergraph=True, d_model=8, heads=4)
    states = {}
    for mode in (one_cpu, forked):
        with monkeypatch.context() as m:
            mode(m)
            states[mode] = train_run(1, 0, 3, cfg, tmp_path / mode.__name__)["state"]
    for opt in ("opt_critic", "opt_actor"):
        assert (_adam_bytes(getattr(states[forked], opt))
                == _adam_bytes(getattr(states[one_cpu], opt))), opt
    assert states[forked].opt_critic.t == 3 * cfg.ppo_epochs


@pytest.mark.parametrize("mode", [one_cpu, forked], ids=["one_cpu", "forked"])
def test_train_run_times_each_critic_update(mode, tmp_path, monkeypatch):
    if mode is forked and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the critic worker needs a second CPU")
    mode(monkeypatch)
    run = train_run(1, 0, 3, small_cfg(horizon_s=60), tmp_path)
    for key in ("critic_s", "critic_wait_s"):
        assert len(run[key]) == 3, key
        assert all(isinstance(s, float) and s >= 0.0 for s in run[key]), key
    if mode is one_cpu:         # the update ran here: the wait is the update
        assert run["critic_s"] == run["critic_wait_s"]
    assert "critic_s" not in (tmp_path / "training_log.csv").read_text()


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
                    reason="the critic worker needs a second CPU")
def test_critic_child_that_dies_is_reported_by_episode(tmp_path, monkeypatch):
    update = trainer.critic_update

    def dies_in_episode_1(state, batch, orders=None):
        if state.opt_critic.t:
            os._exit(3)
        return update(state, batch, orders)

    forked(monkeypatch)
    monkeypatch.setattr(trainer, "critic_update", dies_in_episode_1)
    with pytest.raises(RuntimeError, match="^episode 1: the critic worker exited with 3"):
        train_run(1, 0, 3, small_cfg(horizon_s=60), tmp_path)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("mode", [one_cpu, forked], ids=["one_cpu", "forked"])
def test_rollout_error_comes_after_the_previous_row(mode, tmp_path,
                                                   monkeypatch):
    rollout = trainer.collect_rollout

    def fails_in_episode_1(world, state, seconds):
        if world.seed == world_seed(0, 1):
            raise RuntimeError("no road")
        return rollout(world, state, seconds)

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
            batch = collect_rollout(load_scenario(1, 0), state, 60)
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
    cfg = TrainConfig(hidden=32, d_model=8, heads=4, return_scale=1e-3, gamma=0.9)
    world = load_scenario(1, seed=2)
    state = TrainState(cfg, in_width=obs_width(N_LANES), n_agents=N_AGENTS,
                       seed=2, input_scale=feature_scales(N_LANES))
    batch = collect_rollout(world, state, 200)
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


def _small_checkpoint(tmp_path):
    cfg = TrainConfig(hidden=8, d_model=8, heads=4)
    state = TrainState(cfg, in_width=12, n_agents=3, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    return path, load_params(path)


# a checkpoint's config entries, in the order its bytes hold them after the arrays
META_LAYOUT = ("use_hypergraph", "use_dsha", "use_spatial", "use_temporal", "gamma",
               "entropy_coef", "ppo_epochs", "minibatch_size", "lr", "horizon_s",
               "hidden", "d_model", "heads", "return_scale", "n_agents")


def test_checkpoint_entries_come_in_the_pinned_order(tmp_path):
    # the committed checkpoints and the training pins hold this byte layout
    _, named = _small_checkpoint(tmp_path)
    assert list(named) == [
        "pi.W1", "pi.b1", "pi.W2", "pi.b2", "pi.input_scale",
        "v.W1", "v.b1", "v.W2", "v.b2",
        *(f"enc.{kind}.h{h}" for h in range(1, 5) for kind in "Wab"), "enc.Wo", "enc.bo",
        *(f"meta.{name}" for name in META_LAYOUT)]


def test_checkpoint_with_a_misshapen_array_is_rejected(tmp_path):
    path, named = _small_checkpoint(tmp_path)
    for name, value in (("pi.W1", named["pi.W1"][:, :1]),   # broadcasts to (12, 8)
                        ("pi.W1", named["pi.W1"][0, 0]),    # 0-d: no input width
                        ("meta.lr", np.array([1e-3, 1e-3])),
                        ("meta.lr", np.array([1e-3]))):     # meta entries are 0-d
        save_params(path, {**named, name: value})
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: entry {name!r} "
                                                       f"has shape {value.shape}")):
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
    with pytest.raises(ValueError, match=rf"^checkpoint {re.escape(str(path))}: "
                                         "lr must be finite, got nan$"):
        load_checkpoint(path)


WHOLE, BOOL = "a whole number >= 1", "0 or 1"


@pytest.mark.parametrize("name, value, kind", [
    ("heads", np.nan, WHOLE), ("heads", 4.5, WHOLE),
    ("use_hypergraph", 0.5, BOOL), ("use_dsha", np.nan, BOOL), ("use_temporal", 7.0, BOOL),
    ("n_agents", 2.5, WHOLE), ("n_agents", -3.0, WHOLE), ("n_agents", 0.0, WHOLE)],
    ids=["nan", "fraction", "bool_half", "bool_nan", "bool_seven",
         "agents_fraction", "agents_negative", "agents_zero"])
def test_checkpoint_with_a_fractional_size_is_rejected(tmp_path, name, value, kind):
    # sizes and the agent count are whole numbers >= 1, and flags are 0 or 1
    path, named = _small_checkpoint(tmp_path)
    named[f"meta.{name}"] = np.array(value)
    save_params(path, named)
    with pytest.raises(ValueError, match=rf"^checkpoint {re.escape(str(path))}: entry "
                                         rf"'meta\.{name}' must be {kind}, got {value}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["stdsh_full", "mappo_hg_off"])
def test_committed_checkpoints_load(name):
    state = load_checkpoint(Path(__file__).parent / "_artifacts" / name / "model.ckpt")
    assert state.cfg.use_hypergraph == (name == "stdsh_full")


# the config entries a checkpoint held before its clip range, gradient clip,
# advantage normalization, attention temperature, window, entropy target and
# per-second discounting became constants
OLD_LAYOUT = {"attn_tau": 1.0, "clip_eps": 0.2, "grad_clip": 0.5,
              "normalize_advantages": 1.0, "window_cadence_s": 5.0, "window_depth": 5.0,
              "entropy_coef_final": 0.002, "time_discount": 1.0}


def test_checkpoint_with_entries_its_config_lacks_is_rejected(tmp_path):
    path, named = _small_checkpoint(tmp_path)
    for extra in ({"enc.W.h5": named["enc.W.h4"],      # meta.heads still reads 4
                   "junk": np.zeros(3)},
                  {f"meta.{name}": np.array(value) for name, value in OLD_LAYOUT.items()}):
        save_params(path, {**named, **extra})
        with pytest.raises(ValueError,
                           match=re.escape(f"checkpoint {path}: entries {sorted(extra)} "
                                           "are not in its config")):
            load_checkpoint(path)


# ------------------------------------------------------------------- bandit

def test_bandit_converges_and_first_ratios_are_one():
    out = run_bandit(seed=0)
    assert out["converged_at"] is not None
    assert out["converged_at"] <= 500
    assert out["first_update_stats"]["ratio_min"] == 1.0
    assert out["first_update_stats"]["ratio_max"] == 1.0
    assert out["trajectory"][-1] > 0.95


if __name__ == "__main__":
    # re-pin: print PINNED_TRAININGS as both modes write it, after checking they agree
    import tempfile

    print("PINNED_TRAININGS = {")
    for name in PINNED_TRAININGS:
        digests = {}
        for mode in (one_cpu, forked):
            with pytest.MonkeyPatch.context() as m, tempfile.TemporaryDirectory() as tmp:
                mode(m)
                digests[mode.__name__] = pinned_training(name, Path(tmp), m)
        if digests["one_cpu"] != digests["forked"]:
            raise SystemExit(f"{name}: one_cpu and forked disagree: {digests}")
        log, ckpt = digests["one_cpu"]
        print(f'    "{name}": ("{log}",\n{" " * (len(name) + 9)}"{ckpt}"),')
    print("}")

"""Returns, advantages, PPO/critic updates, rollouts, checkpoints, bandit."""

import csv
import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from oracle import clear_tape
from stdsh import autodiff as ad
from stdsh import env as envmod
from stdsh import trainer
from stdsh.env import CorridorEnv, action_mask, decode_action, obs_width
from stdsh.trainer import (TrainConfig, TrainState, TransitionBatch,
                           advantages, collect_rollout, corridor_train_config,
                           critic_update, evaluate_values, load_checkpoint,
                           ppo_update, returns, run_bandit, save_checkpoint,
                           train_run, world_seed)


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
    before_pi = {k: v.data.copy() for k, v in state.policy.params().items()}
    before_v = {k: v.data.copy() for k, v in state.critic.params().items()}
    ppo_update(state, batch, adv)
    assert any(not np.array_equal(before_pi[k], v.data)
               for k, v in state.policy.params().items())
    for k, v in state.critic.params().items():
        assert np.array_equal(before_v[k], v.data)


def test_critic_update_moves_only_critic_parameters():
    cfg = small_cfg(ppo_epochs=2)
    state = TrainState(cfg, in_width=10, n_agents=1, seed=3)
    batch = synthetic_batch(state, seed=4)
    before_pi = {k: v.data.copy() for k, v in state.policy.params().items()}
    before_v = {k: v.data.copy() for k, v in state.critic.params().items()}
    stats = critic_update(state, batch)
    assert stats["critic_loss"] > 0
    assert any(not np.array_equal(before_v[k], v.data)
               for k, v in state.critic.params().items())
    for k, v in state.policy.params().items():
        assert np.array_equal(before_pi[k], v.data)


def test_critic_loss_zero_when_predictions_match_targets():
    cfg = small_cfg(ppo_epochs=1)
    state = TrainState(cfg, in_width=10, n_agents=1, seed=5)
    batch = synthetic_batch(state, seed=6)
    batch.ret = evaluate_values(state, batch) / cfg.return_scale
    before = {k: v.data.copy() for k, v in state.critic.params().items()}
    stats = critic_update(state, batch)
    assert stats["critic_loss"] == 0.0
    for k, v in state.critic.params().items():
        assert np.array_equal(before[k], v.data)


def test_critic_loss_half_mse_example():
    # zeroed critic predicts 0 everywhere; target 2 gives 0.5 * 4 = 2
    cfg = small_cfg(ppo_epochs=1, return_scale=1.0)
    state = TrainState(cfg, in_width=4, n_agents=1, seed=0)
    for tensor in state.critic.params().values():
        tensor.data[...] = 0.0
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

    def rollout_with_nan_return(env, state, seconds, greedy=False):
        batch = rollout(env, state, seconds, greedy)
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

    def rollout_with_nan_return(env, state, seconds, greedy=False):
        batch = rollout(env, state, seconds, greedy)
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


# sha256 of what four trainings (scenario 1, 300 s episodes) write, pinned
# when every update still ran in one process; "-" where the run stops
# before its checkpoint
PINNED_TRAININGS = {
    "clean": ("e2e623b884324421dd367ec49c4c2bfa172f1c16b3336b1e85abaa49f72969a9",
              "7acddde85bbdf832d4aca96bc55da29d2d0362e41aac01f1576b9b630dac0217"),
    "flat": ("32ce7d31785512cd47a7441ea42c838cd6dd247d1067610f0d9853fcd65b2854",
             "80326d07c8c72199d1909376c41c2bf3f9d3bb2ce6d831f882f7820d31c5bcee"),
    "nan_returns": ("8cddbf9937f1649854ee3fb67dfaba6b6e158fc3862286555e72af718c052144",
                    "dde5a0d2983447a6cbfb68a82a570f990e8ba0b12e86eb82423d1f523d5a3aa0"),
    "one_sided_aborts": ("511cc5be8f018090a2a8a4aecb10f8cfafe747f9a7797bb088bef88d5cea83e2",
                         "-"),
}


def pinned_training(name, tmp_path, monkeypatch):
    """Run one pinned training; returns its two digests.

    The hypergraph critic is on except in flat. clean: 3 episodes at
    seed 3; flat: 2 episodes at seed 3. nan_returns: 5 episodes at seed 0
    with a NaN return in episodes 0 and 3, so both updates abort in their
    first epoch. one_sided_aborts: 4 episodes at seed 0; a NaN advantage in
    episode 0 aborts the actor update alone, and NaN critic gradients at
    the critic's sixth step abort episode 1's critic update alone, in its
    third epoch; episode 2's updates both abort, and that third abort in
    a row stops the training before episode 3.
    """
    cfg = corridor_train_config(horizon_s=300, use_hypergraph=name != "flat")
    rollout, clip, make, advantage = (
        trainer.collect_rollout, trainer.clip_grad_norm,
        trainer.make_train_state, trainer.advantages)
    seed, episodes = {"clean": (3, 3), "flat": (3, 2), "nan_returns": (0, 5),
                      "one_sided_aborts": (0, 4)}[name]
    states, advantage_calls = [], []

    def poisoned_rollout(env, state, seconds, greedy=False):
        batch = rollout(env, state, seconds, greedy)
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

    def poisoned_clip(params, max_norm):
        if "enc.Wo" in params and states[0].opt_critic.t == 5:
            for p in params.values():
                p.grad = p.grad * np.nan
        return clip(params, max_norm)

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

    def fails_in_episode_1(env, state, seconds, greedy=False):
        if env.world.seed == world_seed(0, 1):
            raise RuntimeError("no road")
        return rollout(env, state, seconds, greedy)

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


def test_aborted_updates_leave_no_tape_records():
    cfg = small_cfg(minibatch_size=8)
    state = TrainState(cfg, in_width=10, n_agents=1, seed=0)
    batch = synthetic_batch(state)
    batch.ret[12] = np.nan
    clear_tape()
    assert critic_update(state, batch)["aborted"]
    assert len(ad._tape()) == 0
    adv = np.ones(len(batch))
    adv[12] = np.nan
    assert ppo_update(state, batch, adv)["aborted"]
    assert len(ad._tape()) == 0


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
    with ad.no_grad():
        a = state.policy.forward(batch.obs).data
        b = clone.policy.forward(batch.obs).data
    assert np.array_equal(a, b)
    va = evaluate_values(state, batch)
    vb = evaluate_values(clone, batch)
    assert np.array_equal(va, vb)


# ------------------------------------------------------------------- bandit

def test_bandit_converges_and_first_ratios_are_one():
    out = run_bandit(seed=0)
    assert out["converged_at"] is not None
    assert out["converged_at"] <= 500
    assert out["first_update_stats"]["ratio_min"] == 1.0
    assert out["first_update_stats"]["ratio_max"] == 1.0
    assert out["trajectory"][-1] > 0.95

"""Two-action bandit: the PPO sanity task of criterion 7 and the trainer tests."""

import numpy as np

from stdsh import autodiff as ad
from stdsh.nets import PolicyNet, act
from stdsh.optim import Adam
from stdsh.trainer import (TrainConfig, TrainState, TransitionBatch, advantages,
                           ppo_update)


def run_bandit(seed: int, max_updates: int = 500, batch_size: int = 64,
               lr: float = 3e-2) -> dict:
    """Two-action sanity task: action 0 pays 1, action 1 pays 0.

    Exercises act / advantages / ppo_update end to end with a single
    minibatch per epoch. Returns the probability trajectory of the better
    action and the first update index where it crossed 0.95.
    """
    cfg = TrainConfig(minibatch_size=batch_size, lr=lr, entropy_coef=0.0,
                      use_hypergraph=False)
    state = TrainState(cfg, in_width=2, n_agents=1, seed=seed)
    state.policy = PolicyNet(2, 2, state.rng, hidden=32)
    state.opt_actor = Adam(state.policy.params(), lr=lr)
    obs = np.array([1.0, 0.0])
    mask = np.array([True, True])
    trajectory = []
    converged_at = None
    first_update_stats = None
    for update in range(max_updates):
        acts = np.array([act(state.policy, obs, mask, state.rng)
                         for _ in range(batch_size)])
        rewards = (acts == 0).astype(float)
        batch = TransitionBatch(
            agent=np.zeros(batch_size, dtype=int),
            t=np.arange(batch_size),
            obs=np.tile(obs, (batch_size, 1)),
            mask=np.tile(mask, (batch_size, 1)),
            action=acts,
            reward=rewards,
            ret=rewards.copy(),              # one-step episodes
            done=np.ones(batch_size, dtype=bool),
        )
        adv = advantages(batch.ret, np.full(batch_size, rewards.mean()),
                         normalize=True)
        stats = ppo_update(state, batch, adv)
        if first_update_stats is None:
            first_update_stats = stats
        _, probs = ad.masked_log_softmax(state.policy.forward(obs)[0], mask[None])
        p_best = float(probs[0, 0])
        trajectory.append(p_best)
        if converged_at is None and p_best > 0.95:
            converged_at = update
            break
    return {"trajectory": trajectory, "converged_at": converged_at,
            "first_update_stats": first_update_stats, "state": state}

"""Actor/critic network contracts: masking, sampling, determinism."""

import numpy as np
import pytest

from stdsh import autodiff as ad
from stdsh.autodiff import Tensor
from stdsh.env import N_ACTIONS, action_mask
from stdsh.nets import (CriticNet, PolicyNet, act, entropy_of,
                        masked_distribution)


def fresh_policy(width=20, seed=0, input_scale=None):
    return PolicyNet(width, N_ACTIONS, np.random.default_rng(seed),
                     hidden=32, input_scale=input_scale)


def test_masked_distribution_two_point():
    logits = Tensor(np.zeros((1, 2)))
    mask = np.array([[True, True]])
    logp, probs = masked_distribution(logits, mask)
    assert np.allclose(probs.data, [[0.5, 0.5]], atol=1e-15)
    ent = entropy_of(logp, probs)
    assert abs(ent.data.item() - np.log(2.0)) < 1e-12
    ad.clear_tape()


def test_single_allowed_action_logp_is_exact_zero():
    policy = fresh_policy()
    obs = np.ones(20)
    mask = np.zeros(N_ACTIONS, dtype=bool)
    mask[17] = True
    for _ in range(3):
        a, logp = act(policy, obs, mask, np.random.default_rng(1))
        assert a == 17
        assert logp == 0.0


def test_fresh_policy_is_near_uniform_over_allowed():
    """Tiny-gain output layer: the start distribution over the 114 allowed
    actions should be indistinguishable from uniform."""
    policy = fresh_policy()
    obs = np.random.default_rng(3).normal(size=20)
    mask = action_mask(2)
    with ad.no_grad():
        logits = policy.forward(obs[None, :])
        logp, probs = masked_distribution(logits, mask[None, :])
        ent = entropy_of(logp, probs).data.item()
    p = probs.data[0]
    assert abs(ent - np.log(114.0)) < 1e-3
    assert p[mask].min() > 0.8 / 114
    assert np.all(p[~mask] == 0.0)


def test_sampling_frequencies_match_probabilities():
    policy = fresh_policy()
    obs = np.zeros(20)
    mask = action_mask(0)
    rng = np.random.default_rng(7)
    draws = 60000
    counts = np.zeros(N_ACTIONS)
    for _ in range(draws):
        a, _ = act(policy, obs, mask, rng)
        counts[a] += 1
    assert counts[~mask].sum() == 0
    # total variation distance to the (near uniform) model distribution;
    # expected TV for a 114-bin multinomial at this n is about 0.017
    with ad.no_grad():
        _, probs = masked_distribution(policy.forward(obs[None, :]),
                                       mask[None, :])
    tv = 0.5 * np.abs(counts / draws - probs.data[0]).sum()
    assert tv < 0.03


def test_act_matches_the_tape_forward():
    # act() skips the tape; its logits, log-probs, probs and draws must equal
    # the taped forward's bit for bit, greedy picks included
    policy = fresh_policy(seed=3, input_scale=np.linspace(0.05, 1.0, 20))
    rng = np.random.default_rng(11)
    for k in range(200):
        obs = rng.normal(scale=30.0, size=20)
        mask = action_mask(k % 4)
        with ad.no_grad():
            logits = policy.forward(obs)
            logp, probs = masked_distribution(logits, mask)
        assert policy.logits(obs).tolist() == logits.data.tolist()
        want = int(np.random.default_rng(k).choice(N_ACTIONS, p=probs.data[0]))
        assert act(policy, obs, mask, np.random.default_rng(k)) == \
            (want, float(logp.data[0, want]))
        best = int(np.argmax(probs.data[0]))
        assert act(policy, obs, mask, None, greedy=True) == \
            (best, float(logp.data[0, best]))


def test_greedy_act_is_argmax_and_deterministic():
    policy = fresh_policy(seed=5)
    obs = np.random.default_rng(0).normal(size=20)
    mask = action_mask(1)
    picks = {act(policy, obs, mask, np.random.default_rng(k), greedy=True)[0]
             for k in range(5)}
    assert len(picks) == 1
    a = picks.pop()
    assert mask[a]
    with ad.no_grad():
        _, probs = masked_distribution(policy.forward(obs[None, :]),
                                       mask[None, :])
    assert a == int(np.argmax(probs.data[0]))


def test_act_rejects_fully_masked_and_bad_shapes():
    policy = fresh_policy()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        act(policy, np.zeros(20), np.zeros(N_ACTIONS, dtype=bool), rng)
    with pytest.raises(ValueError):
        act(policy, np.zeros(21), action_mask(0), rng)
    with pytest.raises(ValueError):
        act(policy, np.zeros(20), np.ones(5, dtype=bool), rng)


def test_input_scale_equals_prescaled_input():
    scale = np.linspace(0.1, 2.0, 20)
    a = fresh_policy(seed=9, input_scale=scale)
    b = fresh_policy(seed=9)
    x = np.random.default_rng(2).normal(size=(4, 20))
    with ad.no_grad():
        ya = a.forward(x).data
        yb = b.forward(x * scale).data
    assert np.array_equal(ya, yb)


def test_critic_forward_np_matches_forward():
    rng = np.random.default_rng(4)
    critic = CriticNet(12, rng, hidden=16)
    x = rng.normal(size=(5, 12))
    with ad.no_grad():
        y1 = critic.forward(Tensor(x)).data
        y2 = critic.forward_np(x).data
    assert y1.shape == (5, 1)
    assert np.array_equal(y1, y2)
    assert np.all(np.isfinite(y1))

"""Actor/critic network contracts: masking, sampling, determinism."""

import numpy as np
import pytest

import oracle as tape
from stdsh import autodiff as ad
from stdsh.env import N_ACTIONS, action_mask
from stdsh.nets import PolicyNet, act


def fresh_policy(width=20, seed=0, input_scale=None):
    return PolicyNet(width, N_ACTIONS, np.random.default_rng(seed),
                     hidden=32, input_scale=input_scale)


def test_masked_distribution_two_point():
    logp, probs = ad.masked_log_softmax(np.zeros((1, 2)), np.array([[True, True]]))
    assert np.allclose(probs, [[0.5, 0.5]], atol=1e-15)
    assert abs(-(probs * logp).sum() - np.log(2.0)) < 1e-12


def test_masked_log_softmax_matches_the_tape():
    # the tape's masked softmax on plain arrays, bit for bit: random rows,
    # huge logits, and a row with every action masked (all zero)
    rng = np.random.default_rng(8)
    x = rng.normal(scale=20.0, size=(7, 9))
    x[1] += 1e4
    mask = rng.random((7, 9)) < 0.6
    mask[2] = False
    logp, p = ad.masked_log_softmax(x, mask)
    want_logp, want_p = tape.masked_log_softmax_np(x, mask, 1)
    assert logp.tobytes() == want_logp.tobytes()
    assert p.tobytes() == want_p.tobytes()
    assert np.all(np.isfinite(logp)) and np.all(p[2] == 0.0)


def test_single_allowed_action_logp_is_exact_zero():
    policy = fresh_policy()
    obs = np.ones(20)
    mask = np.zeros(N_ACTIONS, dtype=bool)
    mask[17] = True
    for _ in range(3):
        assert act(policy, obs, mask, np.random.default_rng(1)) == 17
    logp, _ = ad.masked_log_softmax(policy.forward(obs)[0], mask[None, :])
    assert logp[0, 17] == 0.0


def test_fresh_policy_is_near_uniform_over_allowed():
    """Tiny-gain output layer: the start distribution over the 114 allowed
    actions should be indistinguishable from uniform."""
    policy = fresh_policy()
    obs = np.random.default_rng(3).normal(size=20)
    mask = action_mask(2)
    logp, probs = ad.masked_log_softmax(policy.forward(obs[None, :])[0], mask[None, :])
    ent = -(probs * logp).sum()
    p = probs[0]
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
        a = act(policy, obs, mask, rng)
        counts[a] += 1
    assert counts[~mask].sum() == 0
    # total variation distance to the (near uniform) model distribution;
    # expected TV for a 114-bin multinomial at this n is about 0.017
    _, probs = ad.masked_log_softmax(policy.forward(obs[None, :])[0], mask[None, :])
    tv = 0.5 * np.abs(counts / draws - probs[0]).sum()
    assert tv < 0.03


class RecordedChoice:
    """A generator whose choice() records the probabilities it is given."""

    def __init__(self, seed):
        self.rng, self.p = np.random.default_rng(seed), None

    def choice(self, n, p):
        self.p = p
        return self.rng.choice(n, p=p)


def test_act_matches_the_tape_forward():
    # act()'s logits, the probs it samples from and its draws must equal the
    # forward built on the reference tape bit for bit, greedy picks included
    policy = fresh_policy(seed=3, input_scale=np.linspace(0.05, 1.0, 20))
    weights = tape.taped(policy.params())
    rng = np.random.default_rng(11)
    for k in range(200):
        obs = rng.normal(scale=30.0, size=20)
        mask = action_mask(k % 4)
        with tape.no_grad():
            logits = tape.two_layer(obs[None, :] * policy.input_scale,
                                    *weights.values())
            _, probs = tape.masked_distribution(logits, mask)
        assert policy.forward(obs)[0].tolist() == logits.data.tolist()
        want = int(np.random.default_rng(k).choice(N_ACTIONS, p=probs.data[0]))
        recorded = RecordedChoice(k)
        assert act(policy, obs, mask, recorded) == want
        assert recorded.p.tobytes() == probs.data[0].tobytes()
        best = int(np.argmax(probs.data[0]))
        assert act(policy, obs, mask, None, greedy=True) == best


def test_greedy_act_is_argmax_and_deterministic():
    policy = fresh_policy(seed=5)
    obs = np.random.default_rng(0).normal(size=20)
    mask = action_mask(1)
    picks = {act(policy, obs, mask, np.random.default_rng(k), greedy=True)
             for k in range(5)}
    assert len(picks) == 1
    a = picks.pop()
    assert mask[a]
    _, probs = ad.masked_log_softmax(policy.forward(obs[None, :])[0], mask[None, :])
    assert a == int(np.argmax(probs[0]))


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
    assert np.array_equal(a.forward(x)[0], b.forward(x * scale)[0])

"""Dual-stage attention encoder tests: the reference encoder of oracle.py
against independent loop oracles, and the fused encode_window against it."""

import numpy as np
import pytest

import oracle as tape
from oracle import (Tensor, clear_tape, concat, encode, finite_diff_check,
                    hyperedge_embed, incidence, inter_attention,
                    intra_attention, spatial_only, taped_encoder,
                    temporal_only, window_op)
from stdsh import encoder as encmod
from stdsh.encoder import EncoderParams, encode_window, init_encoder


def manual_encode(X, H, p):
    """Plain-numpy loop re-implementation of the encoder forward pass."""
    N, E = H.shape
    heads = []
    for h in range(p.K):
        Xh = X @ p.W[h]
        s = (Xh @ p.a[h]).ravel()
        alpha = np.zeros((N, E))
        for e in range(E):
            mem = np.nonzero(H[:, e])[0]
            ex = np.exp(s[mem] - s[mem].max())
            alpha[mem, e] = ex / ex.sum()
        Z = np.zeros((E, p.d_h))
        for e in range(E):
            for i in range(N):
                Z[e] += alpha[i, e] * Xh[i]
        ts = (Z @ p.b[h]).ravel()
        beta = np.zeros((N, E))
        for i in range(N):
            inc = np.nonzero(H[i])[0]
            ex = np.exp(ts[inc] - ts[inc].max())
            beta[i, inc] = ex / ex.sum()
        heads.append(beta @ Z)
    Y = np.hstack(heads) @ p.Wo + p.bo
    return Y, Y.max(axis=0, keepdims=True)


def _params_with(values, d, K, d_model):
    rng = np.random.default_rng(values)
    return init_encoder(d, K, d_model, rng=rng)


def test_intra_single_member_edge():
    H = np.array([[1.0, 1.0], [0.0, 1.0]])  # edge 0 has one member
    Xh = Tensor(np.array([[0.4], [-1.0]]))
    a = Tensor(np.array([[2.0]]))
    alpha = intra_attention(Xh, H, a, 1.0).data
    assert alpha[0, 0] == pytest.approx(1.0)
    assert alpha[1, 0] == 0.0


def test_intra_equal_scores_split():
    H = np.ones((2, 1))
    Xh = Tensor(np.array([[1.0], [1.0]]))
    alpha = intra_attention(Xh, H, Tensor(np.array([[1.0]])), 1.0).data
    assert np.allclose(alpha[:, 0], [0.5, 0.5], atol=1e-15)


def test_intra_hand_softmax():
    # scores [0, ln 2] at tau=1 -> [1/3, 2/3]
    H = np.ones((2, 1))
    Xh = Tensor(np.array([[0.0], [np.log(2.0)]]))
    alpha = intra_attention(Xh, H, Tensor(np.array([[1.0]])), 1.0).data
    assert np.allclose(alpha[:, 0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_intra_rejects_empty_edge():
    H = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        intra_attention(Tensor(np.zeros((2, 1))), H, Tensor(np.ones((1, 1))), 1.0)


def test_embed_onehot_and_midpoint():
    H = np.ones((2, 1))
    Xh = Tensor(np.array([[0.0], [2.0]]))
    onehot = Tensor(np.array([[0.0], [1.0]]))
    assert hyperedge_embed(onehot, Xh).data[0, 0] == 2.0
    half = Tensor(np.array([[0.5], [0.5]]))
    assert hyperedge_embed(half, Xh).data[0, 0] == pytest.approx(1.0)


def test_embed_matches_loop_oracle():
    rng = np.random.default_rng(2)
    Xh = rng.normal(size=(4, 3))
    alpha = rng.random((4, 1))
    alpha /= alpha.sum()
    z = hyperedge_embed(Tensor(alpha), Tensor(Xh)).data
    expect = np.zeros(3)
    for i in range(4):
        expect += alpha[i, 0] * Xh[i]
    assert np.allclose(z[0], expect, atol=1e-14)
    # convex combination: each coordinate within member bounds
    assert np.all(z[0] <= Xh.max(axis=0) + 1e-12)
    assert np.all(z[0] >= Xh.min(axis=0) - 1e-12)


def test_inter_equal_scores():
    H = incidence(1, 1)
    Z = Tensor(np.array([[1.0], [1.0]]))
    beta = inter_attention(Z, H, Tensor(np.array([[3.0]])), 1.0).data
    assert np.allclose(beta[0], [0.5, 0.5], atol=1e-15)


def test_inter_hand_softmax():
    # edge scores [0, ln 3] -> [0.25, 0.75]
    H = incidence(1, 1)
    Z = Tensor(np.array([[0.0], [np.log(3.0)]]))
    beta = inter_attention(Z, H, Tensor(np.array([[1.0]])), 1.0).data
    assert np.allclose(beta[0], [0.25, 0.75], atol=1e-12)


def test_inter_high_temperature_uniform():
    H = incidence(1, 1)
    Z = Tensor(np.array([[5.0], [-2.0]]))
    beta = inter_attention(Z, H, Tensor(np.array([[1.0]])), 1e9).data
    assert np.allclose(beta[0], [0.5, 0.5], atol=1e-8)


def test_inter_rejects_isolated_node():
    H = np.array([[1.0], [0.0]])  # node 1 belongs to no hyperedge
    with pytest.raises(ValueError):
        inter_attention(Tensor(np.zeros((1, 1))), H, Tensor(np.ones((1, 1))), 1.0)


def test_encode_single_node_returns_row():
    H = incidence(1, 1)
    p = _params_with(9, d=4, K=2, d_model=3)
    X = np.random.default_rng(1).normal(size=(1, 4))
    Y, g = encode(X, H, p)
    assert np.array_equal(Y.data[0], g.data[0])


def test_encode_identity_chain():
    # one node, one head, every weight 1, bias 0: g collapses to the input
    p = EncoderParams(K=1, d=1, d_model=1)
    p.W = [Tensor(np.ones((1, 1)), requires_grad=True)]
    p.a = [Tensor(np.ones((1, 1)), requires_grad=True)]
    p.b = [Tensor(np.ones((1, 1)), requires_grad=True)]
    p.Wo = Tensor(np.ones((1, 1)), requires_grad=True)
    p.bo = Tensor(np.zeros((1, 1)), requires_grad=True)
    H = incidence(1, 1)
    for c in (-2.0, 0.0, 1.7):
        _, g = encode(np.array([[c]]), H, p)
        assert g.data[0, 0] == pytest.approx(c, abs=1e-15)


def test_encode_matches_loop_oracle():
    rng = np.random.default_rng(21)
    for n, t, K in [(2, 3, 1), (3, 2, 2), (4, 5, 4)]:
        d = 4 * K
        H = incidence(n, t)
        p = init_encoder(d, K, 6, rng=rng)
        X = rng.normal(size=(n * t, d))
        Y, g = encode(X, H, p)
        Ym, gm = manual_encode(X, H, p)
        assert np.allclose(Y.data, Ym, atol=1e-10)
        assert np.allclose(g.data, gm, atol=1e-10)


def test_normalization_random_instances():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        t = int(rng.integers(1, 7))
        K = int(rng.choice([1, 2, 4]))
        d = K * int(rng.integers(1, 5))
        H = incidence(n, t)
        p = init_encoder(d, K, 5, rng=rng)
        X = Tensor(rng.normal(size=(n * t, d)))
        for h in range(K):
            Xh = tape.matmul(X, Tensor(p.W[h]))
            alpha = intra_attention(Xh, H, Tensor(p.a[h]), 1.0).data
            assert np.all(np.abs(alpha.sum(axis=0) - 1.0) < 1e-12)
            assert np.all(alpha[H == 0] == 0.0)
            Z = hyperedge_embed(Tensor(alpha), Xh)
            beta = inter_attention(Z, H, Tensor(p.b[h]), 1.0).data
            assert np.all(np.abs(beta.sum(axis=1) - 1.0) < 1e-12)
            assert np.all(beta[H == 0] == 0.0)


def test_readout_permutation_invariance():
    rng = np.random.default_rng(4)
    H = incidence(3, 4)
    p = init_encoder(8, 2, 5, rng=rng)
    X = rng.normal(size=(12, 8))
    _, g0 = encode(X, H, p)
    for _ in range(10):
        perm = rng.permutation(12)
        _, g = encode(X[perm], H[perm], p)
        assert np.max(np.abs(g.data - g0.data)) <= 1e-12


def test_score_shift_invariance_and_scale_sensitivity():
    H = incidence(2, 2)
    rng = np.random.default_rng(8)
    p = init_encoder(4, 1, 3, rng=rng)
    X = Tensor(rng.normal(size=(4, 4)))
    Xh = tape.matmul(X, Tensor(p.W[0]))
    alpha = intra_attention(Xh, H, Tensor(p.a[0]), 1.0).data
    # additive shift of every node score leaves both softmax stages unchanged
    s = tape.matmul(Xh, Tensor(p.a[0]))
    S = tape.matmul(tape.add(s, Tensor(np.full((4, 1), 11.0))), Tensor(np.ones((1, 4))))
    alpha_shift = tape.masked_softmax(S, H > 0, axis=0).data
    assert np.allclose(alpha, alpha_shift, atol=1e-12)
    # multiplicative scaling of a changes alpha (scores are not all equal)
    alpha2 = intra_attention(Xh, H, Tensor(p.a[0] * 2.0), 1.0).data
    assert not np.allclose(alpha, alpha2, atol=1e-6)


def test_uniform_mode_is_plain_averaging():
    rng = np.random.default_rng(19)
    H = incidence(3, 2)
    p = init_encoder(4, 2, 5, rng=rng)
    X = rng.normal(size=(6, 4))
    Y, g = encode(X, H, p, uniform=True)
    # oracle: averages instead of attention
    heads = []
    for h in range(p.K):
        Xh = X @ p.W[h]
        alpha = H / H.sum(axis=0, keepdims=True)
        Z = alpha.T @ Xh
        beta = H / H.sum(axis=1, keepdims=True)
        heads.append(beta @ Z)
    Ym = np.hstack(heads) @ p.Wo + p.bo
    assert np.allclose(Y.data, Ym, atol=1e-12)
    assert np.allclose(g.data, Ym.max(axis=0, keepdims=True), atol=1e-12)


def test_encoder_gradients_finite_difference():
    # scalar loss of g, checked over every parameter tensor via the verifier:
    # the probed tensor IS the parameter object, so the tape sees it as a leaf
    rng = np.random.default_rng(12)
    H = incidence(2, 3)
    p = taped_encoder(init_encoder(4, 2, 3, rng=rng))
    X = rng.normal(size=(6, 4))
    v = rng.normal(size=(3, 1))

    def loss(_t):
        _, g = encode(X, H, p)
        return tape.reduce_sum(tape.matmul(g, Tensor(v)))

    for name, param in p.tensors().items():
        err = finite_diff_check(loss, param, eps=1e-5)
        assert err <= 1e-4, f"{name}: fd error {err}"


def test_encode_rejects_mismatched_width():
    H = incidence(2, 2)
    p = init_encoder(4, 2, 3)
    with pytest.raises(ValueError):
        encode(np.zeros((4, 6)), H, p)


def test_init_rejects_indivisible_width():
    with pytest.raises(ValueError):
        init_encoder(5, 2, 4)


# ------------------------------------------------ fused window encoder

# (spatial, temporal, uniform): the full critic and its three ablations
WINDOW_CONFIGS = {"full": (True, True, False), "no_dsha": (True, True, True),
                  "no_spatial": (False, True, False),
                  "no_temporal": (True, False, False)}


def _window_incidence(n, t, spatial, temporal):
    H = incidence(n, t)
    if not spatial:
        return temporal_only(H, t)
    if not temporal:
        return spatial_only(H, t)
    return H


def _as_table(X, n, t):
    """A (B, t*n, d) batch as a snapshot table and windows: row r's window
    is table rows r*t .. r*t + t - 1."""
    B, _, d = X.shape
    return X.reshape(B * t, n, d), np.arange(B * t).reshape(B, t)


def _grads(p):
    """enc.* gradients; an untouched tensor counts as a zero gradient."""
    return {name: np.zeros_like(q.data) if q.grad is None else q.grad.copy()
            for name, q in p.tensors().items()}


@pytest.mark.parametrize("n,t", [(6, 5), (3, 4)])
@pytest.mark.parametrize("config", WINDOW_CONFIGS)
def test_encode_window_matches_per_row_encode(config, n, t):
    spatial, temporal, uniform = WINDOW_CONFIGS[config]
    rng = np.random.default_rng(40 + n)
    p = taped_encoder(init_encoder(8, 4, 6, rng=rng))
    X = rng.normal(size=(5, n * t, 8))
    v = Tensor(rng.normal(size=(6, 1)))
    H = _window_incidence(n, t, spatial, temporal)

    clear_tape()
    rows = [encode(x, H, p, uniform=uniform)[1] for x in X]
    oracle = concat(rows, axis=0)
    tape.backward(tape.reduce_sum(tape.matmul(oracle, v)))
    want = _grads(p)
    for q in p.tensors().values():
        q.zero_grad()

    g = window_op(*_as_table(X, n, t), p, spatial=spatial,
                  temporal=temporal, uniform=uniform)
    assert g.shape == (5, 6)
    assert np.max(np.abs(g.data - oracle.data)) <= 1e-12
    tape.backward(tape.reduce_sum(tape.matmul(g, v)))
    got = _grads(p)
    for name in want:
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12, name


@pytest.mark.parametrize("n,t", [(6, 5), (3, 4)])
@pytest.mark.parametrize("config", WINDOW_CONFIGS)
def test_encode_window_readout_invariance(config, n, t):
    # one relabelling of the intersections (the same at every window step),
    # of the window steps, or of both, leaves every row's g unchanged
    spatial, temporal, uniform = WINDOW_CONFIGS[config]
    rng = np.random.default_rng(70 + n)
    p = init_encoder(8, 4, 6, rng=rng)
    X = rng.normal(size=(5, n * t, 8))
    grid = X.reshape(5, t, n, 8)
    g0 = encode_window(*_as_table(X, n, t), p, spatial=spatial,
                       temporal=temporal, uniform=uniform)[0]
    for steps, nodes in ((np.arange(t), rng.permutation(n)),
                         (rng.permutation(t), np.arange(n)),
                         (rng.permutation(t), rng.permutation(n))):
        Xp = grid[:, steps][:, :, nodes].reshape(5, n * t, 8)
        g = encode_window(*_as_table(Xp, n, t), p, spatial=spatial,
                          temporal=temporal, uniform=uniform)[0]
        assert np.max(np.abs(g - g0)) <= 1e-12


@pytest.mark.parametrize("config", WINDOW_CONFIGS)
def test_encode_window_gradients_finite_difference(config):
    spatial, temporal, uniform = WINDOW_CONFIGS[config]
    rng = np.random.default_rng(13)
    p = taped_encoder(init_encoder(4, 2, 3, rng=rng))
    X = rng.normal(size=(2, 6, 4))
    v = Tensor(rng.normal(size=(3, 1)))

    def loss(_t):
        g = window_op(*_as_table(X, 2, 3), p, spatial=spatial,
                      temporal=temporal, uniform=uniform)
        return tape.reduce_sum(tape.matmul(g, v))

    for name, param in p.tensors().items():
        err = finite_diff_check(loss, param, eps=1e-5)
        assert err <= 1e-6, f"{name}: fd error {err}"


def test_encode_window_records_nothing_without_grad():
    rng = np.random.default_rng(5)
    p = taped_encoder(init_encoder(4, 2, 3, rng=rng))
    clear_tape()
    with tape.no_grad():
        g = window_op(*_as_table(rng.normal(size=(3, 6, 4)), 3, 2), p)
    assert len(tape._tape()) == 0
    assert not g.track


def test_encode_window_tie_routes_gradient_to_first_node():
    # Wo = 0 makes every node's output exactly bo: each coordinate of g is an
    # N-way tie, and d loss/d Wo must come from node 0's head outputs alone
    rng = np.random.default_rng(6)
    n, t, d = 3, 2, 4
    p = taped_encoder(init_encoder(d, 2, d, rng=rng))
    X = rng.normal(size=(2, n * t, d))
    bo = p.bo.data.copy()
    p.Wo.data = np.eye(d)
    p.bo.data = np.zeros((1, d))
    heads = np.stack([encode(x, incidence(n, t), p)[0].data
                      for x in X])                     # (B, N, d) per node
    assert np.ptp(heads, axis=1).min() > 0          # nodes differ
    p.Wo.data = np.zeros((d, d))
    p.bo.data = bo
    g = window_op(*_as_table(X, n, t), p)
    assert np.array_equal(g.data, np.repeat(bo, 2, axis=0))
    up = rng.normal(size=(2, d))
    tape.backward(tape.reduce_sum(tape.mul(g, Tensor(up))))
    assert np.allclose(p.Wo.grad, heads[:, 0, :].T @ up, atol=1e-14)
    assert np.array_equal(p.bo.grad, up.sum(axis=0, keepdims=True))


@pytest.mark.parametrize("shape", [(4, 3, 6), (6, 4), (1, 4, 3, 4)])
def test_encode_window_rejects_a_batch_off_the_grid(shape):
    p = init_encoder(4, 2, 3)
    with pytest.raises(ValueError) as err:
        encode_window(np.zeros(shape), np.zeros((1, 2), dtype=int), p)
    assert str(shape) in str(err.value)
    assert "(S, n, 4)" in str(err.value)


@pytest.mark.parametrize("windows", [
    np.array([[0, 4]]), np.array([[-1, 0]]),          # rows off the table
    np.array([[0.0, 1.0]]), np.array([[True, False]]),  # not integer rows
    np.array([0, 1]), np.zeros((2, 0), dtype=int),      # not (B, t >= 1)
    np.zeros((1, 2, 1), dtype=int)],
    ids=["past_end", "negative", "float", "bool", "flat", "no_steps", "3d"])
def test_encode_window_rejects_bad_windows(windows):
    p = init_encoder(4, 2, 3)
    with pytest.raises(ValueError, match="window"):
        encode_window(np.zeros((4, 3, 4)), windows, p)


def test_encode_window_needs_a_hyperedge_family():
    p = init_encoder(4, 2, 3)
    with pytest.raises(ValueError):
        encode_window(*_as_table(np.zeros((1, 6, 4)), 3, 2), p, spatial=False,
                      temporal=False)


@pytest.mark.parametrize("config", WINDOW_CONFIGS)
def test_encode_window_overlapping_and_repeated_windows(config):
    # sliding windows over one table, as a rollout stores them: a prefill of
    # copies of the first snapshot, windows that share snapshots, rows that
    # share a window, and rows out of order; every row must match the
    # oracle on its own materialized window, for g and every gradient
    spatial, temporal, uniform = WINDOW_CONFIGS[config]
    n, t, d = 4, 5, 8
    rng = np.random.default_rng(90)
    p = taped_encoder(init_encoder(d, 4, 6, rng=rng))
    first = rng.normal(size=(n, d))
    table = np.concatenate([np.repeat(first[None], t, axis=0),
                            rng.normal(size=(9, n, d))])
    starts = np.array([0, 3, 1, 3, 9, 0, 4, 5, 3, 2, 9, 8])
    windows = starts[:, None] + np.arange(t)
    assert len(np.unique(starts)) < len(starts)
    weights = Tensor(rng.uniform(0.5, 2.0, size=(len(starts), 1)))
    v = Tensor(rng.normal(size=(6, 1)))
    H = _window_incidence(n, t, spatial, temporal)

    clear_tape()
    rows = [encode(table[w].reshape(t * n, d), H, p, uniform=uniform)[1]
            for w in windows]
    oracle = concat(rows, axis=0)
    tape.backward(tape.reduce_sum(tape.mul(tape.matmul(oracle, v), weights)))
    want = _grads(p)
    for q in p.tensors().values():
        q.zero_grad()

    g = window_op(table, windows, p, spatial=spatial, temporal=temporal,
                  uniform=uniform)
    assert np.max(np.abs(g.data - oracle.data)) <= 1e-12
    tape.backward(tape.reduce_sum(tape.mul(tape.matmul(g, v), weights)))
    got = _grads(p)
    assert np.abs(want["enc.Wo"]).max() > 0
    for name in want:
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12, name


@pytest.mark.parametrize("config", WINDOW_CONFIGS)
def test_encode_window_is_the_same_at_any_block_size(config, monkeypatch):
    # blocks only split stacked matmuls and gathers, so g and every gradient
    # (bytes and memory order) are the same at any BLOCK: one window or one
    # snapshot per block, 7, the default, and all of them in one block. The
    # table opens with copies of one snapshot, as a rollout's does. A
    # backward runs once (it lets the pooled edges go), and without grad
    # there is none and g is the same to the byte.
    spatial, temporal, uniform = WINDOW_CONFIGS[config]
    n, t, d, S, B = 4, 5, 8, 90, 120
    rng = np.random.default_rng(17)
    p = init_encoder(d, 4, 6, rng=rng)
    table = rng.normal(size=(S, n, d))
    table[:t] = table[0]
    windows = rng.integers(0, S - t + 1, size=B)[:, None] + np.arange(t)
    dg = rng.normal(size=(B, 6))
    assert S > len(np.unique(windows, axis=0)) > encmod.BLOCK
    got = []
    for block in (1, 7, encmod.BLOCK, S):
        monkeypatch.setattr(encmod, "BLOCK", block)
        g, backward = encode_window(table, windows, p, spatial=spatial,
                                    temporal=temporal, uniform=uniform)
        got.append([g.tobytes()] + [(name, grad.tobytes(), grad.strides)
                                    for name, grad in backward(dg).items()])
        with pytest.raises(RuntimeError, match="runs once"):
            backward(dg)
        g, backward = encode_window(table, windows, p, spatial=spatial,
                                    temporal=temporal, uniform=uniform, grad=False)
        assert backward is None and g.tobytes() == got[-1][0]
    assert all(run == got[0] for run in got[1:])

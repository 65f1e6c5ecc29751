"""Adam, gradient clipping, and checkpoint wire-format tests."""

import struct

import numpy as np
import pytest

from stdsh.checkpoint import MAGIC, load_params, save_params
from stdsh.optim import Adam, clip_grad_norm


def test_adam_minimizes_quadratic():
    x = np.array([5.0, -3.0])
    opt = Adam({"x": x}, lr=0.05)
    for _ in range(400):
        opt.step({"x": 2.0 * x})        # d/dx of sum(x^2)
    assert np.all(np.abs(x) < 1e-2)


def test_adam_first_step_size():
    # bias-corrected first step moves by ~lr regardless of gradient scale
    x = np.array([1.0])
    Adam({"x": x}, lr=0.01).step({"x": np.array([1000.0])})
    assert x[0] == pytest.approx(1.0 - 0.01, abs=1e-6)


def test_adam_skips_parameters_without_a_gradient():
    x, y = np.array([1.0]), np.array([2.0])
    opt = Adam({"x": x, "y": y}, lr=0.01)
    opt.step({"y": np.array([3.0])})
    assert x[0] == 1.0 and y[0] != 2.0
    assert opt.t == 1 and opt._m[0][0] == 0.0 and opt._v[0][0] == 0.0


def test_clip_grad_norm():
    grads = {"a": np.array([3.0, 0.0, 0.0]), "b": np.array([0.0, 4.0, 0.0, 0.0])}
    norm = clip_grad_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt((grads["a"] ** 2).sum() + (grads["b"] ** 2).sum())
    assert total == pytest.approx(1.0)
    # below the threshold nothing changes
    grads = {"a": np.array([0.1, 0.0, 0.0]), "b": np.zeros(4)}
    norm = clip_grad_norm(grads, 1.0)
    assert norm == pytest.approx(0.1)
    assert grads["a"][0] == pytest.approx(0.1)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    named = {
        "enc.W.h1": rng.normal(size=(6, 3)),
        "enc.a.h1": rng.normal(size=(3, 1)),
        "actor.b1": rng.normal(size=(1, 4)),
        "meta.flags": np.array([1.0, 0.0, 1.0, 1.0]),
        "scalar": np.array(3.25),
    }
    path = tmp_path / "model.ckpt"
    save_params(path, named)
    back = load_params(path)
    assert list(back.keys()) == list(named.keys())
    for k in named:
        assert back[k].shape == np.asarray(named[k]).shape
        assert np.array_equal(
            np.asarray(named[k], dtype=np.float64).tobytes(), back[k].tobytes()
        )


def test_checkpoint_layout_bytes(tmp_path):
    path = tmp_path / "one.ckpt"
    save_params(path, {"w": np.array([[1.0, 2.0]])})
    blob = path.read_bytes()
    assert blob[:6] == MAGIC == b"STDSH1"
    assert struct.unpack("<H", blob[6:8])[0] == 1          # name length
    assert blob[8:9] == b"w"
    assert blob[9] == 2                                    # rank
    assert struct.unpack("<II", blob[10:18]) == (1, 2)     # dims
    assert struct.unpack("<dd", blob[18:34]) == (1.0, 2.0) # little-endian f64


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE!!" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_params(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.ckpt"
    save_params(path, {"w": np.ones((4, 4))})
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError):
        load_params(path)


def test_checkpoint_repeated_entry_is_rejected(tmp_path):
    # two rank-0 entries both named "x": the second must not replace the first
    def entry(value):
        return struct.pack("<H", 1) + b"x" + struct.pack("<Bd", 0, value)

    path = tmp_path / "twice.ckpt"
    path.write_bytes(MAGIC + entry(1.0) + entry(2.0))
    with pytest.raises(ValueError, match=f"{path}.*repeats entry 'x'"):
        load_params(path)

"""Binary checkpoint codec for named float64 parameter tensors.

Wire format, little-endian throughout:

    magic bytes b"STDSH1"
    per parameter, in insertion order:
        u16  name length
        ...  name, utf-8
        u8   rank
        u32  dim, repeated rank times
        f64  values, C order, prod(dims) of them

Round-trips are bit-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"STDSH1"


def save_params(path, named: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays to `path` in insertion order."""
    chunks = [MAGIC]
    for name, arr in named.items():
        # note: ascontiguousarray would promote 0-d to 1-d and lose the rank
        a = np.asarray(arr, dtype=np.float64)
        if not a.flags.c_contiguous:
            a = np.array(a, dtype=np.float64, order="C")
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise ValueError(f"parameter name too long: {name!r}")
        if a.ndim > 0xFF:
            raise ValueError(f"rank too large for {name!r}: {a.ndim}")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", a.ndim))
        for d in a.shape:
            chunks.append(struct.pack("<I", d))
        chunks.append(a.astype("<f8", copy=False).tobytes(order="C"))
    Path(path).write_bytes(b"".join(chunks))


def load_params(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into an ordered name -> float64 array dict."""
    blob = Path(path).read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"bad checkpoint magic in {path}")
    out: dict[str, np.ndarray] = {}
    pos = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"truncated checkpoint {path} at byte {pos}")
        piece = blob[pos : pos + n]
        pos += n
        return piece

    while pos < len(blob):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        if name in out:
            raise ValueError(f"checkpoint {path} repeats entry {name!r}")
        (rank,) = struct.unpack("<B", take(1))
        dims = [struct.unpack("<I", take(4))[0] for _ in range(rank)]
        count = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(take(8 * count), dtype="<f8").astype(np.float64)
        out[name] = data.reshape(dims)
    return out

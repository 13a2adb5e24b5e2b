"""DWFC checkpoint file format.

Layout: magic `DWFC`, format version (u32 LE), length-prefixed UTF-8
architecture descriptor (key-value text block), the flat parameter vector
as little-endian float32, a BN sidecar (per BN layer in forward order:
running mean and running var as little-endian float64, count as u64), and
a metadata block (seed as i64, metric as float64).

The length-checked readers here serve every binary file the toolkit reads:
DWFC checkpoints, DWFP PCA models, DWFF flow models and IDX data. Loading
any of the three containers raises DataError on a bad magic, a bad
version, truncation or trailing bytes.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ConfigError, DataError
from .nn_core import ArchitectureSpec, WeightCheckpoint, flatten, unflatten

CKPT_MAGIC = b"DWFC"
CKPT_VERSION = 1


def _arch_block(arch: ArchitectureSpec) -> str:
    lines = [
        "layer_dims=" + ",".join(str(d) for d in arch.layer_dims),
        f"activation={arch.activation}",
        "bn_layers=" + ",".join("1" if b else "0" for b in arch.bn_layers),
    ]
    return "\n".join(lines) + "\n"


def _parse_arch_block(text: str) -> ArchitectureSpec:
    kv = {}
    for line in text.strip().splitlines():
        key, _, val = line.partition("=")
        kv[key] = val
    try:
        dims = tuple(int(v) for v in kv["layer_dims"].split(","))
        bn = tuple(v == "1" for v in kv["bn_layers"].split(",")) if kv.get("bn_layers") else None
        return ArchitectureSpec(dims, kv["activation"], bn)
    except (KeyError, ValueError, ConfigError) as exc:
        raise DataError(f"malformed architecture descriptor: {exc}") from exc


def save_checkpoint(ckpt: WeightCheckpoint, path) -> None:
    ckpt.validate()
    arch_blob = _arch_block(ckpt.arch).encode("utf-8")
    vec = flatten(ckpt)
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<I", len(arch_blob)))
        f.write(arch_blob)
        f.write(vec.astype("<f4").tobytes())
        for l in sorted(ckpt.bn):
            st = ckpt.bn[l]
            f.write(st.running_mean.astype("<f8").tobytes())
            f.write(st.running_var.astype("<f8").tobytes())
            f.write(struct.pack("<Q", st.count))
        f.write(struct.pack("<q", ckpt.seed))
        f.write(struct.pack("<d", ckpt.metric))


def _read_exact(f, count, path, what) -> bytes:
    """The next `count` bytes of binary file `f`; DataError if fewer remain."""
    offset = f.tell()
    if not 0 <= count <= os.fstat(f.fileno()).st_size - offset:
        raise DataError(f"{path}: truncated while reading {what} at byte offset {offset}")
    return f.read(count)


def _read_header(f, path, magic: bytes, version: int) -> None:
    """Check a 4-byte magic followed by a little-endian u32 format version."""
    if _read_exact(f, 4, path, "magic") != magic:
        raise DataError(f"{path}: not a {magic.decode()} file")
    found, = struct.unpack("<I", _read_exact(f, 4, path, "version"))
    if found != version:
        raise DataError(f"{path}: unsupported version {found}")


def _read_text(f, path, what) -> str:
    """A u32-length-prefixed UTF-8 block."""
    length, = struct.unpack("<I", _read_exact(f, 4, path, f"{what} length"))
    try:
        return _read_exact(f, length, path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not UTF-8") from exc


def _expect_end(f, path) -> None:
    if f.read(1):
        raise DataError(f"{path}: trailing bytes at byte offset {f.tell() - 1}")


def load_checkpoint(path) -> WeightCheckpoint:
    with open(path, "rb") as f:
        _read_header(f, path, CKPT_MAGIC, CKPT_VERSION)
        arch = _parse_arch_block(_read_text(f, path, "descriptor"))
        count = arch.param_count()
        vec = np.frombuffer(_read_exact(f, 4 * count, path, "flat vector"), dtype="<f4")
        sidecar = {}
        for l in range(arch.num_hidden):
            if arch.has_bn(l):
                d = arch.layer_dims[l + 1]
                mean = np.frombuffer(_read_exact(f, 8 * d, path, f"bn{l} mean"), dtype="<f8")
                var = np.frombuffer(_read_exact(f, 8 * d, path, f"bn{l} var"), dtype="<f8")
                cnt, = struct.unpack("<Q", _read_exact(f, 8, path, f"bn{l} count"))
                sidecar[l] = (mean, var, cnt)
        seed, = struct.unpack("<q", _read_exact(f, 8, path, "seed"))
        metric, = struct.unpack("<d", _read_exact(f, 8, path, "metric"))
        _expect_end(f, path)
    ckpt = unflatten(vec, arch, sidecar)
    ckpt.seed = seed
    ckpt.metric = metric
    return ckpt

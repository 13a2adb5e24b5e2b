"""DWFC population file format.

A DWFC file holds a population: N >= 0 networks of one architecture.
Layout: magic `DWFC`, format version (u32 LE), length-prefixed UTF-8
descriptor (key-value text block: the architecture and `members=N`), then
each field stacked over the members in member order: the (N, P) flat
parameter matrix as little-endian float32; per BN layer in forward order
the (N, d) running means, then the (N, d) running variances as
little-endian float64, then N counts as u64; N seeds as i64; N metrics as
float64. A checkpoint is the one-member case: `save_checkpoint` and
`load_checkpoint` call `save_population` and `load_population`.

The length-checked readers here serve every binary file the toolkit reads:
DWFC populations, DWFP PCA models, DWFF flow models and IDX data. Loading
any of the three containers raises DataError on a bad magic, a bad
version, truncation or trailing bytes.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ArgumentError, ConfigError, DataError
from .nn_core import ArchitectureSpec, WeightCheckpoint, flatten, unflatten

CKPT_MAGIC = b"DWFC"
CKPT_VERSION = 2


def _descriptor(arch: ArchitectureSpec, members: int) -> str:
    lines = [
        "layer_dims=" + ",".join(str(d) for d in arch.layer_dims),
        f"activation={arch.activation}",
        "bn_layers=" + ",".join("1" if b else "0" for b in arch.bn_layers),
        f"members={members}",
    ]
    return "\n".join(lines) + "\n"


def _parse_descriptor(text: str, path) -> tuple[ArchitectureSpec, int]:
    kv = {}
    for line in text.strip().splitlines():
        key, _, val = line.partition("=")
        kv[key] = val
    try:
        dims = tuple(int(v) for v in kv["layer_dims"].split(","))
        bn = tuple(v == "1" for v in kv["bn_layers"].split(",")) if kv.get("bn_layers") else None
        arch, members = ArchitectureSpec(dims, kv["activation"], bn), int(kv["members"])
    except (KeyError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: malformed descriptor: {exc!r}") from exc
    if members < 0:
        raise DataError(f"{path}: negative member count {members}")
    return arch, members


def _bn_dims(arch: ArchitectureSpec) -> dict:
    """BN hidden layer -> its width, in forward order."""
    return {l: arch.layer_dims[l + 1] for l in range(arch.num_hidden) if arch.has_bn(l)}


def save_population(pop, path, arch: ArchitectureSpec) -> None:
    """Write the networks of `pop`, all of architecture `arch`, as one file."""
    for i, ckpt in enumerate(pop):
        if ckpt.arch != arch:
            raise ArgumentError(f"member {i} has architecture {ckpt.arch}, "
                                f"not the population's {arch}")
        ckpt.validate()
    columns = [([flatten(c) for c in pop], "<f4")]
    for l in _bn_dims(arch):
        columns += [([c.bn[l].running_mean for c in pop], "<f8"),
                    ([c.bn[l].running_var for c in pop], "<f8"),
                    ([c.bn[l].count for c in pop], "<u8")]
    columns += [([c.seed for c in pop], "<i8"), ([c.metric for c in pop], "<f8")]
    descriptor = _descriptor(arch, len(pop)).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<II", CKPT_VERSION, len(descriptor)))
        f.write(descriptor)
        for values, dtype in columns:
            f.write(np.array(values, dtype=dtype).tobytes())


def save_checkpoint(ckpt: WeightCheckpoint, path) -> None:
    """One network as a one-member population file."""
    save_population([ckpt], path, ckpt.arch)


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


def load_population(path) -> list[WeightCheckpoint]:
    """Every network of a DWFC file, in member order."""
    with open(path, "rb") as f:
        _read_header(f, path, CKPT_MAGIC, CKPT_VERSION)
        arch, n = _parse_descriptor(_read_text(f, path, "descriptor"), path)

        def read(dtype, width, what):
            size = np.dtype(dtype).itemsize * n * width
            return np.frombuffer(_read_exact(f, size, path, what), dtype=dtype).reshape(n, width)

        params = read("<f4", arch.param_count(), "parameters")
        bn = {l: (read("<f8", d, f"bn{l} means"), read("<f8", d, f"bn{l} variances"),
                  read("<u8", 1, f"bn{l} counts")[:, 0].tolist())
              for l, d in _bn_dims(arch).items()}
        seeds = read("<i8", 1, "seeds")[:, 0].tolist()
        metrics = read("<f8", 1, "metrics")[:, 0].tolist()
        _expect_end(f, path)
    pop = []
    for i in range(n):
        ckpt = unflatten(params[i], arch, {l: (m[i], v[i], c[i]) for l, (m, v, c) in bn.items()})
        ckpt.seed, ckpt.metric = seeds[i], metrics[i]
        pop.append(ckpt)
    return pop


def load_checkpoint(path) -> WeightCheckpoint:
    """The one network of a one-member DWFC file."""
    pop = load_population(path)
    if len(pop) != 1:
        raise DataError(f"{path}: holds {len(pop)} networks, expected exactly one")
    return pop[0]

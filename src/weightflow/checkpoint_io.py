"""DWFC population file format.

A DWFC file holds a population: N >= 0 networks of one architecture.
Layout: magic `DWFC`, format version (u32 LE), length-prefixed UTF-8
descriptor (key-value text block: the architecture and `members=N`), then
each field stacked over the members in member order: the (N, P) flat
parameter matrix as little-endian float32; per BN layer in forward order
the (N, d) running means, then the (N, d) running variances as
little-endian float64, then N counts as u64; N seeds as i64; N metrics as
float64. These are the columns of an `nn_core.Population`, written and
read as they are; one network is a one-member population and file.

The length-checked readers here serve every binary file the toolkit reads:
DWFC populations, DWFP PCA models, DWFF flow models and IDX data. Loading
any of the three containers raises DataError on a bad magic, a bad
version, truncation or trailing bytes.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import ConfigError, DataError
from .nn_core import ArchitectureSpec, Population

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


def save_population(pop: Population, path) -> None:
    """Write the columns of `pop` as one file, once `pop.validate()` passes."""
    pop.validate()
    columns = [(pop.params, "<f4")]
    for l in pop.arch.bn_widths():
        mean, var, count = pop.bn[l]
        columns += [(mean, "<f8"), (var, "<f8"), (count, "<u8")]
    columns += [(pop.seeds, "<i8"), (pop.metrics, "<f8")]
    descriptor = _descriptor(pop.arch, len(pop)).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<II", CKPT_VERSION, len(descriptor)))
        f.write(descriptor)
        for values, dtype in columns:
            f.write(np.asarray(values, dtype=dtype).tobytes())


def _read_exact(f, count, path, what) -> bytearray:
    """The next `count` bytes of binary file `f`; DataError if fewer remain.
    A bytearray, so arrays over it are writable."""
    offset = f.tell()
    if not 0 <= count <= os.fstat(f.fileno()).st_size - offset:
        raise DataError(f"{path}: truncated while reading {what} at byte offset {offset}")
    buf = bytearray(count)
    f.readinto(buf)
    return buf


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


def load_population(path) -> Population:
    """The population a DWFC file holds."""
    with open(path, "rb") as f:
        _read_header(f, path, CKPT_MAGIC, CKPT_VERSION)
        arch, n = _parse_descriptor(_read_text(f, path, "descriptor"), path)

        def read(what, dtype, *width):
            size = np.dtype(dtype).itemsize * n * math.prod(width)
            return np.frombuffer(_read_exact(f, size, path, what), dtype=dtype).reshape(n, *width)

        params = read("parameters", "<f4", arch.param_count())
        bn = {l: (read(f"bn{l} means", "<f8", d), read(f"bn{l} variances", "<f8", d),
                  read(f"bn{l} counts", "<u8"))
              for l, d in arch.bn_widths().items()}
        seeds = read("seeds", "<i8")
        metrics = read("metrics", "<f8")
        _expect_end(f, path)
    return Population(arch, params, bn, seeds, metrics)


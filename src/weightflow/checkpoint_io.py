"""The one binary container, and the DWFC population format on it.

A container is a 4-byte magic, a little-endian u32 format version, a
u32-length UTF-8 header of key=value lines (the `format_pairs` codec, which
the stage manifests share), then little-endian arrays back to back. Every
binary file the toolkit writes is one: DWFC populations (here), DWFP PCA
models (`pca`) and DWFF flow models (`flow`). `load_container` raises
DataError on a bad magic, an unsupported version, a header that does not
parse, an array cut short or trailing bytes.

DWFC (version 2) holds N >= 0 networks of one architecture. Header:
`layer_dims`, `activation`, `bn_layers`, `members=N`. Arrays, each stacked
over the members in member order: the (N, P) float32 parameter matrix; per
BN layer in forward order the (N, d) float64 running means, the (N, d)
float64 running variances and N u64 counts; N i64 seeds; N float64 metrics.
These are the columns of an `nn_core.Population`, written and read as they
are; one network is a one-member population and file.
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


def format_pairs(pairs) -> str:
    """One `key=value` line per (key, value) pair, in order."""
    return "".join(f"{key}={value}\n" for key, value in pairs)


def parse_pairs(text: str) -> dict:
    """key -> value of `format_pairs` text; ValueError on a line without `=`."""
    lines = [line.partition("=") for line in text.splitlines()]
    for key, sep, _ in lines:
        if not sep:
            raise ValueError(f"line {key!r} has no '='")
    return {key: value for key, _, value in lines}


def save_container(path, magic: bytes, version: int, header_pairs, arrays) -> None:
    """A container of `header_pairs`, then each (values, dtype) of `arrays`
    as `np.asarray(values, dtype)` in C order."""
    header = format_pairs(header_pairs).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<II", version, len(header)))
        f.write(header)
        for values, dtype in arrays:
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


def load_container(path, magic: bytes, version: int, build, header: str):
    """`build(pairs, read)` for the container at `path`, once every byte of
    it is accounted for. `pairs` is the parsed header and `read(what,
    dtype, *shape)` returns the next array, writable. `header` names the
    header in errors; a KeyError, ValueError, TypeError or ConfigError from
    `build` makes it malformed."""
    with open(path, "rb") as f:
        if _read_exact(f, 4, path, "magic") != magic:
            raise DataError(f"{path}: not a {magic.decode()} file")
        found, = struct.unpack("<I", _read_exact(f, 4, path, "version"))
        if found != version:
            raise DataError(f"{path}: unsupported version {found}")
        length, = struct.unpack("<I", _read_exact(f, 4, path, f"{header} length"))
        try:
            text = _read_exact(f, length, path, header).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {header} is not UTF-8") from exc

        def read(what, dtype, *shape):
            if min(shape, default=0) < 0:
                raise ValueError(f"negative {what} shape {shape}")
            size = np.dtype(dtype).itemsize * math.prod(shape)
            return np.frombuffer(_read_exact(f, size, path, what), dtype=dtype).reshape(shape)

        try:
            result = build(parse_pairs(text), read)
        except (KeyError, ValueError, TypeError, ConfigError) as exc:
            raise DataError(f"{path}: malformed {header}: {exc!r}") from exc
        if f.read(1):
            raise DataError(f"{path}: trailing bytes at byte offset {f.tell() - 1}")
    return result


def save_population(pop: Population, path) -> None:
    """Write the columns of `pop` as one file, once `pop.validate()` passes."""
    pop.validate()
    arch = pop.arch
    header = [("layer_dims", ",".join(map(str, arch.layer_dims))),
              ("activation", arch.activation),
              ("bn_layers", ",".join("1" if b else "0" for b in arch.bn_layers)),
              ("members", len(pop))]
    columns = [(pop.params, "<f4")]
    for l in arch.bn_widths():
        mean, var, count = pop.bn[l]
        columns += [(mean, "<f8"), (var, "<f8"), (count, "<u8")]
    columns += [(pop.seeds, "<i8"), (pop.metrics, "<f8")]
    save_container(path, CKPT_MAGIC, CKPT_VERSION, header, columns)


def _build_population(pairs, read) -> Population:
    dims = tuple(int(v) for v in pairs["layer_dims"].split(","))
    bn = tuple(v == "1" for v in pairs["bn_layers"].split(",")) if pairs.get("bn_layers") else None
    arch, n = ArchitectureSpec(dims, pairs["activation"], bn), int(pairs["members"])
    if n < 0:
        raise ValueError(f"negative member count {n}")
    params = read("parameters", "<f4", n, arch.param_count())
    bn = {l: (read(f"bn{l} means", "<f8", n, d), read(f"bn{l} variances", "<f8", n, d),
              read(f"bn{l} counts", "<u8", n))
          for l, d in arch.bn_widths().items()}
    return Population(arch, params, bn, read("seeds", "<i8", n), read("metrics", "<f8", n))


def load_population(path) -> Population:
    """The population a DWFC file holds."""
    return load_container(path, CKPT_MAGIC, CKPT_VERSION, _build_population, "descriptor")

"""Deterministic random number generation.

Every stochastic operation in the toolkit draws from a Philox 4x64
counter-based generator keyed through a SeedSequence built from an explicit
integer seed plus a tuple of stream labels. Philox streams are documented,
splittable, and bit-stable across platforms, so whole populations and
pipelines reproduce exactly.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; load it at start-up

# Fixed label -> integer mapping so stream derivation never depends on
# Python hashing.
_STREAMS = {
    "init": 1,
    "shuffle": 2,
    "split": 3,
    "blobs": 4,
    "match": 5,
    "flow-init": 6,
    "flow-batch": 7,
    "flow-time": 8,
    "flow-source": 9,
    "flow-noise": 10,
    "flow-dropout": 11,
    "sample": 12,
    "svd": 13,
    "test": 14,
}


def make_rng(seed: int, *streams: int | str) -> np.random.Generator:
    """Return a Philox generator for the given seed and stream labels."""
    keys = [int(seed)]
    for s in streams:
        keys.append(_STREAMS[s] if isinstance(s, str) else int(s))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(keys)))

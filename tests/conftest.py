import numpy as np
import pytest

from weightflow.canonicalize import PermutationAssignment
from weightflow.data import load_iris, make_blobs
from weightflow.nn_core import (ArchitectureSpec, AttentionSpec, AttentionWeights,
                                TrainHyper, train_population)
from weightflow.rng import make_rng


def invert_permutation(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


def random_assignment(arch: ArchitectureSpec, seed: int = 0) -> PermutationAssignment:
    """One random permutation per hidden layer, from the (seed, "match", 99) stream."""
    rng = make_rng(seed, "match", 99)
    return PermutationAssignment(tuple(rng.permutation(arch.layer_dims[l + 1])
                                       for l in range(arch.num_hidden)))


def random_attention(spec: AttentionSpec, seed: int = 0, scale: float = 1.0) -> AttentionWeights:
    """Attention weights with N(0, scale^2) entries from the (seed, "init") stream."""
    rng = make_rng(seed, "init")
    h, hd, e = spec.num_heads, spec.head_dim, spec.embed_dim
    return AttentionWeights(
        w_q=rng.normal(0, scale, (h, hd, e)),
        w_k=rng.normal(0, scale, (h, hd, e)),
        w_v=rng.normal(0, scale, (h, hd, e)),
        w_o=rng.normal(0, scale, (e, e)),
    )


@pytest.fixture(scope="session")
def iris():
    return load_iris(0.2, seed=0)


@pytest.fixture(scope="session")
def blobs():
    return make_blobs(num_classes=3, per_class=50, d=4, spread=1.0, seed=0)


@pytest.fixture(scope="session")
def tiny_population(blobs):
    """Four quickly trained [4,8,3] networks on blobs."""
    train, test = blobs
    arch = ArchitectureSpec((4, 8, 3), "relu")
    return train_population(arch, train, TrainHyper(epochs=15),
                            [50 + i for i in range(4)], holdout=test)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# Slice ends that cut a binary file short, and None for one appended byte.
DAMAGE = [0, 3, 6, 10, 30, 40, 213, -1, None]


@pytest.fixture(params=DAMAGE,
                ids=lambda end: "append" if end is None else f"cut{end}")
def damage(request):
    """Maps a file's bytes to a truncated or over-long copy."""
    end = request.param
    return lambda blob: blob + b"\0" if end is None else blob[:end]

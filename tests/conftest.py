import numpy as np
import pytest

from weightflow.canonicalize import PermutationAssignment
from weightflow.data import load_iris, make_blobs
from weightflow.nn_core import (ArchitectureSpec, AttentionSpec, AttentionWeights,
                                Population, TrainHyper, forward, train_population)
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


def pre_bn_activations(pop: Population, features: np.ndarray, l: int) -> np.ndarray:
    """(N, B, d) pre-BN activations of BN layer `l` that an eval-mode
    `forward` of `pop` computes on `features`: the logits of `pop` cut
    after layer `l`, whose flat vectors are a prefix of `pop`'s."""
    arch = pop.arch
    cut = ArchitectureSpec(arch.layer_dims[:l + 2], arch.activation, arch.bn_layers[:l])
    head = Population(cut, np.ascontiguousarray(pop.params[:, :cut.param_count()]),
                      {k: pop.bn[k] for k in range(l) if k in pop.bn})
    return forward(head, features, "eval")


def assert_numpy_bn_statistics(pop: Population, features: np.ndarray) -> None:
    """Every BN layer's running mean, var and count are, bit for bit, each
    member's numpy float64 `mean` and `var` and the row count of the
    eval-mode pre-BN activations on `features`."""
    for l, (mean, var, count) in pop.bn.items():
        acts = pre_bn_activations(pop, features, l).astype(np.float64)
        for i, a in enumerate(acts):
            assert mean[i].tobytes() == a.mean(axis=0).tobytes(), (l, i)
            assert var[i].tobytes() == a.var(axis=0).tobytes(), (l, i)
        assert count.tolist() == [len(features)] * len(pop), l


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

"""Minimal MLP / BN-MLP substrate plus a toy multi-head attention forward.

Networks are stored as explicit numpy arrays (float32 parameters, float64
batch-norm running statistics). The flat parameter vector follows a fixed
canonical order: layers in forward order, each layer contributing W
(row-major) then b, followed by gamma then beta for batch-normalized hidden
layers. BN running statistics are sidecar state and never enter the flat
vector.

A `Population` holds N networks of one architecture as the columns of a
DWFC file: an (N, P) float32 matrix of flat vectors, per BN layer (N, d)
running means and variances and (N,) counts, seeds and metrics. Its
`net(block)` is the stacked net that training, evaluation and BN
recalibration take: per-layer W (N, d_out, d_in), b, gamma and beta (each
(N, 1, d_out)) are views into the matrix rows, and the running statistics
views into the population's own, so both are updated in place.
`train_population` runs one stacked forward, backward and optimizer step
per minibatch, yet every member follows its own seed's init and shuffles
and equals a one-member run bit for bit. A checkpoint is the one-member
case: `init_weights`, `unflatten` and `train_network` take `member(0)`,
and `forward` and `evaluate` broadcast its arrays as a one-member stack.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .activations import ACTIVATIONS
from .errors import ArgumentError, ConfigError, ShapeError, TrainingDivergedError
from .rng import make_rng

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass(frozen=True)
class AttentionSpec:
    embed_dim: int
    num_heads: int
    head_dim: int

    def __post_init__(self):
        if self.embed_dim != self.num_heads * self.head_dim:
            raise ConfigError(
                f"embed_dim {self.embed_dim} != num_heads {self.num_heads} "
                f"x head_dim {self.head_dim}"
            )


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer widths, activation, and per-hidden-layer BN flags for an MLP."""

    layer_dims: tuple
    activation: str = "relu"
    bn_layers: tuple = None  # per hidden layer; defaults to all-False

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ConfigError(f"layer_dims must have >=2 entries >=1, got {dims}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        n_hidden = len(dims) - 2
        bn = self.bn_layers
        if bn is None:
            bn = (False,) * n_hidden
        bn = tuple(bool(b) for b in bn)
        if len(bn) != n_hidden:
            raise ConfigError(
                f"bn_layers needs {n_hidden} entries, got {len(bn)}"
            )
        object.__setattr__(self, "bn_layers", bn)

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def num_hidden(self) -> int:
        return len(self.layer_dims) - 2

    def has_bn(self, layer: int) -> bool:
        return layer < self.num_hidden and self.bn_layers[layer]

    def bn_widths(self) -> dict:
        """BN hidden layer -> its width, in forward order."""
        return {l: self.layer_dims[l + 1] for l in range(self.num_hidden) if self.has_bn(l)}

    def param_count(self) -> int:
        """Flat-vector length: weights, biases, and BN gamma/beta."""
        total = 0
        for l in range(self.num_layers):
            d_in, d_out = self.layer_dims[l], self.layer_dims[l + 1]
            total += d_out * d_in + d_out
            if self.has_bn(l):
                total += 2 * d_out
        return total


@dataclass
class BatchNormState:
    gamma: np.ndarray        # float32, learned scale
    beta: np.ndarray         # float32, learned shift
    running_mean: np.ndarray  # float64 sidecar
    running_var: np.ndarray   # float64 sidecar, population variance
    count: int = 0            # in a stacked net: (N,) uint64, updated in place


@dataclass
class WeightCheckpoint:
    arch: ArchitectureSpec
    weights: list            # weights[l]: (d_{l+1}, d_l) float32
    biases: list             # biases[l]: (d_{l+1},) float32
    bn: dict = field(default_factory=dict)  # hidden layer index -> BatchNormState
    seed: int = 0
    metric: float = float("nan")

    def copy(self) -> "WeightCheckpoint":
        return copy.deepcopy(self)

    def validate(self) -> None:
        arch = self.arch
        if len(self.weights) != arch.num_layers or len(self.biases) != arch.num_layers:
            raise ShapeError("layer count mismatch")
        for l in range(arch.num_layers):
            d_in, d_out = arch.layer_dims[l], arch.layer_dims[l + 1]
            if self.weights[l].shape != (d_out, d_in):
                raise ShapeError(f"W_{l} shape {self.weights[l].shape} != {(d_out, d_in)}")
            if self.biases[l].shape != (d_out,):
                raise ShapeError(f"b_{l} shape {self.biases[l].shape} != {(d_out,)}")
        for l, st in self.bn.items():
            if not arch.has_bn(l):
                raise ShapeError(f"unexpected BN state at layer {l}")
            d = arch.layer_dims[l + 1]
            for name in ("gamma", "beta", "running_mean", "running_var"):
                if getattr(st, name).shape != (d,):
                    raise ShapeError(f"BN {name} at layer {l} has wrong shape")
            if np.any(st.running_var < 0) or st.count < 0:
                raise ShapeError(f"BN layer {l} has negative variance or count")
        for l in range(arch.num_hidden):
            if arch.has_bn(l) and l not in self.bn:
                raise ShapeError(f"missing BN state at layer {l}")


INIT_SCHEMES = ("kaiming", "xavier", "normal", "uniform", "kaiming_zero_bias")


def init_population(arch: ArchitectureSpec, seeds, scheme: str = "kaiming",
                    scale: float | None = None) -> "Population":
    """Deterministically initialize one network per seed, each from its own
    (seed, "init") stream: BN gamma 1, beta 0 and fresh running statistics.

    `scale` is the sigma of the normal scheme (default 0.01) or the
    half-width of the uniform scheme (default 0.1); ignored otherwise.
    """
    if scheme not in INIT_SCHEMES:
        raise ConfigError(f"unknown init scheme {scheme!r}")
    pop = Population(arch, np.zeros((len(seeds), arch.param_count()), np.float32),
                     seeds=np.array(seeds, dtype=np.int64))
    net = pop.net()
    for i, seed in enumerate(seeds):
        rng = make_rng(seed, "init")
        for l in range(arch.num_layers):
            d_in, d_out = arch.layer_dims[l], arch.layer_dims[l + 1]
            w, b = net.weights[l][i], net.biases[l][i, 0]  # biases stay 0 unless drawn
            if scheme in ("kaiming", "kaiming_zero_bias"):
                w[...] = rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_out, d_in))
                if scheme == "kaiming":
                    bound = 1.0 / np.sqrt(d_in)
                    b[...] = rng.uniform(-bound, bound, size=d_out)
            elif scheme == "xavier":
                bound = np.sqrt(6.0 / (d_in + d_out))
                w[...] = rng.uniform(-bound, bound, size=(d_out, d_in))
            elif scheme == "normal":
                w[...] = rng.normal(0.0, 0.01 if scale is None else scale, size=(d_out, d_in))
            else:  # uniform
                a = 0.1 if scale is None else scale
                w[...] = rng.uniform(-a, a, size=(d_out, d_in))
    for st in net.bn.values():
        st.gamma[...] = 1.0
    return pop


def init_weights(arch: ArchitectureSpec, scheme: str = "kaiming", seed: int = 0,
                 scale: float | None = None) -> WeightCheckpoint:
    """One network: the one-member case of `init_population`."""
    return init_population(arch, [seed], scheme, scale).member(0)


def _forward_cached(net: WeightCheckpoint, batch: np.ndarray, mode: str):
    """Stacked forward pass keeping per-layer intermediates for backprop.

    `batch` is (N, B, d_in) and `net` holds N members' tensors in
    `_param_views` shapes, or is one checkpoint, whose (d_out, d_in) and
    (d,) arrays broadcast as a one-member stack. Returns (logits
    (N, B, d_out), caches). Train mode uses each member's batch statistics
    in BN layers and updates its running stats by EMA with momentum 0.1.
    """
    arch = net.arch
    act, _ = ACTIVATIONS[arch.activation]
    z = batch.astype(np.float32)
    caches = []
    for l in range(arch.num_layers):
        a = np.matmul(z, net.weights[l].swapaxes(-1, -2)) + net.biases[l]
        cache = {"z_in": z}
        if l < arch.num_hidden:
            if arch.has_bn(l):
                st = net.bn[l]
                if mode == "train":
                    mu = a.mean(axis=1, dtype=np.float64, keepdims=True)
                    var = a.astype(np.float64).var(axis=1, keepdims=True)
                    st.running_mean[:] = (1 - BN_MOMENTUM) * st.running_mean + BN_MOMENTUM * mu
                    st.running_var[:] = (1 - BN_MOMENTUM) * st.running_var + BN_MOMENTUM * var
                    st.count += a.shape[1]
                else:
                    mu = st.running_mean
                    var = st.running_var
                inv_std = 1.0 / np.sqrt(var + BN_EPS)
                xhat = ((a - mu) * inv_std).astype(np.float32)
                a = st.gamma * xhat + st.beta
                cache.update(xhat=xhat, inv_std=inv_std.astype(np.float32))
            cache["pre_act"] = a
            z = act(a)
        else:
            z = a
        caches.append(cache)
    return z, caches


def forward(ckpt: WeightCheckpoint, batch: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Logits for a batch; eval mode is pure, train mode updates BN stats."""
    arch = ckpt.arch
    if batch.ndim != 2 or batch.shape[1] != arch.layer_dims[0]:
        raise ShapeError(
            f"batch has shape {batch.shape}, expected (n, {arch.layer_dims[0]})"
        )
    if mode not in ("train", "eval"):
        raise ArgumentError(f"unknown mode {mode!r}")
    logits, _ = _forward_cached(ckpt, batch[None], mode)
    return logits[0]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch axis: a float for (B, C) logits,
    one loss per member for stacked (N, B, C) logits."""
    shifted = logits.astype(np.float64) - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0]
    return np.mean(log_z - picked, axis=-1)


def _backward(net: WeightCheckpoint, caches, logits, labels, grads) -> None:
    """Stacked gradients of each member's mean cross-entropy, written in
    place into `grads` (the `_param_views` of the gradient matrix)."""
    arch = net.arch
    grad_w, grad_b, grad_bn = grads
    _, act_grad = ACTIVATIONS[arch.activation]
    members, n = labels.shape
    delta = _softmax(logits).astype(np.float32)
    delta[np.arange(members)[:, None], np.arange(n), labels] -= 1.0
    delta /= n

    for l in reversed(range(arch.num_layers)):
        cache = caches[l]
        if l < arch.num_hidden:
            delta = delta * act_grad(cache["pre_act"])
            if arch.has_bn(l):
                xhat = cache["xhat"]
                grad_gamma, grad_beta = grad_bn[l]
                grad_gamma[:] = (delta * xhat).sum(axis=1, keepdims=True)
                grad_beta[:] = delta.sum(axis=1, keepdims=True)
                dxhat = delta * net.bn[l].gamma
                delta = cache["inv_std"] * (
                    dxhat
                    - dxhat.mean(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
                )
        np.matmul(delta.transpose(0, 2, 1), cache["z_in"], out=grad_w[l])
        grad_b[l][:] = delta.sum(axis=1, keepdims=True)
        if l > 0:
            delta = np.matmul(delta, net.weights[l])


OPTIMIZERS = ("adam", "adamw", "sgd")


@dataclass(frozen=True)
class TrainHyper:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 16
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size >= 1 and epochs >= 0 required")


ADAM_CHUNK = 32768


class _Adam:
    """Adam over a list of arrays, updated in place; the caller passes each
    step's learning rate. Weight decay is added to the gradient (Adam) or,
    with `decoupled`, to the update (AdamW). Used by both the population
    networks (one (N, P) matrix) and the flow model (one flat buffer).

    Each array is updated ADAM_CHUNK elements at a time by in-place ufuncs
    into two scratch buffers allocated here, so a step allocates nothing
    and works within the CPU cache. The elementwise operations and their
    order are those of the textbook per-tensor expression, so the result is
    the same bit for bit."""

    def __init__(self, params, betas, weight_decay, decoupled):
        self.b1, self.b2 = betas
        self.eps = 1e-8
        self.wd = weight_decay
        self.decoupled = decoupled
        self._flat = [np.reshape(p, -1, copy=False) for p in params]
        self.m = [np.zeros_like(p) for p in self._flat]
        self.v = [np.zeros_like(p) for p in self._flat]
        self.t = 0
        size = min(ADAM_CHUNK, max(p.size for p in params))
        self._scratch = {p.dtype: (np.empty(size, p.dtype), np.empty(size, p.dtype))
                         for p in params}

    def step(self, grads, lr):
        self.t += 1
        b1, b2, wd = self.b1, self.b2, self.wd
        b1t = 1 - b1 ** self.t
        b2t = 1 - b2 ** self.t
        for p, g, m, v in zip(self._flat, grads, self.m, self.v):
            g = np.reshape(g, -1).astype(p.dtype, copy=False)
            scratch_a, scratch_b = self._scratch[p.dtype]
            for s in range(0, p.size, ADAM_CHUNK):
                pc, gc = p[s:s + ADAM_CHUNK], g[s:s + ADAM_CHUNK]
                mc, vc = m[s:s + ADAM_CHUNK], v[s:s + ADAM_CHUNK]
                a, b = scratch_a[:pc.size], scratch_b[:pc.size]
                if wd and not self.decoupled:        # g = g + wd * p
                    gc = np.add(gc, np.multiply(wd, pc, out=a), out=a)
                # m = b1 * m + (1 - b1) * g
                np.add(np.multiply(b1, mc, out=mc),
                       np.multiply(1 - b1, gc, out=b), out=mc)
                # v = b2 * v + (1 - b2) * g * g
                np.multiply(np.multiply(1 - b2, gc, out=b), gc, out=b)
                np.add(np.multiply(b2, vc, out=vc), b, out=vc)
                # update = (m / b1t) / (sqrt(v / b2t) + eps)
                np.add(np.sqrt(np.divide(vc, b2t, out=a), out=a), self.eps, out=a)
                update = np.divide(np.divide(mc, b1t, out=b), a, out=b)
                if wd and self.decoupled:            # update = update + wd * p
                    np.add(update, np.multiply(wd, pc, out=a), out=update)
                # p -= lr * update
                pc -= np.multiply(lr, update, out=update)


class _SGD:
    def __init__(self, params, weight_decay):
        self.params = params
        self.wd = weight_decay

    def step(self, grads, lr):
        for p, g in zip(self.params, grads):
            if self.wd:
                g = g + self.wd * p
            p -= (lr * g).astype(p.dtype)


def _param_views(mat: np.ndarray, arch: ArchitectureSpec):
    """Views into the rows of an (N, P) matrix in `flatten` order: per-layer
    weights (N, d_out, d_in) and biases, and per BN layer (gamma, beta).
    Vectors are (N, 1, d_out), so they broadcast over the batch axis."""
    pos = 0

    def take(*shape):
        nonlocal pos
        size = math.prod(shape)
        view = mat[:, pos:pos + size].reshape(mat.shape[0], *shape)
        pos += size
        return view

    weights, biases, bn = [], [], {}
    for l in range(arch.num_layers):
        d_in, d_out = arch.layer_dims[l], arch.layer_dims[l + 1]
        weights.append(take(d_out, d_in))
        biases.append(take(1, d_out))
        if arch.has_bn(l):
            bn[l] = (take(1, d_out), take(1, d_out))
    return weights, biases, bn


@dataclass
class Population:
    """N networks of one architecture as the columns of a DWFC file. Left
    out, BN statistics start at zero mean, unit variance and count 0, seeds
    at 0 and metrics at nan."""

    arch: ArchitectureSpec
    params: np.ndarray       # (N, P) float32 flat vectors
    bn: dict = None          # BN layer -> (means, variances (N, d) float64, counts (N,) uint64)
    seeds: np.ndarray = None    # (N,) int64
    metrics: np.ndarray = None  # (N,) float64

    def __post_init__(self):
        n = len(self.params)
        if self.bn is None:
            self.bn = {l: (np.zeros((n, d)), np.ones((n, d)), np.zeros(n, np.uint64))
                       for l, d in self.arch.bn_widths().items()}
        if self.seeds is None:
            self.seeds = np.zeros(n, np.int64)
        if self.metrics is None:
            self.metrics = np.full(n, np.nan)

    @classmethod
    def from_checkpoints(cls, arch: ArchitectureSpec, ckpts) -> "Population":
        """The population of the checkpoints `ckpts`, all of architecture
        `arch`; ArgumentError names the first member of another one."""
        for i, ckpt in enumerate(ckpts):
            if ckpt.arch != arch:
                raise ArgumentError(f"member {i} has architecture {ckpt.arch}, "
                                    f"not the population's {arch}")
            ckpt.validate()
        n = len(ckpts)
        params = np.array([flatten(c) for c in ckpts], np.float32).reshape(n, arch.param_count())
        bn = {l: (np.array([c.bn[l].running_mean for c in ckpts], np.float64).reshape(n, d),
                  np.array([c.bn[l].running_var for c in ckpts], np.float64).reshape(n, d),
                  np.array([c.bn[l].count for c in ckpts], np.uint64))
              for l, d in arch.bn_widths().items()}
        return cls(arch, params, bn, np.array([c.seed for c in ckpts], np.int64),
                   np.array([c.metric for c in ckpts], np.float64))

    def __len__(self) -> int:
        return len(self.params)

    def validate(self) -> None:
        """ShapeError unless every column has the shape `arch` gives it and
        no running variance or count is negative."""
        n, widths = len(self), self.arch.bn_widths()
        if (self.params.shape != (n, self.arch.param_count()) or sorted(self.bn) != list(widths)
                or self.seeds.shape != (n,) or self.metrics.shape != (n,)):
            raise ShapeError(f"population columns do not fit {n} networks of {self.arch}")
        for l, (mean, var, count) in self.bn.items():
            if mean.shape != (n, widths[l]) or var.shape != mean.shape or count.shape != (n,):
                raise ShapeError(f"BN statistics at layer {l} have the wrong shape")
            if np.any(var < 0) or np.any(count < 0):
                raise ShapeError(f"BN layer {l} has negative variance or count")

    def net(self, block: slice = slice(None)) -> WeightCheckpoint:
        """The members in `block` as one stacked net, as `_forward_cached`,
        `evaluate_members` and `recalibrate_members` take it: `_param_views`
        of their parameter rows, and views of their own BN statistics,
        (n, 1, d) means and variances and (n,) counts."""
        weights, biases, gamma_beta = _param_views(self.params[block], self.arch)
        bn = {l: BatchNormState(gamma, beta, self.bn[l][0][block, None],
                                self.bn[l][1][block, None], self.bn[l][2][block])
              for l, (gamma, beta) in gamma_beta.items()}
        return WeightCheckpoint(self.arch, weights, biases, bn)

    def member(self, i: int) -> WeightCheckpoint:
        """Member i as a checkpoint of its own, holding copies of its rows."""
        weights, biases, gamma_beta = _param_views(self.params[i:i + 1].copy(), self.arch)
        bn = {l: BatchNormState(gamma[0, 0], beta[0, 0], self.bn[l][0][i].copy(),
                                self.bn[l][1][i].copy(), int(self.bn[l][2][i]))
              for l, (gamma, beta) in gamma_beta.items()}
        return WeightCheckpoint(self.arch, [w[0] for w in weights], [b[0, 0] for b in biases],
                                bn, int(self.seeds[i]), float(self.metrics[i]))

    def evaluate(self, data) -> list:
        """`evaluate_members` of every member, one stacked pass per block of
        `member_blocks` sized on the rows of `data`."""
        blocks = member_blocks(len(self), self.arch, data.features.shape[0])
        return [result for block in blocks for result in evaluate_members(self.net(block), data)]


def train_population(arch: ArchitectureSpec, data, hyper: TrainHyper, seeds,
                     holdout=None, init_scheme: str = "kaiming") -> Population:
    """Train one freshly initialized network per seed with mini-batch
    cross-entropy, all members in one stacked pass per minibatch.

    hyper.seed is ignored; each member is deterministic given its seed
    (seeded init and per-epoch shuffles) and equals a one-member run bit
    for bit. metrics hold held-out accuracy when `holdout` is given, else
    training accuracy.
    """
    if data.features.shape[0] == 0:
        raise ArgumentError("empty training dataset")
    if len(seeds) == 0:
        raise ArgumentError("train_population needs at least one seed")
    n_classes = arch.layer_dims[-1]
    if data.labels.min() < 0 or data.labels.max() >= n_classes:
        raise ArgumentError("labels out of range for output dimension")

    pop = init_population(arch, seeds, init_scheme)
    params = pop.params
    grads = np.empty_like(params)
    net = pop.net()
    grad_views = _param_views(grads, arch)
    if hyper.optimizer == "sgd":
        opt = _SGD([params], hyper.weight_decay)
    else:
        opt = _Adam([params], (0.9, 0.999), hyper.weight_decay,
                    decoupled=(hyper.optimizer == "adamw"))

    rngs = [make_rng(s, "shuffle") for s in seeds]
    x, y = data.features, data.labels
    n = x.shape[0]
    # A diverging member overflows before its loss turns non-finite; the
    # loss check below reports that, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hyper.epochs):
            order = np.stack([rng.permutation(n) for rng in rngs])
            for start in range(0, n, hyper.batch_size):
                idx = order[:, start:start + hyper.batch_size]
                labels = y[idx]
                logits, caches = _forward_cached(net, x[idx], "train")
                finite = np.isfinite(cross_entropy(logits, labels))
                if not finite.all():
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch offset {start}, "
                        f"seed {seeds[int(np.argmin(finite))]}"
                    )
                _backward(net, caches, logits, labels, grad_views)
                opt.step([grads], hyper.learning_rate)

    eval_data = holdout if holdout is not None else data
    pop.metrics[:] = [result.accuracy for result in pop.evaluate(eval_data)]
    return pop


def train_network(arch: ArchitectureSpec, data, hyper: TrainHyper,
                  holdout=None, init_scheme: str = "kaiming") -> WeightCheckpoint:
    """Train one network seeded by hyper.seed: a one-member `train_population`."""
    return train_population(arch, data, hyper, [hyper.seed], holdout,
                            init_scheme).member(0)


# Byte budget of one member block's float64 activations of one layer.
MEMBER_BLOCK_BYTES = 2 << 20


def member_blocks(n_members: int, arch: ArchitectureSpec, n_rows: int) -> list:
    """Slices that split `n_members` members into blocks whose float64
    activations of one layer over `n_rows` rows fit in MEMBER_BLOCK_BYTES
    (at least one member per block)."""
    per_member = 8 * n_rows * max(arch.layer_dims[1:])
    size = max(1, MEMBER_BLOCK_BYTES // per_member)
    return [slice(s, min(s + size, n_members)) for s in range(0, n_members, size)]


@dataclass
class EvalResult:
    accuracy: float
    predictions: np.ndarray


def evaluate_members(net: WeightCheckpoint, data) -> list[EvalResult]:
    """Eval-mode accuracy and argmax predictions of every member of a
    stacked net, from one `_forward_cached` pass (one checkpoint is a
    one-member stack)."""
    if data.features.shape[0] == 0:
        raise ArgumentError("empty dataset")
    if data.features.shape[1] != net.arch.layer_dims[0]:
        raise ShapeError(f"features have dim {data.features.shape[1]}, "
                         f"expected {net.arch.layer_dims[0]}")
    logits, _ = _forward_cached(net, data.features[None], "eval")
    return [EvalResult(accuracy=float(np.mean(preds == data.labels)), predictions=preds)
            for preds in logits.argmax(axis=-1)]


def evaluate(ckpt: WeightCheckpoint, data) -> EvalResult:
    """Eval-mode accuracy and argmax predictions."""
    return evaluate_members(ckpt, data)[0]


def flatten(ckpt: WeightCheckpoint) -> np.ndarray:
    """Canonical flat vector: per layer W row-major, b, then BN gamma, beta."""
    parts = []
    for l in range(ckpt.arch.num_layers):
        parts.append(ckpt.weights[l].ravel())
        parts.append(ckpt.biases[l])
        if ckpt.arch.has_bn(l):
            parts.append(ckpt.bn[l].gamma)
            parts.append(ckpt.bn[l].beta)
    return np.concatenate(parts).astype(np.float32)


def unflatten(vec: np.ndarray, arch: ArchitectureSpec) -> WeightCheckpoint:
    """A checkpoint from a flat vector, with fresh BN running statistics
    (zero mean, unit variance, count 0)."""
    vec = np.asarray(vec, dtype=np.float32).ravel()
    if vec.size != arch.param_count():
        raise ShapeError(
            f"flat vector has {vec.size} entries, arch needs {arch.param_count()}"
        )
    return Population(arch, vec[None]).member(0)


@dataclass
class AttentionWeights:
    """Toy multi-head attention block: per-head q/k/v projections + output."""

    w_q: np.ndarray  # (H, head_dim, embed_dim)
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray  # (embed_dim, embed_dim); input columns grouped by head

    @property
    def num_heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def head_dim(self) -> int:
        return self.w_q.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.w_q.shape[2]

    def copy(self) -> "AttentionWeights":
        return AttentionWeights(self.w_q.copy(), self.w_k.copy(),
                                self.w_v.copy(), self.w_o.copy())

    def validate(self) -> None:
        h, hd, e = self.w_q.shape
        for name in ("w_k", "w_v"):
            if getattr(self, name).shape != (h, hd, e):
                raise ShapeError(f"{name} shape {getattr(self, name).shape} != {(h, hd, e)}")
        if self.w_o.shape != (e, e):
            raise ShapeError(f"w_o shape {self.w_o.shape} != {(e, e)}")
        if h * hd != e:
            raise ShapeError(f"num_heads {h} x head_dim {hd} != embed_dim {e}")


def random_attention(spec: AttentionSpec, seed: int = 0, scale: float = 1.0) -> AttentionWeights:
    rng = make_rng(seed, "init")
    h, hd, e = spec.num_heads, spec.head_dim, spec.embed_dim
    return AttentionWeights(
        w_q=rng.normal(0, scale, (h, hd, e)),
        w_k=rng.normal(0, scale, (h, hd, e)),
        w_v=rng.normal(0, scale, (h, hd, e)),
        w_o=rng.normal(0, scale, (e, e)),
    )


def mha_forward(attn: AttentionWeights, tokens: np.ndarray) -> np.ndarray:
    """Scaled-dot-product multi-head attention on a (tokens x embed) matrix."""
    attn.validate()
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[1] != attn.embed_dim:
        raise ShapeError(
            f"tokens shape {tokens.shape} incompatible with embed_dim {attn.embed_dim}"
        )
    outs = []
    scale = 1.0 / np.sqrt(attn.head_dim)
    for i in range(attn.num_heads):
        q = tokens @ attn.w_q[i].T
        k = tokens @ attn.w_k[i].T
        v = tokens @ attn.w_v[i].T
        logits = q @ k.T * scale
        weights = _softmax(logits)
        outs.append(weights @ v)
    concat = np.concatenate(outs, axis=1)
    return concat @ attn.w_o.T

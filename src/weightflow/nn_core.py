"""Minimal MLP / BN-MLP substrate plus a toy multi-head attention forward.

Networks are stored as explicit numpy arrays (float32 parameters, float64
batch-norm running statistics). The flat parameter vector follows a fixed
canonical order: layers in forward order, each layer contributing W
(row-major) then b, followed by gamma then beta for batch-normalized hidden
layers. BN running statistics are sidecar state and never enter the flat
vector.

`Population` is the one network type: N networks of one architecture as
the columns of a DWFC file, an (N, P) float32 matrix of flat vectors, per
BN layer (N, d) running means and variances and (N,) counts, seeds and
metrics. One network is a one-member population. Built once per
population, its stacked views are what training, evaluation and BN
recalibration read and write: per-layer W (N, d_out, d_in), b, gamma and
beta (each (N, 1, d_out)) over the matrix rows, and (N, 1, d) means and
variances over the statistics, so all of them are updated in place.
`pop[block]` is the population of the block's rows, as views.
`train_population` runs one stacked forward, backward and optimizer step
per minibatch, yet every member follows its own seed's init and shuffles
and equals a one-member run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    layer_dims: tuple[int, ...] = (4, 16, 3)
    activation: str = "relu"
    # One 0/1 flag per hidden layer; a single flag applies to every hidden
    # layer. Defaults to all-False.
    bn_layers: tuple[int, ...] = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ConfigError(f"layer_dims must have >=2 entries >=1, got {dims}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        n_hidden = len(dims) - 2
        bn = (False,) if self.bn_layers is None else tuple(self.bn_layers)
        if len(bn) == 1:
            bn *= n_hidden
        if len(bn) != n_hidden or any(b not in (0, 1) for b in bn):
            raise ConfigError(f"bn_layers needs one 0/1 flag per hidden layer "
                              f"({n_hidden}), got {bn}")
        object.__setattr__(self, "bn_layers", tuple(bool(b) for b in bn))

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


INIT_SCHEMES = ("kaiming", "xavier", "normal", "uniform", "kaiming_zero_bias")


def init_population(arch: ArchitectureSpec, seeds, scheme: str = "kaiming") -> "Population":
    """Deterministically initialize one network per seed, each from its own
    (seed, "init") stream: BN gamma 1, beta 0 and fresh running statistics.
    The normal scheme draws weights with sigma 0.01, the uniform scheme
    from [-0.1, 0.1]."""
    if scheme not in INIT_SCHEMES:
        raise ConfigError(f"unknown init scheme {scheme!r}")
    pop = Population(arch, np.zeros((len(seeds), arch.param_count()), np.float32),
                     seeds=np.array(seeds, dtype=np.int64))
    for i, seed in enumerate(seeds):
        rng = make_rng(seed, "init")
        for l in range(arch.num_layers):
            d_in, d_out = arch.layer_dims[l], arch.layer_dims[l + 1]
            w, b = pop.weights[l][i], pop.biases[l][i, 0]  # biases stay 0 unless drawn
            if scheme in ("kaiming", "kaiming_zero_bias"):
                w[...] = rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_out, d_in))
                if scheme == "kaiming":
                    bound = 1.0 / np.sqrt(d_in)
                    b[...] = rng.uniform(-bound, bound, size=d_out)
            elif scheme == "xavier":
                bound = np.sqrt(6.0 / (d_in + d_out))
                w[...] = rng.uniform(-bound, bound, size=(d_out, d_in))
            elif scheme == "normal":
                w[...] = rng.normal(0.0, 0.01, size=(d_out, d_in))
            else:  # uniform
                w[...] = rng.uniform(-0.1, 0.1, size=(d_out, d_in))
    for gamma, *_ in pop.bn_views.values():
        gamma[...] = 1.0
    return pop


def _forward_cached(pop: "Population", batch: np.ndarray, mode: str):
    """Stacked forward pass keeping per-layer intermediates for backprop.

    `batch` is (N, B, d_in), or (1, B, d_in) to give every member the same
    rows. Returns (logits (N, B, d_out), caches). Train mode uses each
    member's batch statistics in BN layers and updates its running stats
    by EMA with momentum 0.1.
    """
    arch = pop.arch
    act, _ = ACTIVATIONS[arch.activation]
    z = batch.astype(np.float32)
    caches = []
    for l in range(arch.num_layers):
        a = np.matmul(z, pop.weights[l].swapaxes(-1, -2)) + pop.biases[l]
        cache = {"z_in": z}
        if l < arch.num_hidden:
            if arch.has_bn(l):
                gamma, beta, running_mean, running_var, count = pop.bn_views[l]
                if mode == "train":
                    mu = a.mean(axis=1, dtype=np.float64, keepdims=True)
                    var = a.astype(np.float64).var(axis=1, keepdims=True)
                    running_mean[:] = (1 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mu
                    running_var[:] = (1 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
                    count += a.shape[1]
                else:
                    mu = running_mean
                    var = running_var
                inv_std = 1.0 / np.sqrt(var + BN_EPS)
                xhat = ((a - mu) * inv_std).astype(np.float32)
                a = gamma * xhat + beta
                cache.update(xhat=xhat, inv_std=inv_std.astype(np.float32))
            cache["pre_act"] = a
            z = act(a)
        else:
            z = a
        caches.append(cache)
    return z, caches


def forward(pop: "Population", batch: np.ndarray, mode: str = "eval") -> np.ndarray:
    """(N, B, C) logits of every member for one (B, d_in) batch; eval mode
    is pure, train mode updates each member's BN stats."""
    arch = pop.arch
    if batch.ndim != 2 or batch.shape[1] != arch.layer_dims[0]:
        raise ShapeError(
            f"batch has shape {batch.shape}, expected (n, {arch.layer_dims[0]})"
        )
    if mode not in ("train", "eval"):
        raise ArgumentError(f"unknown mode {mode!r}")
    logits, _ = _forward_cached(pop, batch[None], mode)
    return logits


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


def _backward(pop: "Population", caches, logits, labels, grads) -> None:
    """Stacked gradients of each member's mean cross-entropy, written in
    place into `grads` (the `_param_views` of the gradient matrix)."""
    arch = pop.arch
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
                dxhat = delta * pop.bn_views[l][0]
                delta = cache["inv_std"] * (
                    dxhat
                    - dxhat.mean(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
                )
        np.matmul(delta.transpose(0, 2, 1), cache["z_in"], out=grad_w[l])
        grad_b[l][:] = delta.sum(axis=1, keepdims=True)
        if l > 0:
            delta = np.matmul(delta, pop.weights[l])


OPTIMIZERS = ("adam", "adamw", "sgd")


@dataclass(frozen=True)
class TrainHyper:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 16
    epochs: int = 100

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

    The step is the textbook update in the step-size form of Kingma & Ba
    (arXiv 1412.6980, Section 2): the moments are stored as m / (1 - b1)
    and v / (1 - b2), so they update as m = b1 m + g and v = b2 v + g^2,
    and every bias correction folds into two per-step scalars,

        p -= alpha_t * m / (sqrt(v) + eps_hat),
        alpha_t = lr (1 - b1) sqrt(1 - b2^t) / ((1 - b1^t) sqrt(1 - b2)),
        eps_hat = eps sqrt(1 - b2^t) / sqrt(1 - b2),

    with the decoupled decay applied first as p *= 1 - lr wd. This is the
    textbook update algebraically, equal to it within rounding but not bit
    for bit. The scalars are Python floats, so a float32 array is updated in
    float32 arithmetic.

    Each array is updated ADAM_CHUNK elements at a time by in-place ufuncs
    into two scratch buffers allocated here, so a step allocates nothing
    and works within the CPU cache: 11 elementwise passes per chunk with
    decoupled decay."""

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
        b1, b2, wd, lr = self.b1, self.b2, self.wd, float(lr)
        root_b2t = math.sqrt((1 - b2 ** self.t) / (1 - b2))
        alpha = lr * (1 - b1) * root_b2t / (1 - b1 ** self.t)
        eps_hat = self.eps * root_b2t
        shrink = 1 - lr * wd if wd and self.decoupled else None
        for p, g, m, v in zip(self._flat, grads, self.m, self.v):
            g = np.reshape(g, -1).astype(p.dtype, copy=False)
            scratch_a, scratch_b = self._scratch[p.dtype]
            for s in range(0, p.size, ADAM_CHUNK):
                pc, gc = p[s:s + ADAM_CHUNK], g[s:s + ADAM_CHUNK]
                mc, vc = m[s:s + ADAM_CHUNK], v[s:s + ADAM_CHUNK]
                a, b = scratch_a[:pc.size], scratch_b[:pc.size]
                if wd and not self.decoupled:        # g = g + wd * p
                    gc = np.add(gc, np.multiply(wd, pc, out=a), out=a)
                mc *= b1                              # m = b1 * m + g
                mc += gc
                vc *= b2                              # v = b2 * v + g * g
                vc += np.multiply(gc, gc, out=b)
                # update = alpha * m / (sqrt(v) + eps_hat)
                np.add(np.sqrt(vc, out=a), eps_hat, out=a)
                update = np.divide(mc, a, out=b)
                update *= alpha
                if shrink is not None:               # p = (1 - lr * wd) * p
                    pc *= shrink
                pc -= update


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
    """Views into the rows of an (N, P) matrix in flat-vector order: per-layer
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
    at 0 and metrics at nan.

    Its stacked views are built once, when it is made, and are what the
    stacked passes read and write: `weights` and `biases` (the
    `_param_views` of `params`) and `bn_views`, per BN layer (gamma, beta,
    means, variances, counts), where gamma and beta view `params` and the
    (N, 1, d) means and variances view `bn`."""

    arch: ArchitectureSpec
    params: np.ndarray       # (N, P) float32 flat vectors
    bn: dict = None          # BN layer -> (means, variances (N, d) float64, counts (N,) uint64)
    seeds: np.ndarray = None    # (N,) int64
    metrics: np.ndarray = None  # (N,) float64

    def __post_init__(self):
        if self.params.ndim != 2 or self.params.shape[1] != self.arch.param_count():
            raise ShapeError(f"parameter matrix has shape {self.params.shape}, "
                             f"arch needs (N, {self.arch.param_count()})")
        n = len(self.params)
        if self.bn is None:
            self.bn = {l: (np.zeros((n, d)), np.ones((n, d)), np.zeros(n, np.uint64))
                       for l, d in self.arch.bn_widths().items()}
        if self.seeds is None:
            self.seeds = np.zeros(n, np.int64)
        if self.metrics is None:
            self.metrics = np.full(n, np.nan)
        self.weights, self.biases, gamma_beta = _param_views(self.params, self.arch)
        self.bn_views = {l: (gamma, beta, self.bn[l][0][:, None], self.bn[l][1][:, None],
                             self.bn[l][2])
                         for l, (gamma, beta) in gamma_beta.items()}

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, block: slice) -> "Population":
        """The members in `block` as views of their rows of every column, so
        that writes through it, train-mode BN updates and recalibration
        included, land in this population."""
        if not isinstance(block, slice):
            raise ArgumentError(f"a population is indexed by a slice, not {block!r}")
        return Population(self.arch, self.params[block],
                          {l: tuple(column[block] for column in columns)
                           for l, columns in self.bn.items()},
                          self.seeds[block], self.metrics[block])

    def validate(self) -> None:
        """ShapeError unless every column has the shape `arch` gives it and
        no running variance or count is negative."""
        n, widths = len(self), self.arch.bn_widths()
        if sorted(self.bn) != list(widths) or self.seeds.shape != (n,) or self.metrics.shape != (n,):
            raise ShapeError(f"population columns do not fit {n} networks of {self.arch}")
        for l, (mean, var, count) in self.bn.items():
            if mean.shape != (n, widths[l]) or var.shape != mean.shape or count.shape != (n,):
                raise ShapeError(f"BN statistics at layer {l} have the wrong shape")
            if np.any(var < 0) or np.any(count < 0):
                raise ShapeError(f"BN layer {l} has negative variance or count")


def train_population(arch: ArchitectureSpec, data, hyper: TrainHyper, seeds,
                     holdout=None, init_scheme: str = "kaiming") -> Population:
    """Train one freshly initialized network per seed with mini-batch
    cross-entropy, all members in one stacked pass per minibatch.

    Each member is deterministic given its seed (seeded init and per-epoch
    shuffles) and equals a one-member run bit for bit. metrics hold
    held-out accuracy when `holdout` is given, else training accuracy.
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
                logits, caches = _forward_cached(pop, x[idx], "train")
                finite = np.isfinite(cross_entropy(logits, labels))
                if not finite.all():
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch offset {start}, "
                        f"seed {seeds[int(np.argmin(finite))]}"
                    )
                _backward(pop, caches, logits, labels, grad_views)
                opt.step([grads], hyper.learning_rate)

    eval_data = holdout if holdout is not None else data
    pop.metrics[:] = [result.accuracy for result in evaluate(pop, eval_data)]
    return pop


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


def evaluate(pop: Population, data) -> list[EvalResult]:
    """Eval-mode accuracy and argmax predictions of every member, from one
    stacked `_forward_cached` pass per block of `member_blocks` sized on
    the rows of `data`."""
    if data.features.shape[0] == 0:
        raise ArgumentError("empty dataset")
    if data.features.shape[1] != pop.arch.layer_dims[0]:
        raise ShapeError(f"features have dim {data.features.shape[1]}, "
                         f"expected {pop.arch.layer_dims[0]}")
    results = []
    for block in member_blocks(len(pop), pop.arch, data.features.shape[0]):
        # Only the predictions outlive the pass, so one block's
        # activations are held at a time.
        predictions = _forward_cached(pop[block], data.features[None], "eval")[0].argmax(axis=-1)
        results += [EvalResult(accuracy=float(np.mean(preds == data.labels)), predictions=preds)
                    for preds in predictions]
    return results


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

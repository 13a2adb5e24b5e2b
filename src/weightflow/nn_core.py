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
`_forward_cached` is the one stacked forward pass, in train, calibrate
(BN recalibration) and eval modes.
`train_population` runs one stacked forward, backward and optimizer step
per minibatch, yet every member follows its own seed's init and shuffles
and equals a one-member run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import ACTIVATIONS, gelu_cdf, gelu_grad
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
            raise ConfigError(f"unknown activation {self.activation!r}, "
                              f"expected one of {', '.join(ACTIVATIONS)}")
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


def init_population(arch: ArchitectureSpec, seeds) -> "Population":
    """Deterministically initialize one network per seed, each from its own
    (seed, "init") stream, layer by layer: Kaiming-normal weights, then
    biases uniform in +-1/sqrt(d_in); BN gamma 1, beta 0 and fresh running
    statistics."""
    pop = Population(arch, np.zeros((len(seeds), arch.param_count()), np.float32),
                     seeds=np.array(seeds, dtype=np.int64))
    for i, seed in enumerate(seeds):
        rng = make_rng(seed, "init")
        for l in range(arch.num_layers):
            d_in, d_out = arch.layer_dims[l], arch.layer_dims[l + 1]
            pop.weights[l][i] = rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_out, d_in))
            bound = 1.0 / np.sqrt(d_in)
            pop.biases[l][i, 0] = rng.uniform(-bound, bound, size=d_out)
    for gamma, *_ in pop.bn_views.values():
        gamma[...] = 1.0
    return pop


def _forward_cached(pop: "Population", batch: np.ndarray, mode: str):
    """Stacked forward pass. `batch` is (N, B, d_in), or (1, B, d_in) to
    give every member the same rows. Returns (logits (N, B, d_out), caches);
    only train mode keeps the caches, the per-layer intermediates backprop
    reads. A BN layer normalizes with each member's running statistics in
    eval mode, and otherwise with its batch mean and variance (numpy's
    float64 `mean` and `var` of the pre-activations, bit for bit), which
    train mode folds into the running ones by EMA with momentum 0.1 and
    calibrate mode stores as them (count = rows), so that an eval pass then
    computes the calibrate pass's bits. Nothing after the last BN layer
    reaches a statistic, so calibrate mode returns (None, []) once that
    layer's are stored.
    """
    arch = pop.arch
    act, _ = ACTIVATIONS[arch.activation]
    train = mode == "train"
    last_bn = max(arch.bn_widths(), default=None)
    z = np.asarray(batch, dtype=np.float32)
    caches = []
    # Arithmetic is in place where the bits allow, which saves an array per
    # step; the page faults of fresh member-block arrays are the allocator's
    # business (`pipeline.run_stage` keeps freed memory in the process).
    for l in range(arch.num_layers):
        a = np.matmul(z, pop.weights[l].swapaxes(-1, -2))
        a += pop.biases[l]
        cache = {"z_in": z}
        if l < arch.num_hidden:
            if arch.has_bn(l):
                gamma, beta, running_mean, running_var, count = pop.bn_views[l]
                if mode == "eval":
                    mu = running_mean
                    var = running_var
                    centred = a - mu
                else:
                    n = a.shape[1]
                    centred = a.astype(np.float64)
                    mu = _batch_sum(centred) / n
                    centred -= mu
                    var = _batch_sum(centred * centred) / n
                    if train:
                        running_mean[:] = (1 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mu
                        running_var[:] = (1 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
                        count += n
                    else:
                        running_mean[:] = mu
                        running_var[:] = var
                        count[:] = n
                        if l == last_bn:
                            return None, caches
                inv_std = 1.0 / np.sqrt(var + BN_EPS)
                centred *= inv_std
                xhat = centred.astype(np.float32)
                a = gamma * xhat
                a += beta
                cache.update(xhat=xhat, inv_std=inv_std.astype(np.float32))
            cache["pre_act"] = a
            if arch.activation == "gelu":   # gelu(a), keeping the cdf for gelu_grad
                cache["cdf"] = gelu_cdf(a)
                z = a * cache["cdf"]
            else:
                z = act(a)
        else:
            z = a
        if train:
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


def _batch_sum(x: np.ndarray) -> np.ndarray:
    """`x.sum(axis=1, keepdims=True)` of an (N, B, k) array, bit for bit.

    numpy reduces the batch axis, which is not the innermost, through its
    generic reduce loop: 20-33 us per call at (50, 16, 16). The einsum adds
    the same rows in the same order, row 0 + row 1 + ..., in about 11 us.
    At k = 1 numpy reduces the batch axis as an innermost one, pairwise,
    which the einsum does not reproduce, so that width keeps numpy's sum.
    Products are formed before the call: a two-operand einsum may round
    differently."""
    if x.shape[-1] == 1:
        return x.sum(axis=1, keepdims=True)
    return np.einsum("nbk->nk", x)[:, None]


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last (class) axis.

    The class max is `np.maximum.reduce` over axis 0 of a class-major
    contiguous copy, a running elementwise max of C whole rows. numpy's reduce
    over a short innermost axis, as in `logits.max(axis=-1)`, costs
    20-50 us per call at the population step's shapes (52 us at
    (50, 16, 3)); this costs about 6. A max does not depend on the order
    it is taken in, so it is exact for any class count. The class sum stays
    numpy's `e.sum(axis=-1)`: at 10 classes, einsum and matmul sums already
    differ from its pairwise sum."""
    class_major = np.ascontiguousarray(logits.transpose(-1, *range(logits.ndim - 1)))
    e = logits - np.maximum.reduce(class_major, axis=0)[..., None]
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch axis: a float for (B, C) logits,
    one loss per member for stacked (N, B, C) logits."""
    shifted = logits.astype(np.float64) - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0]
    return np.mean(log_z - picked, axis=-1)


def _backward(pop: "Population", caches, logits, labels, grads) -> None:
    """Stacked gradients of each member's mean cross-entropy, written in
    place into `grads` (the `_param_views` of the gradient matrix).

    Every reduction gives the bits of the plain numpy expression while
    staying off numpy's slow reduce paths, which cost 20-50 us per call at
    these shapes. `_softmax` takes the class max from a class-major copy.
    The labels are subtracted as a one-hot comparison, where a three-array
    fancy index costs 26 us. The batch sums (bias, gamma and beta
    gradients, and the BN backward means) go through `_batch_sum`."""
    arch = pop.arch
    grad_w, grad_b, grad_bn = grads
    _, act_grad = ACTIVATIONS[arch.activation]
    n = labels.shape[-1]
    delta = _softmax(logits)
    delta -= labels[..., None] == np.arange(delta.shape[-1])
    delta /= n

    for l in reversed(range(arch.num_layers)):
        cache = caches[l]
        if l < arch.num_hidden:
            a = cache["pre_act"]
            delta = delta * (gelu_grad(a, cache["cdf"]) if arch.activation == "gelu"
                             else act_grad(a))
            if arch.has_bn(l):
                xhat = cache["xhat"]
                grad_gamma, grad_beta = grad_bn[l]
                grad_gamma[:] = _batch_sum(delta * xhat)
                grad_beta[:] = _batch_sum(delta)
                dxhat = delta * pop.bn_views[l][0]
                delta = cache["inv_std"] * (
                    dxhat
                    - _batch_sum(dxhat) / n
                    - xhat * (_batch_sum(dxhat * xhat) / n)
                )
        np.matmul(delta.transpose(0, 2, 1), cache["z_in"], out=grad_w[l])
        grad_b[l][:] = _batch_sum(delta)
        if l > 0:
            delta = np.matmul(delta, pop.weights[l])


OPTIMIZERS = ("adam", "adamw")


@dataclass(frozen=True)
class TrainHyper:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 16
    epochs: int = 100

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}, "
                              f"expected one of {', '.join(OPTIMIZERS)}")
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

    with the decoupled decay added to the update as lr wd p. This is the
    textbook update algebraically, equal to it within rounding but not bit
    for bit. The scalars are Python floats, so a float32 array is updated in
    float32 arithmetic. The decay is a term, not a factor p *= 1 - lr wd:
    in float32 that factor rounds to a multiple of 2^-24 away from 1, and
    to exactly 1 for lr wd <= 2^-25 = 3e-8 (the flow's lr 2e-3 and wd 1e-5
    give 2e-8), which would drop the decay.

    Each array is updated ADAM_CHUNK elements at a time by in-place ufuncs
    into two scratch buffers allocated here, so a step allocates nothing
    and works within the CPU cache: 12 elementwise passes per chunk with
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
        decay = lr * wd if wd and self.decoupled else None
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
                if decay is not None:                # update += lr * wd * p
                    update += np.multiply(pc, decay, out=a)
                pc -= update


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
        no running variance is negative (counts are unsigned)."""
        n, widths = len(self), self.arch.bn_widths()
        if sorted(self.bn) != list(widths) or self.seeds.shape != (n,) or self.metrics.shape != (n,):
            raise ShapeError(f"population columns do not fit {n} networks of {self.arch}")
        for l, (mean, var, count) in self.bn.items():
            if mean.shape != (n, widths[l]) or var.shape != mean.shape or count.shape != (n,):
                raise ShapeError(f"BN statistics at layer {l} have the wrong shape")
            if np.any(var < 0):
                raise ShapeError(f"BN layer {l} has negative variance")


def train_population(arch: ArchitectureSpec, data, hyper: TrainHyper, seeds,
                     holdout=None) -> Population:
    """Train one freshly initialized network per seed with mini-batch
    cross-entropy, all members in one stacked pass per minibatch.

    Each member is deterministic given its seed (seeded init and per-epoch
    shuffles) and equals a one-member run bit for bit. metrics hold
    held-out accuracy when `holdout` is given, else training accuracy.

    At the population's shapes a step costs what its reductions over tiny
    axes cost, not its arithmetic: numpy's reduce over a short innermost
    axis, or over a non-innermost one, costs 20-50 us per call. So the
    loss check is `np.isfinite(logits).all()` (4 us), and the float64
    `cross_entropy` (125 us) runs only when a logit is non-finite, to
    decide whether to stop and which seed to name. `_softmax`, `_backward`
    and the train-mode BN statistics take fast paths with the bits of the
    plain numpy expressions (see their docstrings).
    """
    if data.features.shape[0] == 0:
        raise ArgumentError("empty training dataset")
    if len(seeds) == 0:
        raise ArgumentError("train_population needs at least one seed")
    n_classes = arch.layer_dims[-1]
    if data.labels.min() < 0 or data.labels.max() >= n_classes:
        raise ArgumentError("labels out of range for output dimension")

    pop = init_population(arch, seeds)
    params = pop.params
    grads = np.empty_like(params)
    grad_views = _param_views(grads, arch)
    opt = _Adam([params], (0.9, 0.999), hyper.weight_decay,
                decoupled=(hyper.optimizer == "adamw"))

    rngs = [make_rng(s, "shuffle") for s in seeds]
    x, y = data.features.astype(np.float32), data.labels
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
                # Finite logits give a finite loss (the shifted logits are
                # <= 0, so the sum of their exps is in [1, C]), so the
                # float64 loss is computed only to judge non-finite ones.
                if not np.isfinite(logits).all():
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


# Byte budget of what one member block's stacked pass holds.
MEMBER_BLOCK_BYTES = 2 << 20


def member_blocks(n_members: int, arch: ArchitectureSpec, n_rows: int) -> list:
    """Slices that split `n_members` members into blocks whose stacked
    pass over `n_rows` rows fits in MEMBER_BLOCK_BYTES (at least one
    member per block). A BN layer's pass holds its centred float64
    pre-activations, their squares and a few float32 arrays of the same
    shape, so each member is budgeted four float64 arrays of its widest
    layer: a pass over 400 members at 8-16-16-3 traces 0.8-1.2 budgets."""
    per_member = 4 * 8 * n_rows * max(arch.layer_dims[1:])
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

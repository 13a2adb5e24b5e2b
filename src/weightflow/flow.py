"""Flow matching over flat weight vectors (or PCA latents).

The vector field is a time-conditioned MLP: a scalar time is embedded by a
two-layer GELU MLP, concatenated with the state, and passed through a trunk
of [d_h, d_h/2, d_h] hidden layers with LayerNorm, GELU, and dropout, ending
in an affine map back to the state dimension. Every GELU here is the tanh
form (`activations.gelu_tanh`), in training and in sampling alike, so the
field that is sampled is the field that was trained. Training regresses
the field onto straight-line displacements between Gaussian source draws
and population vectors at times drawn uniformly from [0, 1) (Lipman et
al., arXiv 2210.02747); sampling integrates the learned field with
fixed-step RK4.

The model is trained, stored and sampled in float32. `init_flow_model`
draws float64 parameters, which `train_flow` casts once to float32; the
batch, source, noise, time and dropout draws stay float64, so no random
stream depends on the dtype, and are cast to float32 where they enter the
field. The optimizer's moments, the gradient buffer and the dropout masks
are float32 too. `_Adam` adds the decoupled weight decay to the update as
lr wd p, which float32 keeps: the factor 1 - lr wd rounds to 1 in float32
at the flow's rates. `sample` evaluates the field folded from the float32
parameters (a float64 model is cast first); its RK4 state and accumulation
stay float64. `flow_forward`, `flow_backward` and `fm_loss_and_grads` compute in
the dtype of `FlowModel.flat`, one code path for both, so analytic
gradients are checked against central finite differences on a float64
model from `init_flow_model`.

The parameters live in one contiguous buffer, `FlowModel.flat`, in
`_param_layout` order; `FlowModel.params` maps each name to a view into it.
`flow_backward` writes every gradient into the matching view of a flat
gradient buffer of the same layout, so training takes one optimizer step
over one array, reuses one gradient buffer for every step, and saving or
loading the model is one write or read of the whole buffer.

`flow_forward` is the one forward pass of the trained field. Each trunk
product h W^T is formed as (W h^T)^T, copied to C order: at training's
batch of a few rows OpenBLAS computes that faster than the product on the
transposed view W.T, with the same bits, and the copy keeps LayerNorm's
row sums on contiguous rows, where they round as they do on h W^T (on
the strided result they do not).

`sample` integrates the trained field folded: a `_FrozenField`, built once
per call, does once the algebra that depends only on the frozen
parameters, in float64 from the model's parameters, casting each result
once to the model's dtype. Each trunk layer's weights and bias are centred
over its output units, so a pre-activation has zero mean by construction
and LayerNorm computes only the variance, as one row dot. Each activation
is ln (1 + tanh(...)), twice GELU's, and the 1/2 multiplies the next
layer's weights, exactly. Layer 0's product takes x alone: the time
embedding through W0's centred time columns, plus the centred b0, is one
bias row per distinct time, kept for the call (RK4 asks for at most
3 steps + 1 of them). In exact arithmetic the folded field is the trained
field; in float32 it moves only rounding. On the benchmark workloads'
trained flows at pipeline seeds 7000-7003, the per-sample relative L2
distance between `sample` on the folded and on the unfolded float32 field
was at most 3.3e-5 (median 1.7e-7; 1,600 samples of bn-pca-sample) and
4.7e-7 (median 9.9e-8; 200 of iris-flagship), against a median 100-step
RK4 error of 6.7e-3 on bn-pca-sample. `tests/test_flow.py` checks the
field against a plain-expression folded reference bit for bit, and the
folding against the unfolded field in float64 within 1e-12.

The frozen field also holds contiguous copies of the folded weight
transposes, on which OpenBLAS multiplies faster at sampling's batches, and
two flat buffers whose views hold every trunk array of every field call; x
is cast straight into the input view. `rk4_integrate` keeps its float64
state, stages, stage input and increment in five arrays. So a sampling
batch of hundreds of rows, whose arrays are above glibc malloc's default
mmap threshold, faults its pages in once per call to `sample`, not once
per field call, with or without the raised thresholds that
`pipeline.run_stage` sets before every stage.

`train_flow` makes the random draws of `DRAW_BLOCK` steps at once, one
call per stream: batch rows, times, source, noise and dropout. Philox
fills a draw in sequence, so a block holds exactly the values of its
steps' own calls, and the per-call cost of the draws, the row gather and
the mask build is paid once per block. A `FlowWorkspace` holds what every
training step reuses: the dropout masks of one block, views of one buffer
refilled per block from one float64 uniform draw turned into 0 and 1/keep
entries, and the flat gradient buffer with its name -> view dict, built
once and filled by every backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .activations import (gelu_tanh, gelu_tanh_cdf, gelu_tanh_grad,
                          gelu_tanh_twice_cdf)
from .checkpoint_io import load_container, save_container
from .errors import (ArgumentError, ConfigError, IntegrationError,
                     TrainingDivergedError)
from .nn_core import _Adam
from .rng import make_rng

LN_EPS = 1e-5
FLOW_MAGIC = b"DWFF"
FLOW_VERSION = 3
# Training steps whose random draws `train_flow` makes in one call per stream.
DRAW_BLOCK = 4


@dataclass(frozen=True)
class FlowConfig:
    input_dim: int = 0  # 0 in `RunConfig.flow`; each stage sets the width
    hidden_dim: int = 256
    time_embed_dim: int = 4
    dropout: float = 0.1
    noise_scale: float = 0.001       # sigma: jitter added to the interpolant
    source_std: float = 0.01         # sigma_s: scale of the Gaussian source
    iterations: int = 30000
    batch_size: int = 8
    learning_rate: float = 5e-4
    weight_decay: float = 1e-5
    beta1: float = 0.9               # Adam's moment decays
    beta2: float = 0.95
    lr_min: float = 1e-6
    integration_steps: int = 100

    def __post_init__(self):
        if self.hidden_dim < 2 or self.time_embed_dim < 1:
            raise ConfigError("hidden_dim must be >= 2 and time_embed_dim >= 1")
        if self.iterations < 1 or self.integration_steps < 1 or self.batch_size < 1:
            raise ConfigError("iterations, integration_steps and batch_size must be >= 1")
        positive = {"learning_rate": self.learning_rate, "noise_scale": self.noise_scale,
                    "source_std": self.source_std}
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        for name in ("lr_min", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.lr_min > self.learning_rate:
            # The cosine schedule would climb from learning_rate to lr_min.
            raise ConfigError(f"lr_min must be <= learning_rate ({self.learning_rate}), "
                              f"got {self.lr_min}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")

    @property
    def trunk_dims(self) -> tuple:
        return (self.hidden_dim, self.hidden_dim // 2, self.hidden_dim)

    @property
    def trunk_input_dim(self) -> int:
        return self.input_dim + self.time_embed_dim


def _param_layout(cfg: FlowConfig):
    """Ordered (name, shape) pairs; also the serialization order."""
    dt = cfg.time_embed_dim
    layout = [
        ("time.w1", (dt, 1)), ("time.b1", (dt,)),
        ("time.w2", (dt, dt)), ("time.b2", (dt,)),
    ]
    d_in = cfg.trunk_input_dim
    for i, d_out in enumerate(cfg.trunk_dims):
        layout += [
            (f"trunk.w{i}", (d_out, d_in)), (f"trunk.b{i}", (d_out,)),
            (f"trunk.ln_g{i}", (d_out,)), (f"trunk.ln_b{i}", (d_out,)),
        ]
        d_in = d_out
    layout += [("out.w", (cfg.input_dim, d_in)), ("out.b", (cfg.input_dim,))]
    return layout


def _param_count(cfg: FlowConfig) -> int:
    return sum(math.prod(shape) for _, shape in _param_layout(cfg))


def _views(buf: np.ndarray, cfg: FlowConfig) -> dict:
    """name -> view into the flat buffer `buf`, in `_param_layout` order."""
    views, pos = {}, 0
    for name, shape in _param_layout(cfg):
        size = math.prod(shape)
        views[name] = buf[pos:pos + size].reshape(shape)
        pos += size
    return views


@dataclass
class FlowModel:
    config: FlowConfig
    flat: np.ndarray                  # every parameter, layout order; float32
                                      # once trained or loaded, float64 from
                                      # init_flow_model
    loss_history: list = field(default_factory=list, repr=False)
    params: dict = field(init=False, repr=False)  # name -> view into flat

    def __post_init__(self):
        if self.flat.shape != (_param_count(self.config),):
            raise ArgumentError(f"flat parameter buffer has shape {self.flat.shape}, "
                                f"config needs ({_param_count(self.config)},)")
        self.params = _views(self.flat, self.config)


def init_flow_model(cfg: FlowConfig, seed: int = 0) -> FlowModel:
    rng = make_rng(seed, "flow-init")
    model = FlowModel(cfg, np.empty(_param_count(cfg)))
    for name, shape in _param_layout(cfg):
        kind = name.split(".")[-1]
        if kind.startswith("ln_g"):
            model.params[name][...] = 1.0
        elif kind.startswith(("ln_b", "b")):
            model.params[name][...] = 0.0
        else:  # weight matrices: He-style fan-in scaling
            fan_in = shape[1]
            model.params[name][...] = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
    return model


def _time_embed_forward(p, t):
    h1 = t @ p["time.w1"].T + p["time.b1"]
    a1 = gelu_tanh(h1)
    out = a1 @ p["time.w2"].T + p["time.b2"]
    return out, (t, h1, a1)


def _time_embed_backward(p, cache, d_out, grads):
    t, h1, a1 = cache
    np.matmul(d_out.T, a1, out=grads["time.w2"])
    np.add.reduce(d_out, axis=0, out=grads["time.b2"])
    da1 = d_out @ p["time.w2"]
    dh1 = da1 * gelu_tanh_grad(h1)
    np.matmul(dh1.T, t, out=grads["time.w1"])
    np.add.reduce(dh1, axis=0, out=grads["time.b1"])


class FlowWorkspace:
    """What every training step at one batch size reuses, in `dtype` (the
    model's; float32 in `train_flow`): the dropout masks of up to
    `DRAW_BLOCK` consecutive steps and the flat gradient buffer `grad` with
    its `_views`, `grads`, which `flow_backward` fills. `masks[j]` holds
    step j's masks, per trunk layer a view of row j of one buffer `mask`,
    which `_dropout_masks` fills from one float64 draw into `mask_draw`."""

    def __init__(self, cfg: FlowConfig, batch: int, dtype=np.float64):
        self.mask_draw = np.empty((DRAW_BLOCK, batch * sum(cfg.trunk_dims)))
        self.mask = np.empty_like(self.mask_draw, dtype=dtype)
        ends = np.cumsum(cfg.trunk_dims[:-1]) * batch
        self.masks = [[layer.reshape(batch, -1) for layer in np.split(row, ends)]
                      for row in self.mask]
        self.grad = np.empty(_param_count(cfg), dtype)
        self.grads = _views(self.grad, cfg)


class _FrozenField:
    """The field of one model folded for evaluation at a batch of `rows`,
    in the model's dtype (see the module docstring). Folding runs in
    float64 on the model's parameters and casts each result once: trunk
    layer i's weights and bias centred over its output units, its weights
    then halved for i > 0 (the previous GELU's 1/2), and `out.w` halved.
    `weights_t` holds contiguous copies of the folded weight transposes,
    layer 0's only for the x columns; `biases` the folded biases of layers
    1, 2 and `out.b`; `time_row(t)` layer 0's bias row at time t. Two
    flat buffers are shared by every layer: layer i's pre-activation, then
    its LayerNorm output, lives in `pre[i]`, a view of the first; its
    twice-cdf and activation in `scratch[i]`, a view of the second, which
    also holds the layer's input (x in `input`, or the last activation),
    dead once the layer's product is formed. `out`, the field value, is a
    view of the first."""

    def __init__(self, model: FlowModel, rows: int):
        cfg = model.config
        p = model.params
        d = cfg.input_dim
        self.dtype = model.flat.dtype
        self.widths = cfg.trunk_dims

        def centred(name):  # float64, centred over the output units (axis 0)
            a = p[name].astype(np.float64)
            return a - a.mean(axis=0)

        w0 = centred("trunk.w0")
        self._time = [w0[:, d:].copy(), centred("trunk.b0")]
        self._time += [p[name].astype(np.float64) for name in
                       ("time.w1", "time.b1", "time.w2", "time.b2")]
        self._rows = {}  # time -> layer 0's bias row, one per distinct RK4 time
        weights = [w0[:, :d]] + [0.5 * centred(f"trunk.w{i}")
                                 for i in range(1, len(self.widths))]
        weights.append(0.5 * p["out.w"].astype(np.float64))
        self.weights_t = [w.T.astype(self.dtype, order="C") for w in weights]
        self.biases = [centred(f"trunk.b{i}").astype(self.dtype)
                       for i in range(1, len(self.widths))] + [p["out.b"]]
        self.ln = [(p[f"trunk.ln_g{i}"], p[f"trunk.ln_b{i}"])
                   for i in range(len(self.widths))]
        first = np.empty(rows * max(d, *self.widths), self.dtype)
        second = np.empty_like(first)

        def view(buf, width):
            return buf[:rows * width].reshape(rows, width)

        self.input = view(second, d)
        self.pre = [view(first, width) for width in self.widths]
        self.scratch = [view(second, width) for width in self.widths]
        self.out = view(first, d)

    def time_row(self, t: float) -> np.ndarray:
        """Layer 0's folded bias row at time t: the time embedding through
        W0's centred time columns, plus the centred b0; computed once per
        distinct t."""
        row = self._rows.get(t)
        if row is None:
            w0_time, b0, w1, b1, w2, b2 = self._time
            t_emb = w2 @ gelu_tanh(w1[:, 0] * t + b1) + b2
            row = self._rows[t] = (w0_time @ t_emb + b0).astype(self.dtype)
        return row

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        """The field at (x, t), into `out`, overwritten by the next call.
        A pre-activation has zero mean by construction, so LayerNorm needs
        only its variance; each activation is twice GELU's."""
        h = self.input
        h[...] = x  # cast as astype rounds
        for i, width in enumerate(self.widths):
            pre = np.matmul(h, self.weights_t[i], out=self.pre[i])
            pre += self.time_row(t) if i == 0 else self.biases[i - 1]
            var = np.einsum("ij,ij->i", pre, pre)[:, None] / width
            pre *= 1.0 / np.sqrt(var + LN_EPS)
            gain, shift = self.ln[i]
            ln = np.multiply(gain, pre, out=pre)
            ln += shift
            twice_cdf = gelu_tanh_twice_cdf(ln, out=self.scratch[i])
            h = np.multiply(ln, twice_cdf, out=twice_cdf)
        v = np.matmul(h, self.weights_t[-1], out=self.out)
        v += self.biases[-1]
        return v


def flow_forward(model: FlowModel, x: np.ndarray, t: np.ndarray | float,
                 dropout_masks: list | None = None,
                 want_cache: bool = False, frozen: _FrozenField | None = None):
    """Evaluate the vector field v(x, t) in the dtype of `model.flat`.

    `t` holds one time per row of x. `dropout_masks` (one pre-scaled mask
    per hidden trunk layer) enables training mode; None means
    deterministic evaluation. With `want_cache` it returns (v, cache), the
    intermediates `flow_backward` reads. With `frozen`, a `_FrozenField`
    of this model at x's batch, it evaluates the folded field instead, at
    one time `t` (a scalar) for every row, and returns the field's `out`
    buffer, overwritten by the next call: the trained field up to
    rounding, which the folding moves (module docstring).
    """
    cfg = model.config
    p = model.params
    dtype = model.flat.dtype
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] != cfg.input_dim:
        raise ArgumentError(f"x has dim {x.shape[1]}, expected {cfg.input_dim}")
    if frozen is not None:
        if (want_cache or dropout_masks is not None or np.ndim(t) != 0
                or frozen.input.shape[0] != x.shape[0]):
            raise ArgumentError("a frozen field evaluates one time t at its own "
                                "batch size, without dropout or a cache")
        return frozen.evaluate(x, float(t))
    t = np.asarray(t, dtype=dtype).reshape(-1, 1)
    if t.shape[0] != x.shape[0]:
        raise ArgumentError("t and x batch sizes differ")

    t_emb, t_cache = _time_embed_forward(p, t)
    h = np.concatenate([x.astype(dtype, copy=False), t_emb], axis=1)
    trunk_caches = []
    for i, width in enumerate(cfg.trunk_dims):
        # The pre-activation, normalized in place; h W^T's bits, faster at
        # training's few rows as (W h^T)^T (module docstring).
        xhat = np.ascontiguousarray((p[f"trunk.w{i}"] @ h.T).T)
        xhat += p[f"trunk.b{i}"]
        mu = np.add.reduce(xhat, axis=1, keepdims=True) / width
        xhat -= mu
        # ndarray.var's own steps on the centred values.
        var = np.add.reduce(xhat * xhat, axis=1, keepdims=True) / width
        inv_std = 1.0 / np.sqrt(var + LN_EPS)
        xhat *= inv_std
        ln = p[f"trunk.ln_g{i}"] * xhat
        ln += p[f"trunk.ln_b{i}"]
        cdf = gelu_tanh_cdf(ln)
        act = ln * cdf  # gelu_tanh(ln)
        if dropout_masks is not None:
            act *= dropout_masks[i]
        if want_cache:
            trunk_caches.append((h, xhat, inv_std, ln, cdf))
        h = act
    v = h @ p["out.w"].T
    v += p["out.b"]
    if not want_cache:
        return v
    return v, (t_cache, trunk_caches, h)


def flow_backward(model: FlowModel, cache, dv: np.ndarray,
                  dropout_masks: list | None = None,
                  out: np.ndarray | dict | None = None) -> dict:
    """Parameter gradients given upstream dL/dv: name -> view into the flat
    gradient buffer `out` (same layout as `model.flat`; a new one when None),
    every element of which is overwritten. `out` may also be the `_views`
    of such a buffer, which a `FlowWorkspace` builds once for all steps."""
    cfg = model.config
    p = model.params
    t_cache, trunk_caches, last_h = cache
    if out is None:
        out = np.empty_like(model.flat)
    grads = out if isinstance(out, dict) else _views(out, cfg)

    np.matmul(dv.T, last_h, out=grads["out.w"])
    np.add.reduce(dv, axis=0, out=grads["out.b"])
    dh = dv @ p["out.w"]
    for i in reversed(range(len(cfg.trunk_dims))):
        h_in, xhat, inv_std, ln, cdf = trunk_caches[i]
        if dropout_masks is not None:
            dact = dh * dropout_masks[i]
        else:
            dact = dh
        dln = dact * gelu_tanh_grad(ln, cdf)
        np.add.reduce(dln * xhat, axis=0, out=grads[f"trunk.ln_g{i}"])
        np.add.reduce(dln, axis=0, out=grads[f"trunk.ln_b{i}"])
        dxhat = dln * p[f"trunk.ln_g{i}"]
        width = dxhat.shape[1]
        dpre = inv_std * (
            dxhat
            - np.add.reduce(dxhat, axis=1, keepdims=True) / width
            - xhat * (np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / width)
        )
        np.matmul(dpre.T, h_in, out=grads[f"trunk.w{i}"])
        np.add.reduce(dpre, axis=0, out=grads[f"trunk.b{i}"])
        w = p[f"trunk.w{i}"]
        # Layer 0's input is [x, t_emb]; only the t_emb columns need a gradient.
        dh = dpre @ (w if i else w[:, cfg.input_dim:])

    _time_embed_backward(p, t_cache, dh, grads)
    return grads


def fm_loss_and_grads(model: FlowModel, x1: np.ndarray, x0: np.ndarray,
                      t: np.ndarray, eps: np.ndarray,
                      dropout_masks: list | None = None,
                      out: np.ndarray | dict | None = None):
    """Flow-matching MSE for explicit draws (x0, t, eps) and its gradients,
    views into the flat gradient buffer `out` (a new one when None; or its
    views, as `flow_backward` takes them).

    x_t = (1-t) x0 + t x1 + eps, target velocity u = x1 - x0. The draws
    may be float64 for a float32 model: x_t and u are formed in their
    dtype, and the loss gradient dv is cast to the model's before the
    backward pass, whose matmuls would take numpy's slow mixed-dtype path.
    """
    t_col = t.reshape(-1, 1)
    x_t = (1.0 - t_col) * x0 + t_col * x1 + eps
    u = x1 - x0
    v, cache = flow_forward(model, x_t, t, dropout_masks, want_cache=True)
    diff = v - u
    sq = diff * diff
    loss = float(np.add.reduce(sq, axis=None) / sq.size)  # np.mean's own steps
    dv = (2.0 * diff / diff.size).astype(model.flat.dtype, copy=False)
    grads = flow_backward(model, cache, dv, dropout_masks, out)
    return loss, grads


def _cosine_lr(cfg: FlowConfig, step: int) -> float:
    """Learning rate of optimizer step `step` (0-based): cosine decay to lr_min."""
    frac = step / max(1, cfg.iterations)
    return cfg.lr_min + 0.5 * (cfg.learning_rate - cfg.lr_min) * (
        1.0 + np.cos(np.pi * min(1.0, frac)))


def _dropout_masks(cfg: FlowConfig, rng, workspace: FlowWorkspace, steps: int = 1):
    """The workspace's dropout masks of the next `steps` training steps,
    redrawn: each entry is 1/keep with probability keep, else 0. One
    float64 uniform draw, the same for every mask dtype, fills them. A
    list of `steps` per-step mask lists; None without dropout."""
    if cfg.dropout == 0.0:
        return None
    keep = 1.0 - cfg.dropout
    draw = rng.random(out=workspace.mask_draw[:steps])
    mask = np.less(draw, keep, out=workspace.mask[:steps])
    mask *= 1.0 / keep
    return workspace.masks[:steps]


def fm_training_step(model: FlowModel, optimizer: _Adam, x1: np.ndarray,
                     x0: np.ndarray, t: np.ndarray, eps: np.ndarray,
                     dropout_masks: list | None = None,
                     workspace: FlowWorkspace | None = None) -> float:
    """One optimizer step on a batch of target vectors x1 with its draws
    (x0, t, eps and the dropout masks, as `fm_loss_and_grads` takes them);
    returns the loss. The gradients overwrite `workspace`'s buffer (a new
    workspace's when None)."""
    cfg = model.config
    if x1.ndim != 2 or x1.shape[0] == 0:
        raise ArgumentError("x1 must be a nonempty (batch, d) matrix")
    if workspace is None:
        workspace = FlowWorkspace(cfg, x1.shape[0], model.flat.dtype)
    loss, _ = fm_loss_and_grads(model, x1, x0, t, eps, dropout_masks, workspace.grads)
    if not np.isfinite(loss):
        raise TrainingDivergedError(
            f"non-finite flow-matching loss at step {optimizer.t}")
    optimizer.step([workspace.grad], _cosine_lr(cfg, optimizer.t))
    return loss


def train_flow(population: np.ndarray, cfg: FlowConfig, seed: int = 0) -> FlowModel:
    """Train the vector field on a population of flat vectors.

    Deterministic given seed. The model starts from `init_flow_model`'s
    float64 draws cast to float32 and trains in float32. The random draws
    of every `DRAW_BLOCK` steps are made at once, one call per stream
    (batch rows, times, source, noise, dropout), each shaped (steps, ...);
    Philox fills a draw in sequence, so step j of a block gets exactly the
    values its own per-step calls would draw. Then `fm_training_step` runs
    once per step on that step's slice of the block. The returned model is
    in evaluation mode (dropout only applies during training).
    """
    population = np.asarray(population, dtype=np.float64)
    if population.ndim != 2 or population.shape[0] < 1:
        raise ArgumentError("population must be a nonempty (n, d) matrix")
    if population.shape[1] != cfg.input_dim:
        raise ArgumentError(
            f"population dim {population.shape[1]} != config input_dim {cfg.input_dim}")

    model = FlowModel(cfg, init_flow_model(cfg, seed).flat.astype(np.float32))
    optimizer = _Adam([model.flat], (cfg.beta1, cfg.beta2), cfg.weight_decay,
                      decoupled=True)
    n, d = population.shape
    batch = min(cfg.batch_size, n)
    workspace = FlowWorkspace(cfg, batch, model.flat.dtype)
    rngs = {
        "batch": make_rng(seed, "flow-batch"),
        "time": make_rng(seed, "flow-time"),
        "source": make_rng(seed, "flow-source"),
        "noise": make_rng(seed, "flow-noise"),
        "dropout": make_rng(seed, "flow-dropout"),
    }
    # fm_training_step reports a non-finite loss; numpy's overflow warnings
    # on the way there would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, cfg.iterations, DRAW_BLOCK):
            k = min(DRAW_BLOCK, cfg.iterations - start)
            x1 = population[rngs["batch"].integers(0, n, size=(k, batch))]
            t = rngs["time"].uniform(0.0, 1.0, (k, batch))
            x0 = rngs["source"].normal(0.0, cfg.source_std, size=(k, batch, d))
            eps = rngs["noise"].normal(0.0, cfg.noise_scale, size=(k, batch, d))
            masks = _dropout_masks(cfg, rngs["dropout"], workspace, k) or [None] * k
            for j in range(k):
                loss = fm_training_step(model, optimizer, x1[j], x0[j], t[j], eps[j],
                                        masks[j], workspace)
                model.loss_history.append(loss)
    return model


def rk4_integrate(fn, x0: np.ndarray, steps: int) -> np.ndarray:
    """Fixed-step RK4 from t=0 to t=1 for dx/dt = fn(x, t). The state and
    every stage are float64, whatever dtype `fn` returns, and `fn` may
    return a buffer it overwrites on its next call.

    The state, two stage buffers, the stage input and the increment are
    allocated once and filled in place, in the operation order of
    x + h (k1 + 2 k2 + 2 k3 + k4) / 6: each stage is copied into a stage
    buffer as soon as it is returned, and the increment is summed as the
    stages come, so k1 and k2 are dead when k3 and k4 take their buffers.
    IEEE multiplication and addition commute, so writing 2 k2 + k1 for
    k1 + 2 k2 keeps the bits."""
    if steps < 1:
        raise ArgumentError("steps must be >= 1")
    x = np.array(x0, dtype=np.float64)
    h = 1.0 / steps
    k_a, k_b, x_in, incr = (np.empty_like(x) for _ in range(4))

    for step in range(steps):
        t = step * h
        np.copyto(k_a, fn(x, t))                            # k1
        np.add(x, np.multiply(k_a, 0.5 * h, out=x_in), out=x_in)
        np.copyto(k_b, fn(x_in, t + 0.5 * h))               # k2
        np.add(np.multiply(k_b, 2.0, out=incr), k_a, out=incr)
        np.add(x, np.multiply(k_b, 0.5 * h, out=x_in), out=x_in)
        np.copyto(k_a, fn(x_in, t + 0.5 * h))               # k3
        incr += np.multiply(k_a, 2.0, out=k_b)
        np.add(x, np.multiply(k_a, h, out=x_in), out=x_in)
        np.copyto(k_b, fn(x_in, t + h))                     # k4
        incr += k_b
        incr /= 6.0
        if not np.all(np.isfinite(incr)):
            raise IntegrationError(f"non-finite vector field at step {step}")
        x += np.multiply(incr, h, out=incr)
    return x


def sample(model: FlowModel, count: int, seed: int = 0) -> np.ndarray:
    """Draw `count` vectors by integrating the field from Gaussian noise.

    The field is the trained field folded (module docstring) from the
    float32 parameters (a float64 model is cast to float32 first), through
    one `_FrozenField` built for the call: its folded weights, time rows
    and trunk buffers serve every field evaluation. It moves a sample by
    rounding only, a relative L2 distance of at most 3.3e-5 from RK4 over
    the unfolded float32 field on the benchmark workloads. RK4 casts each
    stage's velocity to float64 and keeps its state and accumulation in
    float64; the returned array is its own."""
    cfg = model.config
    if count < 0:
        raise ArgumentError("count must be >= 0")
    if count == 0:
        return np.zeros((0, cfg.input_dim))
    rng = make_rng(seed, "sample")
    x0 = rng.normal(0.0, cfg.source_std, size=(count, cfg.input_dim))
    # rk4_integrate reports a non-finite field; numpy's overflow warnings on
    # the way there, from the cast or the field, would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        field_model = FlowModel(cfg, model.flat.astype(np.float32, copy=False))
        frozen = _FrozenField(field_model, count)

        def field(x, t):
            return flow_forward(field_model, x, t, frozen=frozen)

        return rk4_integrate(field, x0, cfg.integration_steps)


# ---------------------------------------------------------------------------
# Serialization: a DWFF container (see `checkpoint_io`), version 3 (version 2
# files hold a field trained with the exact-erf GELU). Header: one line per
# FlowConfig field, in field order, its value as repr. Loading reads only
# those fields' lines, so a version-3 file that also holds the retired
# `time_distribution` and `time_beta` lines loads as well. Array: the flat
# parameter buffer as float32, in layout order.


# FlowConfig field type -> parser of the header value save_flow writes.
_FROM_TEXT = {"int": int, "float": float}


def save_flow(model: FlowModel, path) -> None:
    header = [(f.name, repr(getattr(model.config, f.name))) for f in fields(FlowConfig)]
    save_container(path, FLOW_MAGIC, FLOW_VERSION, header, [(model.flat, "<f4")])


def _build_flow(pairs, read) -> FlowModel:
    cfg = FlowConfig(**{f.name: _FROM_TEXT[f.type](pairs[f.name]) for f in fields(FlowConfig)})
    return FlowModel(cfg, read("parameters", "<f4", _param_count(cfg)))


def load_flow(path) -> FlowModel:
    return load_container(path, FLOW_MAGIC, FLOW_VERSION, _build_flow, "config block")

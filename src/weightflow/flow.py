"""Flow matching over flat weight vectors (or PCA latents).

The vector field is a time-conditioned MLP: a scalar time is embedded by a
two-layer GELU MLP, concatenated with the state, and passed through a trunk
of [d_h, d_h/2, d_h] hidden layers with LayerNorm, GELU, and dropout, ending
in an affine map back to the state dimension. Training regresses the field
onto straight-line displacements between Gaussian source draws and
population vectors; sampling integrates the learned field with fixed-step
RK4.

All parameters and arithmetic are float64 internally so analytic gradients
can be checked against central finite differences; serialization stores
float32.

The parameters live in one contiguous float64 buffer, `FlowModel.flat`, in
`_param_layout` order; `FlowModel.params` maps each name to a view into it.
`flow_backward` writes every gradient into the matching view of a flat
gradient buffer of the same layout, so training takes one optimizer step
over one array, reuses one gradient buffer for every step, and saving or
loading the model is one conversion of the whole buffer.

`flow_forward` writes every trunk intermediate into a `FlowWorkspace`:
float64 buffers of one batch size for the [x, t_emb] input and, per trunk
layer, the pre-activation (then activation), xhat, LayerNorm output and
GELU cdf, filled by in-place ufuncs and `matmul(..., out=)` in the
operation order of the plain expressions, so the values are the same bit
for bit. `sample` allocates one workspace for all of its RK4 field calls
and `train_flow` one for all steps; a call without one gets a fresh one.
A training workspace also holds the dropout masks, views of one flat buffer
that each step refills with one uniform draw turned in place into 0 and
1/keep entries, and the flat gradient buffer with its name -> view dict,
built once and filled by every backward pass.
Fresh arrays of this size go back to the operating system when freed and
are page-faulted in again on the next call; reusing the buffers removes
that system time. The returned velocity is always a new array, so RK4's
stages never alias the workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .activations import gelu, gelu_cdf, gelu_grad
from .checkpoint_io import load_container, save_container
from .errors import (ArgumentError, ConfigError, IntegrationError,
                     TrainingDivergedError)
from .nn_core import _Adam
from .rng import make_rng

LN_EPS = 1e-5
FLOW_MAGIC = b"DWFF"
FLOW_VERSION = 2
TIME_DISTRIBUTIONS = ("uniform", "beta")


@dataclass(frozen=True)
class FlowConfig:
    input_dim: int = 0  # 0 in `RunConfig.flow`; each stage sets the width
    hidden_dim: int = 256
    time_embed_dim: int = 4
    dropout: float = 0.1
    noise_scale: float = 0.001       # sigma: jitter added to the interpolant
    source_std: float = 0.01         # sigma_s: scale of the Gaussian source
    time_distribution: str = "uniform"
    time_beta: tuple = (2.0, 5.0)
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
        positive.update((f"time_beta[{i}]", v) for i, v in enumerate(self.time_beta))
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if len(self.time_beta) != 2:
            raise ConfigError(f"time_beta needs 2 values, got {len(self.time_beta)}")
        for name in ("lr_min", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if self.time_distribution not in TIME_DISTRIBUTIONS:
            raise ConfigError(f"unknown time distribution {self.time_distribution!r}")
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
    flat: np.ndarray                  # every parameter, float64, layout order
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
    a1 = gelu(h1)
    out = a1 @ p["time.w2"].T + p["time.b2"]
    return out, (t, h1, a1)


def _time_embed_backward(p, cache, d_out, grads):
    t, h1, a1 = cache
    np.matmul(d_out.T, a1, out=grads["time.w2"])
    np.add.reduce(d_out, axis=0, out=grads["time.b2"])
    da1 = d_out @ p["time.w2"]
    dh1 = da1 * gelu_grad(h1)
    np.matmul(dh1.T, t, out=grads["time.w1"])
    np.add.reduce(dh1, axis=0, out=grads["time.b1"])


class FlowWorkspace:
    """float64 buffers for every trunk intermediate of `flow_forward` at one
    batch size: the [x, t_emb] input and, per trunk layer, the
    pre-activation (overwritten by the activation), xhat, the LayerNorm
    output and its GELU cdf. A `training` workspace also holds the dropout
    masks, per trunk layer a view of one flat buffer that `_dropout_masks`
    fills with one draw, and the flat gradient buffer `grad` with its
    `_views`, `grads`, which `flow_backward` fills."""

    def __init__(self, cfg: FlowConfig, batch: int, training: bool = False):
        self.batch = batch
        self.h0 = np.empty((batch, cfg.trunk_input_dim))
        self.act, self.xhat, self.ln, self.cdf = (
            [np.empty((batch, d)) for d in cfg.trunk_dims] for _ in range(4))
        self.mask_draw = self.masks = self.grad = self.grads = None
        if training:
            self.mask_draw = np.empty(batch * sum(cfg.trunk_dims))
            ends = np.cumsum(cfg.trunk_dims[:-1]) * batch
            self.masks = [block.reshape(batch, -1)
                          for block in np.split(self.mask_draw, ends)]
            self.grad = np.empty(_param_count(cfg))
            self.grads = _views(self.grad, cfg)


def flow_forward(model: FlowModel, x: np.ndarray, t: np.ndarray,
                 dropout_masks: list | None = None,
                 want_cache: bool = False,
                 workspace: FlowWorkspace | None = None):
    """Evaluate the vector field v(x, t).

    `dropout_masks` (one pre-scaled mask per hidden trunk layer) enables
    training mode; None means deterministic evaluation. The trunk writes
    into `workspace` (a new one when None), so the cache holds views of it
    until its next forward; the returned velocity is a new array.
    """
    cfg = model.config
    p = model.params
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    if x.shape[1] != cfg.input_dim:
        raise ArgumentError(f"x has dim {x.shape[1]}, expected {cfg.input_dim}")
    if t.shape[0] != x.shape[0]:
        raise ArgumentError("t and x batch sizes differ")
    if workspace is None:
        workspace = FlowWorkspace(cfg, x.shape[0])
    elif workspace.batch != x.shape[0]:
        raise ArgumentError(f"workspace holds batch {workspace.batch}, "
                            f"x has {x.shape[0]} rows")

    t_emb, t_cache = _time_embed_forward(p, t)
    h = workspace.h0
    h[:, :cfg.input_dim] = x
    h[:, cfg.input_dim:] = t_emb

    trunk_caches = []
    for i, width in enumerate(cfg.trunk_dims):
        act, xhat = workspace.act[i], workspace.xhat[i]
        ln, cdf = workspace.ln[i], workspace.cdf[i]
        pre = np.matmul(h, p[f"trunk.w{i}"].T, out=act)
        pre += p[f"trunk.b{i}"]
        mu = np.add.reduce(pre, axis=1, keepdims=True) / width
        centred = np.subtract(pre, mu, out=xhat)
        # ndarray.var's own steps on the centred values; ln is scratch here.
        var = np.add.reduce(np.multiply(centred, centred, out=ln),
                            axis=1, keepdims=True) / width
        inv_std = 1.0 / np.sqrt(var + LN_EPS)
        np.multiply(centred, inv_std, out=xhat)
        np.multiply(p[f"trunk.ln_g{i}"], xhat, out=ln)
        ln += p[f"trunk.ln_b{i}"]
        gelu_cdf(ln, out=cdf)
        np.multiply(ln, cdf, out=act)             # gelu(ln); cdf serves the backward
        if dropout_masks is not None:
            act *= dropout_masks[i]
        trunk_caches.append((h, xhat, inv_std, ln, cdf))
        h = act
    v = np.matmul(h, p["out.w"].T)
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
    of such a buffer, which a training workspace builds once for all steps."""
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
        dln = dact * gelu_grad(ln, cdf)
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
                      out: np.ndarray | dict | None = None,
                      workspace: FlowWorkspace | None = None):
    """Flow-matching MSE for explicit draws (x0, t, eps) and its gradients,
    views into the flat gradient buffer `out` (a new one when None; or its
    views, as `flow_backward` takes them). The forward runs in `workspace`
    (a new one when None).

    x_t = (1-t) x0 + t x1 + eps, target velocity u = x1 - x0.
    """
    t_col = t.reshape(-1, 1)
    x_t = (1.0 - t_col) * x0 + t_col * x1 + eps
    u = x1 - x0
    v, cache = flow_forward(model, x_t, t, dropout_masks, want_cache=True,
                            workspace=workspace)
    diff = v - u
    loss = float(np.mean(diff * diff))
    dv = 2.0 * diff / diff.size
    grads = flow_backward(model, cache, dv, dropout_masks, out)
    return loss, grads


def _cosine_lr(cfg: FlowConfig, step: int) -> float:
    """Learning rate of optimizer step `step` (0-based): cosine decay to lr_min."""
    frac = step / max(1, cfg.iterations)
    return cfg.lr_min + 0.5 * (cfg.learning_rate - cfg.lr_min) * (
        1.0 + np.cos(np.pi * min(1.0, frac)))


def _sample_time(cfg: FlowConfig, rng, size: int) -> np.ndarray:
    if cfg.time_distribution == "uniform":
        return rng.uniform(0.0, 1.0, size)
    a, b = cfg.time_beta
    return rng.beta(a, b, size)


def _dropout_masks(cfg: FlowConfig, rng, workspace: FlowWorkspace):
    """The training workspace's dropout masks, redrawn: each entry is 1/keep
    with probability keep, else 0. One uniform draw fills them in place.
    None without dropout."""
    if cfg.dropout == 0.0:
        return None
    keep = 1.0 - cfg.dropout
    draw = rng.random(out=workspace.mask_draw)
    np.less(draw, keep, out=draw)
    draw *= 1.0 / keep
    return workspace.masks


def fm_training_step(model: FlowModel, optimizer: _Adam, x1: np.ndarray,
                     rngs: dict, workspace: FlowWorkspace | None = None) -> float:
    """One optimizer step on a batch of target vectors; returns the loss.
    The step runs in the training `workspace` (a new one when None): its
    masks are redrawn and its gradient buffer overwritten."""
    cfg = model.config
    if x1.ndim != 2 or x1.shape[0] == 0:
        raise ArgumentError("x1 must be a nonempty (batch, d) matrix")
    b, d = x1.shape
    if workspace is None:
        workspace = FlowWorkspace(cfg, b, training=True)
    t = _sample_time(cfg, rngs["time"], b)
    x0 = rngs["source"].normal(0.0, cfg.source_std, size=(b, d))
    eps = rngs["noise"].normal(0.0, cfg.noise_scale, size=(b, d))
    masks = _dropout_masks(cfg, rngs["dropout"], workspace)
    loss, _ = fm_loss_and_grads(model, x1, x0, t, eps, masks, workspace.grads,
                                workspace)
    if not np.isfinite(loss):
        raise TrainingDivergedError(
            f"non-finite flow-matching loss at step {optimizer.t}")
    optimizer.step([workspace.grad], _cosine_lr(cfg, optimizer.t))
    return loss


def train_flow(population: np.ndarray, cfg: FlowConfig, seed: int = 0) -> FlowModel:
    """Train the vector field on a population of flat vectors.

    Deterministic given seed. The returned model is in evaluation mode
    (dropout only applies during training).
    """
    population = np.asarray(population, dtype=np.float64)
    if population.ndim != 2 or population.shape[0] < 1:
        raise ArgumentError("population must be a nonempty (n, d) matrix")
    if population.shape[1] != cfg.input_dim:
        raise ArgumentError(
            f"population dim {population.shape[1]} != config input_dim {cfg.input_dim}")

    model = init_flow_model(cfg, seed)
    optimizer = _Adam([model.flat], (cfg.beta1, cfg.beta2), cfg.weight_decay,
                      decoupled=True)
    n = population.shape[0]
    batch = min(cfg.batch_size, n)
    workspace = FlowWorkspace(cfg, batch, training=True)
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
        for _ in range(cfg.iterations):
            idx = rngs["batch"].integers(0, n, size=batch)
            loss = fm_training_step(model, optimizer, population[idx], rngs, workspace)
            model.loss_history.append(loss)
    return model


def rk4_integrate(fn, x0: np.ndarray, steps: int) -> np.ndarray:
    """Fixed-step RK4 from t=0 to t=1 for dx/dt = fn(x, t)."""
    if steps < 1:
        raise ArgumentError("steps must be >= 1")
    x = np.asarray(x0, dtype=np.float64).copy()
    h = 1.0 / steps
    for step in range(steps):
        t = step * h
        k1 = fn(x, t)
        k2 = fn(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = fn(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = fn(x + h * k3, t + h)
        incr = (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not np.all(np.isfinite(incr)):
            raise IntegrationError(f"non-finite vector field at step {step}")
        x = x + h * incr
    return x


def sample(model: FlowModel, count: int, seed: int = 0) -> np.ndarray:
    """Draw `count` vectors by integrating the field from Gaussian noise."""
    cfg = model.config
    if count < 0:
        raise ArgumentError("count must be >= 0")
    if count == 0:
        return np.zeros((0, cfg.input_dim))
    rng = make_rng(seed, "sample")
    x0 = rng.normal(0.0, cfg.source_std, size=(count, cfg.input_dim))
    workspace = FlowWorkspace(cfg, count)

    def field(x, t):
        return flow_forward(model, x, np.full(x.shape[0], t), workspace=workspace)

    return rk4_integrate(field, x0, cfg.integration_steps)


# ---------------------------------------------------------------------------
# Serialization: a DWFF container (see `checkpoint_io`), version 2. Header:
# one line per FlowConfig field, scalars first as repr, then the pair
# `time_beta` as comma-separated reprs. Array: the flat parameter buffer as
# float32, in layout order.


# FlowConfig field type -> parser of the header value save_flow writes.
_FROM_TEXT = {"int": int, "float": float, "str": lambda v: v.strip("'\""),
              "tuple": lambda v: tuple(float(x) for x in v.split(","))}


def save_flow(model: FlowModel, path) -> None:
    values = {f.name: getattr(model.config, f.name) for f in fields(FlowConfig)}
    header = [(k, repr(v)) for k, v in values.items() if not isinstance(v, tuple)]
    header += [(k, ",".join(map(repr, v))) for k, v in values.items() if isinstance(v, tuple)]
    save_container(path, FLOW_MAGIC, FLOW_VERSION, header, [(model.flat, "<f4")])


def _build_flow(pairs, read) -> FlowModel:
    cfg = FlowConfig(**{f.name: _FROM_TEXT[f.type](pairs[f.name]) for f in fields(FlowConfig)})
    return FlowModel(cfg, read("parameters", "<f4", _param_count(cfg)).astype(np.float64))


def load_flow(path) -> FlowModel:
    return load_container(path, FLOW_MAGIC, FLOW_VERSION, _build_flow, "config block")

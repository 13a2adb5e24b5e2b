"""Run configuration: flat key-value text with section headers.

The schema is closed — unknown sections or keys are rejected so a typo'd
config fails loudly instead of silently using a default. Values are plain
scalars or comma-separated lists; booleans are 0/1. A key left out takes
the default of the dataclass field it sets (`RunConfig`, `DataConfig`,
`TrainHyper`, `FlowConfig`, `ArchitectureSpec`); the defaults are stated
there and nowhere else.

Keys by section (choices after a colon):

    [run]        task: iris | mnist | blobs; out_dir; seed
    [data]       test_fraction; limit (0 = all); mnist_train_images,
                 mnist_train_labels, mnist_test_images, mnist_test_labels
                 (paths); blobs_classes; blobs_per_class; blobs_dim;
                 blobs_spread
    [arch]       layer_dims; activation; bn (one 0/1 flag per hidden layer;
                 a single value broadcasts)
    [population] size; base_seed; optimizer: adam | adamw | sgd;
                 learning_rate; weight_decay; batch_size; epochs;
                 init: kaiming | xavier | normal | uniform | kaiming_zero_bias
    [canonicalize] mode: rebasin | off; reference_index; max_iter
    [pca]        mode: off | standard | incremental | dual;
                 latent_dim (0 = min(n-1, 99)); micro_batch; exact_eigen;
                 batch_rows
    [flow]       hidden_dim; time_embed_dim; dropout; noise_scale;
                 source_std; time_distribution: uniform | beta; time_beta;
                 iterations; batch_size; learning_rate; weight_decay; beta1;
                 beta2; lr_min; integration_steps
    [generate]   count; recalibrate_bn; calib_fraction
    [metrics]    iou; distances
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .flow import TIME_DISTRIBUTIONS, FlowConfig
from .nn_core import INIT_SCHEMES, OPTIMIZERS, ArchitectureSpec, TrainHyper
from .pca import default_latent_dim

TASKS = ("iris", "mnist", "blobs")
CANON_MODES = ("off", "rebasin")
PCA_MODES = ("off", "standard", "incremental", "dual")
SEED_LIMIT = 2 ** 63  # seeds are stored as i64


@dataclass(frozen=True)
class DataConfig:
    test_fraction: float = 0.2
    limit: int = 0
    mnist_train_images: str = ""
    mnist_train_labels: str = ""
    mnist_test_images: str = ""
    mnist_test_labels: str = ""
    blobs_classes: int = 3
    blobs_per_class: int = 50
    blobs_dim: int = 4
    blobs_spread: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.limit < 0:
            raise ConfigError(f"limit must be >= 0, got {self.limit}")
        if self.blobs_classes < 2 or self.blobs_per_class < 2 or self.blobs_dim < 1:
            raise ConfigError("blobs need classes >= 2, per_class >= 2 and dim >= 1")
        if not (math.isfinite(self.blobs_spread) and self.blobs_spread > 0):
            raise ConfigError(f"blobs_spread must be finite and > 0, got {self.blobs_spread}")


@dataclass(frozen=True)
class RunConfig:
    task: str = "iris"
    out_dir: str = "run"
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    arch: ArchitectureSpec = field(
        default_factory=lambda: ArchitectureSpec((4, 16, 3)))
    population_size: int = 50
    base_seed: int = 100
    train_hyper: TrainHyper = field(default_factory=TrainHyper)
    init_scheme: str = "kaiming"
    canonicalize_mode: str = "rebasin"
    reference_index: int = 0
    canonicalize_max_iter: int = 100
    pca_mode: str = "off"
    latent_dim: int = 0
    pca_micro_batch: int = 16
    pca_exact_eigen: bool = False
    pca_batch_rows: int = 16
    flow: dict = field(default_factory=dict)  # FlowConfig kwargs sans input_dim
    generate_count: int = 50
    recalibrate_bn: bool = True
    calib_fraction: float = 1.0
    metrics_iou: bool = True
    metrics_distances: bool = True

    def __post_init__(self):
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")
        if self.population_size < 1:
            raise ConfigError("population size must be >= 1")
        if not 0 <= self.base_seed <= SEED_LIMIT - self.population_size:
            raise ConfigError("base_seed + size - 1 must be in [0, 2**63)")
        if self.generate_count < 0:
            raise ConfigError("generate count must be >= 0")
        if not 0 <= self.reference_index < self.population_size:
            raise ConfigError("reference_index out of population range")
        if self.canonicalize_max_iter < 1:
            raise ConfigError("canonicalize max_iter must be >= 1")
        if min(self.pca_micro_batch, self.pca_batch_rows) < 1 or self.latent_dim < 0:
            raise ConfigError("pca micro_batch and batch_rows must be >= 1, latent_dim >= 0")
        k = self.latent_dim or default_latent_dim(self.population_size)
        rank = min(self.population_size - 1, self.arch.param_count())
        if self.pca_mode != "off" and not 1 <= k <= rank:
            raise ConfigError(f"pca needs 1 <= latent_dim <= {rank} (size - 1 and "
                              f"parameter count), got {k}")
        if not 0.0 < self.calib_fraction <= 1.0:
            raise ConfigError(f"calib_fraction must be in (0, 1], got {self.calib_fraction}")
        if self.task == "mnist" and not self.data.mnist_train_images:
            raise ConfigError("mnist task requires [data] mnist_* paths")

    def flow_config(self, input_dim: int) -> FlowConfig:
        return FlowConfig(input_dim=input_dim, **self.flow)


def _get(section, key, conv, default):
    if key not in section:
        return default
    raw = section[key].strip()
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _bool(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError("expected 0 or 1")
    return raw == "1"


def _int_list(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split(","))


def _float_list(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(","))


def _choice(options):
    def conv(raw):
        if raw not in options:
            raise ValueError(f"must be one of {options}")
        return raw
    return conv


def _same_names(cls, *skip) -> dict:
    return {f.name: (cls, f.name) for f in fields(cls) if f.name not in skip}


def _run_fields(**keys) -> dict:
    return {key: (RunConfig, name) for key, name in keys.items()}


# [section] key -> (dataclass, field the key sets). A key's parser follows
# the field's annotation, or its choices below.
_KEYS = {
    "run": _run_fields(task="task", out_dir="out_dir", seed="seed"),
    "data": _same_names(DataConfig),
    "population": {**_run_fields(size="population_size", base_seed="base_seed",
                                 init="init_scheme"),
                   **_same_names(TrainHyper)},
    "canonicalize": _run_fields(mode="canonicalize_mode",
                                reference_index="reference_index",
                                max_iter="canonicalize_max_iter"),
    "pca": _run_fields(mode="pca_mode", latent_dim="latent_dim",
                       micro_batch="pca_micro_batch",
                       exact_eigen="pca_exact_eigen", batch_rows="pca_batch_rows"),
    "flow": _same_names(FlowConfig, "input_dim", "betas"),
    "generate": _run_fields(count="generate_count", recalibrate_bn="recalibrate_bn",
                            calib_fraction="calib_fraction"),
    "metrics": _run_fields(iou="metrics_iou", distances="metrics_distances"),
}
_CHOICES = {"task": TASKS, "optimizer": OPTIMIZERS, "init_scheme": INIT_SCHEMES,
            "canonicalize_mode": CANON_MODES, "pca_mode": PCA_MODES,
            "time_distribution": TIME_DISTRIBUTIONS}
_PARSERS = {"bool": _bool, "int": int, "float": float, "str": str,
            "tuple": _float_list}

_SCHEMA = {section: set(keys) for section, keys in _KEYS.items()}
_SCHEMA["arch"] = {"layer_dims", "activation", "bn"}
_SCHEMA["flow"] |= {"beta1", "beta2"}


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


def _parser(cls, name):
    if name in _CHOICES:
        return _choice(_CHOICES[name])
    return _PARSERS[next(f.type for f in fields(cls) if f.name == name)]


def _parse_arch(section) -> ArchitectureSpec:
    default = RunConfig().arch
    layer_dims = _get(section, "layer_dims", _int_list, default.layer_dims)
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ConfigError(f"invalid layer_dims {layer_dims}")
    n_hidden = len(layer_dims) - 2
    bn = _get(section, "bn", _int_list, None)
    if bn is not None:
        if len(bn) == 1:
            bn = bn * n_hidden
        if len(bn) != n_hidden or any(v not in (0, 1) for v in bn):
            raise ConfigError(f"bn must give one 0/1 flag per hidden layer, got {bn}")
        bn = tuple(bool(v) for v in bn)
    try:
        return ArchitectureSpec(layer_dims,
                                _get(section, "activation", str, default.activation),
                                bn)
    except ConfigError as exc:
        raise ConfigError(f"invalid architecture: {exc}") from exc


def parse_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")

    def sec(name):
        return parser[name] if parser.has_section(name) else {}

    kwargs = {RunConfig: {}, DataConfig: {}, TrainHyper: {}, FlowConfig: {}}
    for name, keys in _KEYS.items():
        section = sec(name)
        for key, (cls, fname) in keys.items():
            if key in section:
                kwargs[cls][fname] = _get(section, key, _parser(cls, fname), None)

    flow = {k: v for k, v in _defaults(FlowConfig).items() if k != "input_dim"}
    flow.update(kwargs[FlowConfig])
    beta1, beta2 = flow["betas"]
    flow["betas"] = (_get(sec("flow"), "beta1", float, beta1),
                     _get(sec("flow"), "beta2", float, beta2))

    FlowConfig(input_dim=1, **flow)  # reject a bad [flow] before any stage runs
    data = DataConfig(**kwargs[DataConfig])
    return RunConfig(**kwargs[RunConfig], data=data, arch=_parse_arch(sec("arch")),
                     train_hyper=TrainHyper(**kwargs[TrainHyper]), flow=flow)

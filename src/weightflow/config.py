"""Run configuration: flat key-value text with section headers.

`_KEYS` is the whole schema: each `[section] key` names the dataclass field
it sets (`RunConfig`, `DataConfig`, `ArchitectureSpec`, `TrainHyper`,
`FlowConfig`). `parse_config` reads a config through it, and
`section_rows` reads a parsed config back through it as the `section.key`
rows that stage manifests record. The schema is closed — unknown sections
(`[DEFAULT]` too) or keys are rejected so a typo'd config fails loudly
instead of silently using a default. Values are plain scalars or
comma-separated lists; booleans are 0/1. A key left out takes the default
of the dataclass field it sets; the defaults are stated there and nowhere
else.

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
from dataclasses import dataclass, field, fields, replace

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
    arch: ArchitectureSpec = field(default_factory=ArchitectureSpec)
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
    flow: FlowConfig = field(default_factory=FlowConfig)
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
        return replace(self.flow, input_dim=input_dim)


def _get(key, raw: str, conv):
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _bool(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError("expected 0 or 1")
    return raw == "1"


def _line(raw: str) -> str:
    """Text a manifest row can hold: configparser joins indented
    continuation lines into one value."""
    if "\n" in raw:
        raise ValueError("expected one line")
    return raw


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


# RunConfig field -> the dataclass it holds, built from that class's keys.
_PARTS = {"data": DataConfig, "arch": ArchitectureSpec, "train_hyper": TrainHyper,
          "flow": FlowConfig}

# The schema: [section] key -> (dataclass, field the key sets). A key's
# parser follows the field's annotation, or its choices below.
_KEYS = {
    "run": _run_fields(task="task", out_dir="out_dir", seed="seed"),
    "data": _same_names(DataConfig),
    "arch": {"layer_dims": (ArchitectureSpec, "layer_dims"),
             "activation": (ArchitectureSpec, "activation"),
             "bn": (ArchitectureSpec, "bn_layers")},
    "population": {**_run_fields(size="population_size", base_seed="base_seed",
                                 init="init_scheme"),
                   **_same_names(TrainHyper)},
    "canonicalize": _run_fields(mode="canonicalize_mode",
                                reference_index="reference_index",
                                max_iter="canonicalize_max_iter"),
    "pca": _run_fields(mode="pca_mode", latent_dim="latent_dim",
                       micro_batch="pca_micro_batch",
                       exact_eigen="pca_exact_eigen", batch_rows="pca_batch_rows"),
    "flow": _same_names(FlowConfig, "input_dim"),
    "generate": _run_fields(count="generate_count", recalibrate_bn="recalibrate_bn",
                            calib_fraction="calib_fraction"),
    "metrics": _run_fields(iou="metrics_iou", distances="metrics_distances"),
}
_CHOICES = {"task": TASKS, "optimizer": OPTIMIZERS, "init_scheme": INIT_SCHEMES,
            "canonicalize_mode": CANON_MODES, "pca_mode": PCA_MODES,
            "time_distribution": TIME_DISTRIBUTIONS}
_PARSERS = {"bool": _bool, "int": int, "float": float, "str": _line,
            "tuple": _float_list, "tuple[int, ...]": _int_list}


def _parser(cls, name):
    if name in _CHOICES:
        return _choice(_CHOICES[name])
    return _PARSERS[next(f.type for f in fields(cls) if f.name == name)]


def parse_config(path) -> RunConfig:
    # No section header can spell "", so `[DEFAULT]` is an ordinary section
    # (and an unknown one), not defaults copied into every other section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    kwargs = {cls: {} for cls in (RunConfig, *_PARTS.values())}
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]")
        for key, raw in parser[name].items():
            if key not in _KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            cls, fname = _KEYS[name][key]
            kwargs[cls][fname] = _get(key, raw, _parser(cls, fname))
    return RunConfig(**kwargs[RunConfig],
                     **{fname: cls(**kwargs[cls]) for fname, cls in _PARTS.items()})


def section_rows(cfg: RunConfig, sections) -> list:
    """(`section.key`, value) for every key of `sections`, read back from
    `cfg` through the schema; all but `[run] out_dir`, which places a run
    but does not shape it."""
    parts = {cls: getattr(cfg, fname) for fname, cls in _PARTS.items()}
    parts[RunConfig] = cfg
    return [(f"{section}.{key}", getattr(parts[cls], fname))
            for section in sections for key, (cls, fname) in _KEYS[section].items()
            if (section, key) != ("run", "out_dir")]

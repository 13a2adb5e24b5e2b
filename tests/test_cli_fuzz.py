"""Fuzz `weightflow run` with small configs drawn from the closed schema.

Every key of every section in `config._KEYS` may be drawn, with valid,
edge and invalid values. Sizes stay small (widths <= 16, at most 4
members, at most 20 flow iterations) so that no draw asks for much memory
or time. The CLI must end with a documented exit code and never with a
Python traceback.
"""

import contextlib
import io
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from weightflow.cli import main
from weightflow.config import _KEYS

def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def pick(*options):
    return st.sampled_from([str(v) for v in options])


def int_list(lo, hi, min_size, max_size):
    return st.lists(st.integers(lo, hi), min_size=min_size,
                    max_size=max_size).map(lambda v: ",".join(map(str, v)))


NAN, INF = float("nan"), float("inf")
# [section] key -> (valid or edge values, invalid values or None).
VALUES = {
    "run": {"task": (pick("iris", "blobs"), pick("mnist", "cifar")),
            "seed": (pick(0, 7, 2 ** 63 - 1), pick(-1, 2 ** 63)),
            "out_dir": (st.just("ignored"), None)},
    "data": {"test_fraction": (pick(0.2, 0.5, 0.9), pick(0, 1, 1.5, -0.5, NAN)),
             "limit": (ints(0, 3), pick(-1)),
             "mnist_train_images": (pick(""), pick("absent.idx")),
             "mnist_train_labels": (pick(""), pick("absent.idx")),
             "mnist_test_images": (pick(""), pick("absent.idx")),
             "mnist_test_labels": (pick(""), pick("absent.idx")),
             "blobs_classes": (ints(2, 5), ints(0, 1)),
             "blobs_per_class": (ints(2, 12), ints(0, 1)),
             "blobs_dim": (ints(1, 6), pick(0)),
             "blobs_spread": (pick(1e-3, 1.0, 4.0), pick(0, -1, NAN, INF))},
    "arch": {"layer_dims": (st.just("fit"), int_list(0, 16, 1, 4)),
             "activation": (pick("relu", "gelu", "identity"), pick("tanh")),
             "bn": (pick(0, 1), int_list(0, 2, 2, 3))},
    "population": {"size": (ints(1, 4), pick(0)), "base_seed": (ints(0, 3), pick(-1)),
                   "optimizer": (pick("adam", "adamw", "sgd"), pick("rmsprop")),
                   "learning_rate": (pick(1e-3, 1e-2, 1.0), pick(0, -1, NAN, INF, 1e30)),
                   "weight_decay": (pick(0, 1e-2), pick(-1, NAN, INF)),
                   "batch_size": (ints(1, 20), pick(0)), "epochs": (ints(0, 4), pick(-1)),
                   "init": (pick("kaiming", "xavier", "normal", "uniform",
                                 "kaiming_zero_bias"), pick("zeros"))},
    "canonicalize": {"mode": (pick("rebasin", "off"), pick("on")),
                     "reference_index": (ints(0, 3), pick(-1, 4)),
                     "max_iter": (ints(1, 4), pick(0))},
    "pca": {"mode": (pick("off", "standard", "incremental", "dual"), pick("kernel")),
            "latent_dim": (ints(0, 3), pick(-1, 5)), "micro_batch": (ints(1, 4), pick(0)),
            "exact_eigen": (pick(0, 1), pick(2)), "batch_rows": (ints(1, 4), pick(0))},
    "flow": {"hidden_dim": (ints(2, 16), ints(0, 1)),
             "time_embed_dim": (ints(1, 4), pick(0)),
             "dropout": (pick(0, 0.1, 0.9), pick(1, -0.1, NAN)),
             "noise_scale": (pick(1e-3, 0.5), pick(0, NAN)),
             "source_std": (pick(0.01, 1.0), pick(0, -1, INF)),
             "time_distribution": (pick("uniform", "beta"), pick("normal")),
             "time_beta": (pick("2,5", "0.5,0.5"), pick("0,1", "1", "nan,2", "2,5,1")),
             "iterations": (ints(1, 20), pick(0)), "batch_size": (ints(1, 8), pick(0)),
             "learning_rate": (pick(1e-3, 1.0), pick(0, NAN, 1e30)),
             "weight_decay": (pick(0, 1e-5), pick(-1, INF)),
             "beta1": (pick(0, 0.9), pick(1, NAN)), "beta2": (pick(0, 0.95), pick(-0.1)),
             "lr_min": (pick(0, 1e-6), pick(-1, NAN)),
             "integration_steps": (ints(1, 5), pick(0))},
    "generate": {"count": (ints(0, 4), pick(-1)), "recalibrate_bn": (pick(0, 1), pick(2)),
                 "calib_fraction": (pick(0.5, 1), pick(0, 2, NAN))},
    "metrics": {"iou": (pick(0, 1), pick(2)), "distances": (pick(0, 1), pick(-1))},
}
# Sizes the schema leaves open are kept small here; a key left out would
# take a default sized for real runs (50 members, 30000 flow iterations).
SMALL_DEFAULTS = {"population": {"size": "3", "epochs": "2"},
                  "flow": {"hidden_dim": "8", "iterations": "10",
                           "integration_steps": "3"},
                  "generate": {"count": "2"}}


def test_values_cover_the_schema():
    assert {s: set(keys) for s, keys in VALUES.items()} == \
        {s: set(keys) for s, keys in _KEYS.items()}


BAD_KEYS = sorted((section, key) for section, keys in VALUES.items()
                  for key, (_, bad) in keys.items() if bad is not None)


@st.composite
def configs(draw):
    """Sections of a config: a few valid keys per section, and at most one
    invalid key, so many draws get past parsing into the stages."""
    bad_key = draw(st.none() | st.sampled_from(BAD_KEYS))
    sections = {}
    for section, keys in VALUES.items():
        values = dict(SMALL_DEFAULTS.get(section, {}))
        for key in sorted(draw(st.sets(st.sampled_from(sorted(keys)), max_size=3))):
            values[key] = draw(keys[key][0])
        if bad_key is not None and bad_key[0] == section:
            values[bad_key[1]] = draw(keys[bad_key[1]][1])
        if values:
            sections[section] = values
    if sections.get("arch", {}).get("layer_dims") == "fit":
        data = sections.get("data", {})
        blobs = sections.get("run", {}).get("task") == "blobs"
        ends = (data.get("blobs_dim", "4"), data.get("blobs_classes", "3")) if blobs \
            else ("4", "3")
        hidden = draw(st.lists(st.integers(1, 16), max_size=2))
        sections["arch"]["layer_dims"] = ",".join([ends[0], *map(str, hidden), ends[1]])
    return sections


def render(sections, out_dir) -> str:
    sections.setdefault("run", {})["out_dir"] = out_dir
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(configs())
def test_run_ends_with_a_documented_exit_code(sections):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = f"{tmp}/cfg.ini"
        with open(cfg_path, "w") as f:
            f.write(render(sections, f"{tmp}/run"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", cfg_path])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()

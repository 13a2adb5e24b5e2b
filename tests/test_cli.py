import configparser
import io
import math
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest

from weightflow.checkpoint_io import load_population
from weightflow.cli import main
from weightflow.config import _KEYS, DataConfig, RunConfig, parse_config, section_rows
from weightflow.errors import ConfigError
from weightflow.flow import FlowConfig
from weightflow.nn_core import TrainHyper
from weightflow.pipeline import STAGES, TABLE, read_manifest, sha256_file

QUICK = """\
[run]
task = blobs
out_dir = {out}
seed = 1

[arch]
layer_dims = 4,8,3

[population]
size = 3
base_seed = 10
epochs = 10

[flow]
hidden_dim = 16
iterations = 100
integration_steps = 10

[generate]
count = 2
"""


@pytest.fixture
def quick_cfg(tmp_path):
    out = tmp_path / "run"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(QUICK.format(out=out))
    return str(cfg_path), str(out)


def _files(out) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.fixture
def full_run(tmp_path):
    """A finished QUICK run with BN, Re-Basin and PCA on, so that every stage
    runs and every key shapes some artifact: (config path, run directory)."""
    out = tmp_path / "run"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(QUICK.format(out=out).replace(
        "layer_dims = 4,8,3", "layer_dims = 4,8,6,3\nbn = 1") + "\n[pca]\nmode = standard\n")
    assert main(["run", "--config", str(cfg_path)]) == 0
    return cfg_path, out


class TestConfig:
    def test_parse_defaults(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\ntask = iris\n")
        cfg = parse_config(p)
        assert cfg.task == "iris"
        assert cfg.population_size == 50
        assert cfg.flow.hidden_dim == 256

    def test_omitted_keys_take_dataclass_defaults(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\ntask = iris\n")
        cfg = parse_config(p)
        for parsed, default in ((cfg, RunConfig()), (cfg.data, DataConfig()),
                                (cfg.train_hyper, TrainHyper())):
            for f in fields(default):
                assert getattr(parsed, f.name) == getattr(default, f.name), f.name
        assert cfg.flow_config(7) == FlowConfig(input_dim=7)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\ntask = iris\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        # configparser would copy [DEFAULT] keys into every section, past
        # the closed schema: here into both learning rates.
        p = tmp_path / "c.ini"
        for text, name in (("[nope]\nx = 1\n", "nope"),
                           ("[DEFAULT]\nbogus = 1\n", "DEFAULT"),
                           ("[DEFAULT]\nlearning_rate = 0.5\n[population]\nsize = 2\n"
                            "[flow]\nhidden_dim = 8\n", "DEFAULT")):
            p.write_text(text)
            with pytest.raises(ConfigError, match=rf"unknown section \[{name}\]"):
                parse_config(p)

    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        p = tmp_path / "c.ini"
        p.write_bytes(b"[run]\ntask = \xff\n")
        assert main(["report", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(p) in err and "Traceback" not in err

    def test_bad_value(self, tmp_path):
        # A value over two lines would break the manifest row recording it.
        p = tmp_path / "c.ini"
        for text in ("[population]\nsize = many\n",
                     "[data]\nmnist_train_images = a\n  b\n"):
            p.write_text(text)
            with pytest.raises(ConfigError, match="bad value for"):
                parse_config(p)

    def test_mnist_requires_paths(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\ntask = mnist\n")
        with pytest.raises(ConfigError, match="mnist"):
            parse_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.ini")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nbogus = 1\n")
        assert main(["run", "--config", str(p)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_upstream_is_3(self, quick_cfg, capsys):
        cfg_path, _ = quick_cfg
        assert main(["train-flow", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert "missing upstream artifact" in err and "train-flow" in err

    @pytest.mark.parametrize("artifact,stage", [("pca.dwfp", "train-flow"),
                                                ("flow.dwff", "generate")])
    def test_truncated_artifact_is_3(self, tmp_path, capsys, artifact, stage):
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(QUICK.format(out=out) + "\n[pca]\nmode = standard\n")
        assert main(["run", "--config", str(cfg_path)]) == 0
        path = out / artifact
        path.write_bytes(path.read_bytes()[:30])
        assert main([stage, "--config", str(cfg_path)]) == 3
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact,stage,section", [
        ("population.dwfc", "canonicalize", "[pca]\nmode = standard\n"),
        ("population.dwfc", "evaluate", "[pca]\nmode = standard\n"),
        ("population.dwfc", "train-flow", "[canonicalize]\nmode = off\n"),
        ("aligned.dwfc", "fit-pca", "[pca]\nmode = standard\n"),
        ("aligned.dwfc", "train-flow", "[pca]\nmode = standard\n"),
        ("pca.dwfp", "train-flow", "[pca]\nmode = standard\n"),
        ("pca.dwfp", "generate", "[pca]\nmode = standard\n"),
        ("flow.dwff", "generate", "[pca]\nmode = standard\n"),
        ("generated.dwfc", "evaluate", "[pca]\nmode = standard\n")],
        ids=lambda v: v.splitlines()[0].strip("[]") if "\n" in v else v)
    def test_artifact_off_its_manifest_is_3(self, tmp_path, capsys, artifact,
                                            stage, section):
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(QUICK.format(out=out) + "\n" + section)
        assert main(["run", "--config", str(cfg_path)]) == 0
        path = out / artifact
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "does not match the sha256" in err and artifact in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage,section", [
        ("canonicalize", "[pca]\nmode = standard\n"),
        ("fit-pca", "[pca]\nmode = standard\n"),
        ("train-flow", "[pca]\nmode = standard\n"),
        ("generate", "[pca]\nmode = standard\n"),
        ("generate", ""),
        ("evaluate", "[pca]\nmode = standard\n")],
        ids=["canonicalize", "fit-pca", "train-flow", "generate-pca", "generate",
             "evaluate"])
    def test_other_arch_than_the_artifacts_is_3(self, tmp_path, capsys, stage, section):
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(QUICK.format(out=out) + "\n" + section)
        assert main(["run", "--config", str(cfg_path)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg_path.write_text(cfg_path.read_text().replace("4,8,3", "4,6,3"))
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage {stage}: ") and "Traceback" not in err
        assert ("population.dwfc has arch.layer_dims (4, 8, 3), but the config asks "
                "for (4, 6, 3)") in err and "rerun `make-population`" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_other_activation_than_the_flow_is_3(self, quick_cfg, capsys):
        # The flow's file records only a width, which an activation change
        # keeps; generate checks the manifest of the networks the flow was
        # fit on instead.
        cfg_path, out = quick_cfg
        assert main(["run", "--config", cfg_path]) == 0
        before = {name: open(os.path.join(out, name), "rb").read()
                  for name in os.listdir(out)}
        with open(cfg_path) as f:
            text = f.read().replace("layer_dims = 4,8,3", "layer_dims = 4,8,3\nactivation = gelu")
        with open(cfg_path, "w") as f:
            f.write(text)
        capsys.readouterr()
        assert main(["generate", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: stage generate: ") and "Traceback" not in err
        assert "arch.activation relu, but the config asks for gelu" in err
        assert "rerun `make-population`" in err
        assert {name: open(os.path.join(out, name), "rb").read()
                for name in os.listdir(out)} == before

    @pytest.mark.parametrize("stage,section,old,new,expected", [
        ("train-flow", "[pca]\nmode = standard\n", "mode = standard",
         "mode = standard\nlatent_dim = 1",
         ["pca.dwfp has pca.latent_dim 0, but the config asks for 1",
          "rerun `fit-pca`"]),
        ("generate", "[pca]\nmode = standard\n", "mode = standard",
         "mode = standard\nlatent_dim = 1",
         ["pca.dwfp has pca.latent_dim 0, but the config asks for 1",
          "rerun `fit-pca`"]),
        ("generate", "", "integration_steps = 10",
         "integration_steps = 200\nsource_std = 5.0",
         ["flow.dwff has ", "flow.integration_steps 10, but the config asks for 200",
          "flow.source_std 0.01, but the config asks for 5.0", "rerun `train-flow`"]),
        ("generate", "[pca]\nmode = standard\n", "mode = standard", "mode = off",
         ["flow.dwff has ", "inputs pca, population, but the config asks for population",
          "rerun `train-flow`"]),
        ("train-flow", "[pca]\nmode = standard\n", "mode = standard", "mode = dual",
         ["pca.dwfp has pca.mode standard, but the config asks for dual",
          "rerun `fit-pca`"])],
        ids=["train-flow-latent_dim", "generate-latent_dim", "generate-flow",
             "generate-pca-off", "train-flow-pca-mode"])
    def test_other_config_than_the_model_is_3(self, tmp_path, capsys, stage, section,
                                              old, new, expected):
        out = tmp_path / "run"
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(QUICK.format(out=out) + "\n" + section)
        assert main(["run", "--config", str(cfg_path)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg_path.write_text(cfg_path.read_text().replace(old, new))
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage {stage}: ") and "Traceback" not in err
        for text in expected:
            assert text in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("keys,flags,stage,expected,rerun", [
        ({}, ["--seed", "5"], "evaluate",
         "population.dwfc has run.seed 1, but the config asks for 5", "make-population"),
        ({"population.epochs": "1"}, [], "canonicalize",
         "population.dwfc has population.epochs 10, but the config asks for 1",
         "make-population"),
        ({"canonicalize.max_iter": "1"}, [], "fit-pca",
         "aligned.dwfc has canonicalize.max_iter 100, but the config asks for 1",
         "canonicalize"),
        ({"pca.batch_rows": "2"}, [], "train-flow",
         "pca.dwfp has pca.batch_rows 16, but the config asks for 2", "fit-pca"),
        ({"data.blobs_spread": "3.0"}, [], "generate",
         "population.dwfc has data.blobs_spread 1.0, but the config asks for 3.0",
         "make-population"),
        ({"generate.recalibrate_bn": "0"}, [], "evaluate",
         "generated.dwfc has generate.recalibrate_bn True, but the config asks for False",
         "generate"),
        ({"metrics.iou": "0"}, [], "report",
         "metrics.txt has metrics.iou True, but the config asks for False", "evaluate")],
        ids=["seed", "epochs", "max_iter", "batch_rows", "blobs_spread",
             "recalibrate_bn", "iou"])
    def test_stale_upstream_is_3(self, full_run, capsys, keys, flags, stage,
                                 expected, rerun):
        cfg_path, out = full_run
        before = _files(out)
        cfg_path.write_text(_set_keys(cfg_path.read_text(), **keys))
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path), *flags]) == 3
        err = capsys.readouterr().err
        assert err == f"error: stage {stage}: {expected} (rerun `{rerun}`)\n"
        assert _files(out) == before

    def test_flow_from_an_older_population_is_3(self, quick_cfg, capsys):
        # Each stage's own manifest matches its artifact; only the chain
        # shows that the flow was trained before the population changed.
        cfg_path, out = quick_cfg
        assert main(["run", "--config", cfg_path]) == 0
        with open(cfg_path) as f:
            text = f.read().replace("epochs = 10", "epochs = 3")
        with open(cfg_path, "w") as f:
            f.write(text)
        assert main(["make-population", "--config", cfg_path]) == 0
        assert main(["canonicalize", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main(["generate", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: stage generate: ") and "Traceback" not in err
        assert "flow.manifest" in err and "rerun `train-flow`" in err

    @pytest.mark.parametrize("old,new", [("original_count=", "original_counts="),
                                         ("generated_count=2", "generated_count=x")])
    def test_malformed_metrics_is_3(self, quick_cfg, capsys, old, new):
        cfg_path, out = quick_cfg
        assert main(["run", "--config", cfg_path]) == 0
        path = os.path.join(out, "metrics.txt")
        with open(path) as f:
            text = f.read()
        assert old in text
        with open(path, "w") as f:
            f.write(text.replace(old, new))
        capsys.readouterr()
        assert main(["report", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "metrics.txt" in err and "rerun `evaluate`" in err

    def test_manifest_not_utf8_is_3(self, quick_cfg, capsys):
        cfg_path, out = quick_cfg
        assert main(["make-population", "--config", cfg_path]) == 0
        path = os.path.join(out, "population.manifest")
        with open(path, "r+b") as f:
            f.write(b"\xff")
        capsys.readouterr()
        assert main(["canonicalize", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert "malformed manifest" in err and "Traceback" not in err

    def test_missing_generated_is_3(self, quick_cfg, capsys):
        cfg_path, out = quick_cfg
        assert main(["run", "--config", cfg_path]) == 0
        os.remove(os.path.join(out, "generated.dwfc"))
        assert main(["evaluate", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert "missing upstream artifact" in err and "generated.dwfc" in err

    def test_out_under_a_file_is_3(self, quick_cfg, tmp_path, capsys):
        cfg_path, _ = quick_cfg
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        assert main(["make-population", "--config", cfg_path,
                     "--out", str(blocker / "run")]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_idx_file_is_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "mnist.ini"
        absent = tmp_path / "absent.idx"
        cfg_path.write_text(
            f"[run]\ntask = mnist\nout_dir = {tmp_path / 'run'}\n\n[data]\n"
            + "".join(f"mnist_{part} = {absent}\n"
                      for part in ("train_images", "train_labels",
                                   "test_images", "test_labels")))
        assert main(["make-population", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.idx" in err

    def test_diverged_training_is_4(self, quick_cfg, capsys):
        cfg_path, _ = quick_cfg
        text = open(cfg_path).read()
        open(cfg_path, "w").write(
            text.replace("epochs = 10", "epochs = 10\nlearning_rate = 1e30"))
        with np.errstate(all="ignore"):
            assert main(["make-population", "--config", cfg_path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss at epoch 0")
        assert "seed 10" in err and "Traceback" not in err

    def test_diverged_training_prints_only_the_error(self, quick_cfg, capsys):
        cfg_path, _ = quick_cfg
        text = open(cfg_path).read()
        open(cfg_path, "w").write(
            text.replace("epochs = 10", "epochs = 10\nlearning_rate = 1e30"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["make-population", "--config", cfg_path]) == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err == "error: non-finite loss at epoch 0, batch offset 16, seed 10\n"

    def test_threads_flag_is_rejected(self, quick_cfg, capsys):
        cfg_path, _ = quick_cfg
        with pytest.raises(SystemExit) as exc:
            main(["make-population", "--config", cfg_path, "--threads", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_success_is_0(self, quick_cfg):
        cfg_path, _ = quick_cfg
        assert main(["make-population", "--config", cfg_path]) == 0


def _set_keys(text: str, **keys) -> str:
    """`text` with `keys` set. A key is `section.key`; a bare key is a [flow]
    key. A section the text lacks is added."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    for name, value in keys.items():
        section, _, key = name.rpartition(".")
        section = section or "flow"
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


BN = {"arch.bn": "1"}

# For every key that a `full_run` records but the two modes: another value
# that the schema accepts there.
OTHER_VALUES = {
    "run.task": "iris", "run.seed": "2",
    "data.test_fraction": "0.3", "data.limit": "5",
    "data.mnist_train_images": "a.idx", "data.mnist_train_labels": "b.idx",
    "data.mnist_test_images": "c.idx", "data.mnist_test_labels": "d.idx",
    "data.blobs_classes": "2", "data.blobs_per_class": "20", "data.blobs_dim": "5",
    "data.blobs_spread": "3.0",
    "arch.layer_dims": "4,8,5,3", "arch.activation": "gelu", "arch.bn": "0",
    "population.size": "4", "population.base_seed": "11", "population.init": "xavier",
    "population.optimizer": "sgd", "population.learning_rate": "0.01",
    "population.weight_decay": "0.1", "population.batch_size": "8",
    "population.epochs": "1",
    "canonicalize.reference_index": "1", "canonicalize.max_iter": "1",
    "pca.latent_dim": "1", "pca.micro_batch": "2", "pca.exact_eigen": "1",
    "pca.batch_rows": "2",
    "flow.hidden_dim": "8", "flow.time_embed_dim": "2", "flow.dropout": "0.2",
    "flow.noise_scale": "0.01", "flow.source_std": "0.1",
    "flow.time_distribution": "beta", "flow.time_beta": "2,3", "flow.iterations": "50",
    "flow.batch_size": "4", "flow.learning_rate": "0.001", "flow.weight_decay": "0.001",
    "flow.beta1": "0.8", "flow.beta2": "0.9", "flow.lr_min": "0",
    "flow.integration_steps": "5",
    "generate.count": "3", "generate.recalibrate_bn": "0",
    "generate.calib_fraction": "0.5",
    "metrics.iou": "0", "metrics.distances": "0",
}


class TestDegenerateFlowConfig:
    @pytest.mark.parametrize("keys", [
        {"hidden_dim": "0"}, {"hidden_dim": "1"}, {"time_embed_dim": "0"},
        {"time_distribution": "beta", "time_beta": "0,1"},
        {"batch_size": "0"}, {"learning_rate": "-1"}, {"learning_rate": "nan"},
        {"run.seed": "-1"}, {"run.seed": str(2 ** 63)},
        {"population.base_seed": "-5"}, {"population.base_seed": str(2 ** 63 - 2)},
        {"data.blobs_dim": "0"}, {"data.blobs_spread": "-1"},
        {"data.blobs_spread": "inf"}, {"data.test_fraction": "nan"},
        {"data.test_fraction": "-0.5"}, {"data.test_fraction": "0"},
        {"data.test_fraction": "1.5"}, {"data.blobs_classes": "1"},
        {"data.blobs_per_class": "2", "data.test_fraction": "0.2"},
        {"data.blobs_per_class": "1"}, {"data.limit": "-1"},
        {"arch.layer_dims": "5,8,3"}, {"arch.layer_dims": "4,8,2"},
        {"pca.mode": "incremental", "pca.batch_rows": "0"},
        {"pca.mode": "dual", "pca.micro_batch": "0"},
        {"pca.mode": "standard", "pca.latent_dim": "-1"},
        {"pca.mode": "standard", "pca.latent_dim": "5"},
        {"pca.mode": "dual", "population.size": "1"},
        {"canonicalize.max_iter": "0"},
        {**BN, "generate.calib_fraction": "0"}, {**BN, "generate.calib_fraction": "2"},
        {**BN, "generate.calib_fraction": "nan"},
        {"population.learning_rate": "nan"}, {"population.learning_rate": "inf"},
        {"population.weight_decay": "-1"}, {"population.weight_decay": "nan"},
    ], ids=lambda keys: ",".join(f"{k}={v}" for k, v in keys.items()))
    def test_run_exits_2_without_traceback(self, quick_cfg, capsys, keys):
        cfg_path, _ = quick_cfg
        text = open(cfg_path).read()
        open(cfg_path, "w").write(_set_keys(text, **keys))
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_negative_seed_flag_exits_2(self, quick_cfg, capsys):
        cfg_path, out = quick_cfg
        assert main(["run", "--config", cfg_path, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be")
        assert not os.path.exists(os.path.join(out, "population.dwfc"))

    @pytest.mark.parametrize("field,value", [
        ("hidden_dim", 1), ("time_embed_dim", 0), ("batch_size", 0),
        ("learning_rate", 0.0), ("learning_rate", math.inf),
        ("noise_scale", math.nan), ("source_std", -1.0),
        ("time_beta", (2.0, 0.0)), ("time_beta", (math.inf, 5.0)),
        ("time_beta", (2.0,)), ("lr_min", -1e-6), ("lr_min", math.nan),
        ("weight_decay", -1.0), ("weight_decay", math.inf),
        ("beta1", 1.0), ("beta2", -0.1), ("beta2", math.nan),
    ])
    def test_flow_config_rejects(self, field, value):
        with pytest.raises(ConfigError):
            FlowConfig(input_dim=4, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("hidden_dim", 2), ("time_embed_dim", 1), ("batch_size", 1),
        ("lr_min", 0.0), ("weight_decay", 0.0), ("beta1", 0.0), ("beta2", 0.0),
    ])
    def test_flow_config_accepts_edges(self, field, value):
        FlowConfig(input_dim=4, **{field: value})


class TestStages:
    def test_make_population_manifest(self, quick_cfg):
        cfg_path, out = quick_cfg
        assert main(["make-population", "--config", cfg_path]) == 0
        m = read_manifest(os.path.join(out, "population.manifest"))
        assert m["population.size"] == "3"
        assert m["seed_0000"] == "10"
        assert m["artifact"] == "population.dwfc"
        assert len(load_population(os.path.join(out, m["artifact"]))) == 3
        for i in range(3):
            assert 0.0 <= float(m[f"accuracy_{i:04d}"]) <= 1.0

    def test_canonicalize_preserves_accuracy(self, quick_cfg):
        cfg_path, out = quick_cfg
        assert main(["make-population", "--config", cfg_path]) == 0
        assert main(["canonicalize", "--config", cfg_path]) == 0
        m = read_manifest(os.path.join(out, "canonicalize.manifest"))
        for i in range(3):
            before = float(m[f"accuracy_before_{i:04d}"])
            after = float(m[f"accuracy_after_{i:04d}"])
            assert abs(before - after) <= 1e-6

    def test_full_run_writes_report(self, quick_cfg):
        cfg_path, out = quick_cfg
        assert main(["run", "--config", cfg_path]) == 0
        assert os.path.exists(os.path.join(out, "report.txt"))
        assert os.path.exists(os.path.join(out, "diversity.csv"))
        report = open(os.path.join(out, "report.txt")).read()
        assert "original" in report and "generated" in report

    def test_generate_count_zero_noted(self, tmp_path):
        out = tmp_path / "run0"
        cfg_path = tmp_path / "c0.ini"
        cfg_path.write_text(QUICK.format(out=out).replace("count = 2",
                                                          "count = 0"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = (out / "report.txt").read_text()
        assert "none" in report

    def test_manifest_chains_hashes(self, tmp_path):
        # Every manifest of a finished run has exactly the input rows the
        # stage table names, each the sha256 of that upstream manifest.
        for label, section in (("on", "[pca]\nmode = standard\n"),
                               ("off", "[canonicalize]\nmode = off\n")):
            out = tmp_path / label
            cfg_path = tmp_path / f"{label}.ini"
            cfg_path.write_text(QUICK.format(out=out) + "\n" + section)
            assert main(["run", "--config", str(cfg_path)]) == 0
            cfg = parse_config(cfg_path)
            stages = [s for s in STAGES if s != "canonicalize" or label == "on"]
            for stage in stages:
                spec = TABLE[stage]
                m = read_manifest(out / spec.manifest)
                assert m["stage"] == stage
                inputs = spec.inputs(cfg)
                assert {k[len("input."):] for k in m if k.startswith("input.")} \
                    == set(inputs), stage
                for name, producer in inputs.items():
                    assert m[f"input.{name}"] == sha256_file(
                        out / TABLE[producer].manifest), (stage, name)
            flow = read_manifest(out / "flow.manifest")
            assert ("input.pca" in flow) == (label == "on")
            assert flow["input.population"] == sha256_file(
                out / ("canonicalize.manifest" if label == "on" else "population.manifest"))

    def test_manifests_record_every_key_once(self, full_run, capsys):
        cfg_path, out = full_run
        recorded = {}  # section.key -> (stage that records it, recorded value)
        for spec in TABLE.values():
            m = read_manifest(out / spec.manifest)
            for key in m:
                if "." in key and not key.startswith("input."):
                    assert key not in recorded, (key, m["stage"])
                    recorded[key] = m["stage"], m[key]
        assert set(recorded) == {f"{section}.{key}" for section, keys in _KEYS.items()
                                 for key in keys} - {"run.out_dir"}
        # Each key but the two modes, which rewire the chain, at another
        # valid value: report must name it and the stage to rerun.
        assert set(OTHER_VALUES) == set(recorded) - {"canonicalize.mode", "pca.mode"}
        text, before = cfg_path.read_text(), _files(out)
        for key, value in OTHER_VALUES.items():
            cfg_path.write_text(_set_keys(text, **{key: value}))
            asked = dict(section_rows(parse_config(cfg_path), _KEYS))[key]
            stage, old = recorded[key]
            capsys.readouterr()
            assert main(["report", "--config", str(cfg_path)]) == 3, key
            err = capsys.readouterr().err
            assert f"has {key} {old}, but the config asks for {asked} (rerun `{stage}`)" \
                in err, err
            assert _files(out) == before, key

    def test_rerun_stage_is_byte_identical(self, quick_cfg):
        cfg_path, out = quick_cfg
        assert main(["make-population", "--config", cfg_path]) == 0
        blob1 = open(os.path.join(out, "population.dwfc"), "rb").read()
        assert main(["make-population", "--config", cfg_path]) == 0
        blob2 = open(os.path.join(out, "population.dwfc"), "rb").read()
        assert blob1 == blob2

    def test_smaller_rerun_drops_stale_checkpoints(self, quick_cfg):
        cfg_path, out = quick_cfg
        text = open(cfg_path).read()
        big = text.replace("size = 3", "size = 6").replace("count = 2", "count = 6")
        open(cfg_path, "w").write(big)
        assert main(["run", "--config", cfg_path]) == 0
        open(cfg_path, "w").write(text)  # size 3, count 2
        assert main(["run", "--config", cfg_path]) == 0
        for name, n in (("population", 3), ("aligned", 3), ("generated", 2)):
            assert len(load_population(os.path.join(out, f"{name}.dwfc"))) == n, name
        m = read_manifest(os.path.join(out, "metrics.txt"))
        assert m["original_count"] == "3"
        assert m["generated_count"] == "2"

    def test_generate_bytes_do_not_depend_on_member_blocks(self, tmp_path,
                                                           monkeypatch):
        from weightflow import nn_core
        text = QUICK.replace("layer_dims = 4,8,3", "layer_dims = 4,8,6,3\nbn = 1") \
                    .replace("count = 2", "count = 5")
        runs = {}
        for label, budget in (("one_block", 1 << 30), ("one_member_each", 1)):
            monkeypatch.setattr(nn_core, "MEMBER_BLOCK_BYTES", budget)
            out = tmp_path / label
            cfg_path = tmp_path / f"{label}.ini"
            cfg_path.write_text(text.format(out=out))
            assert main(["run", "--config", str(cfg_path)]) == 0
            runs[label] = [(out / name).read_bytes()
                           for name in ("generated.dwfc", "generate.manifest")]
        assert len(load_population(tmp_path / "one_block" / "generated.dwfc")) == 5
        assert runs["one_block"] == runs["one_member_each"]

    def test_seed_override_changes_samples(self, quick_cfg, tmp_path, capsys):
        # The seed also picks the data draw every stage uses, so another
        # seed is another run from make-population, not another generate.
        cfg_path, out = quick_cfg
        assert main(["run", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main(["generate", "--config", cfg_path, "--seed", "99"]) == 3
        err = capsys.readouterr().err
        assert "population.dwfc has run.seed 1, but the config asks for 99" in err
        assert "rerun `make-population`" in err
        other = tmp_path / "seed99"
        assert main(["run", "--config", cfg_path, "--seed", "99", "--out", str(other)]) == 0
        a = load_population(os.path.join(out, "generated.dwfc")).params
        b = load_population(other / "generated.dwfc").params
        assert not np.array_equal(a, b)

    def test_out_flag_overrides(self, quick_cfg, tmp_path):
        cfg_path, _ = quick_cfg
        other = tmp_path / "elsewhere"
        assert main(["make-population", "--config", cfg_path,
                     "--out", str(other)]) == 0
        assert (other / "population.manifest").exists()

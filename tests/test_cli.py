import configparser
import ctypes
import io
import math
import os
import resource
import subprocess
import sys
import types
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import weightflow
from weightflow.checkpoint_io import load_population
from weightflow.cli import main
from weightflow.config import _KEYS, DataConfig, RunConfig, parse_config, section_rows
from weightflow.errors import ConfigError
from weightflow.flow import FlowConfig
from weightflow.nn_core import TrainHyper
from weightflow.pipeline import STAGES, TABLE, read_manifest, run_stage, sha256_file

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


# QUICK with BN, Re-Basin and PCA on, so that every stage runs and every
# key shapes some artifact.
FULL = QUICK.replace("layer_dims = 4,8,3", "layer_dims = 4,8,6,3\nbn = 1") + """
[pca]
mode = standard
"""


@pytest.fixture
def full_run(tmp_path):
    """A finished FULL run: (config path, run directory)."""
    out = tmp_path / "run"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(FULL.format(out=out))
    assert main(["run", "--config", str(cfg_path)]) == 0
    return cfg_path, out


def _child_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(weightflow.__file__).parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _child_minor_faults(args) -> int:
    """Minor page faults of one child Python process running `args`."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, *args], env=_child_env(), check=True,
                   capture_output=True)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


class TestBlasThreads:
    def test_run_is_byte_identical_at_one_and_two_blas_threads(self, tmp_path):
        # Two processes, since OpenBLAS reads its thread count at import.
        # Two threads is the fewest that can split a GEMM differently, and
        # asks no more cores than a 2-core runner has.
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"run{threads}"
            cfg_path = tmp_path / f"cfg{threads}.ini"
            cfg_path.write_text(FULL.format(out=out))
            env = dict(_child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "weightflow.cli", "run", "--config",
                            str(cfg_path)], env=env, check=True, capture_output=True)
            runs[threads] = _files(out)
        assert sorted(runs["1"]) == sorted(runs["2"]) and len(runs["1"]) == 14
        differing = [name for name in sorted(runs["1"]) if runs["1"][name] != runs["2"][name]]
        assert not differing, f"{differing[0]} differs between 1 and 2 BLAS threads"


HAS_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")


class TestAllocatorSettings:
    @pytest.fixture
    def wide_generate(self, tmp_path):
        """A finished run whose generate stage samples 400 networks through
        a 256-wide trunk: each float32 trunk array is 400 KB, above malloc's
        initial 128 KiB mmap threshold, and with glibc's defaults the 20 RK4
        field calls map or trim and fault in their arrays afresh. Returns
        (config path, minor faults of a child that only imports the
        package)."""
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(QUICK.format(out=tmp_path / "run")
                            .replace("4,8,3", "4,4,3").replace("hidden_dim = 16", "hidden_dim = 256")
                            .replace("iterations = 100", "iterations = 20")
                            .replace("integration_steps = 10", "integration_steps = 5")
                            .replace("count = 2", "count = 400"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        imports = _child_minor_faults(["-c", "import weightflow.cli, weightflow.pipeline"])
        return cfg_path, imports

    @pytest.mark.skipif(not HAS_MALLOPT, reason="the C library has no mallopt")
    def test_generate_reuses_freed_memory(self, wide_generate):
        # Counted beyond a child that only imports the CLI, generate took
        # about 880 minor faults with the settings and 8,900 without them.
        cfg_path, imports = wide_generate
        generate = _child_minor_faults(["-m", "weightflow.cli", "generate",
                                        "--config", str(cfg_path)])
        assert generate - imports <= 3000, (generate, imports)

    @pytest.mark.skipif(not HAS_MALLOPT, reason="the C library has no mallopt")
    def test_library_generate_reuses_freed_memory(self, wide_generate):
        # A caller of `run_stage` that never enters through `cli.main`
        # gets the same settings.
        cfg_path, imports = wide_generate
        generate = _child_minor_faults(
            ["-c", "import sys; from weightflow.config import parse_config; "
                   "from weightflow.pipeline import run_stage; cfg = parse_config(sys.argv[1]); "
                   "run_stage(cfg, cfg.out_dir, 'generate')", str(cfg_path)])
        assert generate - imports <= 3000, (generate, imports)

    @pytest.mark.parametrize("has_mallopt", [False, True])
    def test_run_stage_sets_the_thresholds_where_it_can(self, quick_cfg, monkeypatch,
                                                        has_mallopt):
        calls, library = [], types.SimpleNamespace()
        if has_mallopt:
            library.mallopt = lambda param, value: calls.append((param, value))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: library)
        cfg = parse_config(quick_cfg[0])
        run_stage(cfg, quick_cfg[1], "make-population")
        assert calls == ([(-3, 32 << 20), (-1, 64 << 20)] if has_mallopt else [])

    def test_settings_change_no_bits(self, tmp_path):
        # One process through `weightflow run`, which applies the settings,
        # and one through `run_pipeline` with `_keep_freed_memory` made a
        # no-op first, so that it keeps glibc's defaults. Both are children:
        # a `run_stage` call in this process would already have applied the
        # settings here. The flow's arrays at 400 samples of a 128-wide
        # trunk exceed the default mmap threshold.
        config = (FULL.replace("mode = standard", "mode = dual")
                  .replace("hidden_dim = 16", "hidden_dim = 128")
                  .replace("count = 2", "count = 400"))
        runs = {}
        for way, args in (("cli", ["-m", "weightflow.cli", "run", "--config"]),
                          ("library", ["-c", "import sys; import weightflow.pipeline as p; "
                                       "p._keep_freed_memory = lambda: None; "
                                       "from weightflow.config import parse_config; "
                                       "cfg = parse_config(sys.argv[1]); "
                                       "p.run_pipeline(cfg, cfg.out_dir)"])):
            out = tmp_path / way
            cfg_path = tmp_path / f"{way}.ini"
            cfg_path.write_text(config.format(out=out))
            subprocess.run([sys.executable, *args, str(cfg_path)], env=_child_env(),
                           check=True, capture_output=True)
            runs[way] = _files(out)
        assert sorted(runs["cli"]) == sorted(runs["library"]) and len(runs["cli"]) == 14
        differing = [name for name in sorted(runs["cli"])
                     if runs["cli"][name] != runs["library"][name]]
        assert not differing, f"{differing[0]} differs with the allocator settings"


class TestLibrarySample:
    def test_sample_reuses_its_buffers_without_the_settings(self):
        # `flow.sample` of 400 at bn-pca-sample's field (d 24, hidden 128)
        # from a child that never calls `pipeline._keep_freed_memory`, so
        # glibc keeps its defaults. Counted beyond a child that builds the
        # same model and does not sample, the buffers of one frozen field
        # and of RK4 took about 170 minor faults; arrays allocated afresh
        # on every field call took about 87,000.
        script = ("import sys; from weightflow.flow import FlowConfig, init_flow_model, sample; "
                  "model = init_flow_model(FlowConfig(input_dim=24, hidden_dim=128), seed=0); "
                  "sys.argv[1] == '1' and sample(model, 400, seed=0)")
        setup = _child_minor_faults(["-c", script, "0"])
        faults = _child_minor_faults(["-c", script, "1"])
        assert faults - setup <= 3000, (faults, setup)


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

    @pytest.mark.parametrize("field,value", [
        ("task", "bogus"), ("pca_mode", "kernel"), ("canonicalize_mode", "on")])
    def test_run_config_rejects_unknown_choice(self, field, value):
        # A library caller builds RunConfig without parse_config, so the
        # dataclass itself checks its choices, naming the value.
        with pytest.raises(ConfigError, match=repr(value)):
            RunConfig(**{field: value})

    def test_unknown_choice_in_config_exits_2(self, quick_cfg, capsys):
        cfg_path, out = quick_cfg
        with open(cfg_path, "a", encoding="utf-8") as f:
            f.write("\n[pca]\nmode = kernel\n")
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "kernel" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "population.dwfc"))


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

    def test_flow_file_of_version_2_is_3(self, quick_cfg, capsys):
        # A version-2 flow.dwff was trained with the exact-erf GELU; the
        # field generate would sample is not the field it holds.
        cfg_path, out = quick_cfg
        assert main(["run", "--config", cfg_path]) == 0
        path = os.path.join(out, "flow.dwff")
        with open(path, "r+b") as f:
            f.seek(4)
            f.write((2).to_bytes(4, "little"))
        before = _files(Path(out))
        capsys.readouterr()
        assert main(["generate", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {path}: unsupported version 2\n"
        assert _files(Path(out)) == before

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
        ({"pca.latent_dim": "1"}, [], "train-flow",
         "pca.dwfp has pca.latent_dim 0, but the config asks for 1", "fit-pca"),
        ({"data.blobs_spread": "3.0"}, [], "generate",
         "population.dwfc has data.blobs_spread 1.0, but the config asks for 3.0",
         "make-population"),
        ({"generate.calib_fraction": "0.5"}, [], "evaluate",
         "generated.dwfc has generate.calib_fraction 1.0, but the config asks for 0.5",
         "generate")],
        ids=["seed", "epochs", "max_iter", "latent_dim", "blobs_spread",
             "calib_fraction"])
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
                                         ("generated_count=2", "generated_count=x"),
                                         ("max_iou_mean=", "max_iou_means=")])
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

    def test_unallocatable_generate_is_3(self, quick_cfg, capsys):
        # numpy refuses a request this size before it touches any memory.
        cfg_path, _ = quick_cfg
        assert main(["run", "--config", cfg_path]) == 0
        text = open(cfg_path).read()
        open(cfg_path, "w").write(text.replace("count = 2", "count = 1000000000000"))
        capsys.readouterr()
        assert main(["generate", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

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
    "population.size": "4", "population.base_seed": "11",
    "population.optimizer": "adamw", "population.learning_rate": "0.01",
    "population.weight_decay": "0.1", "population.batch_size": "8",
    "population.epochs": "1",
    "canonicalize.reference_index": "1", "canonicalize.max_iter": "1",
    "pca.latent_dim": "1", "pca.exact_eigen": "1",
    "flow.hidden_dim": "8", "flow.time_embed_dim": "2", "flow.dropout": "0.2",
    "flow.noise_scale": "0.01", "flow.source_std": "0.1",
    "flow.iterations": "50",
    "flow.batch_size": "4", "flow.learning_rate": "0.001", "flow.weight_decay": "0.001",
    "flow.beta1": "0.8", "flow.beta2": "0.9", "flow.lr_min": "0",
    "flow.integration_steps": "5",
    "generate.count": "3", "generate.calib_fraction": "0.5",
}


class TestDegenerateFlowConfig:
    @pytest.mark.parametrize("keys", [
        {"hidden_dim": "0"}, {"hidden_dim": "1"}, {"time_embed_dim": "0"},
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
        {"pca.mode": "standard", "pca.latent_dim": "-1"},
        {"pca.mode": "standard", "pca.latent_dim": "5"},
        {"pca.mode": "dual", "population.size": "1"},
        {"canonicalize.max_iter": "0"},
        {**BN, "generate.calib_fraction": "0"}, {**BN, "generate.calib_fraction": "2"},
        {**BN, "generate.calib_fraction": "nan"},
        {"population.learning_rate": "nan"}, {"population.learning_rate": "inf"},
        {"population.weight_decay": "-1"}, {"population.weight_decay": "nan"},
        {"lr_min": "10"},
    ], ids=lambda keys: ",".join(f"{k}={v}" for k, v in keys.items()))
    def test_run_exits_2_without_traceback(self, quick_cfg, capsys, keys):
        cfg_path, _ = quick_cfg
        text = open(cfg_path).read()
        open(cfg_path, "w").write(_set_keys(text, **keys))
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("keys,error", [
        ({"pca.mode": "incremental"},
         "unknown pca_mode 'incremental', expected one of off, standard, dual"),
        ({"pca.mode": "dual", "pca.batch_rows": "16"},
         "unknown key 'batch_rows' in section [pca]"),
        ({"pca.mode": "dual", "pca.micro_batch": "16"},
         "unknown key 'micro_batch' in section [pca]"),
        ({"population.init": "kaiming"}, "unknown key 'init' in section [population]"),
        ({"population.optimizer": "sgd"},
         "unknown optimizer 'sgd', expected one of adam, adamw"),
        ({"time_distribution": "uniform"},
         "unknown key 'time_distribution' in section [flow]"),
        ({"time_beta": "2,5"}, "unknown key 'time_beta' in section [flow]"),
        ({"generate.recalibrate_bn": "1"},
         "unknown key 'recalibrate_bn' in section [generate]"),
        ({"metrics.iou": "1"}, "unknown section [metrics]"),
    ], ids=["incremental", "batch_rows", "micro_batch", "init", "sgd",
            "time_distribution", "time_beta", "recalibrate_bn", "metrics"])
    def test_removed_choices_and_keys_exit_2(self, quick_cfg, capsys, keys, error):
        cfg_path, _ = quick_cfg
        text = open(cfg_path).read()
        open(cfg_path, "w").write(_set_keys(text, **keys))
        assert main(["run", "--config", cfg_path]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("mode", ["standard", "dual"])
    def test_pca_on_one_network_says_it_needs_two(self, quick_cfg, capsys, mode):
        # PCA of one network has no direction to keep: the error says so,
        # rather than stating the empty range 1 <= latent_dim <= 0.
        cfg_path, _ = quick_cfg
        text = open(cfg_path).read()
        open(cfg_path, "w").write(_set_keys(text, **{"pca.mode": mode, "population.size": "1"}))
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err == "error: pca needs a population of at least 2 networks, got size 1\n"

    def test_negative_seed_flag_exits_2(self, quick_cfg, capsys):
        cfg_path, out = quick_cfg
        assert main(["run", "--config", cfg_path, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be")
        assert not os.path.exists(os.path.join(out, "population.dwfc"))

    @pytest.mark.parametrize("field,value", [
        ("hidden_dim", 1), ("time_embed_dim", 0), ("batch_size", 0),
        ("learning_rate", 0.0), ("learning_rate", math.inf),
        ("noise_scale", math.nan), ("source_std", -1.0),
        ("lr_min", -1e-6), ("lr_min", math.nan),
        ("weight_decay", -1.0), ("weight_decay", math.inf),
        ("beta1", 1.0), ("beta2", -0.1), ("beta2", math.nan),
        ("lr_min", 1e-3),
    ])
    def test_flow_config_rejects(self, field, value):
        with pytest.raises(ConfigError):
            FlowConfig(input_dim=4, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("hidden_dim", 2), ("time_embed_dim", 1), ("batch_size", 1),
        ("lr_min", 0.0), ("lr_min", 5e-4), ("weight_decay", 0.0), ("beta1", 0.0),
        ("beta2", 0.0),
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
        # With BN too: recalibrating zero members is a no-op.
        bn = QUICK.replace("layer_dims = 4,8,3", "layer_dims = 4,8,6,3\nbn = 1")
        for label, text in (("plain", QUICK), ("bn", bn)):
            out = tmp_path / label
            cfg_path = tmp_path / f"{label}.ini"
            cfg_path.write_text(text.format(out=out).replace("count = 2", "count = 0"))
            assert main(["run", "--config", str(cfg_path)]) == 0, label
            report = (out / "report.txt").read_text()
            assert "none" in report, label
            assert len(load_population(out / "generated.dwfc")) == 0, label

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

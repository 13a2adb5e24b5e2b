"""The stage runner: only it writes, and a failed write leaves the previous
outputs as they were. Also the evaluate stage's pairwise-distance helper."""

import ast
import contextlib
import io
import pathlib

import numpy as np
import pytest

from weightflow import checkpoint_io, flow, pca, pipeline
from weightflow.cli import main

CONFIG = """\
[run]
task = blobs
seed = 3

[arch]
layer_dims = 4,6,3

[population]
size = 3
epochs = 2

[pca]
mode = standard

[flow]
hidden_dim = 8
iterations = 10
integration_steps = 3

[generate]
count = 2
"""


def _calls(node):
    """Names of the functions `node` calls: `f(...)` -> f, `m.f(...)` -> m.f."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                yield f"{func.value.id}.{func.attr}"


def test_only_the_runner_writes():
    # Stage functions return objects and rows; `run_stage` saves them under
    # temporary names and moves them into place.
    tree = ast.parse(pathlib.Path(pipeline.__file__).read_text())
    stages = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("stage_")]
    assert {node.name for node in stages} == {f.__name__ for f in pipeline.STAGES.values()}
    writes = {}
    for node in stages:
        found = [name for name in _calls(node)
                 if name in ("open", "os.replace", "write_manifest")
                 or name.rpartition(".")[2].startswith("save_")]
        if found:
            writes[node.name] = found
    assert writes == {}


def _run(cfg_path, *argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([*argv, "--config", str(cfg_path)])
    return code, err.getvalue()


@pytest.fixture
def finished_run(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    out = tmp_path / "run"
    cfg_path.write_text(CONFIG.replace("seed = 3", f"seed = 3\nout_dir = {out}"))
    assert _run(cfg_path, "run")[0] == 0
    return cfg_path, out


def _tree(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("stage", ["make-population", "fit-pca", "train-flow", "generate"])
def test_failed_save_keeps_the_previous_outputs(finished_run, monkeypatch, stage):
    cfg_path, out = finished_run
    before = _tree(out)
    real = checkpoint_io.save_container

    def save_half(path, magic, version, header_pairs, arrays):
        real(path, magic, version, header_pairs, arrays)
        with open(path, "r+b") as f:
            f.truncate(f.seek(0, 2) // 2)
        raise OSError(28, "No space left on device")

    for module in (checkpoint_io, pca, flow):
        monkeypatch.setattr(module, "save_container", save_half)
    code, err = _run(cfg_path, stage)
    assert code == 3 and "No space left on device" in err
    assert _tree(out) == before


def test_failed_manifest_write_removes_every_temporary_file(finished_run, monkeypatch):
    # report writes two files before its manifest.
    cfg_path, out = finished_run
    before = _tree(out)

    def write_half(path, pairs):
        with open(path, "w", encoding="utf-8") as f:
            f.write("stage=rep")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pipeline, "write_manifest", write_half)
    assert _run(cfg_path, "report")[0] == 3
    assert _tree(out) == before


def test_rerun_leaves_no_temporary_file(finished_run):
    cfg_path, out = finished_run
    before = _tree(out)
    assert _run(cfg_path, "run")[0] == 0
    assert _tree(out) == before


def _min_norm(m):
    """The smallest of the per-row `np.linalg.norm` distances."""
    return float(min(np.linalg.norm(m[i] - m[i + 1:], axis=1).min()
                     for i in range(len(m) - 1)))


@pytest.mark.parametrize("shape", [(2, 5), (40, 531), (101, 17)])
def test_min_pairwise_l2_equals_the_norm_form_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0])
    for m in (rng.normal(size=shape), rng.normal(0, 1e-3, size=shape) + 5.0):
        assert pipeline._min_pairwise_l2(m) == _min_norm(m)
        dup = m.copy()
        dup[-1] = dup[0]
        assert pipeline._min_pairwise_l2(dup) == _min_norm(dup) == 0.0

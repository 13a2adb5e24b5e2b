"""Flip any one byte of any artifact of a finished run: the next stage that
reads it must stop with exit 3 and an error line, never a traceback."""

import contextlib
import io
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightflow.cli import main

CONFIG = """\
[run]
task = blobs
seed = 2

[arch]
layer_dims = 4,6,3
bn = 1

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

# Artifact -> the next stage of `run` that reads it.
READER = {"population.dwfc": "canonicalize", "aligned.dwfc": "fit-pca",
          "pca.dwfp": "train-flow", "flow.dwff": "generate",
          "generated.dwfc": "evaluate"}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("flips")
    cfg_path = root / "cfg.ini"
    cfg_path.write_text(CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(cfg_path), "--out", str(root / "run")]) == 0
    return cfg_path, root / "run"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(artifact=st.sampled_from(sorted(READER)), where=st.floats(0.0, 1.0),
       mask=st.integers(1, 255))
def test_flipped_byte_exits_3(finished_run, artifact, where, mask):
    cfg_path, run = finished_run
    with tempfile.TemporaryDirectory() as tmp:
        out = shutil.copytree(run, f"{tmp}/run")
        path = f"{out}/{artifact}"
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        offset = min(int(where * len(blob)), len(blob) - 1)
        blob[offset] ^= mask
        with open(path, "wb") as f:
            f.write(blob)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([READER[artifact], "--config", str(cfg_path), "--out", out])
    assert code == 3, (artifact, offset, err.getvalue())
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()

import numpy as np
import pytest

from weightflow.checkpoint_io import (CKPT_MAGIC, load_checkpoint,
                                      save_checkpoint)
from weightflow.errors import DataError
from weightflow.nn_core import ArchitectureSpec, flatten, init_weights


class TestRoundTrip:
    def test_plain_mlp(self, tmp_path):
        ckpt = init_weights(ArchitectureSpec((4, 16, 3)), seed=5)
        ckpt.metric = 0.93
        path = tmp_path / "a.dwfc"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == ckpt.arch
        assert np.array_equal(flatten(loaded), flatten(ckpt))
        assert loaded.seed == 5 and loaded.metric == 0.93

    def test_bn_sidecar(self, tmp_path, rng):
        arch = ArchitectureSpec((4, 8, 8, 3), "relu", (True, True))
        ckpt = init_weights(arch, seed=1)
        ckpt.bn[0].running_mean = rng.normal(size=8)
        ckpt.bn[0].running_var = rng.uniform(0.5, 2.0, size=8)
        ckpt.bn[0].count = 120
        path = tmp_path / "b.dwfc"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.bn[0].running_mean, ckpt.bn[0].running_mean)
        assert np.array_equal(loaded.bn[0].running_var, ckpt.bn[0].running_var)
        assert loaded.bn[0].count == 120
        assert loaded.bn[1].count == 0

    def test_deterministic_bytes(self, tmp_path):
        ckpt = init_weights(ArchitectureSpec((4, 16, 3)), seed=2)
        p1, p2 = tmp_path / "x.dwfc", tmp_path / "y.dwfc"
        save_checkpoint(ckpt, p1)
        save_checkpoint(ckpt, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestErrors:
    def test_magic(self, tmp_path):
        path = tmp_path / "bad.dwfc"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(DataError, match="not a DWFC"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        ckpt = init_weights(ArchitectureSpec((4, 16, 3)), seed=0)
        path = tmp_path / "t.dwfc"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        ckpt = init_weights(ArchitectureSpec((4, 16, 3)), seed=0)
        path = tmp_path / "v.dwfc"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        assert blob[:4] == CKPT_MAGIC
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_damaged(self, tmp_path, damage):
        arch = ArchitectureSpec((4, 8, 8, 3), "relu", (True, True))
        path = tmp_path / "d.dwfc"
        save_checkpoint(init_weights(arch, seed=0), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError):
            load_checkpoint(path)

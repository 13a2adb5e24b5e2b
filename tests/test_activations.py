import importlib.machinery
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from weightflow import activations
from weightflow._scipy import compiled_scipy
from weightflow.activations import (gelu, gelu_cdf, gelu_grad, gelu_tanh,
                                    gelu_tanh_cdf, gelu_tanh_grad,
                                    gelu_tanh_twice_cdf)
from weightflow.data import make_blobs
from weightflow.nn_core import ArchitectureSpec, TrainHyper, forward, train_population

GRID = np.linspace(-12.0, 12.0, 20001)


# A child interpreter that runs every stage of a small ReLU config with
# Re-Basin and dual PCA through the CLI, then trains and runs a GELU
# population. It prints which of scipy, scipy.special and numpy.ma are
# loaded and how often erf's loader ran: after the stages, then after the
# GELU population's first forward pass.
STAGES_THEN_GELU = """\
import sys
from weightflow import activations
from weightflow.cli import main
from weightflow.pipeline import STAGES

def state():
    loaded = [m for m in ("scipy", "scipy.special", "numpy.ma") if m in sys.modules]
    print(loaded, activations._erf.cache_info().misses)

for stage in STAGES:
    assert main([stage, "--config", sys.argv[1]]) == 0, stage
state()

import numpy as np
from weightflow.nn_core import ArchitectureSpec, Population, forward
arch = ArchitectureSpec((4, 8, 3), "gelu")
forward(Population(arch, np.full((1, arch.param_count()), 0.1, np.float32)),
        np.ones((5, 4), np.float32))
state()
"""

RELU_REBASIN_DUAL = """\
[run]
task = blobs
out_dir = {out}
seed = 1

[arch]
layer_dims = 4,8,6,3
bn = 1

[population]
size = 3
base_seed = 10
epochs = 2

[canonicalize]
mode = rebasin

[pca]
mode = dual

[flow]
hidden_dim = 16
iterations = 20
integration_steps = 4

[generate]
count = 2
"""


def _child_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(activations.__file__).parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestErfLoader:
    def test_import_leaves_out_scipy_special(self, tmp_path):
        # No stage of a ReLU run loads the scipy package, scipy.special or
        # numpy.ma, nor erf; the first exact GELU loads erf, once.
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(RELU_REBASIN_DUAL.format(out=tmp_path / "run"))
        out = subprocess.run([sys.executable, "-c", STAGES_THEN_GELU, str(cfg_path)],
                             env=_child_env(), check=True, capture_output=True,
                             text=True).stdout
        assert out.splitlines()[-2:] == ["[] 0", "[] 1"]

    def test_missing_scipy_raises_on_first_use(self):
        # With scipy not found on the path, weightflow still imports; the
        # first erf raises ModuleNotFoundError naming scipy.
        code = ("from importlib import machinery\n"
                "find = machinery.PathFinder.find_spec\n"
                "machinery.PathFinder.find_spec = classmethod(lambda cls, name, *rest:\n"
                "    None if name == 'scipy' else find(name, *rest))\n"
                "from weightflow import activations\n"
                "try:\n    activations.erf(0.5)\n"
                "except ModuleNotFoundError as exc:\n    print(exc.name)")
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "scipy"

    def test_fallback_to_public_import(self, monkeypatch):
        # Without a compiled scipy/special/_special_ufuncs module the loader
        # returns the public scipy.special function.
        find_spec = importlib.machinery.PathFinder.find_spec
        monkeypatch.setattr(
            importlib.machinery.PathFinder, "find_spec",
            lambda name, path=None, target=None:
                None if name == "_special_ufuncs" else find_spec(name, path, target))
        assert compiled_scipy("special", "_special_ufuncs", "erf") is scipy.special.erf

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_public_erf(self, dtype):
        x = GRID.astype(dtype)
        assert np.array_equal(activations.erf(x), scipy.special.erf(x))


class TestGelu:
    def test_matches_textbook_formula_bitwise(self):
        # gelu = x * cdf regroups 0.5 * x * (1 + erf(x * (1 / sqrt 2)));
        # scaling by 0.5 is exact, so the values are the same bits.
        textbook = 0.5 * GRID * (1.0 + scipy.special.erf(GRID * (1.0 / np.sqrt(2.0))))
        assert np.array_equal(gelu(GRID), textbook)
        assert np.array_equal(gelu_grad(GRID, gelu_cdf(GRID)), gelu_grad(GRID))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype(self, dtype):
        x = GRID.astype(dtype)
        assert gelu(x).dtype == dtype
        assert gelu_cdf(x).dtype == dtype
        assert gelu_grad(x).dtype == dtype

    def test_gelu_network_logits_are_float32(self):
        train, _ = make_blobs(num_classes=3, per_class=10, d=4, spread=1.0, seed=0)
        arch = ArchitectureSpec((4, 8, 6, 3), "gelu", (False, True))
        net = train_population(arch, train, TrainHyper(epochs=1), [0])
        assert forward(net, train.features).dtype == np.float32
        assert forward(net, train.features, "train").dtype == np.float32


class TestGeluTanh:
    C, K = math.sqrt(2.0 / math.pi), 0.044715

    def test_matches_textbook_formula_bitwise(self):
        # 0.5 (1 + tanh(c (x + k x^3))) with c distributed over the bracket,
        # in the operation order of gelu_tanh_cdf's in-place chain.
        x = GRID
        twice = 1.0 + np.tanh(x * ((self.C * self.K) * (x * x) + self.C))
        textbook = 0.5 * twice
        assert np.array_equal(gelu_tanh_twice_cdf(x), twice)
        assert np.array_equal(gelu_tanh_cdf(x), textbook)
        assert np.array_equal(gelu_tanh(x), x * textbook)
        assert np.array_equal(gelu_tanh_grad(x, gelu_tanh_cdf(x)), gelu_tanh_grad(x))

    def test_derivative_matches_central_differences(self):
        x = np.linspace(-8.0, 8.0, 4001)
        h = 1e-6
        numeric = (gelu_tanh(x + h) - gelu_tanh(x - h)) / (2.0 * h)
        np.testing.assert_allclose(gelu_tanh_grad(x), numeric, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype(self, dtype):
        x = GRID.astype(dtype)
        assert gelu_tanh(x).dtype == dtype
        assert gelu_tanh_cdf(x).dtype == dtype
        assert gelu_tanh_twice_cdf(x).dtype == dtype
        assert gelu_tanh_grad(x).dtype == dtype

    def test_within_2e_4_of_the_normal_cdf(self):
        x = np.linspace(-8.0, 8.0, 160001)
        assert np.abs(gelu_tanh_cdf(x) - gelu_cdf(x)).max() <= 2e-4

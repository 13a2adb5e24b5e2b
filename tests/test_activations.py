import importlib.machinery
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

from weightflow import activations
from weightflow._scipy import compiled_scipy
from weightflow.activations import gelu, gelu_cdf, gelu_grad
from weightflow.data import make_blobs
from weightflow.nn_core import ArchitectureSpec, TrainHyper, forward, train_population

GRID = np.linspace(-12.0, 12.0, 20001)


class TestErfLoader:
    def test_import_leaves_out_scipy_special(self):
        code = "import sys, weightflow; print('scipy.special' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

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

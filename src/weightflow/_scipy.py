"""Functions taken from scipy's compiled extension modules.

Importing a public scipy subpackage imports much more than one function
needs: `scipy.special` costs about 0.2 s and 26 MB of resident memory per
interpreter, `scipy.optimize` also pulls in scipy.sparse, linalg and spatial.
The compiled modules behind them need only numpy, so they are loaded by
themselves.
"""

from __future__ import annotations

import importlib
import os
from importlib import machinery, util

import scipy


def compiled_scipy(subpackage: str, module: str, name: str):
    """`scipy.<subpackage>.<name>`, taken from the compiled module
    `scipy/<subpackage>/<module>` when scipy has one, else from the public
    import."""
    spec = machinery.PathFinder.find_spec(
        module, [os.path.join(scipy.__path__[0], subpackage)])
    if spec is None or not isinstance(spec.loader, machinery.ExtensionFileLoader):
        return getattr(importlib.import_module(f"scipy.{subpackage}"), name)
    compiled = util.module_from_spec(spec)
    spec.loader.exec_module(compiled)
    return getattr(compiled, name)

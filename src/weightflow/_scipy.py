"""Functions taken from scipy's compiled extension modules.

Importing a public scipy subpackage imports much more than one function
needs: `scipy.special` costs about 0.2 s and 26 MB of resident memory per
interpreter, `scipy.optimize` also pulls in scipy.sparse, linalg and spatial.
Even `import scipy` alone runs scipy's `__init__`, which loads its test
utilities and `subprocess`. The compiled modules behind the subpackages need
only numpy, so they are loaded by themselves from scipy's directory, which
is found without importing the scipy package.
"""

from __future__ import annotations

import importlib
import os
from importlib import machinery, util


def compiled_scipy(subpackage: str, module: str, name: str):
    """`scipy.<subpackage>.<name>`, taken from the compiled module
    `scipy/<subpackage>/<module>` when scipy has one, else from the public
    import (which raises ModuleNotFoundError when scipy is missing)."""
    scipy = util.find_spec("scipy")
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        spec = machinery.PathFinder.find_spec(
            module, [os.path.join(scipy.submodule_search_locations[0], subpackage)])
    if spec is None or not isinstance(spec.loader, machinery.ExtensionFileLoader):
        return getattr(importlib.import_module(f"scipy.{subpackage}"), name)
    compiled = util.module_from_spec(spec)
    spec.loader.exec_module(compiled)
    return getattr(compiled, name)

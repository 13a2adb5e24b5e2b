"""The benchmark's per-layer metrics read spans by name; a span is named
``<layer>.<function>`` after a public function defined in a wrapped
weightflow module. A name that no function carries reads as zero calls
rather than failing, and a `NOTES` entry under such a name is never
called, so this test reads `perfbench/layers.py` as text and checks every
literal span name it looks up or notes."""

import ast
import importlib
import inspect
import os
import re

LAYERS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "perfbench", "layers.py")

# Names of functions that no longer exist under that name; their metrics
# read zero until the benchmark is updated.
STALE = {"nn_core.train_network", "checkpoint_io.save_checkpoint",
         "checkpoint_io.load_checkpoint"}


def _source():
    with open(LAYERS_PY, encoding="utf-8") as f:
        return f.read()


def _assignment(source, name):
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return node.value
    raise AssertionError(f"perfbench/layers.py defines no {name}")


def _layers(source):
    return ast.literal_eval(_assignment(source, "LAYERS"))


def _span_exists(name, layers):
    layer, function = name.split(".")
    if layer not in layers or function.startswith("_"):
        return False
    module = importlib.import_module(f"weightflow.{layer}")
    obj = getattr(module, function, None)
    return inspect.isfunction(obj) and obj.__module__ == module.__name__


def _assert_resolve(names, source):
    layers = _layers(source)
    missing = {name for name in names if not _span_exists(name, layers)}
    assert missing == STALE & names, sorted(missing ^ (STALE & names))


def test_literal_span_names_resolve_to_wrapped_functions():
    source = _source()
    names = set(re.findall(r'by_name\["([A-Za-z_]\w*\.\w+)"\]', source))
    assert "bn_recalib.recalibrate" in names
    _assert_resolve(names, source)


def test_note_keys_resolve_to_wrapped_functions():
    source = _source()
    names = {ast.literal_eval(key) for key in _assignment(source, "NOTES").keys}
    assert "canonicalize.weight_match" in names
    _assert_resolve(names, source)

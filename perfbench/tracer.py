"""In-memory span tracer that wraps a package's public functions from outside.

`Tracer.install` replaces every public function of the chosen modules with a
timing wrapper. It patches the defining module and every other module of the
package that holds the same function object, as an attribute (``from x import
f``) or as a value of a module-level dict (``STAGES``). `Tracer.uninstall`
puts every original back; `surviving_patches` proves that it did.

Each call records one span: name, start, end, index of the enclosing span and
optional attributes from a per-function ``note`` hook. Self time is a span's
duration minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap).

    python3 perfbench/tracer.py     # runs the self-test
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types

_MARK = "__perfbench_span__"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, attrs or None]
        self._stack = []
        self._patches = []  # (container, key, original); container is a module or dict

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self, package: str, layers: dict, notes: dict | None = None):
        """Wrap the public functions of `layers` ({layer name: module}).

        A span is named ``<layer>.<function>``. `notes` maps span names to
        ``note(args, kwargs, result) -> dict`` hooks.
        """
        notes = notes or {}
        originals = {}  # id(function) -> (function, wrapper)
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                originals[id(obj)] = (obj, self.wrap(name, obj, notes.get(name)))

        def lookup(obj):
            hit = originals.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for mod in package_modules(package):
            for attr, obj in list(vars(mod).items()):
                wrapper = lookup(obj)
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        wrapper = lookup(value)
                        if wrapper is not None:
                            self._patches.append((obj, key, value))
                            obj[key] = wrapper

    def uninstall(self):
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def self_times(self):
        """Per-span self time, in span order."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "attrs": attrs}) + "\n")


def package_modules(package: str):
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def surviving_patches(package: str):
    """Names in `package` still bound to a tracer wrapper."""
    found = []
    for mod in package_modules(package):
        for attr, obj in vars(mod).items():
            if hasattr(obj, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(obj, dict):
                found += [f"{mod.__name__}.{attr}[{k!r}]"
                          for k, v in obj.items() if hasattr(v, _MARK)]
    return found


def layer_totals(tracer: Tracer):
    """{layer: (calls, inclusive seconds, self seconds)} for span prefixes.

    Inclusive time counts only a layer's outermost spans, so a layer that
    calls itself (directly or through another layer) is not counted twice.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    layer = [s[0].split(".", 1)[0] for s in spans]
    totals = {}
    for i, s in enumerate(spans):
        calls, incl, own = totals.get(layer[i], (0, 0.0, 0.0))
        p = s[3]
        while p >= 0 and layer[p] != layer[i]:
            p = spans[p][3]
        if p < 0:
            incl += s[2] - s[1]
        totals[layer[i]] = (calls + 1, incl, own + selfs[i])
    return totals


def self_test() -> list:
    """Trace a synthetic nested package on a fake clock; return the errors."""
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    pkg = types.ModuleType("perfbench_selftest")
    inner = types.ModuleType("perfbench_selftest.inner")
    outer = types.ModuleType("perfbench_selftest.outer")
    sys.modules.update({pkg.__name__: pkg, inner.__name__: inner,
                        outer.__name__: outer})
    try:
        exec("def leaf():\n    return 1\n", inner.__dict__)
        exec("from perfbench_selftest.inner import leaf\n"
             "TABLE = {'leaf': leaf}\n"
             "def top():\n"
             "    return leaf() + TABLE['leaf']() + _private()\n"
             "def _private():\n"
             "    return leaf()\n", outer.__dict__)
        tracer.install(pkg.__name__, {"inner": inner, "outer": outer},
                       notes={"inner.leaf": lambda a, k, r: {"result": r}})
        value = outer.top()
        tracer.uninstall()
        errors = []
        if value != 3:
            errors.append(f"wrapped call returned {value}, expected 3")
        names = [s[0] for s in tracer.spans]
        if names != ["outer.top", "inner.leaf", "inner.leaf", "inner.leaf"]:
            errors.append(f"span names {names}")
        if [s[3] for s in tracer.spans] != [-1, 0, 0, 0]:
            errors.append(f"span parents {[s[3] for s in tracer.spans]}")
        # Clock ticks: top 0..7, leaves 1..2, 3..4, 5..6.
        if tracer.self_times() != [4.0, 1.0, 1.0, 1.0]:
            errors.append(f"self times {tracer.self_times()}")
        totals = layer_totals(tracer)
        if totals != {"outer": (1, 7.0, 4.0), "inner": (3, 3.0, 3.0)}:
            errors.append(f"layer totals {totals}")
        if tracer.spans[1][4] != {"result": 1}:
            errors.append(f"note attrs {tracer.spans[1][4]}")
        left = surviving_patches(pkg.__name__)
        if left:
            errors.append(f"patches survived uninstall: {left}")
        return errors
    finally:
        tracer.uninstall()
        for name in (pkg.__name__, inner.__name__, outer.__name__):
            sys.modules.pop(name, None)


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print("FAIL", p)
    print("tracer self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)

"""Span recording around jflow's layers, installed from outside the package.

``Tracer.install()`` replaces every public function of the layer modules,
and the public methods and constructors of their public classes, with a
wrapper that records one span per call: what was called, through which
module's namespace, the enclosing span, start and end times, and whether the
call returned None or raised.  Functions are rebound under every name any
``jflow`` module holds them by, because a caller looks its callee up in its
own namespace (``from .torus import metric_field`` binds a second name).
Private ``_`` names are left alone.  Nothing under ``src/`` changes.

Spans stay in flat arrays in memory and are written once, by ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

LAYERS = ("flow", "torus", "functionals", "critical", "hermitian", "cone",
          "sampling")

RETURNED_NONE = 1
RAISED = 2


def _public_targets(module) -> dict:
    """{function object: span name} for the layer module's own public API."""
    layer = module.__name__.rsplit(".", 1)[-1]
    return {value: f"{layer}.{attr}" for attr, value in vars(module).items()
            if not attr.startswith("_")
            and isinstance(value, types.FunctionType)
            and value.__module__ == module.__name__}


def _public_classes(module) -> list:
    return [value for attr, value in vars(module).items()
            if not attr.startswith("_") and isinstance(value, type)
            and value.__module__ == module.__name__
            and not issubclass(value, BaseException)]


class Tracer:
    def __init__(self):
        self.kinds = []          # kind id -> [span name, binding namespace]
        self.kind_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self._stack = [-1]

    def _wrap(self, fn, name: str, binding: str):
        kind = len(self.kinds)
        self.kinds.append([name, binding])
        kind_of, parent, start, end = (self.kind_of, self.parent, self.start,
                                       self.end)
        flags, stack, clock = self.flags, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(kind_of)
            kind_of.append(kind)
            parent.append(stack[-1])
            flags.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                flags[idx] = RAISED
                raise
            end[idx] = clock()
            stack.pop()
            if result is None:
                flags[idx] = RETURNED_NONE
            return result

        return wrapper

    def install(self) -> list:
        """Wrap the layers of the imported jflow package.

        Returns what was wrapped: every span name, and every span name with
        the namespace it is looked up in as ``name@binding``.
        """
        functions = {}
        installed = set()
        for layer in LAYERS:
            module = sys.modules[f"jflow.{layer}"]
            functions.update(_public_targets(module))
            for cls in _public_classes(module):
                for attr, value in list(vars(cls).items()):
                    if not isinstance(value, types.FunctionType):
                        continue
                    if attr == "__init__":
                        name = f"{layer}.{cls.__name__}"
                    elif not attr.startswith("_"):
                        name = f"{layer}.{attr}"
                    else:
                        continue
                    setattr(cls, attr, self._wrap(value, name, "class"))
                    installed.update((name, f"{name}@class"))
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "jflow" or key.startswith("jflow.")]
        for module in modules:
            binding = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if (isinstance(value, types.FunctionType)
                        and value in functions):
                    name = functions[value]
                    setattr(module, attr, self._wrap(value, name, binding))
                    installed.update((name, f"{name}@{binding}"))
        return sorted(installed)

    def __len__(self) -> int:
        return len(self.kind_of)

    def dump(self, path, installed: list) -> None:
        """Write every span as flat arrays plus a JSON table of kinds."""
        import numpy as np

        np.savez(path,
                 kind=np.frombuffer(self.kind_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 flags=np.frombuffer(self.flags, dtype=np.int8),
                 kinds=json.dumps(self.kinds),
                 installed=json.dumps(installed))

"""Layer tracer: times and counts calls into passivenode's modules from outside.

One layer per module of ``src/passivenode``.  ``install`` wraps every public
function a module defines, and the ``__post_init__`` of every dataclass it
defines (construction and validation), and rebinds each module attribute that
refers to the original -- including the names other modules imported with
``from .x import f`` and the package's re-exports.  Callers look the wrapper
up exactly where they looked the function up, so no library file changes.
``uninstall`` puts the originals back.

Each call records a span (name, start, end, parent span, op id) in memory;
``write`` dumps them as JSON lines.  A span's self time is its duration minus
the time its child spans cover.  Counts and self times are accumulated for
every call; the span list itself is capped at ``MAX_SPANS`` entries.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("node", "linalg", "passivity", "cayley", "feedback", "stability",
          "second_order", "sim", "io", "cli")


class Tracer:
    MAX_SPANS = 50_000

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counters = defaultdict(int)
        self.spans = []
        self.n_spans = 0
        self.op_id = -1
        self._stack = []      # [span index, time covered by children, name]
        self._watches = {}    # name -> [(ancestor names, counter)]
        self._patches = []    # (namespace, attribute, original)
        self.hooks = {}       # name -> f(tracer, args, kwargs, result), on return
        self.active = False

    # -- counters the benchmark adds itself ---------------------------------
    def add(self, name, value=1):
        if self.active:
            self.counters[name] += value

    def watch(self, name, ancestors, counter):
        """Count, in ``counter``, calls to ``name`` made inside any of ``ancestors``."""
        self._watches.setdefault(name, []).append((frozenset(ancestors), counter))

    # -- spans -------------------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self.n_spans, 0.0, name])
        self.n_spans += 1
        return parent, time.perf_counter()

    def _exit(self, name, parent, start, failed):
        end = time.perf_counter()
        index, covered, _ = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        for ancestors, counter in self._watches.get(name, ()):
            if any(entry[2] in ancestors for entry in self._stack):
                self.counters[counter] += 1
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if failed:
            self.errors[name] += 1
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append((name, start, end, parent, self.op_id, index))

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        parent, start = self._enter(name)
        failed = False
        try:
            result = fn(*args, **kwargs)
            if name in self.hooks:
                self.hooks[name](self, args, kwargs, result)
            return result
        except self.error_type:
            failed = True
            raise
        finally:
            self._exit(name, parent, start, failed)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)
        return traced

    # -- install / uninstall -----------------------------------------------
    def install(self, package):
        """Wrap the public functions and constructors of every layer module."""
        self.error_type = package.PassiveNodeError
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == package.__name__
                                            or k.startswith(package.__name__ + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patches.append((ns, key, obj))
                                setattr(ns, key, wrapped)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    original = vars(obj)["__post_init__"]
                    self._patches.append((obj, "__post_init__", original))
                    obj.__post_init__ = self._wrap(f"{layer}.{attr}", original)
        self.active = True

    def uninstall(self):
        self.active = False
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def layer_totals(self):
        """calls / self_s / errors summed per layer (module)."""
        totals = {layer: [0, 0.0, 0] for layer in LAYERS}
        for name, count in self.calls.items():
            layer = name.split(".")[0]
            if layer in totals:
                totals[layer][0] += count
                totals[layer][1] += self.self_s[name]
                totals[layer][2] += self.errors[name]
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, index in self.spans:
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")

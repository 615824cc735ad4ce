"""In-memory span tracer around the public functions of gibbslab's layers.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper wherever a package module holds the original object,
so `from .kernels import occupation_products` in `classical` is traced as
well as `gibbslab.kernels.occupation_products`. A layer or a name that no
longer exists is skipped, and the metrics derived from it are absent.

A span is (name, start, end, parent index); a span's self time is its
duration minus the durations of its direct children. The tracer keeps a
single stack, so it assumes the sweep runs its rows on one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("spectral", "classical", "fock", "semiclassics", "kernels",
          "metrics", "convergence")
# Third-party functions a layer imports by name and whose calls it owns;
# these are rebound only in that layer's module.
FOREIGN = {"fock": ("eigh",)}


def _public_functions(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items() if not n.startswith("_")
                 and getattr(v, "__module__", None) == mod.__name__]
    return [n for n in names
            if callable(getattr(mod, n, None))
            and not isinstance(getattr(mod, n), type)]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.wrapped = set()     # span names that were installed
        self._stack = []

    def wrap(self, name: str, fn, observe=None):
        """Return fn recording one span per call; observe(args, kwargs,
        result) runs after the span closes, outside the timed interval."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__traced__ = True
        self.wrapped.add(name)
        return traced

    def install(self, package: str = "gibbslab", layers=LAYERS,
                foreign=FOREIGN, observers=None) -> None:
        observers = observers or {}
        importlib.import_module(package)
        for layer in layers:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                continue
            modules = [m for n, m in list(sys.modules.items())
                       if m is not None
                       and (n == package or n.startswith(package + "."))]
            for attr in _public_functions(mod):
                fn = getattr(mod, attr)
                if getattr(fn, "__traced__", False):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, observers.get(name))
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is fn]:
                        setattr(m, key, traced)
            for attr in foreign.get(layer, ()):
                fn = getattr(mod, attr, None)
                if fn is not None:
                    name = f"{layer}.{attr}"
                    setattr(mod, attr, self.wrap(name, fn, observers.get(name)))

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start - child)
        return out

    def calls(self) -> dict:
        out = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

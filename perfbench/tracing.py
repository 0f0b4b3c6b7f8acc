"""Per-layer spans recorded from outside the package.

`Tracer.install()` wraps every public function of the gibbsfit layer
modules (and the public methods of the classes they define) under each
name a caller looks it up by: a function that `solver` imported from
`problem` is replaced in `solver`'s namespace too.  It also wraps
numpy's `eigh`/`eigvalsh`, so eigensolves are counted wherever they
happen.  Spans stay in memory; `aggregate` returns the totals.

Each call is filed under (command, span name, tag).  The tag is
"gram" inside `check_independence` (its Gram matrix can be d x d and
must not count as an eigensolve), "d" when the first argument is a
d x d array for the current problem, and "" otherwise.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "fileio", "problem", "pauli", "partition", "linalg", "solver")
INDEPENDENCE = "problem.check_independence"


class Tracer:
    def __init__(self):
        self.command = ""
        self.dim = 0
        self._names: list[str] = []  # active span names, innermost last
        self._child: list[float] = []  # time covered by children of each active span
        self.totals: dict[tuple, list] = {}  # (command, name, tag) -> [calls, seconds, self seconds]
        self._undo: list[tuple] = []

    def _tag(self, args) -> str:
        if INDEPENDENCE in self._names:
            return "gram"
        if args and isinstance(args[0], np.ndarray) and args[0].shape == (self.dim, self.dim):
            return "d"
        return ""

    def wrap(self, fn, name: str, method: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = self._tag(args[1:] if method else args)
            self._names.append(name)
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._names.pop()
                child = self._child.pop()
                if self._child:
                    self._child[-1] += elapsed
                entry = self.totals.setdefault((self.command, name, tag), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = {layer: sys.modules[f"gibbsfit.{layer}"] for layer in LAYERS}
        namespaces = [sys.modules["gibbsfit"], *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped = self.wrap(obj, f"{layer}.{attr}")
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if (meth == "__init__" or not meth.startswith("_")) and inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(fn, f"{layer}.{attr}.{meth}", method=True))
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self.wrap(getattr(np.linalg, attr), f"numpy.{attr}"))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def aggregate(self) -> list:
        return [[cmd, name, tag, *vals] for (cmd, name, tag), vals in sorted(self.totals.items())]

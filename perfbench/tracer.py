"""Per-layer tracing from outside the package.

A ``Tracer`` replaces chosen module-level functions of a package with
timing wrappers.  Every module-level name bound to the original function
object is rebound, so calls through ``from .x import name`` copies are
caught as well as calls through the defining module.  ``uninstall``
restores every binding it changed.

For each wrapped function the tracer keeps the call count and the self
time: the span of each call minus the part of it covered by spans of
wrapped functions it called.  It also counts calls per (parent, child)
pair, where the parent is the nearest enclosing wrapped call, so ratios
such as "inner solves per outer solve" can be read off.  Counts and times
stay in memory; nothing is written until the caller reads them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        calls, self_s, edges, stack = self.calls, self.self_s, self.edges, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += span - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += span
                    edges[(parent[0], name)] += 1

        return traced

    def install(self, package: str, targets: dict) -> None:
        """Wrap ``package.<module>.<function>`` for every module and function
        listed in ``targets`` and rebind every reference to it inside the
        package; spans are named ``<module>.<function>``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        prefix = package + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(prefix))]
        for short, names in targets.items():
            owner = sys.modules[prefix + short]
            for fname in names:
                original = getattr(owner, fname)
                wrapped = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

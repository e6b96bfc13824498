"""Span tracing of mwlattice layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``mwlattice`` module that holds a reference to it, so a name bound by
``from .franck_condon import fcf_harmonic_matrix`` in ``cooling`` and
``engineering`` is traced as well as the definition itself.  Each call is
recorded as a span with its parent span; ``uninstall`` restores the
original objects.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int        # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    count: float = 0.0  # work items handled by the call (points, columns)


@dataclass(frozen=True)
class Target:
    """One callable to trace: ``owner.attr`` recorded under ``name``."""

    owner: object
    attr: str
    name: str
    count: object = None   # (args, kwargs) -> work items, or None


def module_targets(module, prefix: str, skip: tuple[str, ...] = ()
                   ) -> list[Target]:
    """Every public function defined in ``module``, minus ``skip``."""
    return [Target(module, name, f"{prefix}.{name}")
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_") and name not in skip]


class Tracer:
    def __init__(self, package: str = "mwlattice"):
        self.package = package
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0)
            if count is not None:
                span.count = float(count(args, kwargs))
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced

    def _counting(self, key: str, fn):
        """Wrap a solver so each call of its first argument (the objective)
        increments ``counters[key]``."""
        counters = self.counters

        @functools.wraps(fn)
        def solver(objective, *args, **kwargs):
            def counted(*a, **k):
                counters[key] = counters.get(key, 0) + 1
                return objective(*a, **k)
            return fn(counted, *args, **kwargs)
        return solver

    def _rebind(self, original, replacement, owner=None, attr=None) -> None:
        if owner is not None and inspect.isclass(owner):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(
                    self.package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self, targets: list[Target],
                counted: list[tuple[object, str, str]] = ()) -> None:
        """Trace ``targets``; count objective calls of each
        ``(module, solver_name, counter_key)`` in ``counted``."""
        for t in targets:
            original = getattr(t.owner, t.attr)
            self._rebind(original, self._wrap(t.name, original, t.count),
                         t.owner, t.attr)
        for module, attr, key in counted:
            original = getattr(module, attr)
            self._rebind(original, self._counting(key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- analysis -----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, work items, and the number
        of calls made (at any depth) under a ``cached_bands`` span."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        stats: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            st = stats.setdefault(s.name, {"calls": 0, "self": 0.0,
                                           "count": 0.0, "under_cache": 0})
            st["calls"] += 1
            st["self"] += s.end - s.start - child[i]
            st["count"] += s.count
            if self._has_ancestor(i, "bands.cached_bands"):
                st["under_cache"] += 1
        return stats

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self) -> list[dict]:
        return [{"id": i, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end, "count": s.count}
                for i, s in enumerate(self.spans)]

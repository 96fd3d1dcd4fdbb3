"""Spans around the library's public functions, installed from outside.

The tracer replaces each public function of the ``sirshare`` layer modules
with a wrapper, in every module namespace that binds it (``stage_costs``
lives in ``feasibility`` and is also bound in ``fairness`` and the package
root), plus a few named methods. Each wrapper records a span (name, start,
end, parent) in memory. At the end of an op the spans are folded into
per-function call counts and self times, where a span's self time is its
duration minus the part of it that its child spans cover. ``uninstall``
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("instances", "feasibility", "fairness", "starvation", "search", "allocation", "cli")
METHODS = (
    ("instances", "Route", "validate"),
    ("instances", "Instance", "load"),
    ("instances", "Instance", "from_dict"),
    ("instances", "DistanceTable", "from_matrix"),
)


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index of the enclosing span in the op's list, -1 at top level


def self_times(spans: list[Span]) -> dict[str, tuple[int, int]]:
    """Per name: (calls, self nanoseconds).

    Children are clipped to their parent and merged before subtracting, so
    overlapping or escaping children never drive self time below zero.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for k, s in enumerate(spans):
        covered = 0
        cursor = s.start
        for a, b in sorted(children.get(k, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        acc = out[s.name]
        acc[0] += 1
        acc[1] += (s.end - s.start) - covered
    return {name: (c, t) for name, (c, t) in out.items()}


@dataclass
class Tracer:
    """Records spans while ``active``; ``observers`` see chosen return values."""

    observers: dict = field(default_factory=dict)
    active: bool = False
    spans: list[Span] = field(default_factory=list)
    totals: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0]))
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import sirshare

        modules = [importlib.import_module(f"sirshare.{m}") for m in LAYERS]
        namespaces = [sirshare] + [mod for name, mod in sorted(sys.modules.items())
                                   if name.startswith("sirshare.")]
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(fn, f"{short}.{name}")
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._undo.append((ns, name, obj))
                    setattr(ns, name, wrappers[id(obj)])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"sirshare.{mod_name}"), cls_name)
            raw = cls.__dict__[meth]
            label = f"{mod_name}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, label))
            else:
                new = self._wrap(raw, label)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, fn, label):
        observer = self.observers.get(label)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(label, clock(), 0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if observer is not None:
                observer(result)
            return result

        return wrapper

    # -- per-op bookkeeping -------------------------------------------------

    def finish_op(self) -> list[Span]:
        """Fold the op's spans into the totals and hand them back."""
        spans, self.spans = self.spans, []
        for name, (calls, ns) in self_times(spans).items():
            acc = self.totals[name]
            acc[0] += calls
            acc[1] += ns
        return spans


def not_wrappable() -> list[str]:
    """Library code a wrapper installed from outside cannot reach.

    Nested functions are rebuilt on every call of their parent, and cached
    properties are stored on the instance after the first access, so only a
    span inside the library can time them. Private helpers and the numeric
    leaf comparisons could be wrapped but are left alone: they run once per
    stage or per search node, where a span would cost more than the work.
    """
    out = []
    for m in (*LAYERS, "numeric"):
        mod = importlib.import_module(f"sirshare.{m}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                for const in obj.__code__.co_consts:
                    if inspect.iscode(const) and not const.co_name.startswith("<"):
                        out.append(f"{m}.{name}.<locals>.{const.co_name} (nested function)")
                if m == "numeric" and not name.startswith("_"):
                    out.append(f"{m}.{name} (per-comparison leaf, left unwrapped)")
                elif name.startswith("_"):
                    out.append(f"{m}.{name} (private helper, left unwrapped)")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    if isinstance(raw, functools.cached_property):
                        out.append(f"{m}.{name}.{attr} (cached property)")
    return sorted(out)

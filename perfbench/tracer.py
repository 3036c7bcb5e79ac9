"""Spans and call counts recorded from outside the program.

A wrapper replaces a function's name in every given module that binds it:
a module that did ``from x import f`` holds its own reference, so patching
``x`` alone would miss its calls.  Methods are replaced on their class.
Spans are ``[name, start, end, parent]`` rows kept in memory until
``dump``; hot calls are only counted, which keeps the overhead of a traced
run to one extra Python call per counted call.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list[list] = []
        self.counts: dict = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installing wrappers ----------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (and every module binding of it) with make(f)."""
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod in self.modules
                for key, value in vars(mod).items()
                if value is original
            ]
        for target, key in targets:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, wrapper)

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span per call; ``after(tracer, result, args, kwargs)`` adds counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(f):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([name, clock(), None, stack[-1] if stack else None])
                stack.append(idx)
                try:
                    result = f(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
                if after is not None:
                    after(self, result, args, kwargs)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls without timing them."""
        counts = self.counts

        def make(f):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)

    # -- reading the record -----------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def span_seconds(self) -> dict:
        """Total duration per span name (nested calls of one name overlap)."""
        out: dict = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def span_calls(self) -> dict:
        out: dict = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def self_seconds(self) -> dict:
        """Per layer (the name's first dotted part): span time not in child spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name.split(".", 1)[0]] += end - start - child
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
            fh.write("\n")

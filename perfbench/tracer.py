"""Span tracing from the benchmark's side of the package boundary.

A ``Tracer`` replaces module and class attributes of switchnet with thin
wrappers, so calls that the package and the benchmark look up by name are
timed.  Each call becomes a span (name, start, end, parent) kept in memory;
hooks count work at the same boundary.  ``pause`` puts the originals back
for untraced stretches and ``resume`` re-installs the wrappers.
A layer's self time is the time of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.spans: list = []  # [name index, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._wrapped: list = []  # (owner, attribute, original, wrapper)

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` with a timed wrapper recording span ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its result is
        handed to ``after(state, args, kwargs, result, error)`` afterwards,
        with ``error`` the exception the call raised, if any.
        """
        orig = getattr(owner, attr)
        ix = self._name_ix.setdefault(name, len(self.names))
        if ix == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            me = len(spans)
            span = [ix, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(me)
            result = error = None
            span[1] = clock()
            try:
                result = orig(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if after is not None:
                    after(state, args, kwargs, result, error)

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, orig, traced))

    def pause(self):
        """Put the original attributes back; ``resume`` re-installs the
        wrappers."""
        for owner, attr, orig, _ in reversed(self._wrapped):
            setattr(owner, attr, orig)

    def resume(self):
        for owner, attr, _, traced in self._wrapped:
            setattr(owner, attr, traced)

    def restore(self):
        self.pause()
        self._wrapped.clear()

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        child = [0.0] * len(self.spans)
        for ix, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for k, (ix, t0, t1, _) in enumerate(self.spans):
            out[self.names[ix]] += (t1 - t0) - child[k]
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts)}, fh, separators=(",", ":"))

"""Spans and counters recorded around calls into zetabounds, from outside
the program.

The modules of zetabounds bind each other's functions by name
(`from .special import zeta_batch_critical`), so a function is traced by
replacing the name in the namespace of the module that calls it, for
example `zeros.zeta_batch_critical` or `weights.adaptive_simpson`.
`Tracer.restore` puts every original back; the untraced run patches
nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Wall time, self time and call counts per span name, plus named
    counters; spans (id, parent id, name, start, end) are kept in memory
    for the names not listed in `unrecorded`."""

    def __init__(self, unrecorded=()):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        self.unrecorded = frozenset(unrecorded)
        self._stack = []          # [span id, start, child seconds]
        self._next_id = 0
        self._patched = []

    def _enter(self):
        self._stack.append([self._next_id, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self, name):
        end = time.perf_counter()
        span_id, start, child = self._stack.pop()
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += dur
        if name not in self.unrecorded:
            self.spans.append((span_id, parent, name, start, end))

    def timed(self, fn, name):
        """fn wrapped so that each call is a span called `name`."""
        def wrapper(*args, **kwargs):
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)
        return wrapper

    def wrap(self, owner, attr, name, count=None, integrand=None):
        """Replace owner.attr by a traced version.

        name: a span name, or a function of the call's positional
        arguments giving one.  count(args, result) returns counter
        increments.  integrand: span name for the callable passed as the
        first argument (a quadrature's integrand), traced per call.
        """
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if integrand is not None:
                args = (self.timed(args[0], integrand),) + args[1:]
            self._enter()
            try:
                result = inner(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                for key, inc in count(args, result).items():
                    self.counts[key] += inc
            return result

        self._patched.append((owner, attr, inner))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, inner in reversed(self._patched):
            setattr(owner, attr, inner)
        self._patched.clear()

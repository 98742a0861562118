"""Function wrappers that time and count the solver's layers from outside.

A wrapper replaces a name where its caller looks it up: a module
attribute that another module imported by name, or a method on a class.
Three modes:

* ``span``: timed, and each call is kept as a span (name, start, end,
  parent span) in memory until the run writes them out;
* ``timed``: timed and counted, but no span is kept, for functions
  called tens of thousands of times;
* ``count``: counted only, for kernels called about a million times.

A function's self time is its time minus the time of the wrapped calls
made inside it; the time of ``count`` wrappers stays in their caller.
"""

from __future__ import annotations

import time
from collections import defaultdict

MODES = ("span", "timed", "count")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []             # [name, start, end, parent index]
        self.layer = {}             # wrapped name -> layer
        self._cells = {}            # count-mode name -> [calls]
        self._patches = []          # (owner, attribute, original)
        self._stack = []            # per open timed call: [child time]
        self._span_stack = []       # indices of open spans
        self.reset()

    def reset(self):
        """Drops the aggregates gathered so far; spans are kept."""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.values = defaultdict(float)
        for cell in self._cells.values():
            cell[0] = 0

    def add(self, key, amount):
        self.values[key] += amount

    def peak(self, key, amount):
        self.values[key] = max(self.values[key], amount)

    def wrap(self, owner, attribute, name, layer, mode="span", observe=None):
        """Replaces ``owner.attribute`` by a wrapper recorded as ``name``.

        ``observe(args, result)`` runs after each call that returns."""
        if mode not in MODES:
            raise ValueError("unknown mode %r" % (mode,))
        original = vars(owner)[attribute]
        self.layer[name] = layer
        if mode == "count":
            wrapper = self._counting(original, name, observe)
        else:
            wrapper = self._timing(original, name, mode == "span", observe)
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))
        return wrapper

    def restore(self):
        """Puts every wrapped name back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> dict:
        """Calls, total and self time per wrapped name, plus the values
        that observers added."""
        calls = dict(self.calls)
        for name, cell in self._cells.items():
            calls[name] = calls.get(name, 0) + cell[0]
        return {"calls": calls, "total": dict(self.total),
                "self": dict(self.self_time), "values": dict(self.values)}

    def _counting(self, fn, name, observe):
        cell = self._cells.setdefault(name, [0])
        if observe is None:
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted

        def counted_observed(*args, **kwargs):
            cell[0] += 1
            result = fn(*args, **kwargs)
            observe(args, result)
            return result
        return counted_observed

    def _timing(self, fn, name, keep_span, observe):
        clock = self.clock
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans

        def timed(*args, **kwargs):
            frame = [0.0]
            if keep_span:
                index = len(spans)
                spans.append([name, 0.0, 0.0,
                              span_stack[-1] if span_stack else None])
                span_stack.append(index)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    span_stack.pop()
                    spans[index][1] = start
                    spans[index][2] = end
            if observe is not None:
                observe(args, result)
            return result
        return timed

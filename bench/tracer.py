"""Spans around the program's public functions, for the traced run.

A Tracer replaces a function at the module attributes its callers look
up, so calls made through those attributes are timed, and restores the
originals on uninstall.  Each call is a span: its self time is its
duration minus the time covered by wrapped calls made inside it.  Spans
are kept in memory as per-layer sums (calls, self seconds); a function
whose output carries counts also hands each result to a callback.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.items = defaultdict(int)
        self._stack = []  # [layer, seconds covered by child spans]
        self._saved = []
        # Pool workers forked while wrappers are installed call straight through
        self._pid = os.getpid()

    def install(self, layer, targets, generator=False, on_result=None):
        """Wrap the function found at each (module, attribute) in targets."""
        for module, attr in targets:
            original = getattr(module, attr)
            if generator:
                wrapper = self._wrap_generator(layer, original)
            else:
                wrapper = self._wrap(layer, original, on_result)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _close(self, layer, frame, elapsed):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        self.calls[layer] += 1
        self.self_s[layer] += elapsed - frame[1]

    def _wrap(self, layer, fn, on_result):
        stack, pid = self._stack, self._pid

        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._close(layer, frame, elapsed)
            if on_result is not None:
                on_result(result, args, kwargs, parent, elapsed)
            return result

        return traced

    def _wrap_generator(self, layer, fn):
        stack, pid = self._stack, self._pid

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if os.getpid() != pid:
                yield from inner
                return
            while True:
                frame = [layer, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(layer, frame, perf_counter() - start)
                self.items[layer] += 1
                yield item

        return traced

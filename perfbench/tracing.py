"""Span recording for the traced run.

The tracer replaces public module attributes of `qrechacha` with wrappers
that record a span per call: name, start, end, parent span and an optional
size.  Spans are kept in memory and written out when the run ends.  The
wrappers are installed only for traced cycles and removed again, so
untraced cycles run the package's own functions.  Per-quarter-round
helpers such as `vector._qr` are never wrapped: the wrapper would cost
more than the work it measures.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self, targets):
        # targets: (owner, attribute, span name, size function or None)
        self.targets = targets
        self.spans = []
        self.paused = False
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, size):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, size(args) if size else None)

        return traced

    def install(self):
        for owner, attr, name, size in self.targets:
            fn = getattr(owner, attr, None)
            if fn is None:  # the attribute was refactored away; its span reads 0
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, size))

    def remove(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def summary(self):
        """{name: [calls, total seconds, self seconds, summed size]}.

        Self time is a span's duration minus the durations of its direct
        children; calls nest on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, size) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += size or 0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, size) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if size is not None:
                    rec["size"] = size
                fh.write(json.dumps(rec) + "\n")

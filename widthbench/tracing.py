"""In-memory spans around the program's public functions.

The benchmark never edits the program: a traced run replaces chosen
module attributes with timing wrappers for the duration of one
operation and puts the originals back afterwards.  Callers inside the
program that look a function up through its module at call time (the
service's ``canonical_form`` and ``run_portfolio``, the cache's
``certify``) therefore show up as spans, as do the benchmark's own calls.

A span is ``[id, name, start, end, parent]`` with times in seconds from
:func:`time.perf_counter`.  The parent is the innermost open span of the
calling thread, or — for a call on another thread, such as the
service's solver executor — the operation's root span.
"""

from __future__ import annotations

import functools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._root: int | None = None
        self._installed: list[tuple] = []
        self._wrappers: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else self._root
        span = [len(self.spans), name, time.perf_counter(), None, parent]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def operation(self, name: str = "op"):
        """Context manager for one traced operation: installs the
        wrappers, opens the root span, and restores everything after."""
        return _Operation(self, name)

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Register ``owner.attribute`` to be traced as span ``name``.
        ``on_result(span, result)`` may attach counts to the span."""
        self._wrappers.append((owner, attribute, name, on_result))

    def _install(self) -> None:
        for owner, attribute, name, on_result in self._wrappers:
            original = getattr(owner, attribute)
            setattr(owner, attribute, self._traced(original, name, on_result))
            self._installed.append((owner, attribute, original))

    def _uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def _traced(self, original, name: str, on_result):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    # -- reporting -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time in ms per span name: each span's duration
        minus the durations of its direct children."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[4] is not None and span[3] is not None:
                child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
        out: dict[str, float] = {}
        for span in self.spans:
            if span[3] is None:
                continue
            own = span[3] - span[2] - child_time.get(span[0], 0.0)
            out[span[1]] = out.get(span[1], 0.0) + own * 1000.0
        return out

    def total_times(self) -> dict[str, float]:
        """Total inclusive time in ms per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span[3] is not None:
                out[span[1]] = out.get(span[1], 0.0) + (span[3] - span[2]) * 1000.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                record = {"id": span[0], "name": span[1], "start": span[2],
                          "end": span[3], "parent": span[4]}
                if len(span) > 5:
                    record["counts"] = span[5]
                handle.write(json.dumps(record) + "\n")


class _Operation:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.span = None

    def __enter__(self):
        self.tracer._install()
        self.span = self.tracer.open(self.name)
        self.tracer._root = self.span[0]
        return self.span

    def __exit__(self, *exc):
        self.tracer.close(self.span)
        self.tracer._root = None
        self.tracer._uninstall()
        return False

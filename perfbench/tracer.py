"""Outside-in span tracer: wraps named callables, records spans, restores them.

A wrapped callable records one span per call: its name, start and end
(``time.perf_counter`` seconds) and the index of the span that was open when
it was called (``-1`` at top level).  Spans stay in memory until the caller
writes them out.  Every wrapped name is put back by :meth:`Tracer.restore`,
which ``with Tracer() as t`` calls on exit.
"""

from __future__ import annotations

import functools
import json
import time

# attribute set on every wrapper, so a leftover wrapper can be detected
MARKER = "_perfbench_traced"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``before(args)`` runs ahead of the call and its return value is
        handed to ``after(token, span_index, args, result)``, which runs once
        the span has closed; neither is counted in the span.
        """
        original = getattr(owner, attr)
        if getattr(original, MARKER, False):
            raise ValueError(f"{owner!r}.{attr} is already traced")
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(token, idx, args, result)
            return result

        setattr(traced, MARKER, True)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Calls are synchronous, so the children of one span never overlap.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        """One JSON list per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def leftover_wrappers(namespaces) -> list[str]:
    """Names in the given modules or classes that still hold a tracer wrapper."""
    found = []
    for ns in namespaces:
        for attr, value in vars(ns).items():
            if getattr(value, MARKER, False):
                found.append(f"{ns.__name__}.{attr}")
    return found

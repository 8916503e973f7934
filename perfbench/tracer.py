"""Spans around the calls into ``repro``'s layers, recorded from outside.

The program itself is not instrumented: :meth:`Tracer.wrap` replaces a public
function or method of a ``repro`` module with a shim that records one span
(name, start, end, parent) per call and forwards everything else untouched,
so a traced run computes exactly what an untraced one does.  Spans stay in
memory until :meth:`Tracer.dump` writes them when the run ends.

A span's *self time* is its duration minus the time its child spans cover.
Children are opened on the same thread inside their parent, so they never
overlap one another and that cover is simply the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "load_spans", "self_times", "span_tree"]

#: One recorded call: ``[name, start, end, parent index or -1]``.
Span = list


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span around a block."""
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str | Callable[..., str],
        on_result: Callable[..., None] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attribute``.

        ``name`` is the span name, or a function of the call's arguments
        returning it.  ``on_result(tracer, result, *args, **kwargs)`` runs
        after the call, outside the span, to record counts.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(tracer, result, *args, **kwargs)
            return result

        setattr(owner, attribute, traced)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self) -> "_SpanContext":
        self._index = self._tracer._open(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self._index)


def load_spans(path: str | Path) -> tuple[list[Span], dict[str, float]]:
    payload = json.loads(Path(path).read_text())
    return payload["spans"], payload["counts"]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_tree(spans: list[Span]) -> dict[tuple[str, ...], list[float]]:
    """Aggregate spans by their path from the root.

    Returns ``{path: [calls, total seconds, self seconds]}`` ordered depth
    first, siblings in first-seen order, so printing the keys in order prints
    the call tree.
    """
    own = self_times(spans)
    paths: list[tuple[str, ...]] = []
    tree: dict[tuple[str, ...], list[float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        path = (paths[parent] if parent >= 0 else ()) + (name,)
        paths.append(path)
        entry = tree.setdefault(path, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own[index]
    rank = {path: position for position, path in enumerate(tree)}

    def order(path: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(rank[path[: depth + 1]] for depth in range(len(path)))

    return {path: tree[path] for path in sorted(tree, key=order)}

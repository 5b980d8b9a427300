"""In-memory span recorder and the wrappers the traced run installs.

A span is ``(id, name, start, end, parent, key, thread, size)``:
``parent`` is the id of the span that was open on the same thread when
this one began, ``key`` ties spans to one training step or one served
request, and ``size`` is an optional count of the work the call did
(bytes read or written, windows encoded).
Spans stay in memory; :func:`write_spans` writes them out once, when the
run ends.  A layer's *self time* is its span's duration minus the part of
that interval its child spans cover (:func:`self_times`).

Wrappers are installed with :meth:`Tracer.wrap` around public functions
of ``repro`` and removed with :meth:`Tracer.uninstall`; nothing inside
``src/repro`` is edited.  Untraced runs never call ``wrap``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

__all__ = ["Span", "Tracer", "write_spans", "self_times", "covered",
           "coverage"]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "key", "thread",
                 "size")

    def __init__(self, id, name, start, end=None, parent=None, key=None,
                 thread=None, size=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.key = key
        self.thread = thread
        self.size = size

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Thread-aware span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, key=None, start: float | None = None) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name,
                    time.perf_counter() if start is None else start,
                    parent=stack[-1].id if stack else None, key=key,
                    thread=threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span, end: float | None = None) -> Span:
        span.end = time.perf_counter() if end is None else end
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.spans.append(span)
        return span

    def wrap(self, owner, attr: str, name: str, key_of=None, size_of=None,
             on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``key_of(args, kwargs)`` picks the span key; ``size_of(args,
        result)`` records the work the call did on the span itself, so
        counts are taken at the same boundary (and travel with the span
        out of a forked worker); ``on_result(span, args, result)`` lets
        the caller record anything else.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name, key_of(args, kwargs) if key_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if size_of is not None:
                span.size = size_of(args, result)
            if on_result is not None:
                on_result(span, args, result)
            return result

        # Class attributes are read through ``__dict__`` so that
        # staticmethod/classmethod descriptors are restored as they were.
        saved = owner.__dict__.get(attr, original) if isinstance(
            owner, type) else original
        self._installed.append((owner, attr, saved))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]



def write_spans(spans, path) -> None:
    """Write spans as JSON lines, in start order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: s.start):
            handle.write(json.dumps(span.as_dict()) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id → duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: span.duration - covered(span.start, span.end,
                                              children.get(span.id, ()))
            for span in spans}


def coverage(spans, parent_name: str) -> float:
    """Share of the ``parent_name`` spans' time covered by their children."""
    selfs = self_times(spans)
    parents = [span for span in spans if span.name == parent_name]
    total = sum(span.duration for span in parents)
    if total <= 0:
        return 0.0
    return 1.0 - sum(selfs[span.id] for span in parents) / total

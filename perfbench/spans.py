"""In-memory spans around the engine's entry points, installed from outside.

:class:`Tracer` patches each traced name where its caller looks it up and
restores every original on :meth:`Tracer.uninstall`, so nothing under
``src/`` changes.  A span records its name, start, end, parent span,
request id and thread, plus rows in and out for physical operators.
Span stacks are per thread, because the serving layer runs queries on
worker threads.  A query that a worker runs for the serving layer starts
a root span there; :meth:`Tracer.link` later attaches it to the serving
span on the event-loop thread that returned the same result object.

Self time is a span's duration minus the part of it that its child spans
cover, so the self times of one request add up to its root's duration.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple


class Span:
    __slots__ = (
        "name", "start", "end", "parent", "request", "thread", "rows_in", "rows_out", "result",
    )

    def __init__(self, name: str, start: float, parent: Optional[int], request, thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        self.rows_in: Optional[int] = None
        self.rows_out: Optional[int] = None
        #: The object a root span returned, kept only until :meth:`Tracer.link`.
        self.result = None


class Tracer:
    """Collects spans from wrapped functions on any thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._requests = itertools.count()

    # ------------------------------------------------------------ recording

    @property
    def request(self):
        """Request id given to root spans opened on the calling thread."""
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value) -> None:
        self._local.request = value

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = self.spans[parent].request if parent is not None else self.request
        span = Span(name, time.perf_counter(), parent, request, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def new_request(self) -> int:
        with self._lock:
            return next(self._requests)

    # ------------------------------------------------------------- patching

    def wrap(self, owner, attr: str, name: str, operator: bool = False, keep_result: bool = False):
        """Replace ``owner.attr`` by a function that records a span around it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            span = tracer.spans[index]
            if operator:
                batch = args[1] if len(args) > 1 else kwargs.get("batch")
                span.rows_in = batch.rows if batch is not None else 0
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if operator:
                span.rows_out = out.rows
            if keep_result and span.parent is None and span.request is None:
                span.result = out
            return out

        self._install(owner, attr, original, traced)

    def wrap_async(self, owner, attr: str, name: str) -> None:
        """Wrap a coroutine method: each call is a root span with a new request.

        Coroutines interleave on one thread, so these spans stay off the
        thread's stack.  The awaited result's ``.result`` is remembered
        for :meth:`link`.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), None, tracer.new_request(), threading.get_ident())
            with tracer._lock:
                tracer.spans.append(span)
            try:
                out = await original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
            span.result = getattr(out, "result", None)
            return out

        self._install(owner, attr, original, traced)

    def _install(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched name, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def link(self) -> None:
        """Attach worker-thread root spans to the async span that returned their result.

        Then give every span its root's request id.  A parent always opens
        before its children, so one pass in index order suffices.
        """
        owners = {
            id(span.result): index
            for index, span in enumerate(self.spans)
            if span.request is not None and span.result is not None
        }
        for index, span in enumerate(self.spans):
            if span.parent is None and span.request is None and span.result is not None:
                owner = owners.get(id(span.result))
                if owner is not None and owner < index:
                    span.parent = owner
        for span in self.spans:
            span.result = None
            if span.parent is not None:
                span.request = self.spans[span.parent].request

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "request": span.request, "thread": span.thread,
                    "rows_in": span.rows_in, "rows_out": span.rows_out,
                }) + "\n")


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children, clipped to it."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(lo, span.start), min(hi, span.end))
            for lo, hi in children.get(index, ())
            if hi > span.start and lo < span.end
        ]
        out.append((span.end - span.start) - covered(clipped))
    return out


def per_request(
    spans: Sequence[Span], seconds: Optional[Sequence[float]] = None,
) -> Dict[object, Dict[str, Tuple[float, int]]]:
    """``{request: {span name: (summed self seconds, span count)}}``.

    ``seconds`` are the spans' self times, if already computed.
    """
    table: Dict[object, Dict[str, Tuple[float, int]]] = defaultdict(dict)
    for span, own in zip(spans, self_times(spans) if seconds is None else seconds):
        row = table[span.request]
        total, count = row.get(span.name, (0.0, 0))
        row[span.name] = (total + own, count + 1)
    return table


def attributed(spans: Sequence[Span], seconds: Sequence[float], requests) -> Tuple[float, float]:
    """The self time of ``requests``' spans: summed over all, and over all but roots.

    The roots cover each request whole, so the first sum equals the
    requests' traced wall time by construction.  The second is the part
    that a named layer below the root accounts for.
    """
    wanted = set(requests)
    total = layers = 0.0
    for span, own in zip(spans, seconds):
        if span.request in wanted:
            total += own
            if span.parent is not None:
                layers += own
    return total, layers

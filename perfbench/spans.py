"""In-memory span recorder for the traced benchmark runs.

Spans are recorded from the benchmark's side only: :meth:`Tracer.wrap`
replaces a public function or method of the program with a wrapper that
opens a span around each call, and :meth:`Tracer.close` puts every original
back.  Nothing inside ``src/repro`` knows it is being traced.

A span is the tuple ``(id, parent, name, start_ns, end_ns, request)``.  The
parent is the innermost open span of the same thread; the request id is
whatever :meth:`Tracer.request` last set on that thread (one case, one job
or one co-sim program).  Spans stay in memory until the caller dumps them.

The recorder takes no locks (``list.append`` is atomic): the daemon's
worker pool may fork while a runner thread is inside a span, and a lock
held at that moment would never be released in the child.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._counts: list[tuple[str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: str):
        """Tag every span this thread opens inside the block with ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            record = (span_id, parent, name, start, end,
                      getattr(self._local, "request", None))
            self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, after=None, request_of=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``after(result)`` may return a dict of counts to add to
        :attr:`counters`, for counts that live in return values.
        ``request_of(*args)`` names the request the call serves.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if request_of is None:
                with self.span(name):
                    result = original(*args, **kwargs)
            else:
                with self.request(request_of(*args)), self.span(name):
                    result = original(*args, **kwargs)
            if after is not None:
                for key, value in after(result).items():
                    self.add(key, value)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def add(self, counter: str, value: float = 1) -> None:
        self._counts.append((counter, value))

    @property
    def counters(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for counter, value in list(self._counts):
            totals[counter] = totals.get(counter, 0) + value
        return totals

    def close(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

"""In-memory spans recorded around calls into each layer, plus a timing
proxy for the store.

Spans are recorded by the benchmark, from outside the program: each has
a name, start and end (``perf_counter_ns``), the id of the span open
when it started (its parent) and the id of the goal it served (``-1``
during set-up).  They stay in memory until the run ends.  A layer's
self time is its span's duration minus the durations of its direct
children; children of one span never overlap, because the loop has one
client and one thread.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, NamedTuple

from repro.core.database import Database
from repro.core.terms import Atom
from repro.store import Savepoint, Store

_NULL = nullcontext()


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    goal: int

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class NullRecorder:
    """The recorder of an untraced run: every span is a no-op."""

    goal = -1

    def span(self, name: str):
        return _NULL


class SpanRecorder:
    """Collects spans; each is stamped with ``goal`` as it closes."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.goal = -1
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = len(self.spans)
        # Reserve the slot so ids follow start order.
        self.spans.append(None)  # type: ignore[arg-type]
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, name, start, end, parent, self.goal)

    def self_ns(self) -> Dict[int, int]:
        """Self time of every span: its duration minus its children's."""
        out = {span.id: span.ns for span in self.spans}
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] -= span.ns
        return out

    def totals(self, goals_only: bool = True) -> Dict[str, Dict[str, int]]:
        """Per span name: ``count``, total ``ns`` and total ``self_ns``."""
        self_ns = self.self_ns()
        out: Dict[str, Dict[str, int]] = defaultdict(
            lambda: {"count": 0, "ns": 0, "self_ns": 0}
        )
        for span in self.spans:
            if goals_only and span.goal < 0:
                continue
            row = out[span.name]
            row["count"] += 1
            row["ns"] += span.ns
            row["self_ns"] += self_ns[span.id]
        return dict(out)

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


class TimedStore(Store):
    """A delegating store that records a span around every call.

    It wraps the store handed to ``store=`` and times ``database``,
    ``insert``, ``delete``, ``savepoint``, ``release`` and ``rollback``.
    Each outermost savepoint-to-release interval counts as one commit
    (``commit_ns``); rollbacks are counted at every depth.  Apart from
    the spans it changes nothing: every call returns what the wrapped
    store returns.
    """

    def __init__(self, inner: Store, recorder: SpanRecorder):
        self.inner = inner
        self.recorder = recorder
        self.commit_ns: List[int] = []
        self.rollbacks = 0
        self._depth = 0
        self._opened_ns = 0

    def database(self) -> Database:
        with self.recorder.span("store.database"):
            return self.inner.database()

    def insert(self, fact: Atom) -> Database:
        with self.recorder.span("store.insert"):
            return self.inner.insert(fact)

    def delete(self, fact: Atom) -> Database:
        with self.recorder.span("store.delete"):
            return self.inner.delete(fact)

    def savepoint(self) -> Savepoint:
        if self._depth == 0:
            self._opened_ns = time.perf_counter_ns()
        with self.recorder.span("store.savepoint"):
            sp = self.inner.savepoint()
        self._depth += 1
        return sp

    def release(self, sp: Savepoint) -> None:
        with self.recorder.span("store.release"):
            self.inner.release(sp)
        self._depth -= 1
        if self._depth == 0:
            self.commit_ns.append(time.perf_counter_ns() - self._opened_ns)

    def rollback(self, sp: Savepoint) -> None:
        with self.recorder.span("store.rollback"):
            self.inner.rollback(sp)
        self._depth -= 1
        self.rollbacks += 1

    def sync(self) -> None:
        self.inner.sync()

    def close(self) -> None:
        self.inner.close()


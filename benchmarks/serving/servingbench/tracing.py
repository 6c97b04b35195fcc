"""Outside-in tracing: spans around public callables of the objects we built.

The benchmark wraps bound methods on the *instances* of its own rig (an
instance attribute shadows the class's method), so no file under ``src/``
changes.  Spans stay in memory and are written once, after the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: str
    #: The span that caused this one: the enclosing span on the same
    #: thread, or across threads the span that handed the work over.
    parent: int | None
    session: str | None
    #: Work done, in the unit natural to the callable (rows, tokens, bytes).
    work: float = 0.0
    same_thread_parent: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: (span name, session) -> id of the latest such span, finished or
        #: not: how work that hops threads finds the span that caused it.
        self._latest: dict[tuple[str, str], int] = {}
        self._installed: list[tuple[Any, str]] = []

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        *,
        sessions: Callable[..., Iterable[str]] | None = None,
        work: Callable[..., float] | None = None,
        caused_by: str | None = None,
        on_result: Callable[[Any, Span], None] | None = None,
    ) -> None:
        """Replace ``obj.attr`` with a span-recording wrapper.

        ``sessions(*args, **kwargs)`` names the session(s) the call serves
        (the first is recorded on the span; all are registered so that
        later cross-thread work can point back here).  ``caused_by`` names
        the span kind to adopt as parent when this call starts a thread's
        stack.  ``on_result`` runs after the span has ended.
        """
        inner = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            ids = list(sessions(*args, **kwargs)) if sessions is not None else []
            session = ids[0] if ids else (stack[-1].session if stack else None)
            parent: int | None = stack[-1].id if stack else None
            same_thread = parent is not None
            if parent is None and caused_by is not None and session is not None:
                parent = self._latest.get((caused_by, session))
            span = Span(
                id=next(self._ids),
                name=name,
                start=0.0,
                end=0.0,
                thread=threading.current_thread().name,
                parent=parent,
                session=session,
                same_thread_parent=same_thread,
            )
            for sid in ids:
                self._latest[(name, sid)] = span.id
            stack.append(span)
            span.start = self.clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                if work is not None:
                    span.work = float(work(*args, **kwargs))
                self.spans.append(span)
            if on_result is not None:
                on_result(result, span)
            return result

        setattr(obj, attr, traced)
        self._installed.append((obj, attr))

    def uninstall(self) -> None:
        """Remove every wrapper, restoring the class's own methods."""
        for obj, attr in self._installed:
            delattr(obj, attr)
        self._installed.clear()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


# -- span arithmetic ---------------------------------------------------


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its same-thread children cover.

    Children handed to another thread run beside the parent, not inside
    it, so they are not subtracted.
    """
    result = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.same_thread_parent and span.parent in result:
            result[span.parent] -= span.duration
    return result


def merged(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    return sum(end - start for start, end in merged(intervals))


def overlap(interval: tuple[float, float], others: Sequence[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the (merged, sorted) ``others``."""
    start, end = interval
    total = 0.0
    for o_start, o_end in others:
        if o_end <= start:
            continue
        if o_start >= end:
            break
        total += min(end, o_end) - max(start, o_start)
    return total


# -- output ------------------------------------------------------------


def write_chrome_trace(spans: Sequence[Span], path: Path) -> None:
    """Chrome-trace JSON (``chrome://tracing`` / https://ui.perfetto.dev)."""
    if not spans:
        origin = 0.0
    else:
        origin = min(span.start for span in spans)
    threads = {name: i for i, name in enumerate(dict.fromkeys(s.thread for s in spans))}
    events: list[dict[str, Any]] = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": name}}
        for name, tid in threads.items()
    ]
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": threads[span.thread],
                "args": {
                    "span": span.id,
                    "parent": span.parent,
                    "session": span.session,
                    "work": span.work,
                },
            }
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))

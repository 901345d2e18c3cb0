"""In-memory spans recorded around calls into the ``repro.sim`` layers.

The benchmark does not edit the program: it wraps public functions and
methods of each layer from the outside (module attributes and class
attributes are replaced while tracing is installed, then restored).
Each call made while tracing is enabled records one span: name, start,
end, parent span and cell id (the task digest, where the call is about
one cell).  Spans stay in memory and are written out once, at the end
of the run.

The parent of a span is the innermost span open in the same context
(a ``ContextVar``: each thread and each asyncio task has its own).
Pool threads start with an empty context, so their spans hang off the
span of the phase that is running.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "e2ebench_span", default=None)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    cell: Optional[str]
    key: Optional[Tuple[Any, ...]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._lock = threading.Lock()
        self._next_id = 0
        self._phase_span: Optional[int] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def open(self, name: str, cell: Optional[str] = None,
             key: Optional[Tuple[Any, ...]] = None):
        """Start a span; returns a token for :meth:`close`."""
        parent = _CURRENT.get()
        if parent is None:
            parent = self._phase_span
        span_id = self._new_id()
        reset = _CURRENT.set(span_id)
        return (span_id, name, parent, cell, key, reset, time.perf_counter())

    def close(self, token) -> None:
        end = time.perf_counter()
        span_id, name, parent, cell, key, reset, start = token
        _CURRENT.reset(reset)
        self._record(Span(span_id, name, start, end, parent, cell, key))

    @contextlib.contextmanager
    def phase(self, name: str):
        """A top-level span for one benchmark phase.  Spans opened in
        pool threads during the phase take it as parent."""
        if not self.enabled:
            yield
            return
        token = self.open(name)
        self._phase_span = token[0]
        try:
            yield
        finally:
            self._phase_span = None
            self.close(token)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             cell_of: Optional[Callable[..., Optional[str]]] = None,
             key_of: Optional[Callable[..., Any]] = None,
             result_key: Optional[Callable[[Any], Any]] = None,
             kind: str = "function") -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``kind`` is ``"function"`` (plain function or method),
        ``"classmethod"`` or ``"async"``.  ``cell_of`` / ``key_of`` map
        the call's arguments to the span's cell id / grouping key;
        ``result_key`` maps the return value to the key instead."""
        original = inspect.getattr_static(owner, attr)
        tracer = self
        target = original.__func__ if kind == "classmethod" else original

        def labels(args, kwargs):
            cell = cell_of(*args, **kwargs) if cell_of else None
            key = key_of(*args, **kwargs) if key_of else None
            return cell, key

        def finish(token, result):
            if result_key is not None:
                token = token[:4] + (result_key(result),) + token[5:]
            tracer.close(token)

        if kind == "async":
            @functools.wraps(target)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await target(*args, **kwargs)
                token = tracer.open(name, *labels(args, kwargs))
                result = None
                try:
                    result = await target(*args, **kwargs)
                    return result
                finally:
                    finish(token, result)
        else:
            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return target(*args, **kwargs)
                token = tracer.open(name, *labels(args, kwargs))
                result = None
                try:
                    result = target(*args, **kwargs)
                    return result
                finally:
                    finish(token, result)

        setattr(owner, attr,
                classmethod(wrapper) if kind == "classmethod" else wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, total_s, self_s)}``.  A span's self time is
        its duration minus the part of its interval covered by the
        union of its children's intervals."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        table: Dict[str, List[float]] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()),
                                key=lambda c: c.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = table.setdefault(span.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span.duration
            entry[2] += span.duration - covered
        return {name: (int(c), total, own)
                for name, (c, total, own) in table.items()}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the
        first span's start)."""
        origin = min((span.start for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as stream:
            for span in self.spans:
                stream.write(json.dumps({
                    "id": span.span_id, "name": span.name,
                    "start_s": span.start - origin,
                    "end_s": span.end - origin,
                    "parent": span.parent, "cell": span.cell}) + "\n")

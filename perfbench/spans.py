"""Span recording, self-time arithmetic and percentile helpers.

The benchmark traces the program from the outside: :class:`Tracer.patch`
replaces a module-level function (or a class attribute) with a wrapper
that records one span per call and restores the original on
:meth:`Tracer.unpatch`.  Nothing inside ``src/`` records spans itself.

A span is ``[name, start_ns, end_ns, parent, request_id]``; ``parent`` is
the index of the span that was open on the same thread when this one
began, and ``request_id`` is inherited from the parent unless given.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

NAME, START, END, PARENT, REQUEST = range(5)

#: a percentile is reported only when at least this many samples lie
#: beyond it
MIN_BEYOND = 10


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request_id: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if request_id is None and parent >= 0:
            request_id = self.spans[parent][REQUEST]
        record = [name, time.perf_counter_ns(), 0, parent, request_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    @contextmanager
    def span(self, name: str,
             request_id: Optional[str] = None) -> Iterator[int]:
        index = self.begin(name, request_id)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, function: Callable[..., Any],
             name: str) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)
        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------- patching

    def patch(self, owner: Any, attribute: str, name: str) -> None:
        """Route ``owner.attribute`` through a span named *name*."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name))

    def unpatch(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ---------------------------------------------------------------- export

    def export(self) -> List[list]:
        with self._lock:
            return [list(record) for record in self.spans]


# ---------------------------------------------------------- span arithmetic

def children_of(spans: Sequence[Sequence[Any]]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for index, record in enumerate(spans):
        if record[PARENT] >= 0:
            children.setdefault(record[PARENT], []).append(index)
    return children


def _covered_ns(intervals: Iterable[Tuple[int, int]], low: int,
                high: int) -> int:
    """Length of the union of *intervals* clipped to ``[low, high]``."""
    total = 0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> List[int]:
    """Each span's duration minus the part its child spans cover (ns)."""
    children = children_of(spans)
    result = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        kids = [(spans[k][START], spans[k][END])
                for k in children.get(index, ())]
        result.append(end - start - _covered_ns(kids, start, end))
    return result


def descendants(spans: Sequence[Sequence[Any]], root: int,
                children: Optional[Dict[int, List[int]]] = None) \
        -> List[int]:
    children = children if children is not None else children_of(spans)
    found: List[int] = []
    pending = list(children.get(root, ()))
    while pending:
        index = pending.pop()
        found.append(index)
        pending.extend(children.get(index, ()))
    return found


def duration_ns(record: Sequence[Any]) -> int:
    return record[END] - record[START]


# ---------------------------------------------------------------- statistics

def percentile(values: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Nearest-rank q-th percentile, or ``None`` when fewer than
    *min_beyond* samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return ordered[rank - 1]


def order_statistic(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile with no sample-count rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def min_samples_for(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which :func:`percentile` reports *q*."""
    n = 1
    while n - max(1, math.ceil(q / 100.0 * n)) < min_beyond:
        n += 1
    return n

"""Span recording for the traced benchmark run.

The tracer wraps names in a module's namespace: the program calls the
wrapper through its own global lookup, so nothing inside ``src/`` changes.
A window is one call of the operation function (``pipeline.track_batch`` or
``training.train_window``); the layer functions it reaches record child
spans.  Spans are kept in memory and written out when the worker ends.
Counters are computed from the held call arguments and results after the
window closes, so they never add to a span's time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

# counter extraction is best effort: a refactored signature or state object
# makes a counter unavailable, never the run fail
COUNTER_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class WindowTrace:
    index: int
    spans: list[Span] = field(default_factory=list)
    calls: list[tuple[str, tuple, dict, object]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Records one span tree per window and per-window counters.

    ``counters`` maps a span name to a function (args, kwargs, result) ->
    {counter name: value}; values of one window are summed per name, except
    names ending in ``_max``/``_min``, which keep the extreme.
    """

    def __init__(self, counters: dict[str, Callable] | None = None):
        self.counters = counters or {}
        self.windows: list[WindowTrace] = []
        self.absent: list[str] = []
        self.counter_failures: dict[str, str] = {}
        self._current: WindowTrace | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    # -- spans ------------------------------------------------------------

    def _begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._current.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self._current.spans) - 1)

    def _end(self) -> None:
        self._current.spans[self._stack.pop()].end = time.perf_counter()

    def open_window(self, name: str) -> None:
        self._current = WindowTrace(len(self.windows))
        self.windows.append(self._current)
        self._begin(name)

    def close_window(self) -> None:
        self._end()

    def finish_window(self, root_call: tuple | None) -> None:
        """Compute the window's counters once its root span has closed.

        ``root_call`` is (name, args, kwargs, result) of the operation, or
        None when it raised.
        """
        window = self._current
        if root_call is not None:
            window.calls.append(root_call)
        for name, call_args, call_kwargs, call_result in window.calls:
            extract = self.counters.get(name)
            if extract is None:
                continue
            try:
                values = extract(call_args, call_kwargs, call_result)
            except COUNTER_ERRORS as exc:
                self.counter_failures.setdefault(name, repr(exc))
                continue
            for key, value in values.items():
                merge_counter(window.counters, key, float(value))
        window.calls = []          # drop references to tensors and states
        self._current = None

    # -- wrapping ---------------------------------------------------------

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by a span-recording wrapper.

        A name the module no longer has is recorded as absent.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            if self._current is None:          # called outside a window
                return fn(*args, **kwargs)
            self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end()
            self._current.calls.append((name, args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    # -- results ----------------------------------------------------------

    @staticmethod
    def self_times(window: WindowTrace) -> dict[str, float]:
        """Self time in seconds per span name: a span's duration minus the
        durations of its direct children, summed over the window."""
        own = {}
        child_time = [0.0] * len(window.spans)
        for span in window.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        for span, children in zip(window.spans, child_time):
            own[span.name] = own.get(span.name, 0.0) + (span.end - span.start
                                                        - children)
        return own

    @staticmethod
    def record(window: WindowTrace, **meta) -> dict:
        """One window as a JSON-ready dict; span times in ms from its start."""
        origin = window.spans[0].start
        return {
            **meta,
            "window": window.index,
            "spans": [[s.name, (s.start - origin) * 1e3,
                       (s.end - origin) * 1e3, s.parent]
                      for s in window.spans],
            "counters": window.counters,
        }


def merge_counter(counters: dict[str, float], key: str, value: float) -> None:
    """Add ``value`` to a counter; ``*_max``/``*_min`` keep the extreme."""
    if key not in counters:
        counters[key] = value
    elif key.endswith("_max"):
        counters[key] = max(counters[key], value)
    elif key.endswith("_min"):
        counters[key] = min(counters[key], value)
    else:
        counters[key] += value

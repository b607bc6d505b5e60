"""Structured event tracing.

A :class:`Tracer` records ``(time, category, event, attributes)`` tuples.
The benchmarks use traces to decompose end-to-end latencies into per-step
contributions (e.g. the five protocol steps of the paper's Figure 5).

Recording is cheap enough to leave on in the per-packet paths: a record is
a plain tuple appended to a bounded ring (the oldest records fall out once
it is full), and attribute values are formatted only when the trace is
read back as :class:`TraceEvent` objects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = ["DEFAULT_CAPACITY", "TraceEvent", "Tracer"]

#: Records a tracer retains unless told otherwise (``capacity=None`` keeps all).
DEFAULT_CAPACITY = 4096

_PRIMITIVES = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class TraceEvent:
    """A single trace record."""

    time: float
    category: str
    event: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def matches(self, category: Optional[str] = None, event: Optional[str] = None) -> bool:
        """True when the record matches the given category/event filters."""
        if category is not None and self.category != category:
            return False
        if event is not None and self.event != event:
            return False
        return True


def _event(record: tuple[float, str, str, dict[str, Any]]) -> TraceEvent:
    """Build the read-side view of a raw record; non-primitives become ``str()``."""
    time, category, event, attrs = record
    return TraceEvent(
        time=time,
        category=category,
        event=event,
        attrs={
            key: value if isinstance(value, _PRIMITIVES) else str(value)
            for key, value in attrs.items()
        },
    )


class Tracer:
    """Collects trace records in arrival order, keeping the latest ``capacity``.

    ``recorded`` counts every record since creation (or the last
    :meth:`clear`); ``dropped`` is how many of them the ring has discarded.
    ``len()`` is the number retained.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        capacity: Optional[int] = DEFAULT_CAPACITY,
    ) -> None:
        self._clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.capacity = capacity
        self._records: deque[tuple[float, str, str, dict[str, Any]]] = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, category: str, event: str, **attrs: Any) -> None:
        """Append a trace record stamped with the current simulated time.

        Attribute values are stored as given and formatted (non-primitives
        via ``str()``) only when the trace is read, so hot paths can pass
        rich objects such as NDN names for free.  Callers must therefore
        pass values that do not change after the call: immutable objects
        (names, enums, tuples), never a list or dict they keep mutating.
        """
        if not self.enabled:
            return
        self._records.append((self._clock(), category, event, attrs))
        self.recorded += 1

    @property
    def dropped(self) -> int:
        """Records the ring discarded to stay within ``capacity``."""
        return self.recorded - len(self._records)

    @property
    def events(self) -> list[TraceEvent]:
        """The retained records, oldest first, formatted for reading."""
        return [_event(record) for record in self._records]

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        # Without this, an *empty* tracer is falsy (via ``__len__``) and
        # every ``tracer or Tracer(...)`` default silently replaces a
        # caller-supplied tracer that simply has no events yet.
        return True

    def filter(self, category: Optional[str] = None, event: Optional[str] = None) -> list[TraceEvent]:
        """All records matching the filters, in order."""
        return [
            _event(record)
            for record in self._records
            if (category is None or record[1] == category)
            and (event is None or record[2] == event)
        ]

    def spans(self, start_event: str, end_event: str, key: str) -> list[tuple[Any, float]]:
        """Pair up start/end records sharing ``attrs[key]`` and return durations.

        Useful for latency decomposition: ``spans("gateway", "job-done", "job_id")``.
        """
        starts: dict[Any, float] = {}
        durations: list[tuple[Any, float]] = []
        for record in self.events:
            ident = record.attrs.get(key)
            if ident is None:
                continue
            if record.event == start_event and ident not in starts:
                starts[ident] = record.time
            elif record.event == end_event and ident in starts:
                durations.append((ident, record.time - starts.pop(ident)))
        return durations

    def clear(self) -> None:
        """Forget every record and reset the ``recorded``/``dropped`` counters."""
        self._records.clear()
        self.recorded = 0

    def categories(self) -> set[str]:
        return {record[1] for record in self._records}

    def to_dicts(self) -> list[dict[str, Any]]:
        """Serialize the trace as a list of plain dicts."""
        return [
            {"time": ev.time, "category": ev.category, "event": ev.event, **ev.attrs}
            for ev in self.events
        ]

    @staticmethod
    def merge(tracers: Iterable["Tracer"]) -> list[TraceEvent]:
        """Merge several tracers' records into a single time-ordered list."""
        merged: list[TraceEvent] = []
        for tracer in tracers:
            merged.extend(tracer.events)
        merged.sort(key=lambda ev: ev.time)
        return merged

"""Causal tracer: span records over sim time, Chrome-trace exportable.

Captures the causal chain the paper reasons about qualitatively —
job → task attempt → shuffle / HDFS flow — as *span records* with parent
ids, plus instantaneous control-plane marks (jobtracker heartbeats,
channel-core filling passes, preemption bursts).  Everything is keyed by
**sim time**; loading the export in Perfetto (or ``chrome://tracing``)
shows the run on a sim-time axis with one lane per host/subsystem.

Design constraints (the telemetry contract):

- *bounded*: records land in a ring buffer (``capacity`` newest kept);
  eviction only loses history, never blocks the run;
- *decision-free*: recording reads sim state and appends tuples — no
  mutation, no RNG, no events; instrumentation sites guard with a plain
  ``if tracer is not None`` so the disabled cost is one attribute load;
- *filterable*: a category allow-list drops unwanted record kinds at the
  emit site (``wants()``), keeping high-volume categories (``channel``)
  opt-in.

Categories used by the built-in instrumentation:

========== ==================================================
``job``     job submit → finish spans
``task``    task-attempt spans (parent: the job span)
``shuffle`` reduce-side shuffle fetch spans (parent: attempt)
``hdfs``    datanode block receive/serve flow spans
``control`` one mark per jobtracker heartbeat
``channel`` filling-pass marks with component size
``grid``    preemption bursts, glidein lifecycle marks
========== ==================================================
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Tracer", "CATEGORIES"]

#: Every category the built-in instrumentation emits.
CATEGORIES = ("job", "task", "shuffle", "hdfs", "control", "channel", "grid")

#: Record layout: (ts, dur, cat, name, track, span_id, parent_id, args).
#: ``dur is None`` marks an instantaneous event.
_Record = Tuple[float, Optional[float], str, str, str,
                Optional[str], Optional[str], Optional[dict]]


class Tracer:
    """Bounded, category-filtered span recorder."""

    def __init__(self, capacity: int = 100_000,
                 categories: Optional[Iterable[str]] = None) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        #: ``None`` = record every category.
        self._categories = None if categories is None else set(categories)
        self._buf: deque = deque(maxlen=capacity)
        self.recorded = 0
        self.by_category: Dict[str, int] = {}

    # -- emission ----------------------------------------------------------
    def wants(self, cat: str) -> bool:
        """True if records of ``cat`` pass the category filter."""
        return self._categories is None or cat in self._categories

    def span(self, cat: str, name: str, start: float, end: float,
             track: str, span_id: Optional[str] = None,
             parent: Optional[str] = None,
             args: Optional[dict] = None) -> None:
        """Record a completed span ``[start, end]`` on ``track``.

        Spans are emitted at their *end* (when the duration is known);
        the exporter re-sorts by start time.  ``parent`` names the
        enclosing span's ``span_id`` — the causal edge.
        """
        if not self.wants(cat):
            return
        self.recorded += 1
        self.by_category[cat] = self.by_category.get(cat, 0) + 1
        self._buf.append((start, end - start, cat, name, track,
                          span_id, parent, args))

    def instant(self, cat: str, name: str, ts: float, track: str,
                args: Optional[dict] = None) -> None:
        """Record an instantaneous mark at ``ts`` on ``track``."""
        if not self.wants(cat):
            return
        self.recorded += 1
        self.by_category[cat] = self.by_category.get(cat, 0) + 1
        self._buf.append((ts, None, cat, name, track, None, None, args))

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    @property
    def dropped(self) -> int:
        """Records evicted by the ring buffer."""
        return self.recorded - len(self._buf)

    def stats(self) -> dict:
        """JSON-ready summary (recorded/kept/dropped, per-category)."""
        return {"recorded": self.recorded, "kept": len(self._buf),
                "dropped": self.dropped,
                "by_category": dict(self.by_category)}

    def records(self) -> List[_Record]:
        """The kept records, oldest first."""
        return list(self._buf)

    # -- Chrome trace-event export ----------------------------------------
    def to_chrome(self) -> dict:
        """The kept records as a Chrome trace-event JSON object.

        Loadable in Perfetto / ``chrome://tracing``.  Sim seconds map to
        trace microseconds (so one trace "ms" is one sim millisecond);
        events are sorted by timestamp; each distinct ``track`` becomes
        one named thread under pid 1.  Span/parent ids ride in ``args``
        (``id``/``parent``) so causal edges survive the export.
        """
        tids: Dict[str, int] = {}
        events: List[dict] = []
        for start, dur, cat, name, track, span_id, parent, args in self._buf:
            tid = tids.get(track)
            if tid is None:
                tid = tids[track] = len(tids) + 1
            ev_args = dict(args) if args else {}
            if span_id is not None:
                ev_args["id"] = span_id
            if parent is not None:
                ev_args["parent"] = parent
            record = {"name": name, "cat": cat, "pid": 1, "tid": tid,
                      "ts": round(start * 1e6, 3)}
            if dur is None:
                record["ph"] = "i"
                record["s"] = "t"
            else:
                record["ph"] = "X"
                record["dur"] = round(dur * 1e6, 3)
            if ev_args:
                record["args"] = ev_args
            events.append(record)
        events.sort(key=lambda e: (e["ts"], e["tid"]))
        meta = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "args": {"name": track}} for track, tid in tids.items()]
        return {"displayTimeUnit": "ms", "traceEvents": meta + events}

    def write(self, path) -> None:
        """Serialize :meth:`to_chrome` to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

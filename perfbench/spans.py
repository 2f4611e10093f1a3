"""Span tracing from outside the program: timing wrappers around each
layer's public entry points, and the self-time arithmetic over them.

A span is one call into a wrapped function: layer, name, start, end, and
the span that was open when it began (its parent).  Spans stay in
memory, in flat parallel lists, and are written out when the run ends.

A layer's self time is the time during which one of its spans is the
innermost open span: a span's duration minus its direct children's
durations, summed per layer.  So time inside a child of *another* layer
is charged to that layer, and a nested call within the *same* layer is
counted once.  The simulator's ``run``/``run_until`` are the root spans,
so ``sim`` self time is the dispatch loop plus everything the engine
fires through callbacks no wrapper covers (private timer callbacks of
every layer): an upper bound on the engine's own cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Dict, List, Sequence, Tuple

#: ``layer → [(module, class, methods)]``: the calls into each layer.
ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim": [
        ("repro.sim.engine", "Simulator", ("run", "run_until")),
    ],
    "channel": [
        ("repro.sim.channel", "FairQueue",
         ("submit", "request", "start", "remove", "abort",
          "abort_constraint")),
        ("repro.net.fabric", "NetworkFabric",
         ("transfer", "serve_stream", "abort_host_flows")),
        ("repro.storage.disk", "Disk", ("read", "write")),
    ],
    "mapreduce": [
        ("repro.mapreduce.jobtracker", "JobTracker",
         ("heartbeat", "submit_job", "map_attempt_completed",
          "reduce_attempt_completed", "attempt_failed",
          "report_fetch_failure")),
        ("repro.mapreduce.tasktracker", "TaskTracker",
         ("launch", "serve_map_output")),
    ],
    "hdfs": [
        ("repro.hdfs.namenode", "Namenode",
         ("heartbeat", "process_block_report", "block_received",
          "choose_write_targets", "report_bad_replica")),
        ("repro.hdfs.datanode", "Datanode", ("receive_block", "serve_read")),
    ],
    "grid": [
        ("repro.grid.glidein", "Glidein", ("match", "preempt")),
        ("repro.grid.glidein", "GlideinFactory", ("set_target",)),
        ("repro.grid.condor", "CondorSchedd", ("submit",)),
    ],
    "faults": [
        ("repro.faults.invariants", "InvariantChecker", ("check",)),
        # The injector's fault actions are its sim-time callbacks.
        ("repro.faults.injector", "Injector",
         ("_fire", "_blackout_heal", "_wan_heal", "_wan_restore",
          "_straggler_end")),
    ],
}

LAYERS: Tuple[str, ...] = tuple(ENTRY_POINTS)


class SpanRecorder:
    """In-memory span store; :meth:`wrap` makes the timing wrappers."""

    def __init__(self, layers: Sequence[str] = LAYERS,
                 clock=time.perf_counter) -> None:
        self.layers = tuple(layers)
        self.names: List[str] = []
        self.parent: List[int] = []
        self.layer: List[int] = []
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self._stack: List[int] = []
        self._clock = clock

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, layer: str, name: str, fn):
        """A wrapper recording one span per call of ``fn``."""
        if inspect.isgeneratorfunction(fn):
            # The span would close before the body ever ran.
            raise TypeError(f"{name} is a generator function")
        layer_id = self.layers.index(layer)
        name_id = len(self.names)
        self.names.append(name)
        parent, layers, names = self.parent, self.layer, self.name
        starts, ends, stack, clock = self.start, self.end, self._stack, \
            self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent.append(stack[-1] if stack else -1)
            layers.append(layer_id)
            names.append(name_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        """Replace every entry point's class attribute with its wrapper.

        Call before the program builds any object: bound methods taken
        later (stored callbacks included) then resolve to the wrapper."""
        for layer, targets in ENTRY_POINTS.items():
            for module, cls_name, methods in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    setattr(cls, method, self.wrap(
                        layer, f"{cls_name}.{method}", fn))

    def record(self, layer: str, name: str, start: float, end: float,
               parent: int = -1) -> int:
        """Append a finished span directly (synthetic trees in tests)."""
        if name not in self.names:
            self.names.append(name)
        self.parent.append(parent)
        self.layer.append(self.layers.index(layer))
        self.name.append(self.names.index(name))
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    # -- arithmetic ------------------------------------------------------
    def exclusive(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        excl = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                excl[p] -= self.end[i] - self.start[i]
        return excl

    def self_times(self) -> Dict[str, float]:
        """Layer → seconds during which the layer was innermost."""
        totals = [0.0] * len(self.layers)
        for layer, t in zip(self.layer, self.exclusive()):
            totals[layer] += t
        return dict(zip(self.layers, totals))

    def calls(self) -> Dict[str, int]:
        """Layer → spans recorded (calls into the layer)."""
        counts = [0] * len(self.layers)
        for layer in self.layer:
            counts[layer] += 1
        return dict(zip(self.layers, counts))

    def root_time(self) -> float:
        """Summed duration of the root spans (the traced total)."""
        return sum(e - s for p, s, e in zip(self.parent, self.start,
                                             self.end) if p < 0)

    def subtree_stats(self, root_name: str, marker_name: str
                      ) -> Tuple[int, int, float]:
        """Over the outermost ``root_name`` spans: how many there are,
        how many contain a ``marker_name`` span, and the self time their
        own layer spent inside them."""
        if root_name not in self.names:
            return 0, 0, 0.0
        root_id = self.names.index(root_name)
        marker_id = self.names.index(marker_name) \
            if marker_name in self.names else -1
        root_layer = -1
        excl = self.exclusive()
        #: Outermost enclosing root span of each span, or -1.
        owner = [-1] * len(self.start)
        marked = set()
        roots = 0
        self_time = 0.0
        for i, (p, layer, name) in enumerate(zip(self.parent, self.layer,
                                                 self.name)):
            up = owner[p] if p >= 0 else -1
            if up < 0 and name == root_id:
                up = i
                roots += 1
                root_layer = layer
            owner[i] = up
            if up < 0:
                continue
            if layer == root_layer:
                self_time += excl[i]
            if name == marker_id:
                marked.add(up)
        return roots, len(marked), self_time

    def write(self, path) -> None:
        """Write every span as CSV: id, parent, layer, name, start, end
        (seconds from the first span's start)."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as out:
            out.write("id,parent,layer,name,start_s,end_s\n")
            for i, (p, layer, name, s, e) in enumerate(zip(
                    self.parent, self.layer, self.name, self.start,
                    self.end)):
                out.write(f"{i},{p},{self.layers[layer]},{self.names[name]},"
                          f"{s - t0:.9f},{e - t0:.9f}\n")

"""Discrete-event simulation engine used by every substrate in the repo.

Public surface:

- :class:`Simulator` — the event loop and clock.
- :class:`Event`, :class:`Timeout`, :class:`CallbackTimer`,
  :class:`Process`, :class:`Interrupt` — event primitives.
- :class:`FairQueue`, :class:`Constraint`, :class:`Demand` — the unified
  max-min fair shared-resource core (network + disk rate sharing).
- :class:`StepSeries`, :class:`CounterSet` — measurement.
"""

from .channel import Constraint, Demand, FairQueue
from .engine import EmptySchedule, Simulator
from .events import CallbackTimer, Event, Interrupt, Process, Timeout
from .monitor import CounterSet, StepSeries

__all__ = [
    "Simulator",
    "EmptySchedule",
    "FairQueue",
    "Constraint",
    "Demand",
    "Event",
    "Timeout",
    "CallbackTimer",
    "Process",
    "Interrupt",
    "StepSeries",
    "CounterSet",
]

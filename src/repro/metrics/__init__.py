"""Reporting utilities: workload results, tables, and ASCII plots.

The time series and counters they summarise live in
:mod:`repro.sim.monitor`.
"""

from .ascii_plot import plot_series, plot_xy
from .report import WorkloadResult, format_table

__all__ = ["WorkloadResult", "format_table", "plot_series", "plot_xy"]

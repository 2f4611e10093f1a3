"""Declarative scenarios: a registry of composable grid/workload setups
with one unified runner.

- :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` and its parts
  (cluster shape, workload, fault model), dict/JSON round-trippable
- :mod:`repro.scenarios.registry` — named built-ins (``baseline``,
  ``contended``, ``wan_staging``, ``hetero_tiers``,
  ``rebalance_under_load``, ``churn_heavy``, ``blackout``,
  ``flaky_wan``)
- :mod:`repro.scenarios.runner` — :class:`ScenarioRunner` →
  :class:`ScenarioResult` (makespan, per-phase wall/sim time,
  channel-core stats, locality and preemption counters)
- :mod:`repro.scenarios.parallel` — multiprocessing fan-out over
  serialized specs (``run_specs_parallel``), simulation-identical to
  serial runs
- :mod:`repro.scenarios.calibration` — shared calibrated constants
- ``python -m repro.scenarios.run <name>`` — the CLI
  (``--parallel N``, ``--profile``)
"""

from . import calibration, registry
from .parallel import run_spec_json, run_specs_parallel
from .runner import (
    PhaseStat,
    ScenarioResult,
    ScenarioRunner,
    collect_result,
    drive_workload,
)
from .spec import ClusterSpec, FaultSpec, ScenarioSpec, WorkloadSpec

__all__ = [
    "calibration",
    "registry",
    "ClusterSpec",
    "WorkloadSpec",
    "FaultSpec",
    "ScenarioSpec",
    "ScenarioRunner",
    "ScenarioResult",
    "PhaseStat",
    "drive_workload",
    "collect_result",
    "run_spec_json",
    "run_specs_parallel",
]

"""The benchmark's catalog: workloads, metrics, seeds, and tolerances.

Everything a later change cites by name lives here: the workloads
``run.py`` accepts, the end-to-end metrics it reports with ``--trace 0``
and the per-layer metrics it reports with ``--trace 1`` (each with its
unit, direction, source, and the end-to-end metric and workload it
should move).  ``BENCHMARK.json`` at the repository root lists the same
names; ``selftest.py`` keeps the two in step.

This module imports nothing from ``repro`` at module level, so
``run.py`` can read the catalog before it knows whether ``src/`` exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: How long one invocation measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 40

#: The run seeds ``reference.json`` holds simulated outcomes for: the
#: default, and one held out from tuning on which a later claim must
#: hold too.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

#: Workload seeds per run seed.  Simulation cost differs by up to ~25%
#: from one workload seed to the next (on ``fig4_1k``, seeds 1 and 7
#: run ~20% longer than seed 0 with fewer events), so a run's median
#: over one seed would vary that much between run seeds.  Untraced
#: samples cycle through the panel; traced runs use its first seed.
PANEL = 4


def panel(seed: int) -> list:
    """The workload seeds run seed ``seed`` samples."""
    return [seed * PANEL + j for j in range(PANEL)]

#: Relative tolerances of the reference check (default and held-out
#: seeds).  The float-order contract lets a change that reorders float
#: arithmetic or same-instant events shift simulated results: the
#: channel fast paths moved ``contended`` responses by 2-5% while
#: ``baseline`` stayed byte-identical.  Twice the largest shift seen
#: under that contract is allowed; anything beyond it is a behaviour
#: change, not float order, and fails the run.
MAKESPAN_TOLERANCE = 0.10
EVENTS_TOLERANCE = 0.10

#: Size of every workload in smoke mode (a few seconds per sample).
SMOKE_NODES = 40
SMOKE_SCALE = 0.05


@dataclass(frozen=True)
class Workload:
    """One registry scenario at a fixed size."""

    name: str
    scenario: str
    nodes: int
    scale: float
    #: ``None`` keeps the scenario's own ramp fraction.
    ramp_fraction: Optional[float]
    why: str
    #: Listed in ``BENCHMARK.json`` (so run on every change).  An
    #: unlisted workload stays runnable by name.
    listed: bool = True

    def smoke(self) -> "Workload":
        """The same scenario at smoke size."""
        return replace(self, nodes=SMOKE_NODES, scale=SMOKE_SCALE)

    def build_spec(self, seed: int):
        """The scenario spec for ``seed``, built as the scale sweep
        builds its points (spec seed = seed + nodes)."""
        from repro.scenarios import registry
        spec = registry.build(self.scenario, n_nodes=self.nodes,
                              scale=self.scale, seed=seed + self.nodes)
        if self.ramp_fraction is not None:
            spec.cluster.ramp_fraction = self.ramp_fraction
        return spec


WORKLOADS = {w.name: w for w in (
    Workload("fig4_1k", "baseline", 1000, 0.25, 0.98,
             "Fig. 4 mix at 1000 nodes: heartbeats and engine dispatch "
             "dominate, ~1% of jobtracker heartbeats launch work"),
    Workload("contended_250", "contended", 250, 0.25, None,
             "2x shuffle on half-speed disks: ~3x the joint disk+network "
             "filling passes of fig4_1k, mostly mid-size"),
    Workload("blackout_200", "blackout", 200, 0.25, None,
             "site blackout and heal with invariants on: the only fault "
             "injector, HDFS recovery and shared-heartbeat-round load"),
    Workload("frontier_10k", "baseline", 10000, 0.02, 0.5,
             "10k nodes: grid provisioning, few huge filling passes, "
             "memory; one ~18 s simulation, too long to sample steadily",
             listed=False),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: "host" (host clock, scaled to the reference host speed: see
    #: ``sample.HostSpeed``), "counter" (exact count from the registry or
    #: the engine profile), or "traced" (from the span run; its counts
    #: are exact, its times are scaled host times).
    source: str
    #: End-to-end metric: its definition.  Per-layer metric: the
    #: end-to-end metric and workload it should move.
    note: str = ""
    #: Regression bound (end-to-end metrics only): the share of the
    #: parent's median by which the metric may worsen.
    bound: Optional[float] = None


END_TO_END = (
    Metric("wall_s", "s", "lower", "host", bound=0.25,
           note="host time of ScenarioRunner.run() from the first "
                "dispatched event to the result"),
    Metric("setup_s", "s", "lower", "host", bound=0.25,
           note="host time from process start to the first dispatched "
                "event: imports, spec and schedule build, HOGSystem "
                "construction"),
    Metric("peak_rss_mb", "MB", "lower", "host", bound=0.05,
           note="ru_maxrss of the simulation's process"),
)

#: End-to-end metrics printed with the others but not in
#: ``BENCHMARK.json``, so not gated.
REPORTED = (
    # Simulated time differs by up to 1.7x between workload seeds (the
    # idle tail after the last job costs almost no host time), so this
    # ratio's spread between run seeds exceeds any allowed bound.
    Metric("sim_s_per_host_s", "sim-s/s", "higher", "host",
           note="simulated seconds advanced per host second of wall_s"),
    # 0 on every healthy run, so it cannot carry a relative bound; the
    # result line carries it as ``failed`` / ``attempted``.
    Metric("failed_share", "ratio", "lower", "host",
           note="(failed jobs + jobs of crashed, timed-out or wrong "
                "runs) / jobs submitted"),
)

PER_LAYER = (
    # sim: sim/engine.py, sim/events.py
    Metric("sim.events", "count", "lower", "counter",
           "wall_s on fig4_1k"),
    Metric("sim.events_per_s", "1/s", "higher", "host",
           "wall_s on fig4_1k"),
    Metric("sim.heap_high_water", "count", "lower", "counter",
           "peak_rss_mb on frontier_10k"),
    Metric("sim.mean_batch", "count", "higher", "counter",
           "wall_s on fig4_1k"),
    Metric("sim.pool_reuse_share", "ratio", "higher", "counter",
           "wall_s on fig4_1k; least on frontier_10k"),
    Metric("sim.self_s", "s", "lower", "traced",
           "wall_s on fig4_1k (upper bound: includes private timer "
           "callbacks of every layer)"),
    # channel: sim/channel.py, net/fabric.py, storage/disk.py
    Metric("channel.passes", "count", "lower", "counter",
           "wall_s on contended_250"),
    Metric("channel.large_passes", "count", "lower", "counter",
           "wall_s on frontier_10k"),
    Metric("channel.fast_path_share", "ratio", "higher", "counter",
           "wall_s on contended_250; least on fig4_1k"),
    Metric("channel.uniform_joins", "count", "higher", "counter",
           "wall_s on contended_250"),
    Metric("channel.peak_demands", "count", "lower", "counter",
           "peak_rss_mb on frontier_10k"),
    Metric("channel.calls", "count", "lower", "traced",
           "wall_s on contended_250"),
    Metric("channel.self_s", "s", "lower", "traced",
           "wall_s on contended_250 and frontier_10k; least on fig4_1k"),
    # mapreduce: jobtracker, tasktracker, scheduler, pending_index
    Metric("mapreduce.heartbeats", "count", "lower", "counter",
           "wall_s on fig4_1k; least on frontier_10k"),
    Metric("mapreduce.productive_heartbeat_share", "ratio", "higher",
           "traced", "wall_s on fig4_1k"),
    Metric("mapreduce.launches", "count", "lower", "traced",
           "wall_s on fig4_1k"),
    Metric("mapreduce.index_updates", "count", "lower", "counter",
           "wall_s on fig4_1k"),
    Metric("mapreduce.heartbeat_self_us", "us", "lower", "traced",
           "wall_s on fig4_1k"),
    Metric("mapreduce.self_s", "s", "lower", "traced",
           "wall_s on fig4_1k; least on frontier_10k"),
    # hdfs: namenode, datanode, placement, balancer
    Metric("hdfs.nn_heartbeats", "count", "lower", "traced",
           "wall_s on blackout_200"),
    Metric("hdfs.block_report_blocks", "count", "lower", "counter",
           "wall_s on frontier_10k"),
    Metric("hdfs.replications_started", "count", "lower", "counter",
           "wall_s on blackout_200"),
    Metric("hdfs.replication_success_share", "ratio", "higher", "counter",
           "wall_s on blackout_200"),
    Metric("hdfs.replicas_invalidated", "count", "lower", "counter",
           "wall_s on blackout_200"),
    Metric("hdfs.self_s", "s", "lower", "traced",
           "wall_s on blackout_200 and frontier_10k"),
    # grid: glidein, condor, preemption, staging
    Metric("grid.glideins_submitted", "count", "lower", "counter",
           "wall_s on frontier_10k"),
    Metric("grid.start_share", "ratio", "higher", "counter",
           "wall_s on frontier_10k"),
    Metric("grid.ramp_s", "s", "lower", "host",
           "wall_s on frontier_10k; ~0 elsewhere"),
    Metric("grid.self_s", "s", "lower", "traced",
           "wall_s on frontier_10k; ~0 elsewhere"),
    # faults: injector, invariants
    Metric("faults.invariant_checks", "count", "higher", "counter",
           "wall_s on blackout_200 only"),
    Metric("faults.invariant_violations", "count", "lower", "counter",
           "must stay 0 on every workload"),
    Metric("faults.self_s", "s", "lower", "traced",
           "wall_s on blackout_200 only; no change elsewhere"),
    # tracing itself
    Metric("trace.overhead_share", "ratio", "lower", "traced",
           "none: (traced wall - median untraced wall_s) / median "
           "untraced wall_s"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this catalog implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values() if w.listed],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }

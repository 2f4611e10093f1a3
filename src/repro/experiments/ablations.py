"""Ablations of HOG's design choices (DESIGN.md per-experiment index).

Each function isolates one mechanism the paper motivates:

- **replication factor** (§III-B1): 3 vs the chosen 10 ("Too many replicas
  would impose extra replication overhead ... Too few would cause frequent
  data failures");
- **failure detection** (§III-B): 30 s vs stock ~15 min timeouts;
- **site awareness** (§III-B1): on vs off;
- **zombie fix** (§IV-D1): disk self-check + in-tree daemons vs the
  double-fork bug;
- **speculative copies** (§VI future work): the configurable N-copies
  execution the paper proposes;
- **scheduler** (§III-B2): FIFO vs delay scheduling vs matchmaking;
- **HOD** (§V): per-job cluster reconstruction vs HOG's persistent
  platform.

The ablations are data.  Every arm is the registry's ``baseline``
scenario with the fault policy set and the cluster fields in
:data:`ARMS` changed (:func:`arm_spec`); :func:`run_arms` runs any
ablation's arms through the one
:class:`~repro.scenarios.runner.ScenarioRunner` loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..baselines.hod import HODConfig, HODRunner
from ..grid.glidein import WrapperConfig
from ..grid.site import SitePolicy
from ..hdfs.config import hog_config
from ..mapreduce.config import hog_mr_config
from ..metrics.report import WorkloadResult, format_table
from ..scenarios import ScenarioRunner, ScenarioSpec, calibration, registry
from ..workload.schedule import build_facebook_schedule

__all__ = [
    "ARMS",
    "arm_spec",
    "run_arms",
    "ablate_replication",
    "ablate_failure_detection",
    "ablate_site_awareness",
    "ablate_zombie_fix",
    "ablate_speculative_copies",
    "compare_schedulers",
    "compare_hod",
]

#: ``{arm key: {ClusterSpec field: value}}`` — one ablation's arms.
Arms = Dict[Any, Dict[str, Any]]

#: Each ablation's arm builder: arm values → :data:`Arms`.
ARMS: Dict[str, Callable[..., Arms]] = {
    "replication": lambda factors=(3, 10): {
        f: {"hdfs": hog_config(replication=f)} for f in factors},
    "detection": lambda timeouts=(30.0, 900.0): {
        t: {"hdfs": hog_config(heartbeat_timeout=t),
            "mr": hog_mr_config(tracker_expiry=t)} for t in timeouts},
    "site": lambda: {on: {"site_awareness": on} for on in (True, False)},
    # With the fix off the datanode disk self-check is off too, matching
    # the original Datanode.java.
    "zombie": lambda: {
        fixed: {"wrapper": WrapperConfig(zombie_fix=fixed),
                "hdfs": hog_config(
                    disk_check_interval=180.0 if fixed else None)}
        for fixed in (True, False)},
    "copies": lambda copies=(1, 2, 3): {
        n: {"mr": hog_mr_config(speculative_execution=(n > 1),
                                max_task_copies=max(1, n))}
        for n in copies},
    # Low replication makes locality a real contest (10x replication
    # makes every scheduler look perfect).
    "schedulers": lambda: {
        name: {"hdfs": hog_config(replication=2),
               "mr": hog_mr_config(scheduler=name)}
        for name in ("fifo", "delay", "matchmaking")},
}


def arm_spec(n_nodes: int, scale: float, seed: int, policy: SitePolicy,
             **changes: Any) -> ScenarioSpec:
    """The registry ``baseline`` under ``policy`` with the given
    :class:`~repro.scenarios.spec.ClusterSpec` fields changed."""
    spec = registry.build("baseline", n_nodes=n_nodes, scale=scale,
                          seed=seed)
    spec.faults.policy = policy
    spec.cluster = replace(spec.cluster, **changes)
    return spec


def run_arms(arms: Arms, n_nodes: int, scale: float, seed: int,
             policy: Optional[SitePolicy] = None) -> Dict[Any, WorkloadResult]:
    """Run every arm on the same workload (unstable churn by default)."""
    policy = policy or calibration.unstable_policy()
    out: Dict[Any, WorkloadResult] = {}
    for key, changes in arms.items():
        runner = ScenarioRunner(arm_spec(n_nodes, scale, seed, policy,
                                         **changes))
        runner.run()
        out[key] = runner.workload
    return out


def ablate_replication(factors=(3, 10), n_nodes: int = 55, seed: int = 5,
                       scale: float = 1.0,
                       policy: Optional[SitePolicy] = None) -> Dict[int, WorkloadResult]:
    """Workload response and data-availability counters vs replication
    factor, under churn."""
    return run_arms(ARMS["replication"](factors), n_nodes, scale, seed,
                    policy)


def ablate_failure_detection(timeouts=(30.0, 900.0), n_nodes: int = 55,
                             seed: int = 6, scale: float = 1.0,
                             policy: Optional[SitePolicy] = None) -> Dict[float, WorkloadResult]:
    """HOG's 30 s heartbeat timeout vs the stock ~15 min value, under churn.

    With slow detection, blocks on dead nodes are not re-replicated and
    lost tasks sit unnoticed until expiry."""
    return run_arms(ARMS["detection"](timeouts), n_nodes, scale, seed,
                    policy)


def ablate_site_awareness(n_nodes: int = 55, seed: int = 7, scale: float = 1.0,
                          policy: Optional[SitePolicy] = None) -> Dict[bool, WorkloadResult]:
    """Site awareness on vs off.

    Off = every node in one flat domain: placement cannot spread replicas
    across sites (burst preemptions can take out all copies) and the
    scheduler cannot prefer nearby data."""
    return run_arms(ARMS["site"](), n_nodes, scale, seed, policy)


def ablate_zombie_fix(n_nodes: int = 55, seed: int = 8, scale: float = 1.0,
                      policy: Optional[SitePolicy] = None) -> Dict[bool, WorkloadResult]:
    """The §IV-D1 fix on vs off.

    Off reproduces the first-iteration HOG: preempted nodes leave zombie
    daemons that keep heartbeating, eat task attempts, and pin phantom
    replicas."""
    return run_arms(ARMS["zombie"](), n_nodes, scale, seed, policy)


def ablate_speculative_copies(copies=(1, 2, 3), n_nodes: int = 55,
                              seed: int = 9, scale: float = 1.0,
                              policy: Optional[SitePolicy] = None) -> Dict[int, WorkloadResult]:
    """§VI future work: "we will make all tasks have configurable number
    of copies running in the HOG and take the fastest as the result."

    ``copies=1`` disables speculation; 2 is stock Hadoop; ≥3 is the
    proposed extension."""
    return run_arms(ARMS["copies"](copies), n_nodes, scale, seed, policy)


def compare_schedulers(n_nodes: int = 40, seed: int = 12, scale: float = 0.25,
                       policy: Optional[SitePolicy] = None) -> Dict[str, WorkloadResult]:
    """FIFO (HOG's scheduler, §III-B2) vs delay scheduling [3] vs
    matchmaking [20] on the same workload, under stable churn.

    The comparison of interest is map-launch *locality* (and, secondarily,
    response time): the alternatives trade a little waiting for a lot of
    locality when replication is low."""
    return run_arms(ARMS["schedulers"](), n_nodes, scale, seed,
                    policy or calibration.stable_policy())


@dataclass
class HodComparison:
    """HOG vs HOD on the same job mix (§V)."""

    hog_response: float
    hod_total_response: float
    hod_mean_overhead_fraction: float
    n_jobs: int

    def to_table(self) -> str:
        """Render the comparison as a report table."""
        rows = [
            ["HOG (persistent platform)", f"{self.hog_response:.0f}", "-"],
            ["HOD (per-job reconstruction)", f"{self.hod_total_response:.0f}",
             f"{100 * self.hod_mean_overhead_fraction:.0f}%"],
        ]
        return format_table(
            ["System", "workload response (s)", "mean overhead"],
            rows, title=f"HOG vs HOD on {self.n_jobs} jobs (§V)")


def compare_hod(n_nodes: int = 55, seed: int = 10, scale: float = 0.25,
                hod_config: Optional[HODConfig] = None) -> HodComparison:
    """Run the same (scaled) job mix on HOG and on HOD.

    HOD requests run back-to-back (its head node and cluster are rebuilt
    per request), so its workload response is the sum of per-request
    responses beyond the submission schedule."""
    hog_result = run_arms({"HOG": {}}, n_nodes, scale, seed,
                          calibration.stable_policy())["HOG"]

    rng = np.random.default_rng(seed + 77)
    schedule = build_facebook_schedule(rng, calibration.default_loadgen(),
                                       scale=scale)
    runner = HODRunner(hod_config or HODConfig(nodes_per_request=n_nodes,
                                               map_slots_per_node=1,
                                               reduce_slots_per_node=1),
                       seed=seed)
    results = runner.run_schedule([j.spec for j in schedule.jobs])
    # HOD requests execute serially per user; workload response is bounded
    # below by the later of (submission time, previous completions).
    t = 0.0
    for item, res in zip(schedule.jobs, results):
        t = max(t, item.submit_time) + res.response_time
    overhead = float(np.mean([r.overhead_fraction for r in results]))
    return HodComparison(
        hog_response=hog_result.response_time,
        hod_total_response=t,
        hod_mean_overhead_fraction=overhead,
        n_jobs=len(results))

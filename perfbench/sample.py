"""One benchmark sample: one simulation in this (fresh) process.

``run.py`` starts this script once per sample and reads the JSON record
it prints as its last line.  The process builds the workload's spec from
the seed, runs it with ``ScenarioRunner``, and reports host times (as
``time.monotonic`` stamps, comparable with the parent's spawn stamp),
the host's speed while it ran, peak RSS, the simulated outcome, the
payload hash, the exact per-layer counters, and, with ``--trace``, the
span-derived per-layer figures.

Usage: ``python3 perfbench/sample.py --workload NAME --seed N [--trace]
[--spans-out FILE] [--smoke]``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from heapq import heappop, heappush
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Host seconds between calibration ticks.
CAL_INTERVAL_S = 0.1
#: The calibration kernel's time on the reference host (a 2.1 GHz Xeon
#: vCPU with no other load): reported times are host times scaled to it.
CAL_REF_S = 0.002
#: How strongly the simulator's speed follows the kernel's.  Fitted on
#: a 2-vCPU 2.1 GHz Xeon host: within one workload seed, log wall time
#: fell by ~0.66 per unit of log kernel speed (fig4_1k, 44 samples).
#: Exponents of 0.5-0.66 cut the within-seed spread of wall time from
#: 6.9% to 3.7-3.9% on fig4_1k and from 5.3% to 3.7-3.8% on
#: contended_250; a full correction (1.0) left 4.8% and 4.3%.
CAL_EXPONENT = 0.6


class _Cell:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0


def calibration_kernel(n: int = 3000) -> int:
    """Fixed pure-Python work: dict, attribute and heap traffic of the
    kind the simulator does, but none of the code under test."""
    cells: dict = {}
    heap: list = []
    for i in range(n):
        c = cells.get(i & 63)
        if c is None:
            c = cells[i & 63] = _Cell()
        c.count += 1
        c.total += i * 0.5
        heappush(heap, (i * 7919) % 1009)
        if len(heap) > 32:
            heappop(heap)
    return len(cells)


class HostSpeed:
    """How fast the host runs Python while this sample runs.

    The host's speed drifts by tens of percent over minutes (its cores
    are shared), far more than a change to the program would move a
    time.  So every ``CAL_INTERVAL_S`` a SIGALRM handler runs
    :func:`calibration_kernel` in between the simulator's bytecodes and
    times it.  A host time, net of the kernel's own time, times
    :meth:`speed` estimates the time on a host of the reference speed.
    The handler touches no simulator state, so it changes no outcome.
    """

    def __init__(self) -> None:
        self.kernel_s = 0.0
        self.ticks = 0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self) -> float:
        """Reference over measured kernel time, to ``CAL_EXPONENT``."""
        return (CAL_REF_S * self.ticks / self.kernel_s) ** CAL_EXPONENT

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        self.kernel_s += time.perf_counter() - t0
        self.ticks += 1


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()
                          ).hexdigest()


def first_call_hook(cls, methods, stamps: list, host) -> None:
    """Record the host time of the first call to any of ``methods``, and
    the calibration time spent by then."""
    for name in methods:
        fn = cls.__dict__[name]

        def hooked(*args, _fn=fn, **kwargs):
            if not stamps:
                stamps.append(time.monotonic())
                stamps.append(host.kernel_s if host is not None else 0.0)
            return _fn(*args, **kwargs)
        setattr(cls, name, hooked)


def counters(result, snap: dict) -> dict:
    """Exact per-layer counters: equal across runs of one seed."""
    ch, ctl, hdfs, grid = (snap["channel"], snap["control"], snap["hdfs"],
                           snap["grid"])
    hist = ch["pass_size_hist"]
    passes = sum(hist)
    # Bucket k counts passes over [2^(k-1), 2^k) demands: k >= 11 is >= 1024.
    large = sum(hist[11:])
    fast = (ch["arrival_fast_paths"] + ch["departure_fast_paths"]
            + ch["completion_fast_paths"])
    started = hdfs.get("replications_started", 0)
    submitted = grid.get("glideins_submitted", 0)
    inv = result.invariants or {}
    return {
        "sim.events": result.events,
        "channel.passes": passes,
        "channel.large_passes": large,
        "channel.fast_path_share": fast / (fast + passes) if fast + passes
        else 0.0,
        "channel.uniform_joins": ch["uniform_joins"],
        "channel.peak_demands": ch["peak_demands"],
        "mapreduce.heartbeats": ctl["heartbeats"],
        "mapreduce.index_updates": ctl["sched_index_updates"],
        "hdfs.block_report_blocks": ctl["nn_block_report_blocks"],
        "hdfs.replications_started": started,
        "hdfs.replication_success_share":
            hdfs.get("replications_completed", 0) / started if started
            else 1.0,
        "hdfs.replicas_invalidated": hdfs.get("replicas_invalidated", 0),
        "grid.glideins_submitted": submitted,
        "grid.start_share": grid.get("glideins_started", 0) / submitted
        if submitted else 0.0,
        "faults.invariant_checks": inv.get("checks_run", 0),
        "faults.invariant_violations": inv.get("violations", 0),
    }


def engine_counters(engine: dict) -> dict:
    """Exact counters from the engine profile (traced samples only)."""
    kinds = engine["dispatch_by_kind"]
    fires = kinds.get("Timeout", 0) + kinds.get("CallbackTimer", 0)
    reuses = engine["timeout_pool_reuses"] + engine["timer_pool_reuses"]
    return {
        "sim.heap_high_water": engine["heap_high_water"],
        "sim.mean_batch": engine["dispatched"] / max(1, engine["batches"]),
        "sim.pool_reuse_share": reuses / fires if fires else 0.0,
    }


def traced_figures(rec):
    """Per-layer span figures: exact call counts, and host times."""
    heartbeats, productive, hb_self = rec.subtree_stats(
        "JobTracker.heartbeat", "TaskTracker.launch")
    calls_by_name = dict.fromkeys(rec.names, 0)
    for n in rec.name:
        calls_by_name[rec.names[n]] += 1
    counts = {
        "channel.calls": rec.calls()["channel"],
        "mapreduce.productive_heartbeat_share":
            productive / heartbeats if heartbeats else 0.0,
        "mapreduce.launches": calls_by_name.get("TaskTracker.launch", 0),
        "hdfs.nn_heartbeats": calls_by_name.get("Namenode.heartbeat", 0),
        "trace.spans": len(rec),
    }
    times = {f"{layer}.self_s": t for layer, t in rec.self_times().items()}
    times["mapreduce.heartbeat_self_us"] = \
        hb_self / heartbeats * 1e6 if heartbeats else 0.0
    times["trace.root_s"] = rec.root_time()
    return counts, times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    # No calibration ticks in a traced sample: their time would land in
    # whichever span is open.  run.py scales its times with the speed
    # measured in the run's untraced samples.
    host = None if args.trace else HostSpeed()
    if host is not None:
        host.start()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from repro.scenarios import ScenarioRunner
    from repro.sim.engine import Simulator
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    spec = workload.build_spec(args.seed)
    spec_hash = sha256_json(spec.to_dict())
    rec = None
    if args.trace:
        spec.obs.profile_engine = True
        rec = SpanRecorder()
        rec.install()
    first_event: list = []
    first_call_hook(Simulator, ("run", "run_until"), first_event, host)
    runner = ScenarioRunner(spec)
    # Schedule generation belongs to set-up: pin the schedule the runner
    # would otherwise generate inside run().
    spec.workload.schedule = runner.build_schedule()
    result = runner.run()
    t_end = time.monotonic()
    if host is not None:
        host.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    payload = result.payload()
    snap = runner.system.registry.snapshot()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "spec_seed": spec.seed,
        "spec_sha256": spec_hash,
        "traced": args.trace,
        "t_first_event": first_event[0],
        "t_end": t_end,
        # Calibration time inside the set-up and the run intervals, and
        # the host speed (None: take it from the untraced samples).
        "cal_setup_s": first_event[1],
        "cal_run_s": host.kernel_s - first_event[1] if host else 0.0,
        "speed": host.speed() if host is not None else None,
        "peak_rss_mb": rss_mb,
        "ramp_s": result.phases[0].wall_seconds,
        "sim_seconds": result.sim_seconds,
        "makespan_seconds": result.makespan_seconds,
        "events": result.events,
        "jobs_submitted": len(spec.workload.schedule.jobs),
        "jobs_completed": result.jobs_completed,
        "failed_jobs": result.failed_jobs,
        "faults": result.faults,
        "payload_sha256": sha256_json(payload),
        "registry_sha256": sha256_json(snap),
        "counters": counters(result, snap),
    }
    if rec is not None:
        counts, times = traced_figures(rec)
        out["counters"].update(engine_counters(result.engine))
        out["counters"].update(counts)
        out["span_times"] = times
        if args.spans_out:
            rec.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

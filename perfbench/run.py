#!/usr/bin/env python3
"""The repository's benchmark of record.

One invocation measures one workload for ``--seconds`` seconds.  Every
sample is one simulation in a fresh single-threaded process
(``sample.py``), run one at a time; a sample contributes one value to
each metric, and the run reports medians and quartiles over its samples.

``--trace 0`` reports the end-to-end metrics: host times measured with
no tracing and scaled to a reference host speed measured while each
sample ran (``sample.HostSpeed``).  ``--trace 1`` alternates untraced
and traced samples and reports the per-layer metrics: exact counters
from the metrics registry and the engine profile, and self time per
layer from spans recorded around each layer's entry points
(``spans.py``).

A run seed stands for a panel of workload seeds (``workloads.panel``).
Every sample is checked: all jobs complete and none fails, fault
recovery converges with no invariant violation, the simulated outcome
matches ``reference.json`` at the seeds recorded there, and every
sample of one workload seed (traced or not, each under its own random
hash seed) yields the same payload and the same counters.  A failed
check marks the run incorrect and counts the sample's jobs as failed.

The last line of standard output is the result::

    {"correct": true, "attempted": 96, "failed": 0,
     "metrics": {"wall_s": {"value": 6.91, "unit": "s"}, ...}}

Full records (provenance, every sample, every check) are written to
``perfbench/out/``, and the spans of the last traced sample next to them.
The workloads and metrics, with what each metric should move, are listed
in ``workloads.py``.

Usage::

    python3 perfbench/run.py --workload fig4_1k --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload blackout_200 --seed 0 --seconds 1 \\
        --trace 1 --smoke                    # tiny sizes, seconds
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads as catalog  # noqa: E402

#: Every invocation ends within this many seconds.
HARD_LIMIT_S = 170.0
#: First guess of a traced sample's length relative to an untraced one.
TRACE_SLOWDOWN_GUESS = 1.3


# -- provenance ------------------------------------------------------------
def _git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int) -> dict:
    """Where a record came from.  The checkout may not be a git work
    tree; the source hash identifies the code either way."""
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == ROOT
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": _git("rev-parse", "HEAD") if in_git else None,
        "dirty": bool(_git("status", "--porcelain")) if in_git else None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
    }


# -- sampling --------------------------------------------------------------
def run_sample(workload: str, seed: int, traced: bool, smoke: bool,
               timeout: float, spans_out):
    """One simulation in a fresh process; ``(record, error)``."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
    if smoke:
        cmd.append("--smoke")
    # A fresh random hash seed per sample: equal results across samples
    # then also check the program's hash-seed determinism.
    env = dict(os.environ, PYTHONHASHSEED="random")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    t_exit = time.monotonic()
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    # Host times net of the calibration ticks (see sample.HostSpeed).
    rec["raw_setup_s"] = rec["t_first_event"] - t_spawn - rec["cal_setup_s"]
    rec["raw_wall_s"] = rec["t_end"] - rec["t_first_event"] - rec["cal_run_s"]
    rec["sample_s"] = t_exit - t_spawn
    return rec, None


def calibrate(records: list) -> None:
    """Scale every host time to the reference host speed: untraced
    samples by the speed measured while they ran, traced samples (which
    run no calibration ticks) by the median of the untraced ones."""
    untraced = [r["speed"] for r in records if not r["traced"]]
    if not untraced:
        return
    run_speed = statistics.median(untraced)
    for rec in records:
        speed = rec["speed"] if rec["speed"] is not None else run_speed
        rec["setup_s"] = rec["raw_setup_s"] * speed
        rec["wall_s"] = rec["raw_wall_s"] * speed
        rec["ramp_s"] *= speed
        for key in rec.get("span_times", ()):
            rec["span_times"][key] *= speed


def collect(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool):
    """Samples until the next one would overrun ``seconds``.  Untraced
    runs cycle through the seed's panel; traced runs alternate untraced
    and traced samples (at least one of each) of the panel's first seed.
    Returns ``(records, errors)``."""
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{workload}.csv"
    kinds = [False, True] if trace else [False]
    seeds = catalog.panel(seed)[:1] if trace else catalog.panel(seed)
    last = {}
    records, errors = [], []
    t0 = time.monotonic()
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        elapsed = time.monotonic() - t0
        guess = last.get(traced)
        if guess is None and traced:
            guess = last[False] * TRACE_SLOWDOWN_GUESS
        must = i < len(kinds)
        if not must and (elapsed + guess > seconds
                         or elapsed + guess > HARD_LIMIT_S):
            break
        rec, err = run_sample(workload, seeds[i // len(kinds) % len(seeds)],
                              traced, smoke,
                              max(5.0, HARD_LIMIT_S - elapsed), spans_out)
        i += 1
        if err is not None:
            errors.append(f"sample {i} ({'traced' if traced else 'untraced'}"
                          f"): {err}")
            break
        last[traced] = rec["sample_s"]
        records.append(rec)
    return records, errors


# -- checks ----------------------------------------------------------------
def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_sample(rec: dict, ref) -> list:
    """Problems with one sample's simulated outcome."""
    bad = []
    if rec["jobs_completed"] + rec["failed_jobs"] != rec["jobs_submitted"]:
        bad.append(f"{rec['jobs_completed']} completed + "
                   f"{rec['failed_jobs']} failed != "
                   f"{rec['jobs_submitted']} submitted")
    if rec["failed_jobs"]:
        bad.append(f"{rec['failed_jobs']} jobs failed")
    if rec["counters"]["faults.invariant_violations"]:
        bad.append(f"{rec['counters']['faults.invariant_violations']} "
                   "invariant violations")
    if rec["faults"] is not None:
        for key in ("under_replicated_final", "lost_blocks_final",
                    "deferred_final", "invalidation_backlog_final"):
            value = rec["faults"]["convergence"][key]
            if value:
                bad.append(f"recovery did not converge: {key} = {value}")
    if ref is not None:
        for key, tol in (("makespan_seconds", catalog.MAKESPAN_TOLERANCE),
                         ("events", catalog.EVENTS_TOLERANCE)):
            shift = abs(rec[key] - ref[key]) / ref[key]
            if shift > tol:
                bad.append(f"{key} {rec[key]} is {shift:.1%} from the "
                           f"reference {ref[key]} (tolerance {tol:.0%})")
    return bad


def check_determinism(records: list) -> list:
    """Differences between samples of one workload seed: determinism
    failures, not noise."""
    bad = []
    by_seed: dict = {}
    for rec in records:
        by_seed.setdefault(rec["seed"], []).append(rec)
    for seed, group in by_seed.items():
        first = group[0]
        for rec in group[1:]:
            for key in ("spec_sha256", "payload_sha256", "registry_sha256"):
                if rec[key] != first[key]:
                    bad.append(f"seed {seed}: {key} differs between samples")
        for subset in (group, [r for r in group if r["traced"]]):
            if len(subset) < 2:
                continue
            common = set.intersection(*(set(r["counters"]) for r in subset))
            for key in sorted(common):
                values = {r["counters"][key] for r in subset}
                if len(values) > 1:
                    bad.append(f"seed {seed}: counter {key} differs between "
                               f"samples: {sorted(values)}")
    return sorted(set(bad))


# -- aggregation -----------------------------------------------------------
def summary(values: list) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(records: list) -> dict:
    samples = {
        "wall_s": [r["wall_s"] for r in records],
        "setup_s": [r["setup_s"] for r in records],
        "sim_s_per_host_s": [r["sim_seconds"] / r["wall_s"]
                             for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    return {name: summary(values) for name, values in samples.items()}


def per_layer(untraced: list, traced: list) -> dict:
    """Per-layer metrics: exact counters from the first traced sample,
    host times as medians over the samples that measured them."""
    wall = statistics.median(r["wall_s"] for r in untraced)
    values = dict(traced[0]["counters"])
    for key in traced[0]["span_times"]:
        values[key] = statistics.median(r["span_times"][key]
                                        for r in traced)
    values["sim.events_per_s"] = values["sim.events"] / wall
    values["grid.ramp_s"] = statistics.median(r["ramp_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_share"] = (traced_wall - wall) / wall
    return {m.name: values[m.name] for m in catalog.PER_LAYER}


def record_reference() -> None:
    """Write ``reference.json``: one untraced sample of every workload at
    each workload seed of the default and held-out panels."""
    ref: dict = {}
    for name in catalog.WORKLOADS:
        for seed in (catalog.panel(catalog.DEFAULT_SEED)
                     + catalog.panel(catalog.HELD_OUT_SEED)):
            rec, err = run_sample(name, seed, False, False, HARD_LIMIT_S,
                                  None)
            if err is not None:
                raise SystemExit(f"{name} seed {seed}: {err}")
            ref.setdefault(name, {})[str(seed)] = {
                k: rec[k] for k in ("makespan_seconds", "events",
                                    "payload_sha256")}
            print(f"{name} seed {seed}: {ref[name][str(seed)]}")
    (HERE / "reference.json").write_text(
        json.dumps(ref, indent=2, sort_keys=True) + "\n")


# -- main ------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark of record: one workload, one seed.")
    ap.add_argument("--workload", choices=sorted(catalog.WORKLOADS))
    ap.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                    help="measurement budget; a sample that would end "
                         "after it is not started (the first always is)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (seconds per sample); no reference")
    ap.add_argument("--record-reference", action="store_true",
                    help="re-record reference.json (only for a change "
                         "that is meant to alter simulated outcomes)")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "scenarios" / "runner.py").is_file():
        print(f"error: the simulator's sources are not at {SRC}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    trace = bool(args.trace)
    prov = provenance(args.workload, args.seed)
    records, errors = collect(args.workload, args.seed, args.seconds,
                              trace, args.smoke)
    calibrate(records)
    refs = {} if args.smoke else load_reference().get(args.workload, {})

    problems = list(errors)
    # A crashed or timed-out sample submitted a run's worth of jobs.
    jobs_per_run = max((r["jobs_submitted"] for r in records), default=1)
    attempted = failed = jobs_per_run * len(errors)
    same_as_ref = []
    for rec in records:
        ref = refs.get(str(rec["seed"]))
        bad = check_sample(rec, ref)
        if ref is not None:
            same_as_ref.append(rec["payload_sha256"] == ref["payload_sha256"])
        attempted += rec["jobs_submitted"]
        failed += rec["jobs_submitted"] if bad else rec["failed_jobs"]
        problems += [f"seed {rec['seed']}: {b}" for b in bad]
    if records:
        prov["spec_sha256"] = {r["seed"]: r["spec_sha256"] for r in records}
        det = check_determinism(records)
        problems += [f"determinism: {d}" for d in det]
        if det:
            failed = attempted

    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    metrics, spread = {}, {}
    if untraced and (traced or not trace):
        if trace:
            values = per_layer(untraced, traced)
            metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                       for m in catalog.PER_LAYER}
        else:
            spread = end_to_end(untraced)
            metrics = {m.name: {"value": spread[m.name]["median"],
                                "unit": m.unit} for m in catalog.END_TO_END}
    else:
        problems.append("no complete sample")
    correct = not problems

    # -- report ------------------------------------------------------------
    print(f"workload {args.workload}  seed {args.seed}  "
          f"samples {len(untraced)} untraced + {len(traced)} traced  "
          f"src {prov['src_sha256'][:12]}  commit {prov['commit']}"
          f"{' (dirty)' if prov['dirty'] else ''}  python {prov['python']}"
          f"  cpus {prov['cpu_count']}")
    for rec in {r["seed"]: r for r in records}.values():
        print(f"workload seed {rec['seed']}: spec sha256 "
              f"{rec['spec_sha256'][:16]}  payload sha256 "
              f"{rec['payload_sha256'][:16]}  makespan "
              f"{rec['makespan_seconds']:.3f} s  events {rec['events']}")
    if same_as_ref:
        print(f"payload byte-identical to the reference in "
              f"{sum(same_as_ref)} of {len(same_as_ref)} samples")
    if untraced and traced:
        same = {r["payload_sha256"] for r in records} == \
            {untraced[0]["payload_sha256"]}
        print(f"traced payloads byte-identical to untraced: "
              f"{'yes' if same else 'no'}")
    if untraced:
        print(f"host speed {statistics.median(r['speed'] for r in untraced):.3f}"
              f" of the reference; uncalibrated wall median "
              f"{statistics.median(r['raw_wall_s'] for r in untraced):.4f} s")
    for m in catalog.END_TO_END + catalog.REPORTED:
        if m.name in spread:
            s = spread[m.name]
            print(f"  {m.name:<18} median {s['median']:.4f} {m.unit:<8} "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
    print(f"  {'failed_share':<18} {failed / max(1, attempted):.4f} ratio"
          f"    ({failed} of {attempted} jobs)")
    if trace and metrics:
        for name, m in metrics.items():
            print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
        root = statistics.median(r["span_times"]["trace.root_s"]
                                 for r in traced)
        selfs = sum(metrics[f"{layer}.self_s"]["value"]
                    for layer in ("sim", "channel", "mapreduce", "hdfs",
                                  "grid", "faults"))
        tw = statistics.median(r["wall_s"] for r in traced)
        print(f"  layer self times sum to {selfs:.3f} s = "
              f"{selfs / tw:.1%} of the traced wall ({tw:.3f} s; root "
              f"spans {root:.3f} s).  sim.self_s includes the private "
              "timer callbacks of every layer: an upper bound.")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    record = {"provenance": prov, "trace": trace, "smoke": args.smoke,
              "seconds": args.seconds, "correct": correct,
              "problems": problems, "attempted": attempted,
              "failed": failed, "spread": spread, "metrics": metrics,
              "samples": records}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{int(trace)}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

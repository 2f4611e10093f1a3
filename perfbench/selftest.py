"""Self-test of the benchmark harness.

Run with ``python3 perfbench/selftest.py`` (or point pytest at this
file).  It checks the self-time arithmetic on synthetic span trees, that
``BENCHMARK.json`` matches the catalog and every name is well formed,
that each listed workload passes in smoke mode with and without tracing,
and that the benchmark refuses to run without the simulator's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as catalog  # noqa: E402
from spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _tree() -> SpanRecorder:
    """sim root 0-10 holding channel 1-5 (with a nested channel call
    2-3 and a mapreduce call 3.5-4.5 that calls back into channel
    4-4.2) and hdfs 6-8."""
    rec = SpanRecorder()
    root = rec.record("sim", "Simulator.run", 0.0, 10.0)
    a = rec.record("channel", "FairQueue.start", 1.0, 5.0, root)
    rec.record("channel", "FairQueue.remove", 2.0, 3.0, a)
    m = rec.record("mapreduce", "JobTracker.heartbeat", 3.5, 4.5, a)
    rec.record("channel", "Disk.read", 4.0, 4.2, m)
    rec.record("hdfs", "Namenode.heartbeat", 6.0, 8.0, root)
    return rec


def _close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def test_self_time_arithmetic():
    selfs = _tree().self_times()
    # channel: 4 - 1 (nested channel) - 1 (mapreduce) + 1 (the nested
    # call, counted once) + 0.2 (called back from mapreduce).
    expected = {"sim": 4.0, "channel": 3.2, "mapreduce": 0.8, "hdfs": 2.0,
                "grid": 0.0, "faults": 0.0}
    for layer, t in expected.items():
        assert _close(selfs[layer], t), (layer, selfs[layer], t)
    assert _close(sum(selfs.values()), _tree().root_time())
    assert _tree().calls() == {"sim": 1, "channel": 3, "mapreduce": 1,
                               "hdfs": 1, "grid": 0, "faults": 0}


def test_heartbeat_subtree():
    rec = SpanRecorder()
    root = rec.record("sim", "Simulator.run", 0.0, 10.0)
    h1 = rec.record("mapreduce", "JobTracker.heartbeat", 1.0, 2.0, root)
    launch = rec.record("mapreduce", "TaskTracker.launch", 1.2, 1.6, h1)
    rec.record("channel", "Disk.read", 1.3, 1.5, launch)
    rec.record("mapreduce", "JobTracker.heartbeat", 3.0, 3.5, root)
    heartbeats, productive, self_time = rec.subtree_stats(
        "JobTracker.heartbeat", "TaskTracker.launch")
    assert (heartbeats, productive) == (2, 1)
    # 1.0 + 0.5 of heartbeat time minus the 0.2 spent in channel.
    assert _close(self_time, 1.3), self_time


def test_wrappers_nest_with_a_fake_clock():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    traced_inner = rec.wrap("channel", "inner", inner)
    same_layer = rec.wrap("channel", "same", lambda x: traced_inner(x))
    other_layer = rec.wrap("mapreduce", "other", lambda x: same_layer(x))
    root = rec.wrap("sim", "root", lambda x: other_layer(x) * 2)
    assert root(1) == 4
    assert rec.parent == [-1, 0, 1, 2]
    # Clock reads: root 0-7, other 1-6, same 2-5, inner 3-4.
    assert rec.self_times() == {"sim": 2.0, "channel": 3.0,
                                "mapreduce": 2.0, "hdfs": 0.0,
                                "grid": 0.0, "faults": 0.0}


def test_generator_functions_are_refused():
    def gen():
        yield 1
    try:
        SpanRecorder().wrap("sim", "gen", gen)
    except TypeError:
        return
    raise AssertionError("a generator function was wrapped")


def test_names_and_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench == catalog.benchmark_json()
    metrics = [m.name for m in
               catalog.END_TO_END + catalog.REPORTED + catalog.PER_LAYER]
    assert len(set(metrics)) == len(metrics)
    for name in metrics + list(catalog.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for w in bench["workloads"]:
        assert "\n" not in w["why"] and len(w["why"]) <= 200, w
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=str(cwd),
                          timeout=170)


def test_smoke_every_listed_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run(ROOT, "--workload", w["name"], "--seed", "3",
                        "--seconds", "1", "--trace", trace, "--smoke")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"], proc.stdout
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == \
                {m["name"] for m in bench[section]}, result["metrics"]


def test_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "--workload", "fig4_1k", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the scheduler family: FIFO (HOG's choice), delay scheduling
[3], and matchmaking [20]."""

import pytest

from repro.mapreduce import (
    DelayScheduler,
    FifoScheduler,
    JobStatus,
    MatchmakingScheduler,
    MRConfig,
)

from helpers import MRHarness


#: Scheduler class → its ``MRConfig.scheduler`` name.
_NAMES = {FifoScheduler: "fifo", DelayScheduler: "delay",
          MatchmakingScheduler: "matchmaking"}


def harness_with(scheduler_cls, n_nodes=4, n_sites=2, **mr_kwargs):
    cfg = MRConfig(scheduler=_NAMES[scheduler_cls], **mr_kwargs)
    h = MRHarness(n_nodes=n_nodes, n_sites=n_sites, mr_config=cfg)
    assert type(h.jobtracker.scheduler) is scheduler_cls
    return h


class TestDelayScheduler:
    def test_job_completes(self):
        h = harness_with(DelayScheduler)
        job = h.submit("dj", num_maps=6, num_reduces=2)
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED

    def test_multiple_jobs_complete(self):
        h = harness_with(DelayScheduler)
        jobs = [h.submit(f"dj{i}", num_maps=4, num_reduces=1)
                for i in range(4)]
        h.run_to_completion(jobs)
        assert all(j.status == JobStatus.SUCCEEDED for j in jobs)

    def test_waits_for_locality(self):
        # One job whose input lives only on node B; tracker A heartbeats
        # first.  Delay scheduling should hold the task for B.
        h = harness_with(DelayScheduler, n_nodes=2, n_sites=2)
        sched = h.jobtracker.scheduler
        sched.node_local_delay = 1e9  # never settle for non-local
        hosts = h.hosts()
        target = hosts[1]
        fi = h.namenode.create_file("/pinned", h.hdfs_config.block_size)
        h.datanodes[target].add_block_instant(fi.blocks[0])
        from repro.mapreduce import JobSpec
        job = h.jobtracker.submit_job(JobSpec("pin", 1, 0, "/pinned"))
        h.run_to_completion([job])
        assert job.maps[0].completed_on == target
        assert job.locality_counters["data_local"] == 1

    def test_eventually_settles_for_remote(self):
        h = harness_with(DelayScheduler, n_nodes=2, n_sites=2)
        sched = h.jobtracker.scheduler
        sched.node_local_delay = 5.0
        sched.site_local_delay = 5.0
        # Input exists only as namenode metadata on a node we then kill —
        # no tracker will ever be local.
        hosts = h.hosts()
        fi = h.namenode.create_file("/gone", h.hdfs_config.block_size)
        h.datanodes[hosts[0]].add_block_instant(fi.blocks[0])
        from repro.mapreduce import JobSpec
        job = h.jobtracker.submit_job(JobSpec("settle", 1, 0, "/gone"))
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED


class TestMatchmakingScheduler:
    def test_job_completes(self):
        h = harness_with(MatchmakingScheduler)
        job = h.submit("mm", num_maps=6, num_reduces=2)
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED

    def test_multiple_jobs_complete(self):
        h = harness_with(MatchmakingScheduler)
        jobs = [h.submit(f"mm{i}", num_maps=4, num_reduces=1)
                for i in range(4)]
        h.run_to_completion(jobs)
        assert all(j.status == JobStatus.SUCCEEDED for j in jobs)

    def test_node_marked_then_served(self):
        # With no local task anywhere, a node is refused once (marker)
        # and served a remote task on the next heartbeat.
        h = harness_with(MatchmakingScheduler, n_nodes=2, n_sites=2)
        hosts = h.hosts()
        fi = h.namenode.create_file("/only-meta", h.hdfs_config.block_size)
        h.datanodes[hosts[0]].add_block_instant(fi.blocks[0])
        from repro.mapreduce import JobSpec
        job = h.jobtracker.submit_job(JobSpec("mark", 1, 0, "/only-meta"))
        h.run_to_completion([job])
        assert job.status == JobStatus.SUCCEEDED

    def test_all_jobs_get_local_chance(self):
        # Matchmaking scans every job for locality, not just the head:
        # job2's local task on an otherwise busy node must launch locally.
        h = harness_with(MatchmakingScheduler, n_nodes=3, n_sites=3)
        j1 = h.submit("head", num_maps=3, num_reduces=0,
                      map_cpu_per_block=30.0)
        j2 = h.submit("tail", num_maps=3, num_reduces=0,
                      map_cpu_per_block=30.0)
        h.run_to_completion([j1, j2])
        total2 = sum(j2.locality_counters.values())
        assert j2.locality_counters["data_local"] >= total2 * 0.5


class TestLocalityComparison:
    @pytest.mark.slow
    def test_delay_scheduling_improves_locality_over_fifo(self):
        # Few replicas + several jobs: FIFO launches non-local maps
        # eagerly; delay scheduling waits and gets better locality.
        from repro.hdfs import HdfsConfig

        def run(scheduler_cls):
            h = MRHarness(n_nodes=6, n_sites=3,
                          hdfs_config=HdfsConfig(replication=1),
                          mr_config=MRConfig(scheduler=_NAMES[scheduler_cls]))
            jobs = [h.submit(f"j{i}", num_maps=6, num_reduces=1,
                             map_cpu_per_block=8.0) for i in range(4)]
            h.run_to_completion(jobs)
            local = sum(j.locality_counters["data_local"] for j in jobs)
            total = sum(sum(j.locality_counters.values()) for j in jobs)
            return local / total

        fifo = run(FifoScheduler)
        delay = run(DelayScheduler)
        assert delay >= fifo


class TestMatchmakingMarkerReset:
    """Regression: locality markers must track *submissions*, not
    ``len(jobs)``.

    The old reset keyed off the active-job count, so a job finishing
    cleared every marker (count changed — nodes lost their earned right
    to a non-local task), while a submit landing at the same instant as
    a finish cleared none (count unchanged — the fresh job never got its
    locality grace round).  Both tests fail against that code.
    """

    def _harness(self):
        h = harness_with(MatchmakingScheduler, n_nodes=2, n_sites=2)
        return h, h.jobtracker.scheduler

    def test_job_finish_keeps_markers(self):
        h, sched = self._harness()
        j1 = h.submit("m1", num_maps=1, num_reduces=0)
        h.submit("m2", num_maps=1, num_reduces=0)
        sched._maybe_reset_markers()  # sync to the two submissions
        sched._marker["node000.site0.edu"] = True
        h.jobtracker._fail_job(j1, "test: job departs, no new submission")
        sched._maybe_reset_markers()  # len(jobs) changed; submit seq did not
        assert sched._marker == {"node000.site0.edu": True}

    def test_submit_coinciding_with_finish_clears_markers(self):
        h, sched = self._harness()
        j1 = h.submit("m1", num_maps=1, num_reduces=0)
        sched._maybe_reset_markers()
        sched._marker["node000.site0.edu"] = True
        h.jobtracker._fail_job(j1, "test: departs as another job arrives")
        h.submit("m2", num_maps=1, num_reduces=0)  # len(jobs) is back to 1
        sched._maybe_reset_markers()
        assert sched._marker == {}

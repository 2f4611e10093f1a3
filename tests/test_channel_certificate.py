"""The max-min certificate holds after every filling pass of every
registry scenario.

The channel's fast paths and timer rules (arrival/departure/completion
shortcuts, uniform-group pins, re-aimed and dropped bottleneck timers,
arrivals that dirty only binding constraints) are each proven exact in
unit harnesses.  This test checks the composition on real runs: it
wraps ``FairQueue._rebalance`` so that the bottleneck-property
certificate (``faults.invariants.max_min_certificate``) is evaluated on
the live allocation after each pass, and asserts it never fails.
"""

import pytest

from repro.faults.invariants import max_min_certificate
from repro.scenarios import ScenarioRunner, registry
from repro.sim import Simulator
from repro.sim.channel import FairQueue

SMOKE = dict(n_nodes=24, scale=0.04)


@pytest.fixture
def certified_passes(monkeypatch):
    """Evaluate the certificate after every pass; returns the tally."""
    tally = {"checked": 0, "violations": []}
    original = FairQueue._rebalance

    def checked(queue):
        original(queue)
        if queue._dirty or queue._pass_scheduled:
            return
        tally["checked"] += 1
        for detail in max_min_certificate(queue):
            tally["violations"].append((queue.sim.now, detail))

    monkeypatch.setattr(FairQueue, "_rebalance", checked)
    return tally


@pytest.mark.parametrize("name", registry.names())
def test_certificate_holds_after_every_pass(name, certified_passes):
    runner = ScenarioRunner(registry.build(name, seed=42, **SMOKE))
    result = runner.run()
    assert result.jobs_completed > 0
    assert certified_passes["checked"] > 0
    assert certified_passes["violations"] == [], \
        certified_passes["violations"][:5]


def test_certificate_catches_corrupted_allocations():
    """Hand-corrupted allocations fail the certificate: it is not
    vacuous."""
    sim = Simulator()
    q = FairQueue(sim)
    c1 = q.constraint("c1", 100.0)
    c2 = q.constraint("c2", 30.0)
    a = q.submit(1e6, [c1, c2])
    b = q.submit(1e6, [c1])
    sim.run(until=0.0)
    assert max_min_certificate(q) == []
    b.rate = 80.0     # 30 + 80 > 100
    assert any("carries" in v for v in max_min_certificate(q))
    b.rate = 60.0     # feasible, but nobody saturates c1: b is not maximal
    assert any("no bottleneck" in v for v in max_min_certificate(q))
    b.rate = 70.0
    c1._bound_sum += 1.0
    assert any("bound sum" in v for v in max_min_certificate(q))
    assert a.rate == pytest.approx(30.0)

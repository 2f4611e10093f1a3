"""Tests for the sim coordination helper (gather_safe)."""

from repro.sim import Simulator
from repro.sim.util import Outcome, gather_safe


class TestGatherSafe:
    def test_all_success(self):
        sim = Simulator()
        events = [sim.timeout(float(i), value=i) for i in (3, 1, 2)]
        p = gather_safe(sim, events)
        sim.run(until=p)
        outcomes = p.value
        assert [o.ok for o in outcomes] == [True, True, True]
        assert [o.value for o in outcomes] == [3, 1, 2]  # input order
        assert sim.now == 3.0

    def test_mixed_failure_does_not_propagate(self):
        sim = Simulator()
        ok = sim.timeout(1.0, value="fine")
        bad = sim.event()
        bad.fail(RuntimeError("boom"))
        p = gather_safe(sim, [ok, bad])
        sim.run(until=p)
        outcomes = p.value
        assert outcomes[0].ok and outcomes[0].value == "fine"
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, RuntimeError)

    def test_empty_list(self):
        sim = Simulator()
        p = gather_safe(sim, [])
        sim.run(until=p)
        assert p.value == []

    def test_waits_for_slowest(self):
        sim = Simulator()
        events = [sim.timeout(10.0), sim.timeout(1.0)]
        p = gather_safe(sim, events)
        sim.run(until=p)
        assert sim.now == 10.0

    def test_outcome_repr(self):
        assert "ok=True" in repr(Outcome(True, value=1))
        assert "ok=False" in repr(Outcome(False, error=ValueError("x")))

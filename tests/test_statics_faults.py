"""Certificates at reconfiguration time: controller, runtime log, preflight."""

from __future__ import annotations

import pytest

from repro.core.downup import build_down_up_routing
from repro.faults import (
    FaultEvent,
    FaultRuntime,
    FaultSchedule,
    ReconfigurationController,
    RetryPolicy,
)
from repro.simulator import SimulationConfig, WormholeSimulator
from repro.statics import induced_fault_states, preflight_schedule
from repro.topology.generator import random_irregular_topology


@pytest.fixture(scope="module")
def topo16():
    return random_irregular_topology(n=16, ports=4, rng=1)


class TestControllerCertifies:
    def test_rebuild_stamps_certificate_meta(self, topo16):
        ctrl = ReconfigurationController(
            lambda sub: build_down_up_routing(sub, rng=7)
        )
        remapped = ctrl.rebuild(topo16, [topo16.links[0]], [], tag="t1")
        assert remapped.meta["certificate_digest"].startswith("sha256:")
        assert remapped.meta["certificate_checked"] is True

    def test_rebuild_digest_is_pinned(self):
        """A dead link plus a dead switch on a fixed 32-switch network;
        the digest was recorded before the rebuild path was optimised.
        The second rebuild is served by the controller's memo and must
        carry the same digest."""
        topo = random_irregular_topology(32, 4, rng=3)
        ctrl = ReconfigurationController(
            lambda sub: build_down_up_routing(sub, rng=7)
        )
        for _ in range(2):
            remapped = ctrl.rebuild(topo, [topo.links[0]], [5], tag="pin")
            assert remapped.meta["certificate_digest"] == (
                "sha256:f921fdd728e9f836f287d36e345bbcbd"
                "827b8e531dd484edc31c49b1d7289b93"
            )
            assert remapped.meta["certificate_checked"] is True

    def test_distinct_fault_states_get_distinct_digests(self, topo16):
        ctrl = ReconfigurationController(
            lambda sub: build_down_up_routing(sub, rng=7)
        )
        a = ctrl.rebuild(topo16, [topo16.links[0]], [], tag="a")
        b = ctrl.rebuild(topo16, [topo16.links[1]], [], tag="b")
        assert (
            a.meta["certificate_digest"] != b.meta["certificate_digest"]
        )


class TestRuntimeLogsCertificates:
    def test_fault_run_records_checked_digests(self, topo16):
        routing = build_down_up_routing(topo16, rng=7)
        cfg = SimulationConfig(
            packet_length=16,
            injection_rate=0.08,
            warmup_clocks=500,
            measure_clocks=3_000,
            seed=5,
            max_stall_clocks=5_000,
        )
        sched = FaultSchedule.random(
            topo16, permanent_links=2, window=(800, 2_200), rng=42
        )
        ctrl = ReconfigurationController(
            lambda sub: build_down_up_routing(sub, rng=7), drain_clocks=64
        )
        sim = WormholeSimulator(routing, cfg)
        sim.attach_faults(FaultRuntime(sched, ctrl, retry=RetryPolicy()))
        stats = sim.run()
        assert len(stats.reconfigurations) == 2
        for rec in stats.reconfigurations:
            assert rec.verified
            assert rec.certificate_checked
            assert rec.certificate_digest.startswith("sha256:")
        # two different degraded states => two different certified tables
        digests = {r.certificate_digest for r in stats.reconfigurations}
        assert len(digests) == 2


class TestInducedStates:
    def test_cumulative_enumeration(self, ring6):
        sched = FaultSchedule(
            ring6,
            [
                FaultEvent(cycle=10, kind="link_down", link=(0, 1)),
                FaultEvent(cycle=20, kind="link_up", link=(0, 1)),
                FaultEvent(cycle=30, kind="link_down", link=(3, 4)),
            ],
        )
        states = induced_fault_states(sched)
        assert [s.dead_links for s in states] == [
            ((0, 1),),
            (),
            ((3, 4),),
        ]
        assert [s.clock for s in states] == [10, 20, 30]

    def test_flap_back_to_seen_state_deduplicated(self, ring6):
        sched = FaultSchedule(
            ring6,
            [
                FaultEvent(cycle=10, kind="link_down", link=(0, 1)),
                FaultEvent(cycle=20, kind="link_up", link=(0, 1)),
                FaultEvent(cycle=30, kind="link_down", link=(0, 1)),
            ],
        )
        states = induced_fault_states(sched)
        # clock-30 state repeats the clock-10 fault set: reported once
        assert len(states) == 2
        assert states[0].dead_links == ((0, 1),)
        assert states[1].dead_links == ()

    def test_switch_failures_tracked(self, ring6):
        sched = FaultSchedule(
            ring6, [FaultEvent(cycle=5, kind="switch_down", switch=2)]
        )
        (state,) = induced_fault_states(sched)
        assert state.dead_switches == (2,)
        assert "dead switches [2]" in state.describe()


class TestPreflight:
    def test_all_induced_tables_certify(self, topo16):
        sched = FaultSchedule.random(
            topo16, permanent_links=2, window=(800, 2_200), rng=42
        )
        entries = preflight_schedule(
            sched, lambda sub: build_down_up_routing(sub, rng=7)
        )
        assert len(entries) == len(induced_fault_states(sched))
        assert all(e.routing_name == "down-up" for e in entries)
        digests = {e.certificate_digest for e in entries}
        assert len(digests) == len(entries)

    def test_accepts_a_controller_as_builder(self, topo16):
        sched = FaultSchedule.random(
            topo16, permanent_links=1, window=(100, 200), rng=3
        )
        ctrl = ReconfigurationController(
            lambda sub: build_down_up_routing(sub, rng=7)
        )
        entries = preflight_schedule(sched, ctrl)
        assert len(entries) == 1
        assert entries[0].certificate_digest.startswith("sha256:")

    def test_progress_callback_sees_each_state(self, topo16):
        sched = FaultSchedule.random(
            topo16, permanent_links=2, window=(800, 2_200), rng=42
        )
        lines = []
        preflight_schedule(
            sched,
            lambda sub: build_down_up_routing(sub, rng=7),
            progress=lines.append,
        )
        assert len(lines) == len(induced_fault_states(sched))
        assert all("ok" in line for line in lines)

    def test_preflight_digest_matches_live_rebuild(self, topo16):
        """The digest preflight predicts == the digest the live run logs,
        and the live rebuild reuses preflight's certification."""
        sched = FaultSchedule.random(
            topo16, permanent_links=1, window=(100, 200), rng=3
        )
        builder = counting(lambda sub: build_down_up_routing(sub, rng=7))
        (entry,) = preflight_schedule(sched, builder)
        ctrl = ReconfigurationController(builder)
        remapped = ctrl.rebuild(
            sched.topology, entry.state.dead_links, entry.state.dead_switches
        )
        assert remapped.meta["certificate_digest"] == entry.certificate_digest
        assert builder.calls == 1


def counting(builder):
    """Wrap *builder*, counting invocations in ``wrapper.calls``."""

    def wrapper(sub):
        wrapper.calls += 1
        return builder(sub)

    wrapper.calls = 0
    return wrapper


class TestPreflightDedupe:
    def collapsing_schedule(self, ring6):
        # distinct fault states with the same survivor: {l12, s2} and
        # {s2} remove exactly the same resources, because killing switch
        # 2 already implies link (1, 2).  The validator (correctly)
        # refuses to flap a dead switch's link, so the sequence is
        # constructed unchecked — the dedupe must still collapse it.
        return FaultSchedule(
            ring6,
            [
                FaultEvent(cycle=10, kind="link_down", link=(1, 2)),
                FaultEvent(cycle=20, kind="switch_down", switch=2),
                FaultEvent(cycle=30, kind="link_up", link=(1, 2)),
            ],
            check=False,
        )

    def test_identical_survivors_certify_once(self, ring6):
        sched = self.collapsing_schedule(ring6)
        build = counting(lambda sub: build_down_up_routing(sub, rng=7))
        entries = preflight_schedule(sched, build)
        # three induced states, but the last two share one survivor
        assert len(entries) == 3
        assert build.calls == 2
        assert entries[1].certificate_digest == entries[2].certificate_digest
        assert entries[0].certificate_digest != entries[1].certificate_digest

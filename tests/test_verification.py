"""Direct tests of the Theorem-1 verification module.

The builders exercise the happy path constantly; these tests check the
verifier actually *fails* on broken inputs.
"""

import numpy as np
import pytest

from repro.routing.base import TurnModel
from repro.routing.table import build_routing_function
from repro.routing.verification import (
    VerificationError,
    assert_connected,
    assert_deadlock_free,
    assert_progress,
    verify_routing,
)
from repro.topology import zoo
from tests.helpers import routing_from_rows


def unrestricted_tm(topo):
    return TurnModel(topo, [0] * topo.num_channels, np.ones((1, 1), dtype=bool))


class TestDeadlockFree:
    def test_cyclic_model_rejected(self, ring6):
        with pytest.raises(VerificationError, match="cycle"):
            assert_deadlock_free(unrestricted_tm(ring6), "test")

    def test_error_names_channels_and_classes(self, ring6):
        tm = unrestricted_tm(ring6)
        with pytest.raises(VerificationError, match="class0"):
            assert_deadlock_free(tm, "test")

    def test_tree_model_accepted(self):
        assert_deadlock_free(unrestricted_tm(zoo.binary_tree(3)), "test")


class TestConnected:
    def test_unroutable_pairs_reported(self, line3):
        tm = unrestricted_tm(line3)
        tm.set_turn(1, 0, 0, False)  # forbid all transit at switch 1
        routing = build_routing_function(tm, "broken")
        with pytest.raises(VerificationError, match="unroutable"):
            assert_connected(routing)

    def test_connected_accepted(self, line3):
        assert_connected(build_routing_function(unrestricted_tm(line3), "ok"))


class TestProgress:
    def test_detects_nonminimal_candidate(self, line3):
        ok = build_routing_function(unrestricted_tm(line3), "ok")
        # corrupt: make a next-hop not decrease the distance
        c01, c12 = line3.channel_id(0, 1), line3.channel_id(1, 2)
        bad_next = list(list(row) for row in ok.next_hops)
        bad_next[2] = list(bad_next[2])
        bad_next[2][c01] = (c12, c12)  # duplicate is fine; now corrupt dist
        bad_dist = ok.dist.copy()
        bad_dist.setflags(write=True)
        bad_dist[2][c12] = 5  # no longer dist[c01] - 1
        broken = routing_from_rows(
            ok.topology, "broken", ok.turn_model, bad_dist, bad_next, ok.first_hops
        )
        with pytest.raises(VerificationError, match="decrease"):
            assert_progress(broken)

    def test_detects_missing_candidates(self, line3):
        ok = build_routing_function(unrestricted_tm(line3), "ok")
        c01 = line3.channel_id(0, 1)
        bad_next = [list(row) for row in ok.next_hops]
        bad_next[2][c01] = ()  # strand packets arriving at 1 heading to 2
        broken = routing_from_rows(
            ok.topology, "broken", ok.turn_model, ok.dist, bad_next, ok.first_hops
        )
        with pytest.raises(VerificationError, match="no admissible next hop"):
            assert_progress(broken)


class TestStructuredPayloads:
    """VerificationError carries machine-readable verdicts, not just text."""

    def test_cycle_payload_is_a_closed_channel_walk(self, ring6):
        tm = unrestricted_tm(ring6)
        with pytest.raises(VerificationError) as exc:
            assert_deadlock_free(tm, "ring")
        err = exc.value
        assert err.kind == "cycle"
        assert err.routing_name == "ring"
        cycle = err.cycle
        assert len(cycle) >= 2
        # consecutive channels (wrapping) meet head-to-tail: a real walk
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert ring6.channel(a).sink == ring6.channel(b).start

    def test_unroutable_payload_is_complete(self, line3):
        tm = unrestricted_tm(line3)
        tm.set_turn(1, 0, 0, False)  # forbid all transit at switch 1
        routing = build_routing_function(tm, "broken")
        with pytest.raises(VerificationError) as exc:
            assert_connected(routing)
        err = exc.value
        assert err.kind == "unroutable"
        # the message truncates; the attribute carries both dead pairs
        assert sorted(err.unroutable) == [(0, 2), (2, 0)]

    def test_stranded_payload_identifies_the_state(self, line3):
        ok = build_routing_function(unrestricted_tm(line3), "ok")
        c01 = line3.channel_id(0, 1)
        bad_next = [list(row) for row in ok.next_hops]
        bad_next[2][c01] = ()
        broken = routing_from_rows(
            ok.topology, "broken", ok.turn_model, ok.dist, bad_next, ok.first_hops
        )
        with pytest.raises(VerificationError) as exc:
            assert_progress(broken)
        err = exc.value
        assert err.kind == "stranded"
        assert err.stranded == {"dest": 2, "channel": c01, "remaining": 1}

    def test_no_progress_payload_names_the_candidate(self, line3):
        ok = build_routing_function(unrestricted_tm(line3), "ok")
        c01, c12 = line3.channel_id(0, 1), line3.channel_id(1, 2)
        bad_dist = ok.dist.copy()
        bad_dist.setflags(write=True)
        bad_dist[2][c12] = 5
        broken = routing_from_rows(
            ok.topology, "broken", ok.turn_model, bad_dist, ok.next_hops, ok.first_hops
        )
        with pytest.raises(VerificationError) as exc:
            assert_progress(broken)
        err = exc.value
        assert err.kind == "no-progress"
        assert err.stranded["candidate"] == c12
        assert err.stranded["candidate_remaining"] == 5

    def test_payload_dict_is_jsonable(self, line3):
        import json

        tm = unrestricted_tm(line3)
        tm.set_turn(1, 0, 0, False)
        routing = build_routing_function(tm, "broken")
        with pytest.raises(VerificationError) as exc:
            assert_connected(routing)
        data = json.loads(json.dumps(exc.value.payload()))
        assert data["kind"] == "unroutable"
        assert data["routing"] == "broken"
        assert [0, 2] in data["unroutable"]

    def test_freeform_error_has_empty_payload_fields(self):
        err = VerificationError("just a message")
        assert err.kind is None
        assert err.cycle is None and err.unroutable is None
        assert err.payload()["message"] == "just a message"


class TestVerifyRouting:
    def test_returns_routing_on_success(self, line3):
        r = build_routing_function(unrestricted_tm(line3), "ok")
        assert verify_routing(r) is r

    def test_path_length_raises_on_unreachable(self, line3):
        tm = unrestricted_tm(line3)
        tm.set_turn(1, 0, 0, False)
        r = build_routing_function(tm, "broken")
        with pytest.raises(ValueError, match="no admissible path"):
            r.path_length(0, 2)


class TestAdmissible:
    """A candidate must be a legal move, not merely a shorter one: the
    loader's re-verification has to refuse tampered tables whose bad
    hop still decreases the distance."""

    @pytest.fixture(scope="class")
    def quick_down_up(self):
        from repro.experiments.configs import get_preset
        from repro.experiments.harness import build_routings, make_topology

        preset = get_preset("quick")
        topo = make_topology(preset, preset.ports[0], 0)
        built = build_routings(topo, preset, 0, ("M1",), ("down-up",))
        return built[("down-up", "M1")][0]

    @pytest.mark.parametrize(
        "dest, channel, hop, reason",
        [(0, 7, 15, "does not leave switch"), (1, 38, 5, "prohibited turn")],
        ids=["teleport", "prohibited-turn"],
    )
    def test_tampered_next_hop_refused_by_loader(
        self, quick_down_up, tmp_path, dest, channel, hop, reason
    ):
        import json

        from repro.routing.serialization import load_routing, routing_to_json

        data = json.loads(routing_to_json(quick_down_up))
        data["candidates"].append([hop])
        data["next_hops"][dest][channel] = len(data["candidates"]) - 1
        path = tmp_path / "routing.json"
        path.write_text(json.dumps(data))
        with pytest.raises(VerificationError, match=reason) as exc:
            load_routing(path, verify=True)
        assert exc.value.kind == "inadmissible"
        assert exc.value.stranded == {
            "dest": dest, "channel": channel, "candidate": hop
        }
        # the hop is one closer: only the admissibility part rejects it
        bad = load_routing(path, verify=False)
        assert bad.dist[dest, hop] == bad.dist[dest, channel] - 1
        with pytest.raises(VerificationError, match=reason):
            assert_progress(bad)

    def test_first_hop_must_leave_the_source(self, line3):
        ok = build_routing_function(unrestricted_tm(line3), "ok")
        c12 = line3.channel_id(1, 2)
        bad_first = [list(row) for row in ok.first_hops]
        bad_first[2][0] = (c12,)  # injected at 0, but 1->2 leaves switch 1
        broken = routing_from_rows(
            ok.topology, "broken", ok.turn_model, ok.dist, ok.next_hops, bad_first
        )
        with pytest.raises(VerificationError, match="does not leave source 0") as exc:
            assert_connected(broken)
        assert exc.value.kind == "inadmissible"
        assert exc.value.stranded == {"dest": 2, "source": 0, "candidate": c12}

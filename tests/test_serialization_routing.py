"""Round-trip tests for routing-function serialization."""

import json
from itertools import chain

import numpy as np
import pytest

from repro.core.downup import build_down_up_routing
from repro.routing.lturn import build_l_turn_routing
from repro.routing.serialization import (
    load_routing,
    routing_from_json,
    routing_to_json,
    save_routing,
)
from repro.routing.updown import build_up_down_routing
from tests.helpers import v1_routing_payload


@pytest.mark.parametrize(
    "builder", [build_down_up_routing, build_l_turn_routing, build_up_down_routing],
    ids=["down-up", "l-turn", "up-down"],
)
def test_roundtrip_preserves_everything(builder, small_irregular):
    original = builder(small_irregular)
    back = routing_from_json(routing_to_json(original))
    assert back.name == original.name
    assert back.topology == original.topology
    assert np.array_equal(back.dist, original.dist)
    assert back.next_hops == original.next_hops
    assert back.first_hops == original.first_hops
    assert list(back.turn_model.channel_class) == list(
        original.turn_model.channel_class
    )
    assert (
        back.turn_model.released_channel_pairs()
        == original.turn_model.released_channel_pairs()
    )
    assert routing_to_json(back) == routing_to_json(original)


def test_decoded_rows_share_candidate_tuples(medium_irregular):
    text = routing_to_json(build_down_up_routing(medium_irregular))
    back = routing_from_json(text)
    entries = list(
        chain(chain.from_iterable(back.next_hops), chain.from_iterable(back.first_hops))
    )
    distinct = set(entries)
    assert len({id(c) for c in entries}) == len(distinct)
    assert len(json.loads(text)["candidates"]) == len(distinct | {()})


def test_overrides_and_pair_exceptions_roundtrip(medium_irregular):
    original = build_down_up_routing(medium_irregular)
    tm = original.turn_model
    assert tm.released_channel_pairs()
    # a per-switch matrix that differs from the base; no builder emits
    # one, so the result is not re-verified
    v = medium_irregular.n - 1
    tm.set_turn(v, 0, 1, not bool(tm.base_matrix[0, 1]))
    assert tm.overridden_switches() == [v]
    text = routing_to_json(original)
    back = routing_from_json(text, verify=False)
    assert back.turn_model.overridden_switches() == [v]
    assert np.array_equal(back.turn_model.allowed_matrix(v), tm.allowed_matrix(v))
    assert (
        back.turn_model.released_channel_pairs() == tm.released_channel_pairs()
    )
    assert back.next_hops == original.next_hops
    assert back.first_hops == original.first_hops
    assert routing_to_json(back) == text


def test_roundtrip_reverifies(small_irregular):
    original = build_down_up_routing(small_irregular)
    back = routing_from_json(routing_to_json(original), verify=True)
    assert back.meta["loaded"] is True


def test_phase3_releases_survive(medium_irregular):
    original = build_down_up_routing(medium_irregular)
    back = routing_from_json(routing_to_json(original))
    # a released pair must still be allowed at its switch
    for cin, cout in original.turn_model.released_channel_pairs():
        v = medium_irregular.channel(cin).sink
        assert back.turn_model.is_turn_allowed(v, cin, cout)


def test_bad_format_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        routing_from_json('{"format": "other"}')


def test_v1_layout_rejected(small_irregular):
    """The nested-list v1 layout has no reader."""
    text = v1_routing_payload(routing_to_json(build_down_up_routing(small_irregular)))
    with pytest.raises(ValueError, match="unsupported routing format"):
        routing_from_json(text)


def test_tampered_tables_fail_verification(small_irregular):
    original = build_down_up_routing(small_irregular)
    data = json.loads(routing_to_json(original))
    # corrupt: break connectivity by pointing every first hop for dest 0
    # at candidate 0, the empty set
    assert data["candidates"][0] == []
    data["first_hops"][0] = [0] * small_irregular.n
    from repro.routing.verification import VerificationError

    with pytest.raises(VerificationError):
        routing_from_json(json.dumps(data), verify=True)
    # without verification it loads (for forensics)
    broken = routing_from_json(json.dumps(data), verify=False)
    assert broken.first_hops[0][1] == ()


def test_file_roundtrip(tmp_path, small_irregular):
    original = build_l_turn_routing(small_irregular)
    path = tmp_path / "routing.json"
    save_routing(original, path)
    back = load_routing(path)
    assert back.next_hops == original.next_hops


def test_deterministic_variant_roundtrips(small_irregular):
    det = build_down_up_routing(small_irregular).deterministic(rng=1)
    text = routing_to_json(det)
    back = routing_from_json(text)
    assert back.next_hops == det.next_hops
    assert back.first_hops == det.first_hops
    assert routing_to_json(back) == text


@pytest.fixture(scope="module")
def tiny_text():
    from repro.experiments.configs import get_preset
    from repro.experiments.harness import build_routings, make_topology

    preset = get_preset("tiny")
    topo = make_topology(preset, preset.ports[0], 0)
    built = build_routings(topo, preset, 0, ("M1",), ("down-up",))
    return routing_to_json(built[("down-up", "M1")][0])


def _append_set(candidate):
    def edit(data):
        data["candidates"].append(candidate)
        data["next_hops"][0][0] = len(data["candidates"]) - 1

    return edit


def _set_entry(field, value):
    def edit(data):
        data[field][0][0] = value

    return edit


def _first_set(data):
    data["candidates"][0] = data["candidates"][1]


@pytest.mark.parametrize("verify", [False, True], ids=["unverified", "verified"])
@pytest.mark.parametrize(
    "edit",
    [
        _append_set([1.5]),
        _append_set([1.0]),
        _append_set(3),
        _append_set([[3]]),
        _append_set([True]),
        _append_set([3, 3]),
        _set_entry("next_hops", True),
        _set_entry("first_hops", False),
        _set_entry("next_hops", 1.0),
        _set_entry("dist", 2.5),
        _set_entry("dist", True),
        _first_set,
    ],
    ids=[
        "float-channel",
        "integral-float-channel",
        "bare-integer-set",
        "nested-list-set",
        "bool-channel",
        "repeated-channel",
        "bool-next-index",
        "bool-first-index",
        "float-index",
        "float-dist",
        "bool-dist",
        "non-empty-first-set",
    ],
)
def test_malformed_entries_raise_value_error(tiny_text, edit, verify):
    data = json.loads(tiny_text)
    edit(data)
    with pytest.raises(ValueError):
        routing_from_json(json.dumps(data), verify=verify)

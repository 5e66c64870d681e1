"""Byte pins for the routing codec and the static load estimate.

The routing tables' in-memory layout is free to change; what they
serialize to and the static loads computed from them are not.  These
digests hold the ``repro-routing-v2`` text and the
``expected_channel_load`` floats of the three paper algorithms on the
``quick`` preset's first sample (M1 tree) at both port counts.
"""

import hashlib

import pytest

from repro.analysis.static_load import expected_channel_load
from repro.experiments.configs import get_preset
from repro.experiments.harness import build_routings, make_topology
from repro.routing.serialization import routing_to_json

ALGORITHMS = ("down-up", "l-turn", "up-down")

#: (ports, algorithm) -> (routing_to_json digest, static load digest)
PINNED = {
    (4, "down-up"): (
        "5461d1d904fedec44e19f49a67b4835f97421a6e3fdbc7b2e6287aa4cb454546",
        "163cd6a1b8122df23e40d348ac5130f049e4292dee73e5ed47179695f488f2ae",
    ),
    (4, "l-turn"): (
        "022d97b23406ac7c3d06ebddceb0e6ac8c2f05cfaba66ae23770ee0535eda90f",
        "27c544267fc4587bb2e4326ce9dece67651268bdd16737ec28741cc5292a34f3",
    ),
    (4, "up-down"): (
        "f3177e570a172fb05c7b737685e431f15a264517e6ec8148c2282c369c050087",
        "cdb937998b841fa532f689a9899faa452208cbeb748dd6cfd037bd89848b915c",
    ),
    (8, "down-up"): (
        "7eca62dfcdde72f3404a414a15acf2797712eb51a0d3c541272814061fa760c2",
        "39d022c607b05999befbcaf542b88a80d8d5ceedd602b196761e79f1ee3b9aaa",
    ),
    (8, "l-turn"): (
        "d1e1db438d8f3ca4a23bcc349e80ae4721ecf5970f4fd05d404ac973b0a8526f",
        "d3a9ec1d1c2178deaedda016bb64ca07d6d6ed7614cfe1a2a2221301ac3e0312",
    ),
    (8, "up-down"): (
        "024f2fa388afaee28a2987f4d2cfd0ef1d440b0067317c4cd1f79591d3adb27a",
        "cb0ecfbeba63383734813eab0b8341118fbaca4b1aec33c8fbc3645893bd6ecc",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def quick_routings():
    preset = get_preset("quick")
    out = {}
    for ports in preset.ports:
        topo = make_topology(preset, ports, 0)
        built = build_routings(topo, preset, 0, ("M1",), ALGORITHMS)
        for alg in ALGORITHMS:
            out[(ports, alg)] = built[(alg, "M1")][0]
    return out


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: f"{k[1]}-{k[0]}p")
def test_codec_and_static_load_bytes(quick_routings, key):
    routing = quick_routings[key]
    got = (
        _sha(routing_to_json(routing).encode()),
        _sha(expected_channel_load(routing).tobytes()),
    )
    assert got == PINNED[key]

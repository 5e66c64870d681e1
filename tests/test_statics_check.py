"""The independent checker must reject deliberately corrupted certificates.

Each corruption targets one witness section while keeping the digest
consistent (the bundle is re-stamped after tampering), proving the
semantic checks — not just the hash — catch the forgery.  One final
test tampers *without* re-stamping to prove the digest check fires too.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.downup import build_down_up_routing
from repro.statics import (
    CertificateError,
    certify_routing,
    check_certificate,
    compute_digest,
    recheck,
)
from repro.topology.generator import random_irregular_topology


@pytest.fixture(scope="module")
def cert():
    topo = random_irregular_topology(16, 4, rng=1)
    return certify_routing(build_down_up_routing(topo))


def restamp(bundle):
    """Re-stamp the digest after tampering, so only semantics can fail."""
    return replace(bundle, digest=compute_digest(bundle.payload()))


def failure_codes(report):
    return {f.code for f in report.failures}


class TestDeadlockCorruptions:
    def test_dropped_order_entry_rejected(self, cert):
        bad = restamp(
            replace(
                cert,
                deadlock=replace(cert.deadlock, order=cert.deadlock.order[1:]),
            )
        )
        report = check_certificate(bad)
        assert not report.ok
        assert "deadlock" in failure_codes(report)
        assert any("permutation" in f.message for f in report.failures)

    def test_swapped_order_entries_rejected(self, cert):
        # find two order positions joined by a dependency edge and swap
        # them: still a permutation, but the edge now runs backwards
        order = list(cert.deadlock.order)
        order[0], order[-1] = order[-1], order[0]
        bad = restamp(
            replace(cert, deadlock=replace(cert.deadlock, order=tuple(order)))
        )
        report = check_certificate(bad)
        assert not report.ok
        assert any("backwards" in f.message for f in report.failures)

    def test_duplicate_order_entry_rejected(self, cert):
        order = list(cert.deadlock.order)
        order[1] = order[0]
        bad = restamp(
            replace(cert, deadlock=replace(cert.deadlock, order=tuple(order)))
        )
        assert not check_certificate(bad).ok


def prohibited_adjacent_pair(cert):
    """Find adjacent channels (a, b) whose turn the bundle prohibits."""
    links = cert.links
    num_channels = 2 * len(links)
    start, sink = {}, {}
    for k, (u, v) in enumerate(links):
        start[2 * k], sink[2 * k] = u, v
        start[2 * k + 1], sink[2 * k + 1] = v, u
    pair_exceptions = set(cert.pair_exceptions)
    for a in range(num_channels):
        for b in range(num_channels):
            if sink[a] != start[b] or b == (a ^ 1) or start[a] == sink[b]:
                continue
            if (a, b) in pair_exceptions:
                continue
            matrix = cert.node_overrides.get(sink[a], cert.base_allowed)
            if not matrix[cert.channel_class[a]][cert.channel_class[b]]:
                return a, b, start[a], sink[b]
    raise AssertionError("no prohibited adjacent channel pair found")


class TestConnectivityCorruptions:
    def test_witness_detour_through_prohibited_turn_rejected(self, cert):
        a, b, s, d = prohibited_adjacent_pair(cert)
        witnesses = tuple(
            (ws, wd, (a, b)) if (ws, wd) == (s, d) else (ws, wd, path)
            for ws, wd, path in cert.connectivity.witnesses
        )
        assert witnesses != cert.connectivity.witnesses
        bad = restamp(
            replace(
                cert,
                connectivity=replace(cert.connectivity, witnesses=witnesses),
            )
        )
        report = check_certificate(bad)
        assert not report.ok
        assert any(
            "prohibited turn" in f.message and f.code == "connectivity"
            for f in report.failures
        )

    def test_missing_witness_pair_rejected(self, cert):
        bad = restamp(
            replace(
                cert,
                connectivity=replace(
                    cert.connectivity,
                    witnesses=cert.connectivity.witnesses[1:],
                ),
            )
        )
        report = check_certificate(bad)
        assert not report.ok
        assert any("no witness path" in f.message for f in report.failures)

    def test_broken_chain_rejected(self, cert):
        # a witness path whose channels do not meet at a switch
        s, d, path = cert.connectivity.witnesses[0]
        if len(path) < 2:
            pytest.skip("first witness is a single hop")
        corrupted = (path[0],) + (path[0],) + path[1:]
        witnesses = ((s, d, corrupted),) + cert.connectivity.witnesses[1:]
        bad = restamp(
            replace(
                cert,
                connectivity=replace(cert.connectivity, witnesses=witnesses),
            )
        )
        assert not check_certificate(bad).ok

    @pytest.mark.parametrize("channel", [-1, "past-the-end"])
    def test_unknown_channel_in_witness_rejected(self, cert, channel):
        s, d, path = cert.connectivity.witnesses[0]
        if channel == "past-the-end":
            channel = 2 * len(cert.links)
        witnesses = ((s, d, path + (channel,)),) + cert.connectivity.witnesses[1:]
        bad = restamp(
            replace(
                cert,
                connectivity=replace(cert.connectivity, witnesses=witnesses),
            )
        )
        report = check_certificate(bad)
        assert [f.message for f in report.failures] == [
            f"witness for {(s, d)} uses an unknown channel"
        ]
        assert report.failures[0].code == "connectivity"


def channel_ends(cert):
    """``(start, sink)`` lists per channel, from the bundle's link list."""
    start, sink = [], []
    for u, v in cert.links:
        start += [u, v]
        sink += [v, u]
    return start, sink


def with_hop_witness(cert, index, hop):
    witnesses = list(cert.progress.witnesses)
    witnesses[index] = hop
    return restamp(
        replace(cert, progress=replace(cert.progress, witnesses=tuple(witnesses)))
    )


class TestProgressCorruptions:
    def test_hop_witness_outside_the_channels_rejected(self, cert):
        d, c, _b = cert.progress.witnesses[0]
        num_channels = 2 * len(cert.links)
        report = check_certificate(
            with_hop_witness(cert, 0, (d, c, num_channels))
        )
        assert [(f.code, f.message) for f in report.failures] == [
            (
                "progress",
                f"witness hop {num_channels} for dest {d}, channel {c} is "
                f"not a channel",
            )
        ]

    def test_hop_witness_through_prohibited_turn_rejected(self, cert):
        """A hop that meets the channel, leads one step closer, and is
        prohibited by the turn model fails on the turn alone."""
        start, sink = channel_ends(cert)
        pair_exceptions = set(cert.pair_exceptions)
        for i, (d, c, _b) in enumerate(cert.progress.witnesses):
            row = cert.progress.dist[d]
            matrix = cert.node_overrides.get(sink[c], cert.base_allowed)
            for b in range(len(start)):
                if (
                    start[b] == sink[c]
                    and b != (c ^ 1)
                    and (c, b) not in pair_exceptions
                    and not matrix[cert.channel_class[c]][cert.channel_class[b]]
                    and row[b] == row[c] - 1
                ):
                    report = check_certificate(with_hop_witness(cert, i, (d, c, b)))
                    assert [(f.code, f.message) for f in report.failures] == [
                        (
                            "progress",
                            f"witness hop {c}->{b} for dest {d} crosses a "
                            f"prohibited turn",
                        )
                    ]
                    return
        raise AssertionError("no prohibited shortest hop in the fixture")

    def test_missing_hop_witness_rejected(self, cert):
        bad = restamp(
            replace(
                cert,
                progress=replace(
                    cert.progress, witnesses=cert.progress.witnesses[1:]
                ),
            )
        )
        report = check_certificate(bad)
        assert not report.ok
        assert any("no witness hop" in f.message for f in report.failures)

    def test_nondecreasing_hop_rejected(self, cert):
        # redirect the first witness hop back to where it came from:
        # dist cannot decrease along c -> c^1's claimed replacement
        d, c, b = cert.progress.witnesses[0]
        witnesses = ((d, c, c),) + cert.progress.witnesses[1:]
        bad = restamp(
            replace(cert, progress=replace(cert.progress, witnesses=witnesses))
        )
        assert not check_certificate(bad).ok

    def test_corrupt_dist_rejected(self, cert):
        dist = [list(row) for row in cert.progress.dist]
        # claim a channel that does not sink at dest 0 already arrived
        for c in range(len(dist[0])):
            if dist[0][c] not in (0, cert.progress.unreachable):
                dist[0][c] = 0
                break
        bad = restamp(
            replace(
                cert,
                progress=replace(
                    cert.progress, dist=tuple(tuple(r) for r in dist)
                ),
            )
        )
        assert not check_certificate(bad).ok


class TestIntegrity:
    def test_tamper_without_restamp_fails_digest(self, cert):
        data = json.loads(cert.to_json())
        data["algorithm"] = "evil"
        report = check_certificate(data)
        assert not report.ok
        assert "digest" in failure_codes(report)

    def test_missing_digest_rejected(self, cert):
        data = json.loads(cert.to_json())
        del data["digest"]
        report = check_certificate(data)
        assert any(
            "no digest" in f.message for f in report.failures
        )

    def test_garbage_input_reported_not_raised(self):
        report = check_certificate("{not json")
        assert not report.ok
        report = check_certificate({"format": "bogus"})
        assert not report.ok

    @pytest.mark.parametrize("section", ["witness-channel", "progress", "order"])
    def test_malformed_claim_section_reported_not_raised(self, cert, section):
        data = json.loads(cert.to_json())
        if section == "witness-channel":
            data["connectivity"]["witnesses"][0][2].append("x")
        elif section == "progress":
            del data["progress"]
        else:
            data["deadlock"]["order"] = None
        data["digest"] = compute_digest(data)
        report = check_certificate(data)
        assert [f.code for f in report.failures] == ["malformed"]
        with pytest.raises(CertificateError, match="malformed"):
            recheck(data)

    def test_recheck_raises_with_report(self, cert):
        bad = restamp(
            replace(
                cert,
                deadlock=replace(cert.deadlock, order=cert.deadlock.order[1:]),
            )
        )
        with pytest.raises(CertificateError, match="deadlock") as exc:
            recheck(bad)
        assert exc.value.report is not None
        assert not exc.value.report.ok

    def test_recheck_passes_clean(self, cert):
        assert recheck(cert).ok


def with_witnesses(cert, witnesses):
    return restamp(
        replace(
            cert,
            connectivity=replace(cert.connectivity, witnesses=tuple(witnesses)),
        )
    )


def failure_list(report):
    return [(f.code, f.message) for f in report.failures]


class TestExactMessages:
    """Every checker message, pinned verbatim on the 16-switch fixture.

    The lists and counts were recorded with the per-element checker
    that the array passes replaced; they must not move.
    """

    def test_fixture_counts(self, cert):
        report = check_certificate(cert)
        assert report.ok
        assert report.num_channels == 48
        assert report.dependency_edges == 87
        assert report.witness_pairs == 240
        assert report.progress_states == 399

    def test_backwards_failure_list(self, cert):
        order = list(cert.deadlock.order)
        order[0], order[-1] = order[-1], order[0]
        bad = restamp(
            replace(cert, deadlock=replace(cert.deadlock, order=tuple(order)))
        )
        tail = "is allowed but runs backwards in the claimed order"
        assert failure_list(check_certificate(bad)) == [
            ("deadlock", f"dependency 15->12 {tail} (pos 44 >= 0)"),
            ("deadlock", f"dependency 17->12 {tail} (pos 39 >= 0)"),
            ("deadlock", f"dependency 43->31 {tail} (pos 47 >= 27)"),
            ("deadlock", f"dependency 43->39 {tail} (pos 47 >= 40)"),
            ("deadlock", f"dependency 43->40 {tail} (pos 47 >= 10)"),
        ]

    def test_start_mismatch(self, cert):
        # swap the paths of two pairs with one destination: both ends
        # still match, both starts do not
        witnesses = list(cert.connectivity.witnesses)
        (s1, d, p1), (s2, d2, p2) = witnesses[0], witnesses[1]
        assert d == d2 and s1 != s2
        witnesses[0], witnesses[1] = (s1, d, p2), (s2, d, p1)
        assert failure_list(check_certificate(with_witnesses(cert, witnesses))) == [
            ("connectivity", f"witness for {(s1, d)} starts at switch {s2}, not {s1}"),
            ("connectivity", f"witness for {(s2, d)} starts at switch {s1}, not {s2}"),
        ]

    def test_end_mismatch(self, cert):
        witnesses = list(cert.connectivity.witnesses)
        i, j = [k for k, (s, _d, _p) in enumerate(witnesses) if s == 1][:2]
        (s, d1, p1), (_s, d2, p2) = witnesses[i], witnesses[j]
        witnesses[i], witnesses[j] = (s, d1, p2), (s, d2, p1)
        assert failure_list(check_certificate(with_witnesses(cert, witnesses))) == [
            ("connectivity", f"witness for {(s, d1)} ends at switch {d2}, not {d1}"),
            ("connectivity", f"witness for {(s, d2)} ends at switch {d1}, not {d2}"),
        ]

    def test_duplicate_witness(self, cert):
        first = cert.connectivity.witnesses[0]
        witnesses = cert.connectivity.witnesses + (first,)
        assert failure_list(check_certificate(with_witnesses(cert, witnesses))) == [
            ("connectivity", f"duplicate witness for {first[:2]}")
        ]

    def test_invalid_pair(self, cert):
        witnesses = cert.connectivity.witnesses + ((3, 3, (0,)),)
        assert failure_list(check_certificate(with_witnesses(cert, witnesses))) == [
            ("connectivity", "invalid witness pair (3, 3)")
        ]

    def test_repeated_pair_off_the_switches(self, cert):
        extra = ((3, 99, (0,)), (3, 99, (0,)))
        witnesses = cert.connectivity.witnesses + extra
        assert failure_list(check_certificate(with_witnesses(cert, witnesses))) == [
            ("connectivity", "invalid witness pair (3, 99)"),
            ("connectivity", "duplicate witness for (3, 99)"),
        ]

    def test_empty_path(self, cert):
        s, d, _path = cert.connectivity.witnesses[5]
        witnesses = list(cert.connectivity.witnesses)
        witnesses[5] = (s, d, ())
        assert failure_list(check_certificate(with_witnesses(cert, witnesses))) == [
            ("connectivity", f"empty witness path for {(s, d)}")
        ]

    def test_broken_chain(self, cert):
        s, d, path = cert.connectivity.witnesses[0]
        witnesses = list(cert.connectivity.witnesses)
        witnesses[0] = (s, d, (path[0],) + path)
        c = path[0]
        assert failure_list(check_certificate(with_witnesses(cert, witnesses))) == [
            (
                "connectivity",
                f"witness for {(s, d)} breaks at {c}->{c}: channels do not "
                f"meet at a switch",
            )
        ]

    def test_prohibited_turn_in_witness(self, cert):
        a, b, s, d = prohibited_adjacent_pair(cert)
        witnesses = [
            (ws, wd, (a, b)) if (ws, wd) == (s, d) else (ws, wd, path)
            for ws, wd, path in cert.connectivity.witnesses
        ]
        _start, sink = channel_ends(cert)
        assert failure_list(check_certificate(with_witnesses(cert, witnesses))) == [
            (
                "connectivity",
                f"witness for {(s, d)} crosses a prohibited turn {a}->{b} "
                f"at switch {sink[a]}",
            )
        ]

    def test_missing_pairs_listed_five_then_summarised(self, cert):
        witnesses = cert.connectivity.witnesses[7:]
        dropped = sorted(
            ((s, d) for s, d, _p in cert.connectivity.witnesses[:7]),
            key=lambda pair: (pair[1], pair[0]),
        )
        assert failure_list(check_certificate(with_witnesses(cert, witnesses))) == [
            ("connectivity", f"no witness path for pair {pair}")
            for pair in dropped[:5]
        ] + [("connectivity", "... and 2 further pairs without a witness")]

    def test_sinks_at_destination_but_dist_is(self, cert):
        _start, sink = channel_ends(cert)
        targets = {(d, b) for d, _c, b in cert.progress.witnesses}
        d, c = next(
            (d, c)
            for d in range(cert.n)
            for c in range(len(sink))
            if sink[c] == d and (d, c) not in targets
        )
        dist = [list(row) for row in cert.progress.dist]
        dist[d][c] = -1
        bad = restamp(
            replace(
                cert,
                progress=replace(
                    cert.progress, dist=tuple(tuple(r) for r in dist)
                ),
            )
        )
        assert failure_list(check_certificate(bad)) == [
            (
                "progress",
                f"channel {c} sinks at its destination {d} but dist is -1",
            )
        ]

    def test_zero_dist_away_from_destination(self, cert):
        _start, sink = channel_ends(cert)
        targets = {(d, b) for d, _c, b in cert.progress.witnesses}
        d, c, _b = next(
            w for w in cert.progress.witnesses if w[:2] not in targets
        )
        dist = [list(row) for row in cert.progress.dist]
        dist[d][c] = 0
        bad = restamp(
            replace(
                cert,
                progress=replace(
                    cert.progress, dist=tuple(tuple(r) for r in dist)
                ),
            )
        )
        assert failure_list(check_certificate(bad)) == [
            (
                "progress",
                f"dist[{d}][{c}] is 0 but channel {c} sinks at {sink[c]}, "
                f"not {d}",
            )
        ]

    def test_distance_table_shape(self, cert):
        bad = restamp(
            replace(
                cert,
                progress=replace(cert.progress, dist=cert.progress.dist[1:]),
            )
        )
        assert failure_list(check_certificate(bad)) == [
            ("progress", "distance table has the wrong shape")
        ]

    def test_missing_hop_witness_message(self, cert):
        d, c, _b = cert.progress.witnesses[0]
        rem = cert.progress.dist[d][c]
        bad = restamp(
            replace(
                cert,
                progress=replace(
                    cert.progress, witnesses=cert.progress.witnesses[1:]
                ),
            )
        )
        assert failure_list(check_certificate(bad)) == [
            (
                "progress",
                f"no witness hop for dest {d}, channel {c} at distance {rem}",
            )
        ]

    def test_nondecreasing_hop_message(self, cert):
        d, c, _b = cert.progress.witnesses[0]
        rem = cert.progress.dist[d][c]
        report = check_certificate(with_hop_witness(cert, 0, (d, c, c)))
        assert failure_list(report) == [
            ("progress", f"witness hop {c}->{c} for dest {d} crosses a prohibited turn"),
            (
                "progress",
                f"witness hop {c}->{c} for dest {d} does not decrease "
                f"distance ({rem} -> {rem})",
            ),
        ]

    def test_permutation_message(self, cert):
        bad = restamp(
            replace(
                cert,
                deadlock=replace(cert.deadlock, order=cert.deadlock.order[1:]),
            )
        )
        assert failure_list(check_certificate(bad)) == [
            (
                "deadlock",
                "topological order is not a permutation of the 48 channels "
                "(47 entries)",
            )
        ]


class TestHopWitnessKeys:
    """A ``(dest, channel)`` key may carry one hop, inside the table."""

    def good_and_bad(self, cert):
        d, c, b = cert.progress.witnesses[0]
        return (d, c, b), (d, c, c)

    def test_bad_duplicate_before_good_rejected(self, cert):
        good, bad_hop = self.good_and_bad(cert)
        witnesses = (bad_hop,) + cert.progress.witnesses
        bad = restamp(
            replace(cert, progress=replace(cert.progress, witnesses=witnesses))
        )
        d, c, _b = good
        assert failure_list(check_certificate(bad)) == [
            ("progress", f"duplicate witness hop for dest {d}, channel {c}")
        ]

    def test_bad_duplicate_after_good_rejected(self, cert):
        good, bad_hop = self.good_and_bad(cert)
        witnesses = cert.progress.witnesses + (bad_hop,)
        bad = restamp(
            replace(cert, progress=replace(cert.progress, witnesses=witnesses))
        )
        d, c, _b = good
        assert failure_list(check_certificate(bad)) == [
            ("progress", f"duplicate witness hop for dest {d}, channel {c}")
        ]

    @pytest.mark.parametrize("key", [(16, 0), (0, 48), (-1, 3), (2, -1)])
    def test_key_outside_the_table_rejected(self, cert, key):
        d, c = key
        witnesses = cert.progress.witnesses + ((d, c, 0),)
        bad = restamp(
            replace(cert, progress=replace(cert.progress, witnesses=witnesses))
        )
        assert failure_list(check_certificate(bad)) == [
            (
                "progress",
                f"witness hop for dest {d}, channel {c} lies outside the "
                f"distance table",
            )
        ]


def test_invalid_witness_pair_not_counted(cert):
    witnesses = cert.connectivity.witnesses + ((3, 3, (0,)),)
    report = check_certificate(with_witnesses(cert, witnesses))
    assert not report.ok
    assert report.witness_pairs == 240

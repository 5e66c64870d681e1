"""The array checker against a per-element reference, on random forgeries.

``reference_claims`` re-states claims 1-3 of ``check_certificate`` (and
the feasible-witness claims of ``check_existence_report``) as plain
Python loops over the payload, one element at a time, with the same
failure codes, texts and order.  Each test corrupts a real certificate
or existence report a few edits at a time, re-stamps the digest, and
requires the shipped checker's failure list and counters to equal the
reference's exactly.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.downup import build_down_up_routing
from repro.statics import (
    certify_routing,
    check_certificate,
    check_existence_report,
    compute_digest,
)
from repro.statics.audit import audit_existence
from repro.statics.check import CheckReport, _check_raw_facts
from repro.statics.existence import _canonical_digest
from repro.topology.generator import random_irregular_topology
from repro.topology.zoo import zoo_names, zoo_topology


def allowed_successors(facts):
    return [
        [b for b in facts.out_channels[facts.sink[a]] if facts.allowed(a, b)]
        for a in range(facts.num_channels)
    ]


def reference_walk(witnesses, facts, turn_ok, off_turn, report):
    """Claim 2 (or the existence witness paths), one path at a time."""
    n, num_channels = facts.n, facts.num_channels
    start, sink = facts.start, facts.sink
    seen, valid_pairs = set(), set()
    for s, d, path in witnesses:
        pair = (s, d)
        if pair in seen:
            report.fail("connectivity", f"duplicate witness for {pair}")
            continue
        seen.add(pair)
        if not (0 <= s < n and 0 <= d < n) or s == d:
            report.fail("connectivity", f"invalid witness pair {pair}")
            continue
        valid_pairs.add(pair)
        if not path:
            report.fail("connectivity", f"empty witness path for {pair}")
            continue
        if any(not (0 <= c < num_channels) for c in path):
            report.fail("connectivity", f"witness for {pair} uses an unknown channel")
            continue
        if start[path[0]] != s:
            report.fail(
                "connectivity",
                f"witness for {pair} starts at switch {start[path[0]]}, not {s}",
            )
        if sink[path[-1]] != d:
            report.fail(
                "connectivity",
                f"witness for {pair} ends at switch {sink[path[-1]]}, not {d}",
            )
        for a, b in zip(path, path[1:]):
            if sink[a] != start[b]:
                report.fail(
                    "connectivity",
                    f"witness for {pair} breaks at {a}->{b}: channels do not "
                    f"meet at a switch",
                )
            elif not turn_ok(a, b):
                report.fail("connectivity", off_turn(pair, a, b))
    missing = [
        (s, d) for d in range(n) for s in range(n) if s != d and (s, d) not in seen
    ]
    for pair in missing[:5]:
        report.fail("connectivity", f"no witness path for pair {pair}")
    if len(missing) > 5:
        report.fail(
            "connectivity", f"... and {len(missing) - 5} further pairs without a witness"
        )
    report.witness_pairs = len(valid_pairs)


def reference_claims(data):
    """Claims 1-3 of a certificate payload, element by element."""
    report = CheckReport()
    facts = _check_raw_facts(data, report)
    assert facts is not None
    n, num_channels, sink = facts.n, facts.num_channels, facts.sink
    succ = allowed_successors(facts)

    order = [int(c) for c in data["deadlock"]["order"]]
    if sorted(order) != list(range(num_channels)):
        report.fail(
            "deadlock",
            f"topological order is not a permutation of the {num_channels} "
            f"channels ({len(order)} entries)",
        )
    else:
        pos = {c: i for i, c in enumerate(order)}
        for a, outs in enumerate(succ):
            for b in outs:
                if pos[a] >= pos[b]:
                    report.fail(
                        "deadlock",
                        f"dependency {a}->{b} is allowed but runs backwards in "
                        f"the claimed order (pos {pos[a]} >= {pos[b]})",
                    )
        report.dependency_edges = sum(map(len, succ))

    reference_walk(
        [(int(s), int(d), [int(c) for c in p]) for s, d, p in data["connectivity"]["witnesses"]],
        facts,
        lambda a, b: b in succ[a],
        lambda pair, a, b: (
            f"witness for {pair} crosses a prohibited turn {a}->{b} at switch {sink[a]}"
        ),
        report,
    )

    prog = data["progress"]
    unreachable = int(prog["unreachable"])
    dist = [[int(x) for x in row] for row in prog["dist"]]
    if len(dist) != n or any(len(row) != num_channels for row in dist):
        report.fail("progress", "distance table has the wrong shape")
        return report
    hop, ambiguous = {}, set()
    for d, c, b in prog["witnesses"]:
        if not (0 <= d < n and 0 <= c < num_channels):
            report.fail(
                "progress",
                f"witness hop for dest {d}, channel {c} lies outside the distance table",
            )
        elif (d, c) in hop or (d, c) in ambiguous:
            report.fail("progress", f"duplicate witness hop for dest {d}, channel {c}")
            hop.pop((d, c), None)
            ambiguous.add((d, c))
        else:
            hop[(d, c)] = b
    states = 0
    for d, row in enumerate(dist):
        for c, rem in enumerate(row):
            if rem == 0:
                if sink[c] != d:
                    report.fail(
                        "progress",
                        f"dist[{d}][{c}] is 0 but channel {c} sinks at {sink[c]}, not {d}",
                    )
                continue
            if sink[c] == d and rem != unreachable:
                report.fail(
                    "progress",
                    f"channel {c} sinks at its destination {d} but dist is {rem}",
                )
            if not 0 < rem < unreachable:
                continue
            states += 1
            if (d, c) in ambiguous:
                continue
            b = hop.get((d, c))
            if b is None:
                report.fail(
                    "progress",
                    f"no witness hop for dest {d}, channel {c} at distance {rem}",
                )
            elif not 0 <= b < num_channels:
                report.fail(
                    "progress",
                    f"witness hop {b} for dest {d}, channel {c} is not a channel",
                )
            else:
                if b not in succ[c]:
                    report.fail(
                        "progress",
                        f"witness hop {c}->{b} for dest {d} crosses a prohibited turn",
                    )
                if row[b] != rem - 1:
                    report.fail(
                        "progress",
                        f"witness hop {c}->{b} for dest {d} does not decrease "
                        f"distance ({rem} -> {row[b]})",
                    )
    report.progress_states = states
    return report


def reference_existence_witness(data):
    """The feasible-witness claims of an existence report, element by element."""
    report = CheckReport()
    facts = _check_raw_facts(data, report)
    assert facts is not None
    num_channels = facts.num_channels
    witness = data["witness"]
    order = [int(c) for c in witness["order"]]
    if sorted(order) != list(range(num_channels)):
        report.fail(
            "deadlock",
            f"escape order is not a permutation of the {num_channels} channels "
            f"({len(order)} entries)",
        )
        return report
    pos = {c: i for i, c in enumerate(order)}
    rel = set()
    for a, b in witness["relation"]:
        if not (0 <= a < num_channels and 0 <= b < num_channels):
            report.fail("relation", f"relation edge {a}->{b} is not a channel pair")
            continue
        if not facts.allowed(a, b):
            report.fail("relation", f"relation edge {a}->{b} is not an allowed turn")
        elif pos[a] >= pos[b]:
            report.fail(
                "deadlock",
                f"relation edge {a}->{b} runs backwards in the claimed order "
                f"(pos {pos[a]} >= {pos[b]})",
            )
        rel.add((a, b))
    report.dependency_edges = len(rel)
    reference_walk(
        [(s, d, list(p)) for s, d, p in witness["paths"]],
        facts,
        lambda a, b: (a, b) in rel,
        lambda pair, a, b: f"witness for {pair} uses turn {a}->{b} outside the escape relation",
        report,
    )
    return report


def outcome(report):
    return (
        [(f.code, f.message) for f in report.failures],
        report.dependency_edges,
        report.witness_pairs,
        report.progress_states,
    )


@pytest.fixture(scope="module")
def payloads():
    out = []
    for n, seed in ((8, 1), (16, 2)):
        topo = random_irregular_topology(n, 4, rng=seed)
        out.append(json.loads(certify_routing(build_down_up_routing(topo)).to_json()))
    return out


def channel_ends(data):
    """``(start, sink)`` of every channel, in channel-id order."""
    return [end for u, v in data["links"] for end in ((u, v), (v, u))]


def forge_certificate(data, rng):
    """Apply one to four random edits to a certificate payload."""
    n, num_channels = data["n"], 2 * len(data["links"])
    order = data["deadlock"]["order"]
    paths = data["connectivity"]["witnesses"]
    prog = data["progress"]
    hops = prog["witnesses"]
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(10)
        if kind == 0:
            i, j = rng.randrange(num_channels), rng.randrange(num_channels)
            order[i], order[j] = order[j], order[i]
        elif kind == 1:
            order[rng.randrange(num_channels)] = rng.randrange(-1, num_channels + 1)
        elif kind == 2:
            path = rng.choice(paths)[2]
            path[rng.randrange(len(path))] = rng.randrange(-1, num_channels + 1)
        elif kind == 3:
            entry = rng.choice(paths)
            roll = rng.random()
            if roll < 0.3:
                entry[2] = entry[2][:-1]
            elif roll < 0.6:
                entry[2].insert(rng.randrange(len(entry[2]) + 1), rng.randrange(num_channels))
            else:
                entry[rng.randrange(2)] = rng.randrange(-1, n + 1)
        elif kind == 4:
            i, j = rng.randrange(len(paths)), rng.randrange(len(paths))
            paths[i][2], paths[j][2] = paths[j][2], paths[i][2]
        elif kind == 5:
            if rng.random() < 0.5:
                del paths[rng.randrange(len(paths))]
            else:
                paths.insert(rng.randrange(len(paths)), json.loads(json.dumps(rng.choice(paths))))
        elif kind == 6:
            d = rng.randrange(n)
            arriving = [c for c, (_u, v) in enumerate(channel_ends(data)) if v == d]
            c = rng.choice(arriving) if rng.random() < 0.5 else rng.randrange(num_channels)
            prog["dist"][d][c] = rng.choice(
                [0, -1, 1, 2, 3, prog["unreachable"], prog["unreachable"] + 1]
            )
        elif kind == 7:
            rng.choice(hops)[2] = rng.randrange(-1, num_channels + 1)
        elif kind == 8:
            del hops[rng.randrange(len(hops))]
        else:
            d, c, _b = rng.choice(hops)
            hops.insert(rng.randrange(len(hops) + 1), [
                rng.choice([d, -1, n]), rng.choice([c, num_channels]), rng.randrange(num_channels)
            ])
    data["digest"] = compute_digest(data)
    return data


@pytest.mark.parametrize("seed", range(4))
def test_certificate_checker_matches_reference(payloads, seed):
    rng = random.Random(seed)
    rejected = 0
    for _ in range(60):
        data = forge_certificate(json.loads(json.dumps(rng.choice(payloads))), rng)
        report = check_certificate(data)
        assert outcome(report) == outcome(reference_claims(data))
        rejected += not report.ok
    assert rejected > 50


def test_clean_certificates_match_reference(payloads):
    for data in payloads:
        assert check_certificate(data).ok
        assert outcome(check_certificate(data)) == outcome(reference_claims(data))


@pytest.fixture(scope="module")
def feasible_reports():
    reports = [audit_existence(zoo_topology(name)).payload() for name in zoo_names()]
    return [json.loads(json.dumps(r)) for r in reports if r["verdict"] == "feasible"]


def forge_existence_witness(data, rng):
    num_channels, n = 2 * len(data["links"]), data["n"]
    witness = data["witness"]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        if kind == 0:
            order = witness["order"]
            i, j = rng.randrange(num_channels), rng.randrange(num_channels)
            order[i], order[j] = order[j], order[i]
        elif kind == 1 and witness["relation"]:
            del witness["relation"][rng.randrange(len(witness["relation"]))]
        elif kind == 2:
            witness["relation"].append(
                [rng.randrange(-1, num_channels + 1), rng.randrange(-1, num_channels + 1)]
            )
        elif kind == 3:
            path = rng.choice(witness["paths"])[2]
            path[rng.randrange(len(path))] = rng.randrange(-1, num_channels + 1)
        elif kind == 4:
            witness["paths"].append(
                [rng.randrange(n), rng.randrange(n), [rng.randrange(num_channels)]]
            )
        else:
            entry = rng.choice(witness["paths"])
            entry[2] = entry[2][:-1]
    data["digest"] = _canonical_digest(data)
    return data


@pytest.mark.parametrize("seed", range(2))
def test_existence_witness_matches_reference(feasible_reports, seed):
    rng = random.Random(seed)
    rejected = 0
    for _ in range(60):
        data = forge_existence_witness(
            json.loads(json.dumps(rng.choice(feasible_reports))), rng
        )
        report = check_existence_report(data)
        expected = reference_existence_witness(data)
        assert outcome(report)[:3] == outcome(expected)[:3]
        rejected += not report.ok
    assert rejected > 50

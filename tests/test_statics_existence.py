"""Existence oracle: every verdict path, plus adversarial checker tests.

The oracle's four outcomes (disconnected, acyclic fast path,
mandatory-cycle, search) each get a synthetic fixture whose answer is
known by hand; every zoo topology must come out feasible under the
DOWN/UP prohibited-turn set with a witness that survives the
independent checker.  The adversarial half corrupts reports one claim
at a time (re-stamping the digest so only semantics can fail) and
requires the checker to reject each forgery with a structured failure.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.statics import (
    CertificateError,
    TurnSystem,
    check_existence_report,
    decide_existence,
    recheck_existence,
)
from repro.statics.existence import _canonical_digest
from repro.topology.zoo import zoo_names, zoo_topology

RING4_LINKS = [(0, 1), (0, 3), (1, 2), (2, 3)]
# channel ids under the 2k/2k+1 convention:
#   ch0=<0,1> ch1=<1,0> ch2=<0,3> ch3=<3,0> ch4=<1,2> ch5=<2,1>
#   ch6=<2,3> ch7=<3,2>
CLOCKWISE_TURNS = [(0, 4), (4, 6), (6, 3), (3, 0)]


def all_turn_pairs(n, links):
    """Every non-U-turn adjacent channel pair (the full relation)."""
    probe = TurnSystem.from_allowed_pairs(n, links, [])
    start, sink = probe.channel_ends()
    return [
        (a, b)
        for a in range(probe.num_channels)
        for b in range(probe.num_channels)
        if sink[a] == start[b] and b != (a ^ 1)
    ]


def ring4_clockwise():
    return TurnSystem.from_allowed_pairs(4, RING4_LINKS, CLOCKWISE_TURNS)


def ring4_all_turns():
    return TurnSystem.from_allowed_pairs(
        4, RING4_LINKS, all_turn_pairs(4, RING4_LINKS)
    )


def failure_codes(report):
    return {f.code for f in report.failures}


def messages(report):
    return " | ".join(f.message for f in report.failures)


def restamp(data):
    """Re-stamp a tampered payload so only semantic checks can fail."""
    data = dict(data)
    data["digest"] = _canonical_digest(data)
    return data


# ---------------------------------------------------------------------------
# the four verdict paths, on hand-checkable fixtures
# ---------------------------------------------------------------------------


class TestSyntheticSystems:
    def test_disconnected_core(self):
        # a line with every turn prohibited: only one-hop pairs connect
        system = TurnSystem.from_allowed_pairs(3, [(0, 1), (1, 2)], [])
        rep = decide_existence(system)
        assert rep.verdict == "infeasible"
        assert rep.core is not None and rep.core.kind == "disconnected"
        assert (0, 2) in rep.core.pairs and (2, 0) in rep.core.pairs
        assert rep.stats["unreachable_pairs"] == 2
        assert check_existence_report(rep).ok

    def test_mandatory_cycle_core(self):
        # the canonical infeasible system: a unidirectional ring — every
        # clockwise turn is mandatory and together they form a cycle
        rep = decide_existence(ring4_clockwise())
        assert rep.verdict == "infeasible"
        assert rep.core is not None and rep.core.kind == "mandatory-cycle"
        assert sorted(rep.core.cycle) == [0, 3, 4, 6]
        assert len(rep.core.turns) == len(rep.core.cycle)
        assert rep.stats["mandatory_turns"] == 4
        assert check_existence_report(rep).ok

    def test_feasible_via_search(self):
        # all turns allowed: the full relation is cyclic, but an acyclic
        # connecting sub-relation exists and the search must find it
        rep = decide_existence(ring4_all_turns())
        assert rep.verdict == "feasible"
        assert rep.stats["full_relation_acyclic"] is False
        assert rep.stats["search_nodes"] > 0
        assert rep.witness is not None
        assert len(rep.witness.relation) < rep.stats["allowed_turns"]
        assert check_existence_report(rep).ok

    def test_unknown_on_exhausted_budget(self):
        rep = decide_existence(ring4_all_turns(), budget=1)
        assert rep.verdict == "unknown"
        assert rep.witness is None and rep.core is None
        # the honest verdict still round-trips through the checker
        assert check_existence_report(rep).ok

    def test_report_roundtrips_as_json_and_dict(self):
        rep = decide_existence(ring4_all_turns())
        assert rep.digest.startswith("sha256:")
        assert check_existence_report(rep.to_json()).ok
        assert check_existence_report(json.loads(rep.to_json())).ok

    def test_recheck_existence_passes_clean(self):
        assert recheck_existence(decide_existence(ring4_clockwise())).ok


# ---------------------------------------------------------------------------
# zoo-wide acceptance: DOWN/UP's PT is feasible everywhere, witnesses
# re-verify through the independent checker
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", zoo_names())
def test_zoo_feasible_under_down_up(name):
    from repro.statics import audit_existence

    rep = audit_existence(zoo_topology(name))
    assert rep.verdict == "feasible"
    assert rep.witness is not None
    # DOWN/UP's PT is built to make the *full* relation acyclic, so the
    # whole zoo must resolve on the fast path without search
    assert rep.stats["full_relation_acyclic"] is True
    assert rep.stats["search_nodes"] == 0
    assert check_existence_report(rep).ok


# ---------------------------------------------------------------------------
# adversarial checker tests: corrupted reports must be rejected
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def feasible_data():
    """Payload of a feasible-via-search report (relation is a strict
    sub-relation of the full one, so relation tampering is visible)."""
    return decide_existence(ring4_all_turns()).payload()


@pytest.fixture(scope="module")
def infeasible_data():
    return decide_existence(ring4_clockwise()).payload()


class TestWitnessCorruptions:
    def test_mutated_topological_order_rejected(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        order = data["witness"]["order"]
        a, b = data["witness"]["relation"][0]
        ia, ib = order.index(a), order.index(b)
        order[ia], order[ib] = order[ib], order[ia]
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "deadlock" in failure_codes(report)
        assert "backwards" in messages(report)

    def test_truncated_order_rejected(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        data["witness"]["order"] = data["witness"]["order"][1:]
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "permutation" in messages(report)

    def test_path_outside_escape_relation_rejected(self, feasible_data):
        # remove one relation edge a multi-hop witness path relies on:
        # the path now uses a turn outside the escape relation
        data = json.loads(json.dumps(feasible_data))
        witness = data["witness"]
        long_path = next(p for _s, _d, p in witness["paths"] if len(p) >= 2)
        victim = [long_path[0], long_path[1]]
        witness["relation"] = [e for e in witness["relation"] if e != victim]
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "outside the escape relation" in messages(report)

    def test_truncated_witness_set_rejected(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        data["witness"]["paths"] = data["witness"]["paths"][1:]
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "connectivity" in failure_codes(report)
        assert "no witness path for pair" in messages(report)

    def test_uturn_relation_edge_rejected(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        data["witness"]["relation"].append([0, 1])  # ch0=<0,1>, ch1=<1,0>
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "is not an allowed turn" in messages(report)

    def test_broken_path_chain_rejected(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        s, d, path = next(
            e for e in data["witness"]["paths"] if len(e[2]) >= 2
        )
        # duplicate the first channel: consecutive channels no longer
        # meet at a switch
        bad = [s, d, [path[0], path[0]] + path[1:]]
        data["witness"]["paths"] = [
            bad if e[:2] == [s, d] else e for e in data["witness"]["paths"]
        ]
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "do not meet at a switch" in messages(report)

    def test_feasible_without_witness_rejected(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        del data["witness"]
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "witness" in failure_codes(report)


def _swap_first_relation_edge_in_order(w):
    order = w["order"]
    a, b = w["relation"][0]
    ia, ib = order.index(a), order.index(b)
    order[ia], order[ib] = order[ib], order[ia]


def _drop_relation_edge_under_a_path(w):
    long_path = next(p for _s, _d, p in w["paths"] if len(p) >= 2)
    w["relation"] = [e for e in w["relation"] if e != long_path[:2]]


def _break_first_long_path(w):
    s, d, p = next(e for e in w["paths"] if len(e[2]) >= 2)
    w["paths"] = [
        [s, d, [p[0], p[0]] + p[1:]] if e[:2] == [s, d] else e
        for e in w["paths"]
    ]


# (mutation, exact failure list, dependency_edges, witness_pairs), all
# recorded on the ring-4 feasible report before the checker's array rewrite
EXACT_WITNESS_FAILURES = {
    "order-swap": (
        _swap_first_relation_edge_in_order,
        [("deadlock", "relation edge 2->7 runs backwards in the claimed order (pos 5 >= 4)")],
        6, 12,
    ),
    "order-truncated": (
        lambda w: w.__setitem__("order", w["order"][1:]),
        [("deadlock", "escape order is not a permutation of the 8 channels (7 entries)")],
        0, 0,
    ),
    "outside-relation": (
        _drop_relation_edge_under_a_path,
        [("connectivity", "witness for (0, 2) uses turn 2->7 outside the escape relation")],
        5, 12,
    ),
    "paths-truncated": (
        lambda w: w.__setitem__("paths", w["paths"][1:]),
        [("connectivity", "no witness path for pair (0, 1)")],
        6, 11,
    ),
    "uturn-edge": (
        lambda w: w["relation"].append([0, 1]),
        [("relation", "relation edge 0->1 is not an allowed turn")],
        7, 12,
    ),
    "edge-off-channels": (
        lambda w: w["relation"].append([0, 99]),
        [("relation", "relation edge 0->99 is not a channel pair")],
        6, 12,
    ),
    "broken-chain": (
        _break_first_long_path,
        [("connectivity", "witness for (0, 2) breaks at 2->2: channels do not meet at a switch")],
        6, 12,
    ),
    "invalid-pair": (
        lambda w: w["paths"].append([2, 2, [0]]),
        [("connectivity", "invalid witness pair (2, 2)")],
        6, 12,
    ),
    "duplicate-pair": (
        lambda w: w["paths"].append(w["paths"][0]),
        [("connectivity", "duplicate witness for (0, 1)")],
        6, 12,
    ),
    "empty-path": (
        lambda w: w["paths"][0].__setitem__(2, []),
        [("connectivity", "empty witness path for (0, 1)")],
        6, 12,
    ),
    "unknown-channel": (
        lambda w: w["paths"][0].__setitem__(2, [9]),
        [("connectivity", "witness for (0, 1) uses an unknown channel")],
        6, 12,
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_WITNESS_FAILURES))
def test_witness_failures_exact(feasible_data, name):
    mutate, expected, edges, pairs = EXACT_WITNESS_FAILURES[name]
    data = json.loads(json.dumps(feasible_data))
    mutate(data["witness"])
    report = check_existence_report(restamp(data))
    assert [(f.code, f.message) for f in report.failures] == expected
    assert (report.dependency_edges, report.witness_pairs) == (edges, pairs)


class TestCoreCorruptions:
    def test_false_disconnected_claim_rejected(self, feasible_data):
        # the all-turns ring connects every pair: claiming (0, 2)
        # disconnected must be caught by the checker's own reachability
        data = json.loads(json.dumps(feasible_data))
        data["verdict"] = "infeasible"
        del data["witness"]
        data["core"] = {
            "kind": "disconnected", "pairs": [[0, 2]], "cycle": [], "turns": []
        }
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "an allowed path joins it" in messages(report)

    def test_non_mandatory_turn_rejected(self, feasible_data):
        # in the all-turns ring no single turn is mandatory (the other
        # direction always routes around), so the clockwise "core" lies
        data = json.loads(json.dumps(feasible_data))
        data["verdict"] = "infeasible"
        del data["witness"]
        cycle = [0, 4, 6, 3]
        turns = [
            [a, b, 0, 2]
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
        ]
        data["core"] = {
            "kind": "mandatory-cycle", "pairs": [], "cycle": cycle,
            "turns": turns,
        }
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "is not mandatory" in messages(report)

    def test_degenerate_cycle_rejected(self, infeasible_data):
        data = json.loads(json.dumps(infeasible_data))
        data["core"]["cycle"] = [0]
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "degenerate" in messages(report)

    def test_missing_mandatory_witness_rejected(self, infeasible_data):
        data = json.loads(json.dumps(infeasible_data))
        data["core"]["turns"] = data["core"]["turns"][1:]
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "no mandatory witness" in messages(report)

    def test_unknown_core_kind_rejected(self, infeasible_data):
        data = json.loads(json.dumps(infeasible_data))
        data["core"]["kind"] = "trust-me"
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "unknown core kind" in messages(report)


class TestIntegrity:
    def test_tamper_without_restamp_fails_digest(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        data["verdict"] = "unknown"
        report = check_existence_report(data)
        assert not report.ok
        assert "digest" in failure_codes(report)

    def test_missing_digest_rejected(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        del data["digest"]
        report = check_existence_report(data)
        assert "carries no digest" in messages(report)

    def test_false_acyclicity_stat_rejected(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        data["stats"]["full_relation_acyclic"] = True
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "stats" in failure_codes(report)

    def test_bogus_verdict_rejected(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        data["verdict"] = "probably"
        report = check_existence_report(restamp(data))
        assert not report.ok
        assert "verdict" in failure_codes(report)

    def test_garbage_input_reported_not_raised(self):
        assert not check_existence_report("{not json").ok
        assert not check_existence_report({"format": "bogus"}).ok

    def test_recheck_raises_with_report(self, feasible_data):
        data = json.loads(json.dumps(feasible_data))
        data["witness"]["paths"] = data["witness"]["paths"][1:]
        with pytest.raises(CertificateError, match="witness") as exc:
            recheck_existence(restamp(data))
        assert exc.value.report is not None and not exc.value.report.ok


# ---------------------------------------------------------------------------
# property: on random small systems, the oracle's reports always survive
# the independent checker, whatever the verdict
# ---------------------------------------------------------------------------


@st.composite
def random_systems(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    # a random spanning tree keeps the topology itself connected ...
    links = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    # ... plus a few random extra links for cycles
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.integers(0, n - 2))
        v = draw(st.integers(u + 1, n - 1))
        links.add((u, v))
    link_list = sorted(links)
    pool = all_turn_pairs(n, link_list)
    allowed = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return TurnSystem.from_allowed_pairs(n, link_list, allowed)


@settings(max_examples=30, deadline=None)
@given(system=random_systems(), budget=st.sampled_from([5, 200]))
def test_every_report_survives_the_checker(system, budget):
    rep = decide_existence(system, budget=budget)
    assert rep.verdict in ("feasible", "infeasible", "unknown")
    report = check_existence_report(rep)
    assert report.ok, messages(report)

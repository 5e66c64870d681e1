"""Tests for Phase 3 (cycle_detection / the generic release engine)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.communication_graph import CommunicationGraph
from repro.core.coordinated_tree import TreeMethod, build_coordinated_tree
from repro.core.cycle_detection import release_redundant_turns
from repro.core.direction_graph import RELEASABLE_TURNS
from repro.core.directions import Direction
from repro.core.downup import down_up_turn_model
from repro.routing.channel_graph import find_turn_cycle
from repro.routing.release import count_prohibited_pairs, release_prohibited_turns
from repro.topology.generator import random_irregular_topology


def downup_tm(topo, method=TreeMethod.M1, rng=0, phase3=False):
    tree = build_coordinated_tree(topo, method, rng=rng)
    cg = CommunicationGraph.from_tree(tree)
    return cg, down_up_turn_model(cg, apply_phase3=phase3)


class TestReleaseEngine:
    def test_releases_recorded_on_model(self, medium_irregular):
        cg, tm = downup_tm(medium_irregular)
        releases = release_redundant_turns(tm)
        assert len(releases) == len(tm.released_channel_pairs())
        for rel in releases:
            assert tm.is_turn_allowed(rel.switch, rel.e_in, rel.e_out)

    def test_release_preserves_acyclicity(self, medium_irregular):
        cg, tm = downup_tm(medium_irregular)
        release_redundant_turns(tm)
        assert find_turn_cycle(tm) is None

    def test_release_reduces_prohibited_count(self, medium_irregular):
        cg, tm = downup_tm(medium_irregular)
        before, total = count_prohibited_pairs(tm)
        releases = release_redundant_turns(tm)
        after, total2 = count_prohibited_pairs(tm)
        assert total == total2
        assert before - after == len(releases)

    def test_releases_match_candidate_classes(self, medium_irregular):
        cg, tm = downup_tm(medium_irregular)
        for rel in release_redundant_turns(tm):
            frm, to = rel.classes
            assert (Direction(frm), Direction(to)) in RELEASABLE_TURNS
            assert cg.d(rel.e_in) is Direction(frm)
            assert cg.d(rel.e_out) is Direction(to)

    def test_idempotent(self, medium_irregular):
        cg, tm = downup_tm(medium_irregular)
        first = release_redundant_turns(tm)
        second = release_redundant_turns(tm)
        assert second == []
        assert len(tm.released_channel_pairs()) == len(first)

    def test_no_candidates_no_releases(self, medium_irregular):
        cg, tm = downup_tm(medium_irregular)
        assert release_prohibited_turns(tm, []) == []


class TestFigure7Phenomenon:
    """Figure 7's point: some prohibited *U_CROSS -> RD_TREE turns are
    redundant (release succeeds), and where a release would close a
    cycle it is refused."""

    def test_some_releases_happen_on_random_networks(self):
        hits = 0
        for seed in range(8):
            topo = random_irregular_topology(24, 4, rng=seed)
            cg, tm = downup_tm(topo)
            if release_redundant_turns(tm):
                hits += 1
        assert hits > 0, "expected Phase 3 to release something somewhere"

    def test_refused_release_would_close_cycle(self):
        """Releasing every candidate unconditionally must create a cycle
        whenever the checked pass refused at least one release."""
        found_refusal = False
        for seed in range(12):
            topo = random_irregular_topology(24, 4, rng=seed)
            cg, tm = downup_tm(topo)
            releases = release_redundant_turns(tm)
            # unconditional variant
            cg2, tm2 = downup_tm(topo)
            candidates = []
            for v in range(topo.n):
                for turn in RELEASABLE_TURNS:
                    for e_in in topo.input_channels(v):
                        if cg2.d(e_in) is not turn.frm:
                            continue
                        for e_out in topo.output_channels(v):
                            if cg2.d(e_out) is turn.to and e_out != (e_in ^ 1):
                                candidates.append((e_in, e_out))
            for e_in, e_out in candidates:
                if not tm2.is_turn_allowed(topo.channel(e_in).sink, e_in, e_out):
                    tm2.allow_channel_pair(e_in, e_out)
            if len(releases) < len(set(candidates)):
                found_refusal = True
                assert find_turn_cycle(tm2) is not None
                break
        assert found_refusal, "expected at least one refused release"


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    method=st.sampled_from(list(TreeMethod)),
)
def test_phase3_always_preserves_acyclicity(seed, method):
    topo = random_irregular_topology(20, 4, rng=seed)
    cg, tm = downup_tm(topo, method=method, rng=seed)
    release_redundant_turns(tm)
    assert find_turn_cycle(tm) is None

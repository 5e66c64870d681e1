"""Unit + property tests for the random irregular topology generator."""

import hashlib
import json
from typing import Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.configs import get_preset
from repro.experiments.harness import make_topology
from repro.topology import generator
from repro.topology.generator import TopologyGenError, random_irregular_topology
from repro.topology.validation import validate_topology


class TestBasics:
    def test_paper_scale_4port(self):
        t = random_irregular_topology(128, 4, rng=0)
        assert t.n == 128
        assert max(t.degree(v) for v in range(128)) <= 4
        assert t.is_connected()

    def test_paper_scale_8port(self):
        t = random_irregular_topology(128, 8, rng=0)
        assert max(t.degree(v) for v in range(128)) <= 8
        assert t.is_connected()

    def test_deterministic_given_seed(self):
        a = random_irregular_topology(32, 4, rng=42)
        b = random_irregular_topology(32, 4, rng=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_irregular_topology(32, 4, rng=1)
        b = random_irregular_topology(32, 4, rng=2)
        assert a != b

    def test_exact_link_count(self):
        t = random_irregular_topology(20, 4, rng=3, num_links=30)
        assert t.num_links == 30

    def test_tree_only(self):
        t = random_irregular_topology(12, 4, rng=5, num_links=11)
        assert t.num_links == 11
        assert t.is_connected()

    def test_single_switch(self):
        t = random_irregular_topology(1, 4, rng=0)
        assert t.n == 1 and t.num_links == 0

    def test_two_switches(self):
        t = random_irregular_topology(2, 2, rng=0)
        assert t.num_links == 1


class TestErrors:
    def test_infeasible_link_count_low(self):
        with pytest.raises(TopologyGenError):
            random_irregular_topology(10, 4, rng=0, num_links=5)

    def test_infeasible_link_count_high(self):
        with pytest.raises(TopologyGenError):
            random_irregular_topology(10, 4, rng=0, num_links=100)

    def test_insufficient_ports(self):
        with pytest.raises(TopologyGenError):
            random_irregular_topology(10, 1, rng=0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 48),
    ports=st.sampled_from([3, 4, 6, 8]),
)
def test_generated_topologies_are_valid(seed, n, ports):
    """Every sample is connected, degree-bounded and structurally sound."""
    t = random_irregular_topology(n, ports, rng=seed)
    validate_topology(t)
    assert all(t.degree(v) <= ports for v in range(n))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fill_controls_density(seed):
    sparse = random_irregular_topology(24, 4, rng=seed, fill=0.55)
    dense = random_irregular_topology(24, 4, rng=seed, fill=0.95)
    assert sparse.num_links <= dense.num_links


def test_generator_accepts_shared_generator():
    gen = np.random.default_rng(9)
    a = random_irregular_topology(16, 4, rng=gen)
    b = random_irregular_topology(16, 4, rng=gen)
    # shared stream: two draws differ but both valid
    validate_topology(a)
    validate_topology(b)


class TestStyles:
    def test_styles_order_density(self):
        sparse = random_irregular_topology(32, 4, rng=3, style="sparse")
        default = random_irregular_topology(32, 4, rng=3, style="default")
        dense = random_irregular_topology(32, 4, rng=3, style="dense")
        assert sparse.num_links <= default.num_links <= dense.num_links

    def test_dense_saturates_most_switches(self):
        t = random_irregular_topology(32, 4, rng=4, style="dense")
        saturated = sum(1 for v in range(32) if t.degree(v) == 4)
        assert saturated >= 16

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="unknown style"):
            random_irregular_topology(16, 4, rng=0, style="chunky")


def _reference_add_random_links(
    links: Set[Tuple[int, int]], n: int, ports: int, num_links: int, gen
) -> None:
    """The list-building link adder: every legal pair, then one draw.

    The generator's k-th-pair walk must pick exactly the pair this picks
    from exactly the same draws.
    """
    degree = [0] * n
    for u, v in links:
        degree[u] += 1
        degree[v] += 1
    while len(links) < num_links:
        open_switches = [v for v in range(n) if degree[v] < ports]
        legal = [
            (a, b)
            for i, a in enumerate(open_switches)
            for b in open_switches[i + 1 :]
            if (a, b) not in links
        ]
        if not legal:
            return
        a, b = legal[int(gen.integers(len(legal)))]
        links.add((a, b))
        degree[a] += 1
        degree[b] += 1


def _sample(n, ports, seed, fill):
    """Sorted links, or the error message, of one generator call."""
    try:
        t = random_irregular_topology(n, ports, rng=seed, fill=fill, max_attempts=4)
    except TopologyGenError as exc:
        return str(exc)
    return t.links


class TestMatchesListBuildingReference:
    FILLS = (0.55, 0.75, 0.95, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 33, 128])
    def test_same_links_and_errors(self, n, monkeypatch):
        seeds = range(1) if n == 128 else range(6)
        grid = [
            (ports, seed, fill)
            for ports in range(2, 9)
            for seed in seeds
            for fill in self.FILLS
        ]
        got = [_sample(n, *cell) for cell in grid]

        wedged = []

        def reference(links, n, ports, num_links, gen):
            _reference_add_random_links(links, n, ports, num_links, gen)
            wedged.append(len(links) < num_links)

        monkeypatch.setattr(generator, "_add_random_links", reference)
        want = [_sample(n, *cell) for cell in grid]
        for cell, g, w in zip(grid, got, want):
            assert g == w, f"n={n} (ports, seed, fill)={cell}"
        if n in (16, 33, 128):
            # the grid exercises the retry path, not only clean draws
            assert any(wedged)
        if n == 16:
            assert any(isinstance(w, str) for w in want)

    @pytest.mark.parametrize(
        "ports, digest",
        [
            (4, "9b15a2f7a1ef799bc1df3f169dfe076fd34252e8001fdb9476efab3f078f6beb"),
            (8, "538e18b6f5b75a204e38d01124b2840f9b876b9d905397722bb4b06ccf6e3fa2"),
        ],
    )
    def test_paper_topologies_pinned(self, ports, digest):
        t = make_topology(get_preset("paper"), ports, 0)
        links = json.dumps(sorted(t.links)).encode()
        assert hashlib.sha256(links).hexdigest() == digest

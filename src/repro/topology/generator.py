"""Random irregular topology generation.

The paper evaluates on "randomly generated" irregular networks of 128
switches with 4-port and 8-port switches (10 samples per configuration).
It does not spell out the sampling procedure, so we follow the standard
methodology of the irregular-network literature (Silla & Duato, Jouraku
et al.): draw a degree-bounded random *connected* graph —

1. build a random spanning tree (guarantees connectivity) whose degrees
   respect the port bound, then
2. add further random links between non-adjacent, non-saturated switch
   pairs until a target link count is reached or no legal pair remains.

The default link count aims at a mean degree of ``fill * ports`` with
``fill = 0.75``, which leaves some port-count irregularity between
switches (the evaluation's *node utilization* metric explicitly divides
by "the number of ports connecting to other switches", implying degrees
below the bound occur).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.topology.graph import Topology
from repro.util.rng import RngLike, as_generator


class TopologyGenError(RuntimeError):
    """Raised when no legal topology exists for the requested parameters."""


def random_irregular_topology(
    n: int,
    ports: int,
    rng: RngLike = None,
    num_links: Optional[int] = None,
    fill: float = 0.75,
    max_attempts: int = 64,
    style: Optional[str] = None,
) -> Topology:
    """Sample a connected irregular topology with degree bound *ports*.

    Parameters
    ----------
    n:
        Number of switches (the paper uses 128).
    ports:
        Maximum inter-switch links per switch (4 or 8 in the paper).
    rng:
        Seed or generator; the sample is deterministic given it.
    num_links:
        Exact number of links.  Must be in ``[n-1, n*ports//2]``.  If
        ``None``, ``round(fill * n * ports / 2)`` is used (clamped).
    fill:
        Fraction of total port capacity occupied by links when
        *num_links* is not given.
    max_attempts:
        Random link addition can wedge (all remaining capacity sits on
        already-adjacent pairs); the generator retries with a fresh tree
        this many times before giving up.
    style:
        Convenience presets overriding *fill*: ``"sparse"`` (0.55 —
        tree-heavy, deep networks), ``"default"`` (0.75), ``"dense"``
        (0.95 — most switches port-saturated, the Silla & Duato style).
        Ignored when *num_links* is given explicitly.
    """
    if style is not None:
        try:
            fill = {"sparse": 0.55, "default": 0.75, "dense": 0.95}[style]
        except KeyError:
            raise ValueError(
                f"unknown style {style!r}; use sparse, default or dense"
            ) from None
    if ports < 2 and n > 2:
        raise TopologyGenError(
            f"ports={ports} cannot connect {n} switches (tree needs degree 2)"
        )
    if n == 1:
        return Topology(1, [], ports=ports)

    lo, hi = n - 1, min(n * ports // 2, n * (n - 1) // 2)
    if num_links is None:
        num_links = min(max(int(round(fill * n * ports / 2.0)), lo), hi)
    if not (lo <= num_links <= hi):
        raise TopologyGenError(
            f"num_links={num_links} outside feasible range [{lo}, {hi}] "
            f"for n={n}, ports={ports}"
        )

    gen = as_generator(rng)
    last_links = 0
    for _ in range(max_attempts):
        links = _random_bounded_tree(n, ports, gen)
        _add_random_links(links, n, ports, num_links, gen)
        if len(links) == num_links:
            return Topology(n, sorted(links), ports=ports)
        last_links = len(links)
    raise TopologyGenError(
        f"could not reach {num_links} links under the {ports}-port bound "
        f"after {max_attempts} attempts (best: {last_links})"
    )


def _random_bounded_tree(
    n: int, ports: int, gen
) -> Set[Tuple[int, int]]:
    """A uniform-ish random spanning tree with all degrees <= *ports*.

    Random-permutation attachment: visit switches in random order and
    attach each to a uniformly chosen earlier switch that still has port
    capacity.  Every switch keeps at least one free port while the tree
    is growing only if capacity allows; degree saturation is respected
    exactly.
    """
    order = list(gen.permutation(n))
    degree = [0] * n
    links: Set[Tuple[int, int]] = set()
    attached: List[int] = [order[0]]
    for v in order[1:]:
        candidates = [u for u in attached if degree[u] < ports]
        if not candidates:  # pragma: no cover - ports>=2 prevents this
            raise TopologyGenError("spanning tree wedged on port bound")
        u = candidates[int(gen.integers(len(candidates)))]
        links.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1
        attached.append(v)
    return links


def _add_random_links(
    links: Set[Tuple[int, int]],
    n: int,
    ports: int,
    num_links: int,
    gen,
) -> None:
    """Add random extra links to *links* in place, respecting bounds.

    Repeatedly draws a uniform legal pair ``(a, b)``, ``a < b``: both
    switches non-saturated and not yet adjacent.  The draw indexes the
    legal pairs in lexicographic order without listing them: each open
    switch ``a`` counts its legal partners (the open switches after it,
    minus its links to them) and the counts are walked to the k-th pair.
    Stops when the target is met or no legal pair remains.
    """
    degree = [0] * n
    later: List[Set[int]] = [set() for _ in range(n)]  # links are (low, high)
    for u, v in links:
        degree[u] += 1
        degree[v] += 1
        later[u].add(v)
    while len(links) < num_links:
        open_switches = [v for v in range(n) if degree[v] < ports]
        m = len(open_switches)
        counts = [
            m - 1 - i - sum(1 for b in later[a] if degree[b] < ports)
            for i, a in enumerate(open_switches)
        ]
        total = sum(counts)
        if not total:
            return
        k = int(gen.integers(total))
        i = 0
        while k >= counts[i]:
            k -= counts[i]
            i += 1
        a = open_switches[i]
        for b in open_switches[i + 1 :]:
            if b not in later[a]:
                if not k:
                    break
                k -= 1
        links.add((a, b))
        later[a].add(b)
        degree[a] += 1
        degree[b] += 1

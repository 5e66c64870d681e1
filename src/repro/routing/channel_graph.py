"""The channel dependency graph and turn-cycle search.

Nodes are the directed channels; there is an edge ``a -> b`` when a worm
holding channel ``a`` may request channel ``b`` next, i.e. ``b`` starts
at ``a``'s sink, is not the reverse of ``a``, and the switch's turn model
allows the class pair.  A cycle in this graph is exactly a *turn cycle*
(Definition 7); its absence is the Dally-Seitz sufficient condition for
wormhole deadlock freedom, so :func:`find_turn_cycle` is the executable
form of the paper's Lemma 1 / Theorem 1.

:func:`would_close_cycle` is the reachability query at the heart of the
Phase-3 ``cycle_detection`` algorithm: releasing turn ``(e_in -> e_out)``
at a switch is unsafe iff ``e_in`` is already reachable from ``e_out``
(the released turn would then close the loop).
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.routing.base import TurnModel, first_seen_ids


def dependency_adjacency(turn_model: TurnModel) -> List[List[int]]:
    """Adjacency list of the channel dependency graph under *turn_model*."""
    topo = turn_model.topology
    adj: List[List[int]] = [[] for _ in range(topo.num_channels)]
    for a in range(topo.num_channels):
        v = topo.channel(a).sink
        for b in topo.output_channels(v):
            if b != (a ^ 1) and turn_model.is_turn_allowed(v, a, b):
                adj[a].append(b)
    return adj


def find_cycle(adj: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """Return some elementary cycle of the digraph *adj*, or ``None``.

    Iterative three-colour DFS; the returned list is the cycle's node
    sequence (first node repeated implicitly).
    """
    n = len(adj)
    WHITE, GRAY, BLACK = 0, 1, 2
    colour = [WHITE] * n
    parent: Dict[int, int] = {}
    for root in range(n):
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        colour[root] = GRAY
        while stack:
            v, idx = stack[-1]
            if idx < len(adj[v]):
                stack[-1] = (v, idx + 1)
                w = adj[v][idx]
                if colour[w] == WHITE:
                    colour[w] = GRAY
                    parent[w] = v
                    stack.append((w, 0))
                elif colour[w] == GRAY:
                    cycle = [v]
                    while cycle[-1] != w:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
            else:
                colour[v] = BLACK
                stack.pop()
    return None


def find_turn_cycle(turn_model: TurnModel) -> Optional[List[int]]:
    """A turn cycle (as a channel sequence) under *turn_model*, or ``None``.

    ``None`` certifies deadlock freedom of any routing that respects the
    turn model (acyclic channel dependencies — Dally & Seitz).
    """
    return find_cycle(dependency_adjacency(turn_model))


def reachable(
    adj: Sequence[Sequence[int]], source: int, target: int
) -> bool:
    """Is *target* reachable from *source* (possibly via a trivial path)?

    ``source == target`` counts as reachable only through an actual
    cycle; a zero-length path does **not** count, matching the Phase-3
    question "can the worm come back around?".
    """
    seen: Set[int] = set()
    stack = list(adj[source])
    while stack:
        v = stack.pop()
        if v == target:
            return True
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    return False


def would_close_cycle(
    adj: Sequence[Sequence[int]], e_in: int, e_out: int
) -> bool:
    """Would additionally allowing the dependency ``e_in -> e_out`` close a cycle?

    True iff ``e_in`` is reachable from ``e_out`` in the current
    dependency graph *adj* — the candidate edge would then complete the
    loop ``e_in -> e_out ~~> e_in``.  (This is the DFS of the paper's
    ``cycle_detection`` algorithm, Section 4.3, expressed as plain
    reachability.)
    """
    return reachable(adj, e_out, e_in)


# ---------------------------------------------------------------------------
# turn-restricted shortest paths
# ---------------------------------------------------------------------------


def reverse_adjacency(adj: Sequence[Sequence[int]]) -> List[List[int]]:
    """Reverse adjacency: predecessors of channel ``b`` are the channels
    ``a`` with an allowed dependency ``a -> b``."""
    radj: List[List[int]] = [[] for _ in range(len(adj))]
    for a, outs in enumerate(adj):
        for b in outs:
            radj[b].append(a)
    return radj


def shortest_path_dags(
    turn_model: TurnModel,
    dest: int,
    adj: Optional[Sequence[Sequence[int]]] = None,
    radj: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[List[int], List[Tuple[int, ...]], List[Tuple[int, ...]]]:
    """Turn-restricted shortest-path data toward *dest*.

    Returns ``(dist, next_hops, first_hops)`` where

    * ``dist[c]`` — hops remaining after traversing channel ``c``
      (``0`` iff ``sink(c) == dest``; ``UNREACHABLE_INT`` if no
      admissible continuation reaches *dest*);
    * ``next_hops[c]`` — admissible outputs continuing a shortest path;
    * ``first_hops[s]`` — minimal admissible first channels for a packet
      injected at switch ``s`` (empty for ``s == dest``).

    Implemented as a reverse BFS over the channel dependency graph from
    the set of channels sinking at *dest* (all hops cost 1 clockless hop,
    so plain BFS yields exact distances).

    The dependency graph does not depend on *dest*; callers asking for
    several destinations pass a precomputed *adj* (and optionally its
    *radj* reversal) so classification runs once per turn model.  The
    routing tables themselves come from :func:`shortest_path_tables`,
    which tests hold to this function as the reference.
    """
    topo = turn_model.topology
    n_ch = topo.num_channels
    UNREACH = 2**31 - 1

    if adj is None:
        adj = dependency_adjacency(turn_model)
    if radj is None:
        radj = reverse_adjacency(adj)

    dist = [UNREACH] * n_ch
    frontier = list(topo.input_channels(dest))
    for c in frontier:
        dist[c] = 0
    level = 0
    while frontier:
        level += 1
        nxt = []
        for b in frontier:
            for a in radj[b]:
                if dist[a] == UNREACH:
                    dist[a] = level
                    nxt.append(a)
        frontier = nxt

    next_hops: List[Tuple[int, ...]] = []
    for a in range(n_ch):
        if dist[a] == UNREACH or dist[a] == 0:
            next_hops.append(())
            continue
        want = dist[a] - 1
        next_hops.append(tuple([b for b in adj[a] if dist[b] == want]))

    first_hops: List[Tuple[int, ...]] = []
    for s in range(topo.n):
        if s == dest:
            first_hops.append(())
            continue
        outs = topo.output_channels(s)
        finite = [c for c in outs if dist[c] != UNREACH]
        if not finite:
            first_hops.append(())
            continue
        best = min([dist[c] for c in finite])
        first_hops.append(tuple([c for c in finite if dist[c] == best]))
    return dist, next_hops, first_hops


#: largest (switch, subset) key space numbered through a dense table
#: (8 ports at 128 switches need 2**15)
_DENSE_KEYS = 1 << 20


def shortest_path_tables(
    turn_model: TurnModel,
) -> Tuple[np.ndarray, Tuple[Tuple[int, ...], ...], np.ndarray, np.ndarray]:
    """:func:`shortest_path_dags` for every destination at once.

    Returns ``(dist, candidate_sets, next_idx, first_idx)``: ``dist`` an
    ``(n, num_channels)`` int32 array, and the candidate tables as the
    distinct candidate sets (the empty set first, the rest in first-seen
    order over the ``next_idx`` rows, then the ``first_idx`` rows) plus
    int32 index arrays indexed ``[dest][channel]`` / ``[dest][switch]``.
    Every entry equals what :func:`shortest_path_dags` returns for that
    destination.  One array BFS advances all destinations a level at a
    time, and each candidate set is read off as a bit mask over the
    outputs of the switch it leaves.
    """
    topo = turn_model.topology
    n, n_ch = topo.n, topo.num_channels
    UNREACH = 2**31 - 1
    adj = dependency_adjacency(turn_model)

    # channel-major: dist[c, d]; row n_ch is a never-reached sentinel
    # that pads the successor rows of low-degree channels
    width = max([1] + [len(outs) for outs in adj])
    succ = np.full((n_ch, width), n_ch, dtype=np.intp)
    for a, outs in enumerate(adj):
        succ[a, : len(outs)] = outs
    sink = np.array([ch.sink for ch in topo.channels], dtype=np.intp)
    dist = np.full((n_ch + 1, n), UNREACH, dtype=np.int32)
    dist[np.arange(n_ch), sink] = 0

    frontier = dist == 0
    unseen = dist[:n_ch] == UNREACH
    level = 0
    while frontier.any():
        level += 1
        hit = frontier[succ[:, 0]]
        for t in range(1, width):
            hit |= frontier[succ[:, t]]
        hit &= unseen
        unseen &= ~hit
        frontier[:n_ch] = hit
        dist[:n_ch][hit] = level

    # every candidate set leaves one switch: key it as (switch, bit mask
    # over that switch's output slots), the empty set as 0; keys must
    # fit in int64, only very high port counts need Python integers
    outs = [topo.output_channels(s) for s in range(n)]
    out_width = max([1] + [len(o) for o in outs])
    dtype = np.int64 if n.bit_length() + out_width < 63 else object
    slot = np.zeros(n_ch + 1, dtype=np.int64)
    for o in outs:
        slot[list(o)] = range(len(o))
    slot = slot.astype(dtype)

    def entry_keys(switch: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Row-major ``[dest][owner]`` keys of ``(owner, dest)`` masks."""
        key = (switch.astype(dtype) << out_width)[:, None] | mask
        return np.where(mask != 0, key, 0).T.ravel()

    # next hops: the successors one hop closer (the sentinel never
    # matches, and nothing sits at want = -1 or UNREACH - 1)
    want = dist[:n_ch] - 1
    next_mask = np.zeros((n_ch, n), dtype=dtype)
    for t in range(width):
        hop = dist[succ[:, t]] == want
        next_mask |= hop.astype(dtype) << slot[succ[:, t]][:, None]

    # first hops: the minimal reachable outputs of each source switch
    out_pad = np.full((n, out_width), n_ch, dtype=np.intp)
    for s, o in enumerate(outs):
        out_pad[s, : len(o)] = o
    d_out = dist[out_pad]  # (source, port, dest)
    best = d_out.min(axis=1)
    routable = (best != UNREACH) & ~np.eye(n, dtype=bool)
    first_mask = np.zeros((n, n), dtype=dtype)
    for t in range(out_width):
        first_mask |= ((d_out[:, t] == best) & routable).astype(dtype) << t

    # one key per table entry in codec order, the empty set first
    keys = np.concatenate(
        (
            np.zeros(1, dtype=dtype),
            entry_keys(sink, next_mask),
            entry_keys(np.arange(n), first_mask),
        )
    )
    if dtype is np.int64 and n << out_width <= _DENSE_KEYS:
        # a table over the whole key space: no sort, so numpy's sort
        # kernels (about half a megabyte of resident code) stay unloaded
        order, ids = first_seen_ids(keys, n << out_width)
    else:  # high port counts leave the key space too sparse for a table
        uniq, codes = np.unique(keys, return_inverse=True)
        order, ids = first_seen_ids(codes.ravel(), len(uniq))
        order = uniq[order]
    low = (1 << out_width) - 1
    selectors: Dict[int, List[int]] = {}
    candidate_sets = []
    for key in order.tolist():
        mask = key & low
        sel = selectors.get(mask)
        if sel is None:
            sel = selectors[mask] = [mask >> t & 1 for t in range(out_width)]
        candidate_sets.append(tuple(compress(outs[key >> out_width], sel)))
    return (
        np.ascontiguousarray(dist[:n_ch].T),
        tuple(candidate_sets),
        ids[1 : 1 + n * n_ch].reshape(n, n_ch),
        ids[1 + n * n_ch :].reshape(n, n),
    )

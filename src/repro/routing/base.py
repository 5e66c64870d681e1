"""Turn models and routing functions.

Every algorithm in this reproduction is a *turn-model* routing: channels
are classified into a small number of direction classes and each switch
carries a boolean "allowed" matrix over class pairs.  A packet arriving
on input channel ``a`` may leave on output channel ``b`` iff the switch's
matrix allows the class pair ``(class(a), class(b))`` — and never back
out of the link it came in on (no U-turns).  Injection from the local
processor is unrestricted.

:class:`TurnModel` stores this state with copy-on-write per-switch
matrices so that Phase-3-style per-node releases stay cheap, and
:class:`RoutingFunction` packages the final adaptive routing tables
(shortest admissible paths, per the paper's simulation methodology) for
the simulator and the static analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.graph import Topology


class TurnModel:
    """Per-switch allowed-turn state over a channel classification.

    Parameters
    ----------
    topology:
        The network graph.
    channel_class:
        ``channel_class[cid]`` — integer class (0..K-1) of each channel.
    base_allowed:
        ``K x K`` boolean matrix applied at every switch initially.
        ``base_allowed[i, j]`` is True iff a turn from a class-``i``
        input to a class-``j`` output is allowed.  The diagonal is
        normally all-True (continuing in the same class is not a turn in
        the Definition-8 sense and is never prohibited by the paper's
        algorithms).
    class_names:
        Optional names for reporting (e.g. the Direction enum names).
    """

    __slots__ = (
        "topology",
        "channel_class",
        "num_classes",
        "class_names",
        "_base",
        "_overrides",
        "_pair_exceptions",
    )

    def __init__(
        self,
        topology: Topology,
        channel_class: Sequence[int],
        base_allowed: np.ndarray,
        class_names: Optional[Sequence[str]] = None,
    ) -> None:
        if len(channel_class) != topology.num_channels:
            raise ValueError(
                f"channel_class has {len(channel_class)} entries for "
                f"{topology.num_channels} channels"
            )
        base = np.asarray(base_allowed, dtype=bool)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ValueError("base_allowed must be a square matrix")
        k = base.shape[0]
        cls = np.asarray(channel_class, dtype=np.int16)
        if cls.size and (cls.min() < 0 or cls.max() >= k):
            raise ValueError(
                f"channel classes must lie in [0, {k}); got "
                f"[{cls.min()}, {cls.max()}]"
            )
        self.topology = topology
        self.channel_class = cls
        self.num_classes = k
        self.class_names = (
            tuple(class_names)
            if class_names is not None
            else tuple(f"class{i}" for i in range(k))
        )
        self._base = base
        self._base.setflags(write=False)
        self._overrides: Dict[int, np.ndarray] = {}
        # channel-pair-granular releases (Phase 3 operates per input /
        # output channel pair, not per class pair): (cid_in, cid_out)
        # entries are allowed regardless of the class matrices.
        self._pair_exceptions: set = set()

    # ------------------------------------------------------------------
    @property
    def base_matrix(self) -> np.ndarray:
        """The shared (pre-override) allowed matrix, read-only."""
        return self._base

    def allowed_matrix(self, v: int) -> np.ndarray:
        """The (read-only view of the) allowed matrix at switch *v*."""
        return self._overrides.get(v, self._base)

    def is_turn_allowed(self, v: int, cid_in: int, cid_out: int) -> bool:
        """May a packet turn from input *cid_in* to output *cid_out* at *v*?

        U-turns (back out of the same link) are always denied; otherwise
        the switch's matrix decides by channel classes.  The caller is
        responsible for *cid_in* sinking at ``v`` and *cid_out* starting
        there.
        """
        if cid_out == (cid_in ^ 1):
            return False
        if (cid_in, cid_out) in self._pair_exceptions:
            return True
        m = self._overrides.get(v, self._base)
        return bool(m[self.channel_class[cid_in], self.channel_class[cid_out]])

    def allow_channel_pair(self, cid_in: int, cid_out: int) -> None:
        """Release the single turn (cid_in -> cid_out), Phase-3 style.

        The two channels must meet at a switch (``sink(cid_in) ==
        start(cid_out)``); the release applies to this exact channel pair
        only, leaving the class-level prohibition in force for every
        other pair at the switch.
        """
        a = self.topology.channel(cid_in)
        b = self.topology.channel(cid_out)
        if a.sink != b.start:
            raise ValueError(
                f"channels {cid_in} and {cid_out} do not meet at a switch"
            )
        if cid_out == (cid_in ^ 1):
            raise ValueError("cannot release a U-turn")
        self._pair_exceptions.add((cid_in, cid_out))

    def released_channel_pairs(self) -> List[Tuple[int, int]]:
        """All channel-pair releases, sorted (Phase-3 audit trail)."""
        return sorted(self._pair_exceptions)

    def set_turn(self, v: int, cls_in: int, cls_out: int, allowed: bool) -> None:
        """Set the (cls_in -> cls_out) entry of switch *v*'s matrix.

        Installs a per-switch copy on first modification (copy-on-write).
        """
        m = self._overrides.get(v)
        if m is None:
            m = self._base.copy()
            m.setflags(write=True)
            self._overrides[v] = m
        m[cls_in, cls_out] = allowed

    def overridden_switches(self) -> List[int]:
        """Switches whose matrix differs from the base (Phase-3 releases)."""
        return sorted(
            v
            for v, m in self._overrides.items()
            if not np.array_equal(m, self._base)
        )

    def released_turns(self) -> List[Tuple[int, int, int]]:
        """All per-switch relaxations: (switch, cls_in, cls_out) triples
        that are allowed locally but prohibited by the base matrix."""
        out = []
        for v, m in sorted(self._overrides.items()):
            extra = np.argwhere(m & ~self._base)
            out.extend((v, int(i), int(j)) for i, j in extra)
        return out

    # ------------------------------------------------------------------
    # introspection (consumed by the turn-optimality auditor in
    # repro.statics.audit and by reporting code; none of these mutate)
    # ------------------------------------------------------------------
    def realized_class_turns(self) -> set:
        """Class pairs realized by at least one channel pair somewhere.

        A class turn ``(i, j)`` is *realized* when some switch has an
        input channel of class ``i`` and an output channel of class
        ``j`` forming a legal (non-U-turn) pair — i.e. prohibiting it
        actually removes a dependency edge.  A prohibited class turn
        that is never realized is *vacuous* on this topology.
        """
        topo = self.topology
        cls = self.channel_class
        realized: set = set()
        for v in range(topo.n):
            ins = topo.input_channels(v)
            outs = topo.output_channels(v)
            for a in ins:
                for b in outs:
                    if b != (a ^ 1):
                        realized.add((int(cls[a]), int(cls[b])))
        return realized

    def copy(self) -> "TurnModel":
        """Deep copy (used by ablations toggling Phase 3)."""
        clone = TurnModel(
            self.topology, self.channel_class, self._base.copy(), self.class_names
        )
        clone._overrides = {v: m.copy() for v, m in self._overrides.items()}
        clone._pair_exceptions = set(self._pair_exceptions)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TurnModel(classes={self.num_classes}, "
            f"overrides={len(self._overrides)})"
        )


def first_seen_ids(keys: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Number *keys* (ints in ``[0, size)``) in order of first appearance:
    ``(order, ids)`` with ``order[i]`` the key numbered ``i`` and ``ids``
    the number of every key, so ``order[ids] == keys``."""
    pos = np.arange(len(keys))
    first = np.full(size, len(keys), dtype=np.intp)
    np.minimum.at(first, keys, pos)
    order = keys[first[keys] == pos]
    number = np.zeros(size, dtype=np.int32)
    number[order] = np.arange(len(order), dtype=np.int32)
    return order, number[keys]


@dataclass(frozen=True)
class RoutingFunction:
    """An adaptive routing function over shortest admissible paths.

    The simulation methodology of Section 5 routes every packet along
    *shortest possible paths* under the algorithm's turn restrictions,
    choosing randomly when several minimal options exist.  This object
    precomputes, for every destination:

    ``dist[d][c]``
        Remaining hops (channels still to traverse) after arriving over
        channel ``c``, on a shortest admissible path to ``d``
        (``UNREACHABLE`` when none exists; ``0`` iff ``sink(c) == d``).
    ``candidate_sets[next_idx[d][c]]``
        The minimal admissible output channels for a packet that arrived
        over ``c`` and still heads to ``d``.
    ``candidate_sets[first_idx[d][s]]``
        The minimal output channels for a packet injected at ``s``.

    The candidate sets are held once: ``candidate_sets`` lists the
    distinct sets (index 0 the empty one; builders list the rest in
    first-seen order over the ``next_idx``, then the ``first_idx`` rows,
    the ``repro-routing-v2`` layout) and the read-only int32 arrays index
    into it.  ``next_hops[d][c]`` / ``first_hops[d][s]`` are a lazily
    built tuple view of the same tables.

    All candidate sets are *complete* (every minimal admissible choice is
    listed), which is what makes the routing adaptive.
    """

    topology: Topology
    name: str
    turn_model: TurnModel
    dist: np.ndarray  # (n_dest, n_channels) int32
    candidate_sets: Tuple[Tuple[int, ...], ...]
    next_idx: np.ndarray  # (n_dest, n_channels) int32 into candidate_sets
    first_idx: np.ndarray  # (n_dest, n_switches) int32 into candidate_sets
    meta: Dict[str, object] = field(default_factory=dict)

    UNREACHABLE = np.iinfo(np.int32).max

    def __post_init__(self) -> None:
        for table in (self.dist, self.next_idx, self.first_idx):
            table.setflags(write=False)

    def _view(self, index: np.ndarray) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        sets = np.fromiter(self.candidate_sets, dtype=object, count=len(self.candidate_sets))
        return tuple(map(tuple, sets[index].tolist()))

    @cached_property
    def next_hops(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """``next_hops[d][c]``: the candidate set of each en-route state."""
        return self._view(self.next_idx)

    @cached_property
    def first_hops(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """``first_hops[d][s]``: the candidate set of each injection."""
        return self._view(self.first_idx)

    @cached_property
    def candidate_matrix(self) -> np.ndarray:
        """Read-only ``candidate_sets`` as an int32 array, one row per
        set, its channels in order and padded with ``-1``."""
        sets = self.candidate_sets
        matrix = np.full((len(sets), max([1] + [len(s) for s in sets])), -1, np.int32)
        for i, s in enumerate(sets):
            matrix[i, : len(s)] = s
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def candidate_sizes(self) -> np.ndarray:
        """Read-only length of every candidate set."""
        sizes = (self.candidate_matrix >= 0).sum(axis=1)
        sizes.setflags(write=False)
        return sizes

    def candidates(
        self, input_channel: Optional[int], node: int, dest: int
    ) -> Tuple[int, ...]:
        """Admissible minimal output channels at *node* toward *dest*.

        *input_channel* is ``None`` for a freshly injected packet.  An
        empty tuple with ``node == dest`` means "consume locally".
        """
        if node == dest:
            return ()
        if input_channel is None:
            return self.candidate_sets[self.first_idx[dest, node]]
        return self.candidate_sets[self.next_idx[dest, input_channel]]

    def path_length(self, src: int, dest: int) -> int:
        """Hops (channels) on a shortest admissible path from *src* to *dest*."""
        if src == dest:
            return 0
        opts = self.candidate_sets[self.first_idx[dest, src]]
        if not opts:
            raise ValueError(f"{self.name}: no admissible path {src}->{dest}")
        return 1 + min(int(self.dist[dest][c]) for c in opts)

    def average_path_length(self) -> float:
        """Mean shortest admissible path length over all ordered pairs."""
        n = self.topology.n
        total = 0
        pairs = 0
        for s in range(n):
            for d in range(n):
                if s != d:
                    total += self.path_length(s, d)
                    pairs += 1
        return total / pairs if pairs else 0.0

    def deterministic(self, rng=None) -> "RoutingFunction":
        """A deterministic variant: one fixed choice per decision point.

        Related work [6] (Sancho/Robles/Duato) studies *deterministic
        source routing* on irregular networks; this derives the
        deterministic counterpart of any adaptive routing here by
        fixing, per decision point, a single candidate (chosen with
        *rng*, defaulting to the first).  Distances, deadlock freedom
        and connectivity are untouched — only the adaptive freedom is
        removed — so the pair isolates the value of adaptivity in
        benchmarks.  Choices are drawn entry by entry over the
        ``next_idx`` rows, then the ``first_idx`` rows.
        """
        from repro.util.rng import as_generator

        gen = None if rng is None else as_generator(rng)
        n, n_ch = self.first_idx.shape[0], self.next_idx.shape[1]
        entries = np.concatenate(([0], self.next_idx.ravel(), self.first_idx.ravel()))
        choice = self.candidate_matrix[entries, 0]  # -1 for the empty set
        if gen is not None:
            for i in np.flatnonzero(self.candidate_sizes[entries] > 1).tolist():
                opts = self.candidate_sets[entries[i]]
                choice[i] = opts[int(gen.integers(len(opts)))]
        # every set is now empty (key 0) or one channel c (key c + 1)
        order, ids = first_seen_ids(choice + 1, n_ch + 1)
        return RoutingFunction(
            topology=self.topology,
            name=f"{self.name}/deterministic",
            turn_model=self.turn_model,
            dist=self.dist,
            candidate_sets=tuple((k - 1,) if k else () for k in order.tolist()),
            next_idx=ids[1 : 1 + n * n_ch].reshape(n, n_ch),
            first_idx=ids[1 + n * n_ch :].reshape(n, n),
            meta={**self.meta, "deterministic": True},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoutingFunction({self.name!r}, n={self.topology.n})"

"""Worm (packet) state for the wormhole engine.

A worm is represented by the ordered chain of channels it currently
holds (head first) with a flit *count* per channel — individual data
flits are interchangeable, so only the header needs identity.  The
invariant maintained by the engine every clock::

    flits_at_source + sum(chain counts) + consumed == length

``Worm`` is a plain mutable record; all behaviour lives in the engine.
"""

from __future__ import annotations

from typing import List, Optional


class Worm:
    """One packet in flight (or queued at its source)."""

    __slots__ = (
        "pid",
        "src",
        "dst",
        "length",
        "t_gen",
        "t_inject",
        "t_head_arrival",
        "t_done",
        "chain",
        "chain_flits",
        "flits_at_source",
        "consumed",
        "head_ready_at",
        "consuming",
        "hops",
        "full_length",
        "corrupted",
        "attempts",
        "logical_id",
        "quiet",
        "hdr_req",
        "parked",
        "seq",
    )

    def __init__(self, pid: int, src: int, dst: int, length: int, t_gen: int) -> None:
        self.pid = pid
        self.src = src
        self.dst = dst
        self.length = length
        self.t_gen = t_gen
        #: original payload length; ``length`` may shrink when a fault
        #: truncates the worm under the ``drain`` policy
        self.full_length = length
        #: True once a link failure cut this worm's tail off — the
        #: surviving fragment drains to the destination but the packet
        #: does not count as delivered
        self.corrupted = False
        #: source-side re-injections of this logical packet so far
        self.attempts = 0
        #: stable id across retries (the original worm's pid)
        self.logical_id = pid
        #: clock the header entered the network (left the source queue)
        self.t_inject: Optional[int] = None
        #: clock the header reached the destination's consumption port
        self.t_head_arrival: Optional[int] = None
        #: clock the last flit was consumed
        self.t_done: Optional[int] = None
        #: channels held, head (closest to destination) first
        self.chain: List[int] = []
        #: flits buffered in each held channel (parallel to ``chain``)
        self.chain_flits: List[int] = []
        self.flits_at_source = length
        self.consumed = 0
        #: earliest clock the header may move again (routing + link delays)
        self.head_ready_at = t_gen
        #: True once the worm holds its destination's consumption port
        self.consuming = False
        #: network hops taken by the header (chain acquisitions)
        self.hops = 0
        #: fast-path scheduler flag: no body move possible until the
        #: next grant (maintained by the engines' active-set step)
        self.quiet = False
        #: fast-path memo of this worm's header request while it waits;
        #: ``None`` when stale (cleared on grants and epoch changes)
        self.hdr_req = None
        #: fast-path flag: ``hdr_req`` is parked on the waiter lists of
        #: its (all busy) resources until one of them is released
        self.parked = False
        #: fast-path position key in active order (injection order)
        self.seq = -1

    # ------------------------------------------------------------------
    def total_flits_held(self) -> int:
        """Flits currently buffered in network channels."""
        return sum(self.chain_flits)

    def check_invariant(self) -> None:
        """Assert flit conservation (used by tests and the debug mode)."""
        held = self.total_flits_held()
        if self.flits_at_source + held + self.consumed != self.length:
            raise AssertionError(
                f"worm {self.pid}: {self.flits_at_source} at source + "
                f"{held} held + {self.consumed} consumed != {self.length}"
            )
        if any(f < 0 for f in self.chain_flits):
            raise AssertionError(f"worm {self.pid}: negative buffer count")

    @property
    def done(self) -> bool:
        """All flits consumed at the destination."""
        return self.consumed == self.length

    @property
    def latency(self) -> Optional[int]:
        """Generation-to-last-flit latency (the paper's message latency)."""
        return None if self.t_done is None else self.t_done - self.t_gen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Worm({self.pid}: {self.src}->{self.dst}, len={self.length}, "
            f"chain={list(zip(self.chain, self.chain_flits))}, "
            f"src_flits={self.flits_at_source}, consumed={self.consumed})"
        )

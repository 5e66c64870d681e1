"""Struct-of-arrays flit state for the batch engine.

The scalar engines walk per-worm channel chains (Python lists) every
clock.  The batch engine keeps the same information as three flat
numpy arrays over a *unified channel id space* so one batched update
rule covers consumption, in-network advances and source feeds alike:

``k in [0, C)``
    the topology's real channels (``C = num_channels``);
``k in [C, C+S)``
    one *source pseudo-channel* per switch (``S = n``): the flits a
    worm still holds at its source processor.  Its downstream is the
    worm's tail channel, so "feed from source" is just an advance;
``k in [C+S, C+2S)``
    one *sink pseudo-channel* per switch: flits consumed at the
    destination.  Its capacity is unbounded (the consumption port
    never back-pressures a streaming worm), so "consume" is an advance
    into the sink;
``k = C+2S`` (the *dummy*)
    a parking target with capacity 0.  Every worm's head channel points
    here until a grant redirects it, which is exactly what blocks the
    header flit from advancing on its own.

Arrays:

* ``flits[k]`` — flit count buffered in channel *k* (monotone counter
  for sink slots);
* ``dn[k]`` — the downstream channel of *k*: the next channel toward
  the head for a held chain channel, the tail channel for a feeding
  source slot, the sink slot for a consuming head, the dummy for a
  parked head.  Only meaningful while ``flits[k] > 0`` or *k* is held;
* ``cap_at[k]`` — receive capacity of *k* (``buffer_flits`` for real
  channels, unbounded for sinks, 0 for the dummy);
* ``occ[k]`` — numpy mirror of the engine's ``channel_occ`` list over
  real channels (worm pid or ``FREE``), kept in lockstep at the scalar
  grant/release points so arbitration can gather occupancy in bulk.

One clock of body movement is then a single masked scatter::

    m = (flits > 0) & (flits[dn] < cap_at[dn])     # start-of-clock plan
    flits[m] -= 1; flits[dn[m]] += 1               # commit

The scatter targets are provably unique: channels of distinct worms
are disjoint, a chain is a simple path (one upstream per channel), a
source slot feeds only its worm's tail, and at most one worm consumes
per switch — so plain fancy-indexed ``+= 1`` is exact, with no
``np.add.at`` needed.

The arrays are *authoritative for flit counts*; worm objects keep
identity state (chain membership, timestamps, consuming) maintained at
the scalar grant/release paths.  :meth:`ArrayState.sync_worms` writes
counts back onto the objects (before invariant checks and reports).
Nothing rewrites worm state from outside the engine — the batch engine
refuses live faults — so the arrays never need rebuilding from the
objects.
"""

from __future__ import annotations

import numpy as np

FREE = -1  # must match repro.simulator.engine.FREE


class ArrayState:
    """Flat flit/topology arrays over the unified channel id space."""

    __slots__ = (
        "C", "S", "SRC0", "SINK0", "D", "K",
        "flits", "dn", "cap_at", "cap_dn", "occ", "cap", "cap_sink",
    )

    def __init__(self, num_channels: int, n: int, buffer_flits: int) -> None:
        C, S = num_channels, n
        self.C = C
        self.S = S
        self.SRC0 = C
        self.SINK0 = C + S
        self.D = C + 2 * S
        self.K = self.D + 1
        #: the three capacity constants, for incremental cap_dn upkeep
        self.cap = buffer_flits
        self.cap_sink = np.iinfo(np.int64).max // 2
        self.flits = np.zeros(self.K, dtype=np.int64)
        self.dn = np.full(self.K, self.D, dtype=np.int64)
        cap_at = np.full(self.K, buffer_flits, dtype=np.int64)
        cap_at[self.SINK0 : self.D] = self.cap_sink
        cap_at[self.D] = 0
        self.cap_at = cap_at
        #: ``cap_at[dn]``, maintained incrementally at every ``dn``
        #: write — saves one length-K gather per clock in the hot mask
        self.cap_dn = cap_at[self.dn]
        self.occ = np.full(C, FREE, dtype=np.int64)

    # ------------------------------------------------------------------
    def sync_worms(self, sim) -> None:
        """Write the array flit counts back onto the Worm objects.

        Restores the scalar engines' object contract (``chain_flits``,
        ``flits_at_source``, ``consumed``) so invariant checks and
        diagnostic reports can read worm state exactly as they do
        under the scalar engines.
        """
        f = self.flits
        SRC0 = self.SRC0
        inj = sim.injection_occ
        for w in sim.active:
            cf = [int(f[c]) for c in w.chain]
            w.chain_flits = cf
            fas = int(f[SRC0 + w.src]) if inj[w.src] == w.pid else 0
            w.flits_at_source = fas
            w.consumed = w.length - fas - sum(cf)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        held = int(np.count_nonzero(self.flits[: self.C]))
        return f"ArrayState(C={self.C}, S={self.S}, held_channels={held})"


def stack_states(states):
    """Re-home R per-replica :class:`ArrayState`s into stacked storage.

    Allocates C-contiguous ``(R, K)`` arrays holding every replica's
    ``flits`` / ``dn`` / ``cap_at`` / ``cap_dn``, copies the current
    per-replica contents in, and rebinds each state's attributes to its
    *row view* of the stack.  Because the rows are views, all existing
    scalar code paths (grant commits, drains) keep working unchanged on
    the shared memory, while the replica driver sweeps all rows at once
    through the flat ``.reshape(-1)`` aliases.

    ``occ`` is *not* stacked: the batch core rebinds it as a view of
    its own extended-occupancy array, which stays per replica.

    All states must have identical geometry (same K); returns the four
    stacked arrays ``(flits, dn, cap_at, cap_dn)``.
    """
    K = states[0].K
    if any(st.K != K for st in states):
        raise ValueError("stack_states requires identical state geometry")
    flits = np.stack([st.flits for st in states])
    dn = np.stack([st.dn for st in states])
    cap_at = np.stack([st.cap_at for st in states])
    cap_dn = np.stack([st.cap_dn for st in states])
    for r, st in enumerate(states):
        st.flits = flits[r]
        st.dn = dn[r]
        st.cap_at = cap_at[r]
        st.cap_dn = cap_dn[r]
    return flits, dn, cap_at, cap_dn

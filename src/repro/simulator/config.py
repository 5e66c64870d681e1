"""Simulation configuration.

One frozen dataclass holds every knob of the wormhole engine, with
defaults matching the paper's Section 5 setup (128-flit packets,
one-clock link/routing/transfer delays, uniform traffic).  The traffic
model itself is fixed, as in the paper: every packet has the one
configured length, sources are open-loop with unbounded injection
queues, and a header picks uniformly at random among its free
admissible channels.  Experiment presets (paper / midscale / quick)
build on top of this in :mod:`repro.experiments.configs`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: engines whose results are byte-identical for a fixed seed (same
#: ``canonical_digest``), enforced by the differential golden suite
BIT_EXACT_ENGINES = ("reference", "fast")
#: engines under the *relaxed* statistical contract: deterministic per
#: seed, but certified distributionally (``statistical_fingerprint`` +
#: the equivalence gate) instead of per-draw digest equality
RELAXED_ENGINES = ("batch",)
#: step implementations selectable via :attr:`SimulationConfig.engine`
ENGINES = BIT_EXACT_ENGINES + RELAXED_ENGINES


def require_fault_capable(engine: str) -> None:
    """Raise ``ValueError`` if *engine* may not run a live fault schedule.

    The relaxed engines are certified fault-free only, so fault
    schedules run on the bit-exact engines alone.
    """
    if engine in RELAXED_ENGINES:
        raise ValueError(
            f"engine {engine!r} is certified only without faults; run "
            f"fault schedules on one of the bit-exact engines "
            f"{BIT_EXACT_ENGINES}"
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one wormhole simulation run.

    Attributes
    ----------
    packet_length:
        Flits per packet, header included (paper: 128).
    injection_rate:
        Offered load in flits/clock/node.  Each clock every node
        generates a packet with probability ``injection_rate /
        packet_length`` (Bernoulli process; expectation matches the
        offered load).
    warmup_clocks, measure_clocks:
        Statistics are reset after the warmup and collected for the
        measurement window; the run lasts their sum.
    buffer_flits:
        Input-buffer capacity per channel in flits.  The default 2 lets
        a steady worm stream at 1 flit/clock under the two-phase update
        (capacity 1 would model a bufferless pipeline at half rate).
    header_delay:
        Clocks between a header reaching the front of a buffer and the
        flit moving on: 1 clock routing/arbitration + 1 clock
        input-to-output transfer (paper's accounting).
    link_delay:
        Clocks a flit spends on the wire after leaving a switch.
    seed:
        Random seed for traffic, adaptive tie-breaks and arbitration.
    deadlock_interval:
        Watchdog: raise if no flit moves for this many consecutive
        clocks while worms hold channels.  ``0`` disables the check;
        negative values are rejected.
    max_stall_clocks:
        Livelock/stall watchdog: raise
        :class:`~repro.simulator.engine.LivelockSuspected` (with a dump
        of the stuck worms) when *no* flit anywhere has moved for this
        many consecutive clocks while traffic is pending.  Catches
        global stalls the exact wait-for deadlock analysis deliberately
        does not flag — e.g. worms waiting on a failed link during a
        fault's drain window that never get reconfigured.  ``None``
        (default) disables the check.
    engine:
        The step implementation, and the only engine selector:
        ``"reference"`` (the seed golden model), ``"fast"`` (active-set
        scheduler with the per-epoch routing-decision cache,
        :mod:`repro.simulator.fastpath`) or ``"batch"`` (fully batched
        relaxed-equivalence core, :mod:`repro.simulator.batch_engine`).
        ``None`` (default) means ``"fast"``.  The first two are
        **bit-identical** for a fixed seed (same ``canonical_digest``),
        enforced by the differential golden suite; ``"batch"`` is
        deterministic per seed but satisfies a *statistical* contract —
        its aggregate distributions are certified against the bit-exact
        oracles by :mod:`repro.simulator.equivalence`, and its results
        carry a ``statistical_fingerprint`` instead of a canonical
        digest.  ``"batch"`` runs only inside the envelope that
        certification covers, which is everything but live faults: it
        refuses a fault schedule at ``attach_faults``.  The VC engine
        runs only the bit-exact engines (its body commits are
        RNG-ordered under shared link budgets) and refuses ``"batch"``.
    """

    packet_length: int = 128
    injection_rate: float = 0.1
    warmup_clocks: int = 5_000
    measure_clocks: int = 15_000
    buffer_flits: int = 2
    header_delay: int = 2
    link_delay: int = 1
    seed: Optional[int] = 0
    deadlock_interval: int = 2_000
    max_stall_clocks: Optional[int] = None
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if self.packet_length < 1:
            raise ValueError("packet_length must be >= 1")
        if self.injection_rate < 0:
            raise ValueError("injection_rate must be >= 0")
        if self.injection_rate / self.packet_length > 1.0:
            raise ValueError(
                "injection_rate implies more than one packet per clock "
                "per node; raise packet_length or lower the rate"
            )
        if self.buffer_flits < 1:
            raise ValueError("buffer_flits must be >= 1")
        if self.header_delay < 0 or self.link_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.warmup_clocks < 0 or self.measure_clocks <= 0:
            raise ValueError("need a positive measurement window")
        if self.deadlock_interval < 0:
            raise ValueError("deadlock_interval must be >= 0 (0 disables)")
        if self.max_stall_clocks is not None and self.max_stall_clocks <= 0:
            raise ValueError("max_stall_clocks must be positive (or None)")
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; pick one of {ENGINES}"
            )

    @property
    def total_clocks(self) -> int:
        """Run length: warmup plus measurement."""
        return self.warmup_clocks + self.measure_clocks

    @property
    def packet_probability(self) -> float:
        """Per-node, per-clock Bernoulli generation probability."""
        return self.injection_rate / self.packet_length

    def with_rate(self, injection_rate: float) -> "SimulationConfig":
        """Copy of this config at a different offered load."""
        return replace(self, injection_rate=injection_rate)

    def with_seed(self, seed: Optional[int]) -> "SimulationConfig":
        """Copy of this config with a different seed."""
        return replace(self, seed=seed)

    @property
    def resolved_engine(self) -> str:
        """The step implementation this config selects (unset = fast)."""
        return self.engine or "fast"

    def with_engine(self, engine: Optional[str]) -> "SimulationConfig":
        """Copy of this config pinned to a step implementation."""
        return replace(self, engine=engine)

"""Analytic latency model (low-load regime).

At negligible load a packet's latency decomposes exactly (the engine's
unit tests pin the same constants):

    latency(s, d) = (header_delay + link_delay) * hops(s, d) + (L - 1)

so the *network-average* unloaded latency follows from the routing
function's path-length distribution alone.  With rising load a queueing
term grows; this module adds a first-order M/M/1-style correction using
the static bottleneck utilisation, which tracks the simulator well
below ~60% of saturation and (by design) diverges at the analytic
bound.

Use: predicting where a latency curve starts, sanity-checking simulator
configurations, and giving examples a closed-form reference line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.bounds import ThroughputBound, throughput_upper_bound
from repro.routing.base import RoutingFunction
from repro.routing.diagnostics import path_length_stats
from repro.simulator.config import SimulationConfig


@dataclass(frozen=True)
class LatencyModel:
    """Closed-form latency predictor for one routing + configuration."""

    mean_hops: float
    per_hop_clocks: int
    packet_length: int
    bound: ThroughputBound

    @property
    def unloaded_latency(self) -> float:
        """Mean zero-load latency over all pairs (clocks)."""
        return self.per_hop_clocks * self.mean_hops + (self.packet_length - 1)

    def predict(self, offered_load: float) -> float:
        """Mean latency at *offered_load* (flits/clock/node).

        Zero-load term plus an M/M/1-style congestion factor on the
        serialisation time, ``(L - 1) * rho / (1 - rho)`` with
        ``rho = offered / bound``.  Returns ``inf`` at or beyond the
        bound.
        """
        rho = offered_load / self.bound.bound if self.bound.bound > 0 else 1.0
        if rho >= 1.0:
            return float("inf")
        queueing = (self.packet_length - 1) * rho / (1.0 - rho)
        return self.unloaded_latency + queueing


def build_latency_model(
    routing: RoutingFunction,
    config: SimulationConfig,
    bound: Optional[ThroughputBound] = None,
) -> LatencyModel:
    """Construct the predictor from exact path statistics.

    *bound* may be passed to reuse a precomputed
    :func:`~repro.analysis.bounds.throughput_upper_bound`.
    """
    stats = path_length_stats(routing)
    return LatencyModel(
        mean_hops=stats.mean,
        per_hop_clocks=config.header_delay + config.link_delay,
        packet_length=config.packet_length,
        bound=bound if bound is not None else throughput_upper_bound(routing),
    )

"""Injection-rate sweeps and saturation measurement.

Figure 8 plots average message latency against *accepted* traffic for a
range of offered loads; Tables 1-4 are measured "when both routing
algorithms reach their maximal throughputs".  Two entry points:

* :func:`sweep_injection_rates` — run the simulator across a list of
  offered loads and return the (offered, accepted, latency) points;
* :func:`measure_at_saturation` — run once with a saturated source
  (offered load far above capacity, so the injection queues never
  drain); the accepted traffic then *is* the maximal throughput, and
  the channel-utilization statistics are taken in that regime, exactly
  as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.routing.base import RoutingFunction
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import simulate
from repro.simulator.stats import SimulationStats
from repro.simulator.traffic import TrafficPattern


@dataclass(frozen=True)
class RatePoint:
    """One Figure-8 sample: offered vs accepted load and mean latency."""

    offered: float
    accepted: float
    latency: float
    stats: SimulationStats


def sweep_injection_rates(
    routing: RoutingFunction,
    base_config: SimulationConfig,
    rates: Sequence[float],
    traffic: Optional[TrafficPattern] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[RatePoint]:
    """Simulate *routing* at each offered load in *rates*.

    Rates are flits/clock/node; each point reuses *base_config* with the
    rate (and a rate-derived seed twist is **not** applied — identical
    seeds keep the comparison paired across algorithms, which reduces
    sample variance exactly like the paper's "same test sample" setup).
    """
    points: List[RatePoint] = []
    for rate in rates:
        cfg = base_config.with_rate(rate)
        stats = simulate(routing, cfg, traffic)
        points.append(
            RatePoint(
                offered=rate,
                accepted=stats.accepted_traffic,
                latency=stats.average_latency,
                stats=stats,
            )
        )
        if progress is not None:
            progress(
                f"{routing.name}: rate={rate:.4f} -> "
                f"accepted={stats.accepted_traffic:.4f}, "
                f"latency={stats.average_latency:.1f}"
            )
    return points


def saturation_throughput(points: Sequence[RatePoint]) -> float:
    """Maximal accepted traffic over a sweep (the paper's throughput)."""
    if not points:
        raise ValueError("empty sweep")
    return max(p.accepted for p in points)


def measure_at_saturation(
    routing: RoutingFunction,
    base_config: SimulationConfig,
    traffic: Optional[TrafficPattern] = None,
    saturation_rate: Optional[float] = None,
) -> SimulationStats:
    """One run with a saturated source; stats reflect maximal throughput.

    *saturation_rate* defaults to 1.0 flits/clock/node — the physical
    ceiling of the single consumption port, far above the capacity of
    any irregular network here, so accepted traffic plateaus at the
    true maximum while the excess piles up in the source queues.
    """
    rate = 1.0 if saturation_rate is None else saturation_rate
    return simulate(routing, base_config.with_rate(rate), traffic)


def find_saturation_point(
    routing: RoutingFunction,
    base_config: SimulationConfig,
    traffic: Optional[TrafficPattern] = None,
    tolerance: float = 0.05,
    max_iterations: int = 8,
    lo: float = 0.0,
    hi: float = 1.0,
) -> RatePoint:
    """Binary-search the offered load where the network saturates.

    Saturation is declared when accepted traffic falls more than
    *tolerance* (relative) below the offered load — i.e. the injection
    queues start growing without bound.  Returns the last point that
    still kept up, which is the knee of the Figure-8 curve; more precise
    (and cheaper near the knee) than a fixed rate grid.
    """
    best: Optional[RatePoint] = None
    for _ in range(max_iterations):
        mid = (lo + hi) / 2.0
        if mid <= 0:
            break
        stats = simulate(routing, base_config.with_rate(mid), traffic)
        point = RatePoint(
            offered=mid,
            accepted=stats.accepted_traffic,
            latency=stats.average_latency,
            stats=stats,
        )
        if stats.accepted_traffic >= (1.0 - tolerance) * mid:
            best = point  # still keeping up: knee is above mid
            lo = mid
        else:
            hi = mid
    if best is None:
        # even the smallest probed load saturated; report the hi probe
        stats = simulate(routing, base_config.with_rate(hi), traffic)
        best = RatePoint(hi, stats.accepted_traffic, stats.average_latency, stats)
    return best

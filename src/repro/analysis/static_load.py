"""Expected per-channel load under uniform traffic (exact computation).

Model: every ordered switch pair ``(s, d)`` sends one unit of traffic;
at each decision point the unit splits *equally* among all admissible
minimal next channels (the simulator's random tie-break, in
expectation).  Because the per-destination shortest-path structure is a
DAG ordered by remaining distance, the split propagates in one pass per
destination, processing channels by decreasing remaining distance.

``expected_channel_load[c]`` is then the expected number of
source-destination *pairs* whose packet crosses channel ``c``.  Up to a
constant factor (injection rate, packet length) this is proportional to
the channel utilization the simulator measures below saturation, so the
node-utilization-derived metrics (traffic load, hot spots, leaves) can
be evaluated on it directly — at full paper scale, in seconds.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.coordinated_tree import CoordinatedTree
from repro.metrics.utilization import utilization_report
from repro.routing.base import RoutingFunction


def expected_channel_load(routing: RoutingFunction) -> np.ndarray:
    """Expected pair-crossings per channel under uniform traffic.

    For every destination the unit loads of all sources are pushed
    through the shortest-path DAG; contributions split equally at every
    adaptive branch.  Exact (no sampling); cost ``O(|V| * |C|)``.

    All destinations advance together, one array pass per remaining
    distance.  ``np.add.at`` adds in index order, here destination, then
    channel, then candidate: each channel sums its shares in the order
    of a per-destination walk, so the floats match one bit for bit.
    """
    n, n_ch = routing.topology.n, routing.topology.num_channels
    sizes, members, dist = routing.candidate_sizes, routing.candidate_matrix, routing.dist
    load = np.zeros((n, n_ch), dtype=float)
    flat = load.reshape(-1)

    def push(dests: np.ndarray, sets: np.ndarray, share: np.ndarray) -> None:
        to = members[sets]
        listed = to >= 0
        row = np.broadcast_to(dests[:, None] * n_ch, to.shape)[listed]
        np.add.at(
            flat, row + to[listed], np.broadcast_to(share[:, None], to.shape)[listed]
        )

    routed = sizes[routing.first_idx] > 0
    np.fill_diagonal(routed, False)
    dests, srcs = np.nonzero(routed)
    sets = routing.first_idx[dests, srcs]
    push(dests, sets, 1.0 / sizes[sets])
    finite = dist[dist != RoutingFunction.UNREACHABLE]
    for level in range(int(finite.max(initial=0)), 0, -1):
        dests, chans = np.nonzero((dist == level) & (load != 0.0))
        sets = routing.next_idx[dests, chans]
        push(dests, sets, load[dests, chans] / sizes[sets])
    total = np.zeros(n_ch, dtype=float)
    for row in load:
        total += row
    return total


def static_utilization_report(
    routing: RoutingFunction, tree: CoordinatedTree
) -> Dict[str, float]:
    """Tables 1-4 metrics on the static load estimate.

    The loads are normalised to mean-1 over the used channels so that
    the *relative* statistics (traffic load as a fraction, hot-spot
    percentage, leaves-to-mean ratio) are comparable across algorithms;
    absolute node-utilization values are only meaningful relative to
    each other, not against the simulator's flits/clock.
    """
    load = expected_channel_load(routing)
    scale = load.mean()
    if scale > 0:
        load = load / scale
    return utilization_report(load, tree)

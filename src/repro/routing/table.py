"""All-pairs adaptive routing tables (shortest admissible paths).

Builds the :class:`~repro.routing.base.RoutingFunction` for a turn model
from the turn-restricted BFS of
:func:`repro.routing.channel_graph.shortest_path_tables`, which advances
every destination at once over the channel dependency graph.  Cost:
``O(|V| * |C| * d)`` array work — for the paper's largest configuration
(128 switches, 8 ports, ~1024 channels) a few tens of milliseconds.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.channel_graph import shortest_path_tables


def build_routing_function(
    turn_model: TurnModel,
    name: str,
    meta: Optional[Dict[str, object]] = None,
) -> RoutingFunction:
    """Precompute shortest-admissible-path tables for every destination.

    The resulting routing function is *adaptive*: every minimal
    admissible candidate is retained, and the simulator picks among the
    free ones at run time (randomly on ties, per Section 5).
    """
    dist, candidate_sets, next_idx, first_idx = shortest_path_tables(turn_model)
    return RoutingFunction(
        topology=turn_model.topology,
        name=name,
        turn_model=turn_model,
        dist=dist,
        candidate_sets=candidate_sets,
        next_idx=next_idx,
        first_idx=first_idx,
        meta=dict(meta or {}),
    )

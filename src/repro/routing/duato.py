"""Duato-style two-layer routing for virtual-channel networks.

Related work [8] (Silla & Duato, TPDS 2000) achieves high-performance
routing in irregular networks by pairing a fully adaptive layer with a
deadlock-free *escape* layer on dedicated virtual channels.  This
module builds that structure on top of any verified tree-based routing
from this repository:

* the **adaptive** layer routes over *all* minimal physical paths with
  no turn restriction (its dependency graph may contain cycles — that
  is allowed);
* the **escape** layer is one of the verified deadlock-free routings
  (up*/down*, DOWN/UP, L-turn); a blocked worm can always fall back to
  it, entered fresh at its current switch, and once on escape it stays
  on escape (the simple sufficient form of Duato's theorem).

The object is consumed by
:class:`repro.simulator.vc_engine.VirtualChannelSimulator`, which maps
the adaptive layer onto VC classes ``1..V-1`` and the escape layer onto
VC ``0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Union

import numpy as np

from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.table import build_routing_function
from repro.routing.verification import assert_connected, assert_progress
from repro.topology.graph import Topology


def _escape_builders() -> Dict[str, Callable[..., RoutingFunction]]:
    """Escape-layer builders, resolved lazily.

    ``down-up`` lives in :mod:`repro.core`, which itself imports the
    routing package — importing it at module load would close an import
    cycle, so the lookup happens on first use instead.
    """
    from repro.core.downup import build_down_up_routing
    from repro.routing.lturn import build_l_turn_routing
    from repro.routing.updown import build_up_down_routing

    return {
        "up-down": build_up_down_routing,
        "down-up": build_down_up_routing,
        "l-turn": build_l_turn_routing,
    }


@dataclass(frozen=True)
class DuatoRouting:
    """An (adaptive, escape) routing pair for a VC-equipped network.

    ``adaptive`` is minimal and unrestricted (not deadlock-free on its
    own); ``escape`` is verified deadlock-free and connected.  Both
    share one topology.
    """

    adaptive: RoutingFunction
    escape: RoutingFunction

    def __post_init__(self) -> None:
        if self.adaptive.topology is not self.escape.topology:
            raise ValueError("adaptive and escape layers must share a topology")

    @property
    def name(self) -> str:
        """Display name: ``duato(<escape name>)``."""
        return f"duato({self.escape.name})"

    @property
    def topology(self) -> Topology:
        """The shared network graph."""
        return self.escape.topology


def build_fully_adaptive_minimal(topology: Topology) -> RoutingFunction:
    """Minimal routing over *all* physical paths (no turn restriction).

    U-turns remain excluded.  The result is connected and makes
    progress but is **not** deadlock-free by itself — it is only safe
    as the adaptive layer above an escape layer.
    """
    tm = TurnModel(
        topology,
        [0] * topology.num_channels,
        np.ones((1, 1), dtype=bool),
        class_names=("ANY",),
    )
    routing = build_routing_function(tm, "fully-adaptive")
    assert_connected(routing)
    assert_progress(routing)
    return routing


def build_duato_routing(
    topology: Topology,
    escape: Union[str, RoutingFunction] = "up-down",
    **escape_kwargs,
) -> DuatoRouting:
    """Build the two-layer routing.

    *escape* is either a pre-built verified routing function or one of
    ``"up-down"``, ``"down-up"``, ``"l-turn"`` (built here with
    *escape_kwargs* forwarded — e.g. ``tree=...`` to share a
    coordinated tree).
    """
    if isinstance(escape, str):
        builders = _escape_builders()
        try:
            builder = builders[escape]
        except KeyError:
            raise KeyError(
                f"unknown escape routing {escape!r}; "
                f"available: {sorted(builders)}"
            ) from None
        escape_fn = builder(topology, **escape_kwargs)
    else:
        escape_fn = escape
    return DuatoRouting(
        adaptive=build_fully_adaptive_minimal(topology),
        escape=escape_fn,
    )

"""JSON (de)serialization of topologies.

Experiments save every generated sample next to their results so that a
run can be re-audited or re-simulated bit-for-bit later.  The format is
deliberately tiny and stable::

    {"n": 12, "ports": 4, "links": [[0, 1], [0, 2], ...]}
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Union

from repro.topology.graph import Topology


def topology_to_json(topology: Topology) -> str:
    """Serialize *topology* to a canonical JSON string."""
    return json.dumps(
        {
            "n": topology.n,
            "ports": topology.ports,
            "links": [list(link) for link in topology.links],
        },
        separators=(",", ":"),
        sort_keys=True,
    )


def topology_digest(topology: Topology) -> str:
    """SHA-256 hex of :func:`topology_to_json`: the content key of a
    topology (artifact-store keys, the fault controller's rebuild memo)."""
    return hashlib.sha256(topology_to_json(topology).encode("utf-8")).hexdigest()


def topology_from_json(text: str) -> Topology:
    """Parse a topology from :func:`topology_to_json` output."""
    data = json.loads(text)
    try:
        return Topology(
            n=int(data["n"]),
            links=[tuple(pair) for pair in data["links"]],
            ports=None if data.get("ports") is None else int(data["ports"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed topology JSON: {exc}") from exc


def save_topology(topology: Topology, path: Union[str, Path]) -> None:
    """Write *topology* to *path* as JSON."""
    Path(path).write_text(topology_to_json(topology) + "\n", encoding="utf-8")


def load_topology(path: Union[str, Path]) -> Topology:
    """Read a topology previously written by :func:`save_topology`."""
    return topology_from_json(Path(path).read_text(encoding="utf-8"))

"""Serialization of routing functions.

Archival experiment runs save the exact routing tables next to their
results so any number can be re-audited without re-running the
construction (and so non-Python consumers — e.g. a C simulator — can
load them).  The format is JSON:

```
{"format": "repro-routing-v2", "name": ..., "topology": {...},
 "channel_class": [...], "class_names": [...],
 "base_allowed": [[...]], "pair_exceptions": [[cin, cout], ...],
 "node_overrides": {"<switch>": [[...]]},
 "dist": [[...]],                       # n x C hop counts
 "candidates": [[], [c, ...], ...],     # distinct candidate sets, [] first
 "next_hops": [[i, ...]],               # n x C indices into candidates
 "first_hops": [[i, ...]]}              # n x n indices into candidates
```

A 128-switch table has ~100k entries but a few thousand distinct
candidate sets, so each set is written once and referenced by index;
decoding shares one tuple per set between rows, as the builders do.

``load_routing`` rebuilds a fully functional
:class:`~repro.routing.base.RoutingFunction` (turn model included) and
re-verifies it, so a tampered file cannot smuggle in a deadlocking
table.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.core.coordinated_tree import CoordinatedTree
from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.verification import verify_routing
from repro.topology.serialization import topology_from_json, topology_to_json

FORMAT = "repro-routing-v2"
TREE_FORMAT = "repro-tree-v1"


def routing_to_json(routing: RoutingFunction) -> str:
    """Serialize *routing* (tables + turn model + topology) to JSON."""
    tm = routing.turn_model
    # distinct candidate sets in first-seen order, the empty one first
    distinct = dict.fromkeys(
        chain(
            [()],
            chain.from_iterable(routing.next_hops),
            chain.from_iterable(routing.first_hops),
        )
    )
    lookup = dict(zip(distinct, range(len(distinct)))).__getitem__
    payload = {
        "format": FORMAT,
        "name": routing.name,
        "topology": json.loads(topology_to_json(routing.topology)),
        "channel_class": [int(c) for c in tm.channel_class],
        "class_names": list(tm.class_names),
        "base_allowed": tm.base_matrix.tolist(),
        "node_overrides": {
            str(v): tm.allowed_matrix(v).tolist()
            for v in tm.overridden_switches()
        },
        "pair_exceptions": [list(p) for p in tm.released_channel_pairs()],
        "dist": np.asarray(routing.dist).tolist(),
        "candidates": list(distinct),
        "next_hops": [list(map(lookup, row)) for row in routing.next_hops],
        "first_hops": [list(map(lookup, row)) for row in routing.first_hops],
    }
    return json.dumps(payload, separators=(",", ":"))


def routing_from_json(text: str, verify: bool = True) -> RoutingFunction:
    """Rebuild a routing function from :func:`routing_to_json` output.

    With *verify* (default) the result passes the full Theorem-1 checks
    before being returned.
    """
    data = json.loads(text)
    if data.get("format") != FORMAT:
        raise ValueError(
            f"unsupported routing format {data.get('format')!r}"
        )
    topology = topology_from_json(json.dumps(data["topology"]))
    n, num_channels = topology.n, topology.num_channels
    tm = TurnModel(
        topology,
        data["channel_class"],
        np.asarray(data["base_allowed"], dtype=bool),
        class_names=data["class_names"],
    )
    k = tm.num_classes
    for v_str, matrix in data.get("node_overrides", {}).items():
        v = int(v_str)
        m = np.asarray(matrix, dtype=bool)
        if not 0 <= v < n or m.shape != (k, k):
            raise ValueError(f"node override for switch {v_str} is malformed")
        for i in range(k):
            for j in range(k):
                tm.set_turn(v, i, j, bool(m[i, j]))
    for cin, cout in data.get("pair_exceptions", []):
        if not (0 <= cin < num_channels and 0 <= cout < num_channels):
            raise ValueError(f"pair exception ({cin}, {cout}) names no channel")
        tm.allow_channel_pair(int(cin), int(cout))
    dist = np.asarray(data["dist"], dtype=np.int32)
    if dist.shape != (n, num_channels):
        raise ValueError(
            f"dist is {dist.shape}, expected {(n, num_channels)}"
        )
    dist.setflags(write=False)
    candidates = tuple(map(tuple, data["candidates"]))
    channels = list(chain.from_iterable(candidates))
    if channels and not (0 <= min(channels) and max(channels) < num_channels):
        raise ValueError("a candidate set names no channel")
    routing = RoutingFunction(
        topology=topology,
        name=data["name"],
        turn_model=tm,
        dist=dist,
        next_hops=_index_rows(
            data["next_hops"], candidates, n, num_channels, "next_hops"
        ),
        first_hops=_index_rows(
            data["first_hops"], candidates, n, n, "first_hops"
        ),
        meta={"loaded": True},
    )
    return verify_routing(routing) if verify else routing


def _index_rows(
    rows: List[List[int]],
    candidates: Tuple[Tuple[int, ...], ...],
    n: int,
    width: int,
    field: str,
) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Resolve an ``n x width`` table of indices into *candidates*.

    Checks the shape and the index range first (a negative index would
    otherwise wrap); the lookups themselves run in C and share one tuple
    per candidate set between rows.
    """
    if len(rows) != n:
        raise ValueError(f"{field} has {len(rows)} rows, expected {n}")
    for row in rows:
        if len(row) != width:
            raise ValueError(f"{field} row has {len(row)} entries, expected {width}")
        if row and not (0 <= min(row) and max(row) < len(candidates)):
            raise ValueError(f"{field} indexes past the candidate list")
    return tuple(tuple(map(candidates.__getitem__, row)) for row in rows)


def tree_to_json(tree: CoordinatedTree) -> str:
    """Serialize a coordinated tree (topology + structure + coordinates).

    Versioned (``repro-tree-v1``) so archived artefacts from a cache or
    results directory are rejected loudly when the layout changes
    instead of being misread.
    """
    payload = {
        "format": TREE_FORMAT,
        "topology": json.loads(topology_to_json(tree.topology)),
        "root": tree.root,
        "parent": [-1 if p is None else int(p) for p in tree.parent],
        "children": [list(kids) for kids in tree.children],
        "x": list(tree.x),
        "y": list(tree.y),
    }
    return json.dumps(payload, separators=(",", ":"))


def tree_from_json(text: str, validate: bool = True) -> CoordinatedTree:
    """Rebuild a coordinated tree from :func:`tree_to_json` output.

    With *validate* (default) the result passes the full Definition-2
    structural checks (:meth:`CoordinatedTree.validate`).
    """
    data = json.loads(text)
    if data.get("format") != TREE_FORMAT:
        raise ValueError(
            f"unsupported coordinated-tree format {data.get('format')!r}"
        )
    topology = topology_from_json(json.dumps(data["topology"]))
    tree = CoordinatedTree(
        topology=topology,
        root=int(data["root"]),
        parent=tuple(
            None if p < 0 else int(p) for p in data["parent"]
        ),
        children=tuple(
            tuple(int(k) for k in kids) for kids in data["children"]
        ),
        x=tuple(int(v) for v in data["x"]),
        y=tuple(int(v) for v in data["y"]),
    )
    if validate:
        tree.validate()
    return tree


def save_tree(tree: CoordinatedTree, path: Union[str, Path]) -> None:
    """Write *tree* to *path* as JSON."""
    Path(path).write_text(tree_to_json(tree) + "\n", encoding="utf-8")


def load_tree(path: Union[str, Path], validate: bool = True) -> CoordinatedTree:
    """Read a tree previously written by :func:`save_tree`."""
    return tree_from_json(Path(path).read_text(encoding="utf-8"), validate)


def save_routing(routing: RoutingFunction, path: Union[str, Path]) -> None:
    """Write *routing* to *path* as JSON."""
    Path(path).write_text(routing_to_json(routing) + "\n", encoding="utf-8")


def load_routing(path: Union[str, Path], verify: bool = True) -> RoutingFunction:
    """Read a routing previously written by :func:`save_routing`."""
    return routing_from_json(Path(path).read_text(encoding="utf-8"), verify)

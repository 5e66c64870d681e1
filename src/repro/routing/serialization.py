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
candidate sets, so each set is written once and referenced by index:
the layout :class:`~repro.routing.base.RoutingFunction` holds in memory.

``load_routing`` rebuilds a fully functional
:class:`~repro.routing.base.RoutingFunction` (turn model included) and
re-verifies it, so a tampered file cannot smuggle in a deadlocking
table.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Optional, Tuple, Union

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
        "dist": routing.dist.tolist(),
        "candidates": list(routing.candidate_sets),
        "next_hops": routing.next_idx.tolist(),
        "first_hops": routing.first_idx.tolist(),
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
    candidate_sets = _candidate_sets(data["candidates"], num_channels)
    routing = RoutingFunction(
        topology=topology,
        name=data["name"],
        turn_model=tm,
        dist=_int_table(data["dist"], (n, num_channels), "dist"),
        candidate_sets=candidate_sets,
        next_idx=_int_table(
            data["next_hops"], (n, num_channels), "next_hops", len(candidate_sets)
        ),
        first_idx=_int_table(data["first_hops"], (n, n), "first_hops", len(candidate_sets)),
        meta={"loaded": True},
    )
    return verify_routing(routing) if verify else routing


def _candidate_sets(candidates: object, num_channels: int) -> Tuple[Tuple[int, ...], ...]:
    """The decoded ``candidates`` list: the empty set first, then sets of
    distinct channel ids (a repeated channel would weigh double in the
    simulator's random choice)."""
    if not isinstance(candidates, list) or not candidates or candidates[0] != []:
        raise ValueError("candidates must be a list starting with []")
    if not all(type(s) is list for s in candidates):
        raise ValueError("a candidate set is not a list")
    channels = list(chain.from_iterable(candidates))
    if not set(map(type, channels)) <= {int}:
        raise ValueError("a candidate set holds a non-integer channel")
    if channels and not (0 <= min(channels) and max(channels) < num_channels):
        raise ValueError("a candidate set names no channel")
    if any(len(set(s)) != len(s) for s in candidates):
        raise ValueError("a candidate set repeats a channel")
    return tuple(map(tuple, candidates))


def _int_table(
    rows: object, shape: Tuple[int, int], field: str, bound: Optional[int] = None
) -> np.ndarray:
    """An int32 table of *shape* from JSON rows, entries in ``[0, bound)``.

    Ragged rows, floats, booleans and out-of-range entries are errors —
    never truncated, coerced or wrapped.
    """
    try:
        table = np.array(rows)
    except ValueError:  # ragged rows
        table = np.empty(0)
    if table.shape != shape:
        raise ValueError(f"{field} is not a {shape[0]} x {shape[1]} table")
    if table.size:
        if table.dtype.kind != "i" or bool in set(
            map(type, chain.from_iterable(rows))
        ):
            raise ValueError(f"{field} holds a non-integer entry")
        info = np.iinfo(np.int32)
        lo, hi = (0, bound) if bound is not None else (info.min, info.max + 1)
        if not (lo <= table.min() and table.max() < hi):
            raise ValueError(f"{field} holds an entry outside [{lo}, {hi})")
    return table.astype(np.int32)


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

"""Per-level utilization profiles.

The paper's "degree of hot spots" compresses the spatial traffic
distribution into one number (the levels-0-and-1 share).  The profile
below keeps the whole distribution — mean node utilization per
coordinated-tree level — which is where the difference between DOWN/UP
and the baselines is most visible: up*/down* piles utilization onto the
top levels, DOWN/UP shifts it toward the leaves.

``render_level_profile`` draws the profile as an ASCII bar chart for
reports and examples.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.coordinated_tree import CoordinatedTree
from repro.metrics.utilization import node_utilization


def level_utilization_profile(
    channel_util: np.ndarray, tree: CoordinatedTree
) -> Dict[int, float]:
    """Mean node utilization per tree level (level -> mean utilization)."""
    nu = node_utilization(channel_util, tree.topology)
    out: Dict[int, float] = {}
    for level in range(tree.depth + 1):
        nodes = tree.level_nodes(level)
        out[level] = float(np.mean([nu[v] for v in nodes])) if nodes else 0.0
    return out


def level_share_profile(
    channel_util: np.ndarray, tree: CoordinatedTree
) -> Dict[int, float]:
    """Share (%) of total node utilization per level.

    Sums to 100 for non-zero traffic; the sum of levels 0 and 1 is
    exactly the paper's Table-3 "degree of hot spots".
    """
    nu = node_utilization(channel_util, tree.topology)
    total = float(nu.sum())
    out: Dict[int, float] = {}
    for level in range(tree.depth + 1):
        nodes = tree.level_nodes(level)
        share = sum(float(nu[v]) for v in nodes)
        out[level] = 100.0 * share / total if total > 0 else 0.0
    return out


def render_level_profile(
    profiles: Dict[str, Dict[int, float]],
    width: int = 46,
    unit: str = "",
) -> str:
    """ASCII bar chart of one or more level profiles, side by side.

    *profiles* maps a series name (algorithm) to its level -> value
    dict; bars are normalised to the global maximum.
    """
    if not profiles:
        return "(no profiles)"
    levels = sorted({lv for p in profiles.values() for lv in p})
    peak = max((v for p in profiles.values() for v in p.values()), default=0.0)
    lines: List[str] = []
    for name, prof in profiles.items():
        lines.append(f"{name}:")
        for lv in levels:
            value = prof.get(lv, 0.0)
            bar = "#" * (int(round(value / peak * width)) if peak > 0 else 0)
            lines.append(f"  level {lv:2d} |{bar:<{width}}| {value:.4g}{unit}")
    return "\n".join(lines)

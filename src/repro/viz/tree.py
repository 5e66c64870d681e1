"""ASCII rendering of coordinated trees and direction statistics.

``render_coordinated_tree`` draws the tree with each switch annotated
by its ``(X, Y)`` coordinate (the objects Definitions 2-5 are built
from) and marks cross links separately — a faithful terminal version of
the paper's Figure 1(c)/(d) style drawings.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.communication_graph import CommunicationGraph
from repro.core.coordinated_tree import CoordinatedTree


def render_coordinated_tree(
    tree: CoordinatedTree,
    max_nodes: Optional[int] = 80,
) -> str:
    """Draw *tree* as an indented outline in preorder.

    Each line shows ``switch(X=?, Y=?)``; children are indented under
    their parent in preorder order, so reading top-to-bottom follows
    the X coordinate exactly.  Cross links are listed below the tree.
    Output is truncated after *max_nodes* switches (``None`` = all).
    """
    lines: List[str] = []
    count = 0
    truncated = False

    def visit(v: int, depth: int) -> None:
        nonlocal count, truncated
        if max_nodes is not None and count >= max_nodes:
            truncated = True
            return
        count += 1
        marker = "*" if not tree.children[v] else "+"
        lines.append(
            "  " * depth
            + f"{marker} s{v} (X={tree.x[v]}, Y={tree.y[v]})"
        )
        for c in tree.children[v]:
            visit(c, depth + 1)

    visit(tree.root, 0)
    if truncated:
        lines.append(f"  ... ({tree.n - count} more switches)")
    cross = sorted(tree.cross_links())
    if cross:
        shown = ", ".join(f"s{a}-s{b}" for a, b in cross[:20])
        more = f" (+{len(cross) - 20} more)" if len(cross) > 20 else ""
        lines.append(f"cross links: {shown}{more}")
    else:
        lines.append("cross links: none (pure tree)")
    return "\n".join(lines)


def render_direction_histogram(cg: CommunicationGraph, width: int = 40) -> str:
    """Bar chart of channel counts per direction class (Definition 5)."""
    hist = cg.direction_histogram()
    peak = max(hist.values()) if hist else 1
    lines = ["channels per direction:"]
    for direction, count in hist.items():
        bar = "#" * (int(round(count / peak * width)) if peak else 0)
        lines.append(f"  {direction.name:9s} |{bar:<{width}}| {count}")
    return "\n".join(lines)

"""Coordinated trees (Definition 2) and their construction (Phase 1).

A coordinated tree is a BFS spanning tree of the topology in which every
node ``v`` carries the 2-D coordinate ``(X(v), Y(v))``: ``X`` the rank of
``v`` in a preorder traversal of the tree, ``Y`` its level (root = 0).

The paper evaluates three construction variants that differ in the order
in which sibling subtrees are visited:

``M1``
    next node = smallest node number (the paper's proposed method,
    Section 4.1 Steps 1-6 verbatim);
``M2``
    next node = uniformly random choice;
``M3``
    next node = largest node number.

The paper describes the variants as changing the *preorder traversal*
order.  The BFS phase itself (Steps 1-5) enqueues unvisited neighbours in
ascending node-number order; we apply the variant's ordering rule to both
the BFS neighbour insertion and the preorder child order (a single knob,
matching M1 exactly and giving M2/M3 genuinely different trees).  The two
orders can also be set independently for ablation studies.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.topology.graph import Topology
from repro.util.rng import RngLike, as_generator


class TreeMethod(enum.Enum):
    """Sibling-ordering variants M1 / M2 / M3 of Section 5."""

    M1 = "smallest-first"
    M2 = "random"
    M3 = "largest-first"


@dataclass(frozen=True)
class CoordinatedTree:
    """A coordinated tree ``CT = (V, E')`` with coordinates (Definition 2).

    Attributes
    ----------
    topology:
        The underlying network graph ``G``.
    root:
        Root switch id (the paper roots at the smallest node number).
    parent:
        ``parent[v]`` is v's tree parent, ``None`` for the root.
    children:
        ``children[v]``: tuple of v's children, in preorder-visit order.
    x, y:
        ``x[v] = X(v)`` (preorder rank, 0-based) and ``y[v] = Y(v)``
        (level).
    """

    topology: Topology
    root: int
    parent: Tuple[Optional[int], ...]
    children: Tuple[Tuple[int, ...], ...]
    x: Tuple[int, ...]
    y: Tuple[int, ...]
    _tree_links: Set[Tuple[int, int]] = field(repr=False, default_factory=set)

    def __post_init__(self) -> None:
        links = {
            (min(v, p), max(v, p))
            for v, p in enumerate(self.parent)
            if p is not None
        }
        object.__setattr__(self, "_tree_links", links)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of switches."""
        return self.topology.n

    def coordinate(self, v: int) -> Tuple[int, int]:
        """``(X(v), Y(v))`` of switch *v*."""
        return (self.x[v], self.y[v])

    def is_tree_link(self, a: int, b: int) -> bool:
        """True if the (undirected) link ``(a, b)`` is in ``E'``.

        Links of ``G`` outside ``E'`` are *cross links* (Definition 3).
        """
        return (min(a, b), max(a, b)) in self._tree_links

    def tree_links(self) -> Set[Tuple[int, int]]:
        """The set ``E'`` of tree links as normalised pairs."""
        return set(self._tree_links)

    def cross_links(self) -> Set[Tuple[int, int]]:
        """The set ``E - E'`` of cross links."""
        return set(self.topology.links) - self._tree_links

    def level_nodes(self, level: int) -> List[int]:
        """Switches whose ``Y`` coordinate equals *level*."""
        return [v for v in range(self.n) if self.y[v] == level]

    @property
    def depth(self) -> int:
        """Largest level in the tree."""
        return max(self.y)

    def leaves(self) -> List[int]:
        """Switches with no children (the CT leaves; used by Table 4)."""
        return [v for v in range(self.n) if not self.children[v]]

    def path_to_root(self, v: int) -> List[int]:
        """Tree path ``[v, parent(v), ..., root]``."""
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])  # type: ignore[arg-type]
        return path

    def validate(self) -> None:
        """Assert all structural invariants of Definition 2.

        Checks the parent pointers form a spanning tree rooted at
        ``root``, that every tree link exists in ``G``, that ``y`` equals
        tree depth, and that ``x`` is a permutation of ``0..n-1``
        consistent with *some* preorder (parents precede children).
        """
        n = self.n
        if self.parent[self.root] is not None:
            raise ValueError("root must not have a parent")
        if sum(1 for p in self.parent if p is None) != 1:
            raise ValueError("exactly one node may lack a parent")
        for v in range(n):
            p = self.parent[v]
            if p is None:
                continue
            if not self.topology.has_link(v, p):
                raise ValueError(f"tree edge ({v},{p}) is not a link of G")
            if self.y[v] != self.y[p] + 1:
                raise ValueError(f"level of {v} is not parent level + 1")
            if self.x[p] >= self.x[v]:
                raise ValueError(
                    f"preorder violated: X({p})={self.x[p]} >= X({v})={self.x[v]}"
                )
            if v not in self.children[p]:
                raise ValueError(f"{v} missing from children of {p}")
        if sorted(self.x) != list(range(n)):
            raise ValueError("x coordinates are not a permutation of 0..n-1")
        if self.y[self.root] != 0:
            raise ValueError("root must be at level 0")


def choose_root(topology: Topology, strategy: str = "smallest-id") -> int:
    """Pick a spanning-tree root by *strategy*.

    The paper fixes "the node with the smallest node number"
    (``smallest-id``).  Two classic alternatives from the up*/down*
    literature are provided for ablation:

    ``max-degree``
        The best-connected switch (ties to the smaller id) — spreads
        the root's traffic over more ports.
    ``center``
        A switch minimising graph eccentricity (BFS from every node;
        ties to the smaller id) — minimises tree depth.
    """
    if strategy == "smallest-id":
        return 0
    if strategy == "max-degree":
        return max(range(topology.n), key=lambda v: (topology.degree(v), -v))
    if strategy == "center":
        from collections import deque

        best_v, best_ecc = 0, None
        for v in range(topology.n):
            dist = {v: 0}
            q = deque([v])
            ecc = 0
            while q:
                u = q.popleft()
                for w in topology.neighbors(u):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        ecc = max(ecc, dist[w])
                        q.append(w)
            if len(dist) != topology.n:
                raise ValueError("topology is disconnected")
            if best_ecc is None or ecc < best_ecc:
                best_v, best_ecc = v, ecc
        return best_v
    raise ValueError(
        f"unknown root strategy {strategy!r}; use smallest-id, "
        "max-degree or center"
    )


def _sibling_orderer(
    method: TreeMethod, rng: RngLike
) -> Callable[[Sequence[int]], List[int]]:
    """Return a function ordering a set of sibling candidates per *method*."""
    if method is TreeMethod.M1:
        return lambda nodes: sorted(nodes)
    if method is TreeMethod.M3:
        return lambda nodes: sorted(nodes, reverse=True)
    gen = as_generator(rng)
    return lambda nodes: [
        nodes[i] for i in gen.permutation(len(nodes))
    ]


def build_coordinated_tree(
    topology: Topology,
    method: TreeMethod = TreeMethod.M1,
    rng: RngLike = None,
    root: Optional[int] = None,
    bfs_method: Optional[TreeMethod] = None,
) -> CoordinatedTree:
    """Build a coordinated tree of *topology* (Section 4.1, Steps 1-6).

    Parameters
    ----------
    method:
        Sibling ordering used for the preorder traversal (x coordinates)
        and, unless *bfs_method* overrides it, for BFS neighbour
        insertion.
    rng:
        Random source for :data:`TreeMethod.M2`.
    root:
        Root switch; defaults to the smallest node number (paper: "we
        choose the node with the smallest node number as the root").
    bfs_method:
        Optional separate ordering for the BFS phase (ablation knob).

    Raises ``ValueError`` if the topology is disconnected (a spanning
    tree does not exist).
    """
    n = topology.n
    root = 0 if root is None else root
    if not (0 <= root < n):
        raise ValueError(f"root {root} out of range")

    order_pre = _sibling_orderer(method, rng)
    order_bfs = (
        order_pre if bfs_method is None else _sibling_orderer(bfs_method, rng)
    )

    # Steps 1-5: BFS from the root, enqueueing unvisited neighbours in
    # the chosen order; the enqueuer becomes the parent.
    parent: List[Optional[int]] = [None] * n
    children: List[List[int]] = [[] for _ in range(n)]
    visited = [False] * n
    visited[root] = True
    queue: deque[int] = deque([root])
    seen = 1
    while queue:
        v = queue.popleft()
        fresh = [w for w in topology.neighbors(v) if not visited[w]]
        for w in order_bfs(fresh):
            visited[w] = True
            seen += 1
            parent[w] = v
            children[v].append(w)
            queue.append(w)
    if seen != n:
        raise ValueError(
            f"topology is disconnected: BFS reached {seen} of {n} switches"
        )

    # Step 6: preorder traversal in the chosen sibling order assigns X;
    # Y is the BFS level.
    x = [0] * n
    y = [0] * n
    ordered_children: List[Tuple[int, ...]] = [()] * n
    counter = 0
    stack = [root]
    while stack:
        v = stack.pop()
        x[v] = counter
        counter += 1
        kids = order_pre(children[v])
        ordered_children[v] = tuple(kids)
        # reversed: stack pops the first-ordered child first
        stack.extend(reversed(kids))
    # y is computed root-down; preorder-x order guarantees parents
    # precede children.
    for v in sorted(range(n), key=lambda u: x[u]):
        p = parent[v]
        y[v] = 0 if p is None else y[p] + 1

    tree = CoordinatedTree(
        topology=topology,
        root=root,
        parent=tuple(parent),
        children=tuple(ordered_children),
        x=tuple(x),
        y=tuple(y),
    )
    tree.validate()
    return tree

"""Traffic patterns.

The paper assumes "a uniform traffic pattern"; :class:`UniformTraffic`
is the default everywhere.  Two further classics are provided for the
extension studies: :class:`HotspotTraffic` (Pfister & Norton — the very
phenomenon the paper's "degree of hot spots" metric is named after) and
:class:`BitComplementTraffic` (a fixed permutation that stresses
specific paths).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np


class TrafficPattern(Protocol):
    """Destination sampler: one call per generated packet."""

    def destination(self, src: int, rng: np.random.Generator) -> int:
        """A destination switch for a packet injected at *src* (!= src)."""
        ...


class UniformTraffic:
    """Uniform random destinations over all switches except the source."""

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("uniform traffic needs at least two switches")
        self.n = n

    def destination(self, src: int, rng: np.random.Generator) -> int:
        d = int(rng.integers(self.n - 1))
        return d if d < src else d + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformTraffic(n={self.n})"


class HotspotTraffic:
    """Uniform traffic with extra probability mass on hotspot switches.

    With probability *fraction* the destination is drawn uniformly from
    *hotspots*; otherwise uniformly from everyone else (source always
    excluded — a draw landing on the source is resampled from the
    uniform background).
    """

    def __init__(self, n: int, hotspots: Sequence[int], fraction: float = 0.2) -> None:
        if not hotspots:
            raise ValueError("need at least one hotspot switch")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if any(not 0 <= h < n for h in hotspots):
            raise ValueError("hotspot out of range")
        self.n = n
        self.hotspots = tuple(hotspots)
        self.fraction = fraction
        self._uniform = UniformTraffic(n)

    def destination(self, src: int, rng: np.random.Generator) -> int:
        if rng.random() < self.fraction:
            d = int(self.hotspots[int(rng.integers(len(self.hotspots)))])
            if d != src:
                return d
        return self._uniform.destination(src, rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HotspotTraffic(n={self.n}, hotspots={self.hotspots}, "
            f"fraction={self.fraction})"
        )


class TornadoTraffic:
    """Fixed stride: node ``i`` sends to ``(i + n//2 - ...)`` — here the
    classic tornado offset ``(i + ceil(n/2) - 1) mod n``.

    Designed to defeat locality; on rings/tori it concentrates load on
    one rotational direction.  Falls back to uniform if the offset maps
    a node to itself (n == 1 edge case aside, it never does for n > 2).
    """

    def __init__(self, n: int) -> None:
        if n < 3:
            raise ValueError("tornado traffic needs at least 3 switches")
        self.n = n
        self.offset = (n + 1) // 2 - 1
        self._uniform = UniformTraffic(n)

    def destination(self, src: int, rng: np.random.Generator) -> int:
        d = (src + self.offset) % self.n
        if d == src:
            return self._uniform.destination(src, rng)
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TornadoTraffic(n={self.n}, offset={self.offset})"


class LocalTraffic:
    """Destination ids near the source: uniform over ``src ± radius``.

    Switch ids carry no physical locality in a random irregular
    network, but under the generator's id-agnostic sampling this still
    produces a *skewed, fixed* communication set per node — a stand-in
    for application locality.  ``radius`` counts id distance (wrapping).
    """

    def __init__(self, n: int, radius: int = 2) -> None:
        if n < 2:
            raise ValueError("local traffic needs at least two switches")
        if radius < 1:
            raise ValueError("radius must be >= 1")
        self.n = n
        self.radius = min(radius, (n - 1) // 2 if n > 2 else 1)

    def destination(self, src: int, rng: np.random.Generator) -> int:
        r = self.radius
        offset = int(rng.integers(1, 2 * r + 1))  # 1..2r
        delta = offset - r - 1 if offset <= r else offset - r
        return (src + delta) % self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalTraffic(n={self.n}, radius={self.radius})"


class BitComplementTraffic:
    """Fixed permutation: node ``i`` sends to ``n - 1 - i``.

    A node mapped to itself (odd ``n`` midpoint) falls back to uniform.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._uniform = UniformTraffic(n)

    def destination(self, src: int, rng: np.random.Generator) -> int:
        d = self.n - 1 - src
        if d == src:
            return self._uniform.destination(src, rng)
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitComplementTraffic(n={self.n})"

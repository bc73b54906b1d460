"""Bounded "cherry" clock: a negative stem feeding a modular ring.

The value set cherry(alpha, K) = {-alpha, ..., 0, ..., K-1} is a stem of
initial values -alpha..-1 glued onto a ring of correct values 0..K-1.
Incrementing walks up the stem, then cycles the ring; a reset jumps back
to the bottom of the stem.  Drift between values is measured ring-wise.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockParams:
    """Parameters of a cherry clock: stem length ``alpha`` and ring size ``ring``."""

    alpha: int
    ring: int

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError(f"clock stem length must be >= 1, got {self.alpha}")
        if self.ring < 2:
            raise ValueError(f"clock ring size must be >= 2, got {self.ring}")

    @property
    def size(self) -> int:
        return self.alpha + self.ring

    def values(self) -> range:
        """All clock values, in increasing order."""
        return range(-self.alpha, self.ring)

    def contains(self, c: int) -> bool:
        return -self.alpha <= c < self.ring


def check_value(c: int, params: ClockParams) -> None:
    """Reject values outside cherry(alpha, K)."""
    if not params.contains(c):
        raise ValueError(
            f"clock value {c} outside cherry({params.alpha}, {params.ring})"
        )


def increment(c: int, params: ClockParams) -> int:
    """Advance one tick: up the stem while negative, then around the ring."""
    check_value(c, params)
    if c < 0:
        return c + 1
    return (c + 1) % params.ring


def ring_distance(a: int, b: int, ring: int) -> int:
    """Shorter arc between the mod-``ring`` residues of two integers.

    Defined on all integers (differences included), not only clock values.
    """
    if ring < 2:
        raise ValueError(f"ring size must be >= 2, got {ring}")
    d = (a - b) % ring
    return min(d, ring - d)


def locally_comparable(a: int, b: int, ring: int) -> bool:
    """True when the two values are within one tick of each other ring-wise."""
    return ring_distance(a, b, ring) <= 1


def leq_local(a: int, b: int, ring: int) -> bool:
    """Local order: a <= b when b is a or one tick ahead of a on the ring."""
    if ring < 2:
        raise ValueError(f"ring size must be >= 2, got {ring}")
    return (b - a) % ring <= 1


def reset(params: ClockParams) -> int:
    """The bottom of the stem, target of the reset action."""
    return -params.alpha


def is_init(c: int, params: ClockParams) -> bool:
    """Membership in the initial segment {-alpha, ..., 0}."""
    check_value(c, params)
    return c <= 0


def is_stab(c: int, params: ClockParams) -> bool:
    """Membership in the correct segment {0, ..., K-1}."""
    check_value(c, params)
    return c >= 0


def ssme_params(n: int, diam: int) -> ClockParams:
    """Clock sizing for mutual exclusion on a graph with n vertices.

    The stem is one slot per vertex; the ring leaves every critical-section
    threshold more than one diameter away from any other.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if diam < 0:
        raise ValueError(f"diameter must be >= 0, got {diam}")
    return ClockParams(alpha=n, ring=(2 * n - 1) * (diam + 1) + 2)

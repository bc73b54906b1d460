"""Guarded-rule protocols: per-vertex guards, actions and privilege.

Two protocols are provided.  The main one grants the critical section on
top of a self-stabilizing unison of bounded cherry clocks: every vertex
keeps a clock register, repairs local drift by resetting, climbs the stem
until its neighborhood agrees, then ticks in near-lockstep; a vertex is
privileged exactly when its register sits on its own identity-dependent
threshold.  The second is the classical K-state token ring, kept as the
reference point for scheduler-dependent stabilization-time comparisons.

Guards read the closed neighborhood of the pre-step configuration; actions
are evaluated against the same pre-step configuration, which makes
simultaneous activation well defined.
"""

from __future__ import annotations

from typing import Sequence

from .clock import ClockParams, increment, ssme_params
from .graph import Graph

# Rule labels of the clock protocol.
RULE_NORMAL = "NA"
RULE_CONVERGE = "CA"
RULE_RESET = "RA"

# Rule labels of the token ring.
RULE_BUMP = "INC"
RULE_COPY = "COPY"


def ssme_guards(
    r_v: int, neighbor_values: Sequence[int], ring: int
) -> tuple[bool, bool, bool]:
    """Evaluate the three guards (normal, converge, reset) from definitions.

    Slow but literal; the fused `ssme_rule` below must agree with it, which
    is asserted exhaustively in the test suite.
    """
    stab_v = r_v >= 0
    all_correct = True
    for r_u in neighbor_values:
        d = (r_v - r_u) % ring
        if not (stab_v and r_u >= 0 and (d <= 1 or ring - d <= 1)):
            all_correct = False
            break
    normal = all_correct and all(
        (r_u - r_v) % ring <= 1 for r_u in neighbor_values
    )
    converge = r_v < 0 and all(
        r_u <= 0 and r_v <= r_u for r_u in neighbor_values
    )
    reset_ = (not all_correct) and r_v > 0
    return normal, converge, reset_


def ssme_rule(r_v: int, neighbor_values: Sequence[int], ring: int) -> str | None:
    """Enabled rule label at a vertex, or None.  Hot path, hand-fused guards."""
    all_correct = True
    if r_v < 0:
        if neighbor_values:
            all_correct = False
    else:
        for r_u in neighbor_values:
            if r_u < 0:
                all_correct = False
                break
            d = (r_v - r_u) % ring
            if d > 1 and ring - d > 1:
                all_correct = False
                break
    if all_correct:
        for r_u in neighbor_values:
            if (r_u - r_v) % ring > 1:
                break
        else:
            return RULE_NORMAL
    if r_v < 0:
        for r_u in neighbor_values:
            if r_u > 0 or r_v > r_u:
                break
        else:
            return RULE_CONVERGE
    elif not all_correct and r_v > 0:
        return RULE_RESET
    return None


def ssme_privileged(r: int, vertex_id: int, n: int, diam: int) -> bool:
    """Privilege predicate: the register sits on this identity's threshold."""
    return r == 2 * n + 2 * diam * vertex_id


class SsmeProtocol:
    """Clock-unison mutual exclusion on an arbitrary connected graph.

    Each vertex holds one register over cherry(n, (2n-1)(diam+1)+2).  Rules:
    NA ticks a locally-minimal correct clock, CA climbs the stem when the
    whole neighborhood is still initial, RA resets a correct clock that sees
    incomparable drift.  Vertex identity is the vertex index.
    """

    name = "ssme"
    reset_rule = RULE_RESET
    # Rules that only fire outside the legitimate set.
    repair_rules = (RULE_CONVERGE, RULE_RESET)

    def __init__(self, n: int, diam: int):
        self.n = n
        self.diam = diam
        self.params: ClockParams = ssme_params(n, diam)
        self.alpha = self.params.alpha
        self.ring = self.params.ring
        self.thresholds: tuple[int, ...] = tuple(
            2 * n + 2 * diam * v for v in range(n)
        )

    @classmethod
    def for_graph(cls, g: Graph) -> "SsmeProtocol":
        return cls(g.n, g.diam)

    def __repr__(self) -> str:
        return f"SsmeProtocol(n={self.n}, diam={self.diam})"

    def check_graph(self, g: Graph) -> None:
        if g.n != self.n or g.diam != self.diam:
            raise ValueError(
                f"protocol sized for n={self.n}, diam={self.diam}; "
                f"graph has n={g.n}, diam={g.diam}"
            )

    def state_domain(self) -> range:
        return self.params.values()

    def enabled_rule(self, v: int, config: Sequence[int], g: Graph) -> str | None:
        neigh = g.adj[v]
        return ssme_rule(config[v], [config[u] for u in neigh], self.ring)

    def apply(self, v: int, rule: str, config: Sequence[int], g: Graph) -> int:
        if rule == RULE_NORMAL or rule == RULE_CONVERGE:
            return increment(config[v], self.params)
        if rule == RULE_RESET:
            return -self.alpha
        raise ValueError(f"unknown rule {rule!r}")

    def privileged(self, v: int, config: Sequence[int], g: Graph) -> bool:
        return config[v] == self.thresholds[v]

    def privileged_vertices(self, config: Sequence[int], g: Graph) -> tuple[int, ...]:
        thr = self.thresholds
        return tuple(v for v in range(self.n) if config[v] == thr[v])

    def is_legitimate(self, config: Sequence[int], g: Graph) -> bool:
        """All registers correct and every edge within one tick of drift."""
        for r in config:
            if r < 0:
                return False
        ring = self.ring
        for u, v in g.edges:
            d = (config[u] - config[v]) % ring
            if d > 1 and ring - d > 1:
                return False
        return True

    def sync_step_bound(self, g: Graph) -> int:
        # Synchronous runs settle into unison within 2n + diam steps.
        return 2 * self.n + self.diam

    def default_max_steps(self, g: Graph) -> int:
        return 4 * (2 * self.n + self.diam + self.ring)


class DijkstraProtocol:
    """K-state token ring: the root bumps its counter when it matches its
    predecessor, everyone else copies a differing predecessor.

    Needs K >= n+1 states to stabilize from arbitrary counters.  The scan
    order follows vertex indices around a ring graph; privilege coincides
    with being enabled.
    """

    name = "dijkstra"
    reset_rule = None
    repair_rules = ()

    def __init__(self, n: int, k_states: int | None = None):
        if n < 2:
            raise ValueError(f"token ring needs at least 2 vertices, got {n}")
        k = n + 1 if k_states is None else k_states
        if k <= n:
            raise ValueError(f"token ring needs K >= n+1, got K={k} for n={n}")
        self.n = n
        self.k = k

    @classmethod
    def for_graph(cls, g: Graph, k_states: int | None = None) -> "DijkstraProtocol":
        return cls(g.n, k_states)

    def __repr__(self) -> str:
        return f"DijkstraProtocol(n={self.n}, k={self.k})"

    def check_graph(self, g: Graph) -> None:
        if g.n != self.n:
            raise ValueError(f"protocol sized for n={self.n}, graph has n={g.n}")
        want = {(min(u, v), max(u, v)) for u, v in ((i, (i + 1) % self.n) for i in range(self.n))}
        if set(g.edges) != want:
            raise ValueError("token ring protocol requires a ring graph")

    def state_domain(self) -> range:
        return range(self.k)

    def enabled_rule(self, v: int, config: Sequence[int], g: Graph) -> str | None:
        prev = config[v - 1] if v > 0 else config[self.n - 1]
        if v == 0:
            return RULE_BUMP if config[0] == prev else None
        return RULE_COPY if config[v] != prev else None

    def apply(self, v: int, rule: str, config: Sequence[int], g: Graph) -> int:
        if rule == RULE_BUMP:
            return (config[0] + 1) % self.k
        if rule == RULE_COPY:
            return config[v - 1]
        raise ValueError(f"unknown rule {rule!r}")

    def privileged(self, v: int, config: Sequence[int], g: Graph) -> bool:
        return self.enabled_rule(v, config, g) is not None

    def privileged_vertices(self, config: Sequence[int], g: Graph) -> tuple[int, ...]:
        out = []
        prev = config[self.n - 1]
        if config[0] == prev:
            out.append(0)
        for v in range(1, self.n):
            if config[v] != config[v - 1]:
                out.append(v)
        return tuple(out)

    def is_legitimate(self, config: Sequence[int], g: Graph) -> bool:
        """Exactly one vertex holds the token."""
        return len(self.privileged_vertices(config, g)) == 1

    def sync_step_bound(self, g: Graph) -> int:
        # Exhaustive synchronous worst case is 2n-3 for n = 3..5, under this.
        return 2 * self.n

    def default_max_steps(self, g: Graph) -> int:
        return 4 * self.n * self.n + 4 * self.n * self.k + 16


Protocol = SsmeProtocol | DijkstraProtocol


def make_protocol(name: str, g: Graph, k_states: int | None = None) -> Protocol:
    """Protocol factory keyed by CLI name."""
    key = name.strip().lower()
    if key == "ssme":
        proto: Protocol = SsmeProtocol.for_graph(g)
    elif key == "dijkstra":
        proto = DijkstraProtocol.for_graph(g, k_states)
    else:
        raise ValueError(f"unknown protocol {name!r} (expected ssme or dijkstra)")
    proto.check_graph(g)
    return proto

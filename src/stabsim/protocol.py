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

Each protocol states its rules twice: per vertex (`enabled_rule`, `apply`,
`privileged_vertices`, `is_legitimate`), the literal reference that traces
and tests use, and as one numpy kernel, `batch`, that evaluates a whole
matrix of configurations at once for the searches and the ensembles.
Differential tests hold the two equal.  The clock protocol's per-vertex
rule is read straight off its guard definitions, `ssme_guards`; its kernel
reads the guards' per-value and per-pair predicates from small lookup
tables that each protocol builds once from the clock module's own
predicates (`is_stab`, `is_init`, `increment`, `locally_comparable`,
`leq_local`), so no clock formula is restated in numpy.

A protocol may also declare a symmetry of its kernel, `symmetry(g)`: a
group acting on value matrices that maps legitimacy, ``enabled`` and
``nxt`` onto themselves, so that the unconstrained solver needs one
configuration per orbit.  The token ring's is `ValueShift`; the clock
protocol's, on a complete graph, is `VertexPermutations`, since only
privilege reads vertex ids.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .clock import (
    ClockParams,
    increment,
    is_init,
    is_stab,
    leq_local,
    locally_comparable,
    reset,
    ssme_params,
)
from .graph import Graph

# Rule labels of the clock protocol.
RULE_NORMAL = "NA"
RULE_CONVERGE = "CA"
RULE_RESET = "RA"
# The order of `ssme_guards`.
SSME_RULES = (RULE_NORMAL, RULE_CONVERGE, RULE_RESET)

# Bits of the clock kernel's per-vertex accumulator.  The first three are
# the conjunctions over the neighbours of the all-correct, NA and CA guards;
# the last two say whether the vertex's own value is >= 0 and > 0.  Every
# entry ANDed in for a neighbour has the last two set, so they carry.
_ALLC, _NA, _CA, _STAB, _POS = 1, 2, 4, 8, 16
_CARRIED = _STAB | _POS

# Rule labels of the token ring.
RULE_BUMP = "INC"
RULE_COPY = "COPY"


def ssme_guards(
    r_v: int, neighbor_values: Sequence[int], ring: int
) -> tuple[bool, bool, bool]:
    """Evaluate the three guards (normal, converge, reset) from definitions.

    The literal statement of the clock rule: `SsmeProtocol.enabled_rule`
    fires the first guard that holds, and the test suite checks
    exhaustively that at most one holds at a vertex with neighbours.
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


class Batch(NamedTuple):
    """A protocol's per-vertex view of a rows x vertices matrix of
    configurations: every field is a rows x vertices matrix.

    ``nxt`` holds every vertex's value after it moves (its own value where
    it is disabled), so activating the mask ``act`` gives
    ``np.where(act, nxt, R)``.  ``hits`` marks the moves `CentralAdversarial`
    keeps alive: reset-enabled vertices, or enabled ones for a protocol
    without a reset rule.  ``tally`` marks the vertices that legitimacy
    counts: a row is legitimate exactly when it holds the protocol's
    ``legit_tally`` of them, ``tallied(b.tally, protocol.legit_tally)``.

    Locality: column v of every field reads only the columns of ``R`` in
    v's closed neighbourhood, v and its neighbours.  The exhaustive
    synchronous scan relies on it to evaluate each vertex over its
    neighbourhood's values alone.
    """

    nxt: np.ndarray
    enabled: np.ndarray
    priv: np.ndarray
    hits: np.ndarray
    tally: np.ndarray


def rows_with(mask: np.ndarray, least: int) -> np.ndarray:
    """The rows of a rows x vertices bool mask that hold at least ``least``
    (1 or 2) set entries.

    ORs the n columns together: on masks this narrow that is several times
    faster than a per-row reduction such as ``mask.sum(axis=1)``.
    """
    seen = mask[:, 0].copy()
    twice = np.zeros_like(seen)
    for v in range(1, mask.shape[1]):
        col = mask[:, v]
        if least > 1:
            twice |= seen & col
        seen |= col
    return seen if least == 1 else twice


def tallied(tally: np.ndarray, want: int) -> np.ndarray:
    """The rows of a rows x vertices bool ``tally`` with exactly ``want``
    set entries: the legitimate rows, for a `Batch.tally` and its
    protocol's ``legit_tally``."""
    n = tally.shape[1]
    return tally.sum(axis=1, dtype=np.min_scalar_type(n)) == want


class ValueShift(NamedTuple):
    """The group that adds c mod ``k`` to every value, c in ``range(k)``,
    acting on configurations over ``range(k)``.

    Configurations are indexed in ``product(range(k), repeat=n)`` order,
    vertex 0 the most significant digit, so each orbit's smallest index is
    its configuration with vertex 0 at 0: the indices ``[0, k^(n-1))``.
    Every orbit has ``k`` configurations.
    """

    k: int

    def canonical(self, R: np.ndarray) -> np.ndarray:
        """Each int32 row of ``R`` shifted so that vertex 0 holds 0.  A
        difference below 0 wraps by adding k, which is ``(d >> 31) & k``: a
        column of shifts and masks, several times faster than ``% k``."""
        C = R - R[:, :1]
        for v in range(1, C.shape[1]):
            d = C[:, v]
            d += (d >> 31) & self.k
        return C

    def representatives(self, n: int) -> np.ndarray:
        return np.arange(self.k ** (n - 1), dtype=np.int32)

    def orbit_sizes(self, R: np.ndarray) -> np.ndarray:
        return np.full(len(R), self.k)


class VertexPermutations(NamedTuple):
    """The group of every permutation of the vertices, acting on
    configurations over a domain of ``size`` consecutive values.

    Configurations are indexed in ``product(domain, repeat=n)`` order,
    vertex 0 the most significant digit, so each orbit's smallest index is
    its sorted configuration, and the orbit of a multiset with value
    multiplicities ``m_1, m_2, ...`` has ``n! / (m_1! m_2! ...)``
    configurations.
    """

    size: int

    def canonical(self, R: np.ndarray) -> np.ndarray:
        """Each int32 row of ``R`` sorted, as a column-major copy.  The
        rows are sorted by odd-even transposition over the columns, which
        on a few columns is several times faster than a per-row sort."""
        C = np.array(R, order="F")
        n = C.shape[1]
        for r in range(n):
            for v in range(r % 2, n - 1, 2):
                low = np.minimum(C[:, v], C[:, v + 1])
                np.maximum(C[:, v], C[:, v + 1], out=C[:, v + 1])
                C[:, v] = low
        return C

    def representatives(self, n: int) -> np.ndarray:
        """The indices of the non-decreasing configurations, in order: each
        prefix of digits ending at ``last`` is extended by every digit from
        ``last`` up."""
        D = self.size
        idx = last = np.arange(D, dtype=np.int64)
        for _ in range(n - 1):
            counts = D - last
            starts = np.repeat(np.cumsum(counts) - counts - last, counts)
            new = np.arange(len(starts)) - starts
            idx, last = np.repeat(idx, counts) * D + new, new
        return idx.astype(np.int32)

    def orbit_sizes(self, R: np.ndarray) -> np.ndarray:
        """The orbit size of each sorted row of ``R``: ``n!`` over the
        product, along the row, of each value's count of copies so far."""
        run = np.ones(len(R), dtype=np.int64)
        copies = np.ones(len(R), dtype=np.int64)
        for v in range(1, R.shape[1]):
            run = np.where(R[:, v] == R[:, v - 1], run + 1, 1)
            copies *= run
        return math.factorial(R.shape[1]) // copies


def is_unison_legitimate(
    config: Sequence[int], g: Graph, params: ClockParams
) -> bool:
    """Every register correct and every edge within one tick of drift.

    Vacuously true for an edgeless graph, matching the neighborhood-quantified
    definition.
    """
    ring = params.ring
    for r in config:
        if r < 0 or r >= ring:
            return False
    for u, v in g.edges:
        d = (config[u] - config[v]) % ring
        if d > 1 and ring - d > 1:
            return False
    return True


class SsmeProtocol:
    """Clock-unison mutual exclusion on an arbitrary connected graph.

    Each vertex holds one register over cherry(n, (2n-1)(diam+1)+2).  Rules:
    NA ticks a locally-minimal correct clock, CA climbs the stem when the
    whole neighborhood is still initial, RA resets a correct clock that sees
    incomparable drift.  Vertex identity is the vertex index.
    """

    name = "ssme"
    reset_rule = RULE_RESET
    # Legitimate: no vertex fails to be all correct with r_v >= 0.
    legit_tally = 0

    def __init__(
        self,
        n: int,
        diam: int,
        *,
        params: ClockParams | None = None,
        thresholds: Sequence[int] | None = None,
    ):
        """The paper's clock and thresholds for ``n`` vertices and diameter
        ``diam``; ``params`` and ``thresholds`` replace them, for variants
        that test which constants the protocol needs."""
        self.n = n
        self.diam = diam
        self.params: ClockParams = (
            ssme_params(n, diam) if params is None else params
        )
        self.alpha = self.params.alpha
        self.ring = self.params.ring
        self.thresholds: tuple[int, ...] = tuple(
            (2 * n + 2 * diam * v for v in range(n))
            if thresholds is None else thresholds
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
        guards = ssme_guards(config[v], [config[u] for u in g.adj[v]], self.ring)
        return next((rule for rule, hit in zip(SSME_RULES, guards) if hit), None)

    def apply(self, v: int, rule: str, config: Sequence[int], g: Graph) -> int:
        if rule == RULE_NORMAL or rule == RULE_CONVERGE:
            return increment(config[v], self.params)
        if rule == RULE_RESET:
            return reset(self.params)
        raise ValueError(f"unknown rule {rule!r}")

    def privileged_vertices(self, config: Sequence[int], g: Graph) -> tuple[int, ...]:
        thr = self.thresholds
        return tuple(v for v in range(self.n) if config[v] == thr[v])

    def is_legitimate(self, config: Sequence[int], g: Graph) -> bool:
        return is_unison_legitimate(config, g, self.params)

    def symmetry(self, g: Graph) -> VertexPermutations | None:
        """The vertex permutations when ``g`` is complete, and otherwise
        none.  Only privilege reads vertex ids, so every automorphism of
        ``g`` maps legitimacy, ``enabled`` and ``nxt`` onto themselves."""
        if g.m == g.n * (g.n - 1) // 2:
            return VertexPermutations(len(self.state_domain()))
        return None

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        """The kernel's lookup tables, read off the clock's predicates, and
        the thresholds as a column.

        ``own``, ``nbr`` and ``inc`` are indexed by ``c + alpha`` for a
        value c: the accumulator bits that c allows as a vertex's own value
        and as a neighbour's, and `increment`.  ``pair`` is indexed by
        ``a + size - 1`` for a difference ``a = r_v - r_u`` of two values:
        the bits that a neighbour's value ``r_u`` allows at ``r_v``.
        """
        params, ring, size = self.params, self.ring, self.params.size
        own, nbr, inc = [], [], []
        for c in self.state_domain():
            stab, init = is_stab(c, params), is_init(c, params)
            correct = _ALLC | _NA if stab else 0
            # All correct and NA need r_v >= 0, CA needs r_v < 0.
            own.append((correct | _STAB | (0 if init else _POS)) if stab else _CA)
            # All correct and NA need r_u >= 0, CA needs r_u <= 0.
            nbr.append(correct | (_CA if init else 0) | _CARRIED)
            inc.append(increment(c, params))
        pair = []
        for a in range(1 - size, size):
            comparable = locally_comparable(a, 0, ring)
            pair.append(
                (_ALLC if comparable else 0)
                | (_NA if comparable and leq_local(a, 0, ring) else 0)
                | (_CA if a <= 0 else 0)
                | _CARRIED
            )
        return (
            np.array(own, dtype=np.uint8),
            np.array(nbr, dtype=np.uint8),
            np.array(pair, dtype=np.uint8),
            np.array(inc, dtype=np.int32),
            np.array(self.thresholds, dtype=np.int32)[:, None],
        )

    def batch(self, R: np.ndarray, g: Graph) -> Batch:
        """`Batch` of the int32 rows of ``R``, one column per vertex.

        The guards of `ssme_guards`, with their per-value and per-pair
        predicates read from `_tables`.  Each vertex keeps a uint8
        accumulator whose bits are the conjunctions of its all-correct, NA
        and CA guards over its neighbours; each (vertex, neighbour) pair
        ANDs in the pair table's entry for the difference of their values
        and the neighbour's value-table entry.  A value outside
        `state_domain` raises `IndexError`.
        """
        if R.dtype != np.int32:
            raise TypeError(f"batch takes an int32 matrix, got {R.dtype}")
        own, nbr, pair, inc, thresholds = self._tables
        # Vertex-major: a column-major ``R`` gives each vertex one
        # contiguous row.  A value below the stem gives a negative
        # ``Rt + alpha``, which reads as an index past the tables' end.
        Rt = R.T
        idx = (Rt + self.alpha).view(np.uint32).astype(np.intp)
        acc, nb = own.take(idx), nbr.take(idx)
        # ``hi_v - idx[u]`` is the pair index of ``r_v - r_u``; keeping it
        # nonnegative spares `take` its slower negative-index path.
        offset = self.params.size - 1
        for v in range(g.n):
            acc_v, hi_v = acc[v], idx[v] + offset
            if not g.adj[v]:
                acc_v |= _ALLC | _NA  # vacuously true without neighbours
            for u in g.adj[v]:
                acc_v &= pair.take(hi_v - idx[u])
                acc_v &= nb[u]
        ticked = inc.take(idx)
        del idx, nb  # freed before the outputs are built
        tick = (acc & (_NA | _CA)) != 0
        # RA: not all correct, and r_v > 0.
        ra = (acc & (_ALLC | _POS)) == _POS
        # The vertices that are not all correct with r_v >= 0.
        tally = ((acc & (_ALLC | _STAB)) != _ALLC | _STAB).T
        nxt = np.where(ra, reset(self.params), np.where(tick, ticked, Rt))
        return Batch(nxt.T, (tick | ra).T, (Rt == thresholds).T, ra.T, tally)

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
    # Legitimate: exactly one token holder.
    legit_tally = 1

    def __init__(self, n: int, k_states: int | None = None):
        if n < 2:
            raise ValueError(f"token ring needs at least 2 vertices, got {n}")
        k = n + 1 if k_states is None else k_states
        if k <= n:
            raise ValueError(f"token ring needs K >= n+1, got K={k} for n={n}")
        top = np.iinfo(np.int32).max
        if k > top:
            # The batch kernels hold states as int32.
            raise ValueError(f"token ring needs K <= {top}, got K={k}")
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

    def symmetry(self, g: Graph) -> ValueShift:
        """Adding c mod K to every value: the rules compare values only for
        equality, and vertex 0 adds 1 mod K."""
        return ValueShift(self.k)

    def batch(self, R: np.ndarray, g: Graph) -> Batch:
        """`Batch` of the int32 rows of ``R``, one column per vertex.  A
        value outside `state_domain` raises `IndexError`."""
        if R.dtype != np.int32:
            raise TypeError(f"batch takes an int32 matrix, got {R.dtype}")
        # A negative value reads as 2**31 or more.
        if (R.view(np.uint32) >= self.k).any():
            raise IndexError(f"token ring values must lie in range({self.k})")
        prev = np.roll(R, 1, axis=1)
        enabled = R != prev
        enabled[:, 0] = ~enabled[:, 0]
        nxt = np.where(enabled, prev, R)
        nxt[:, 0] = np.where(enabled[:, 0], (R[:, 0] + 1) % self.k, R[:, 0])
        # A vertex holds the token exactly when it is enabled.
        return Batch(nxt, enabled, enabled, enabled, enabled)

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
        if k_states is not None:
            raise ValueError("k_states sets the token ring's states; ssme takes none")
        proto: Protocol = SsmeProtocol.for_graph(g)
    elif key == "dijkstra":
        proto = DijkstraProtocol.for_graph(g, k_states)
    else:
        raise ValueError(f"unknown protocol {name!r} (expected ssme or dijkstra)")
    proto.check_graph(g)
    return proto

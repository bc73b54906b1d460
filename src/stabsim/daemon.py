"""Schedulers ("daemons"): who gets to move at each step.

A policy is handed the enabled set and must return a non-empty subset of
it.  The synchronous policy activates everyone, central policies pick a
single vertex, the distributed random policy flips a coin per vertex.  No
fairness of any kind is imposed.  The fully adversarial scheduler is not an
implementable object; it is approximated by the greedy central policy here
and, exactly, by `enumerate_choices` which spells out every legal move for
exhaustive search on tiny instances.

A policy instance is owned by a single run: seeded policies carry their own
RNG stream, so identical (seed, run) pairs replay identical selections.

Each policy's ``batched(proto, g, draws, size)`` is its selection for
`engine.ensemble_runs` over row ids below ``size``; it reaches the protocol
only through its batch kernel.  Its random numbers come from ``draws``:
`Replay`, the ``select`` calls' own ``random.Random`` draws, so each row
equals `engine.run` step for step (`sweep`), or `verify.Streams`.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

import numpy as np

from .graph import Graph

DEFAULT_BRANCH_CAP = 16
# The `make_daemon` names, one per policy class, in the CLI's order.
DAEMON_NAMES = ("sync", "central-rr", "central-rand", "central-adv", "dist-rand")


class StepContext:
    """Read-only view of the engine state offered to look-ahead policies."""

    __slots__ = ("protocol", "graph", "config", "rules")

    def __init__(self, protocol, graph, config, rules):
        self.protocol = protocol
        self.graph = graph
        self.config = config
        self.rules = rules


class SynchronousDaemon:
    name = "sync"

    def __init__(self, seed: int = 0):
        pass

    def select(self, enabled: set[int], ctx: StepContext | None = None) -> set[int]:
        return set(enabled)

    def batched(self, proto, g: Graph, draws, size: int):
        return lambda rows, R, b: b.enabled.T


def _nth(mask: np.ndarray, nth: np.ndarray) -> np.ndarray:
    """One-hot of the ``nth[b]``-th (from 1) set entry of column b of a
    vertex-by-row mask."""
    seen = np.zeros(mask.shape[1], dtype=np.int32)
    out = np.empty_like(mask)
    for v, col in enumerate(mask):
        seen += col
        out[v] = col & (seen == nth)
    return out


class CentralRoundRobin:
    """Single vertex per step: smallest enabled index at or after a moving cursor."""

    name = "central-rr"

    def __init__(self, n: int, seed: int = 0):
        self.n = n
        self.cursor = 0

    def select(self, enabled: set[int], ctx: StepContext | None = None) -> set[int]:
        cur = self.cursor
        pick = min((v for v in enabled if v >= cur), default=None)
        if pick is None:
            pick = min(enabled)
        self.cursor = (pick + 1) % self.n
        return {pick}

    def batched(self, proto, g: Graph, draws, size: int):
        """`select` with one cursor per row id, each from 0."""
        cols = np.arange(self.n)[:, None]
        cursor = np.zeros(size, dtype=np.int64)

        def select(rows, R, b):
            enabled = b.enabled.T
            ahead = enabled & (cols >= cursor[rows])
            act = _nth(np.where(ahead.any(axis=0), ahead, enabled), 1)
            cursor[rows] = ((act * cols).sum(axis=0) + 1) % self.n
            return act

        return select


class CentralRandom:
    name = "central-rand"

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def select(self, enabled: set[int], ctx: StepContext | None = None) -> set[int]:
        return {self.rng.choice(sorted(enabled))}

    def batched(self, proto, g: Graph, draws, size: int):
        def select(rows, R, b):
            pool = b.enabled.T
            return _nth(pool, draws.pick(rows, pool.sum(axis=0)) + 1)

        return select


class CentralAdversarial:
    """Greedy slowdown: activate the vertex that keeps the most repair work alive.

    Candidates are scored by how many reset-enabled vertices remain after
    activating them alone (falling back to the plain enabled count for
    protocols without a reset rule); ties are broken by a seeded RNG.
    """

    name = "central-adv"

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def select(self, enabled: set[int], ctx: StepContext | None = None) -> set[int]:
        if ctx is None:
            raise ValueError("adversarial policy needs a step context")
        proto, g, config, rules = ctx.protocol, ctx.graph, ctx.config, ctx.rules
        target = getattr(proto, "reset_rule", None)

        def hits(rule: str | None) -> int:
            if target is None:
                return int(rule is not None)
            return int(rule == target)

        base = sum(hits(r) for r in rules)
        best_score = None
        best: list[int] = []
        scratch = list(config)
        for v in sorted(enabled):
            new_v = proto.apply(v, rules[v], config, g)
            scratch[v] = new_v
            affected = (v, *g.adj[v])
            score = base
            for u in affected:
                score -= hits(rules[u])
                score += hits(proto.enabled_rule(u, scratch, g))
            scratch[v] = config[v]
            if best_score is None or score > best_score:
                best_score = score
                best = [v]
            elif score == best_score:
                best.append(v)
        return {self.rng.choice(best)}

    def batched(self, proto, g: Graph, draws, size: int):
        def select(rows, R, b):
            pool = _adversarial_best(proto, g, R, b)
            return _nth(pool, draws.pick(rows, pool.sum(axis=0)) + 1)

        return select


def _adversarial_best(proto, g: Graph, R: np.ndarray, b) -> np.ndarray:
    """The vertex-by-row mask `CentralAdversarial` draws from: the enabled
    vertices that leave the most `Batch.hits` (reset-enabled vertices, for
    the clock protocol) after moving alone.

    One trial row per (row, enabled vertex) pair, the row with that vertex
    moved, is scored by one kernel call; vertices that are not enabled
    score -1.
    """
    # Flat indices into vertex-by-row matrices, vertex-major.
    pairs = np.flatnonzero(b.enabled.T)
    v, r = np.divmod(pairs, len(R))
    # Vertex-major, so the kernel gets a column-major matrix (``R.T[:, r]``
    # would come out column-major itself).
    trial = R.T.take(r, axis=1)
    np.put(trial, v * len(r) + np.arange(len(r)), b.nxt.T.take(pairs))
    after = proto.batch(trial.T, g).hits
    score = np.full(g.n * len(R), -1)
    score[pairs] = np.asfortranarray(after).sum(axis=1)
    score = score.reshape(g.n, len(R))
    return score == score.max(axis=0)


class RandomDistributed:
    """Each enabled vertex activates independently with probability p,
    resampled until the selection is non-empty."""

    name = "dist-rand"

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"activation probability must be in (0,1], got {p}")
        self.p = p
        self.rng = random.Random(seed)

    def select(self, enabled: set[int], ctx: StepContext | None = None) -> set[int]:
        ordered = sorted(enabled)
        rng = self.rng
        p = self.p
        while True:
            sel = {v for v in ordered if rng.random() < p}
            if sel:
                return sel

    def batched(self, proto, g: Graph, draws, size: int):
        p = self.p
        return lambda rows, R, b: draws.coins(rows, b.enabled.T, p)


# `Replay`: a stream's buffer grows in blocks of this many words; `pick`
# reads this many words per row before it loops on the rows that rejected
# them all; `coins` reads at most this many coins' words per row in one
# pass.
REPLAY_BLOCK = 128
PICK_WINDOW = 4
MAX_COIN_WINDOW = 256


class Replay:
    """The draws of the scalar daemons, for all rows at once: row r reads
    the 32-bit Mersenne Twister words of ``random.Random(seeds[r])``, the
    generator of its daemon, exactly as the daemon's ``select`` does.

    Rows whose seeds give one generator (``s`` and ``-s`` seed alike) read
    one stream of words, each at its own cursor.  A stream's buffer keeps
    only its words from the lowest cursor of its live rows on, and is
    topped up in `REPLAY_BLOCK`-word blocks by one ``getrandbits`` call,
    whose words come least significant first in draw order.  Rows absent
    from a call have finished and never draw again, as in `ensemble_runs`.
    """

    def __init__(self, seeds: list[int]):
        ids: dict[int, int] = {}
        self.stream = np.array(
            [ids.setdefault(abs(s), len(ids)) for s in seeds], dtype=np.intp
        )
        self.keys = list(ids)
        # Built on first draw: sync and central-rr draw nothing.
        self.rngs = None
        self.cursor = np.zeros(len(seeds), dtype=np.int64)
        # ``buf[s, :filled[s]]`` holds stream s's words from ``base[s]`` on.
        self.base = np.zeros(len(ids), dtype=np.int64)
        self.filled = np.zeros(len(ids), dtype=np.int64)
        self.buf = np.empty((len(ids), 0), dtype=np.uint32)
        self.live = np.arange(len(seeds))

    def _read(self, rows: np.ndarray, width: int) -> np.ndarray:
        """The ``width`` words of each row from its cursor on; the cursors
        stay."""
        s = self.stream[rows]
        off = self.cursor[rows] - self.base[s]
        short = off + width > self.filled[s]
        if short.any():
            self._refill(s[short], self.cursor[rows[short]] + width)
            off = self.cursor[rows] - self.base[s]
        return self.buf[s[:, None], off[:, None] + np.arange(width)]

    def _refill(self, s: np.ndarray, end: np.ndarray) -> None:
        """Give each stream of ``s`` its words below the matching ``end``,
        dropping those below its live rows' lowest cursor.  A stream's
        buffer then holds a whole number of blocks."""
        if self.rngs is None:
            self.rngs = [random.Random(key) for key in self.keys]
        want = np.zeros(len(self.keys), dtype=np.int64)
        np.maximum.at(want, s, end)
        lo = np.full(len(self.keys), np.iinfo(np.int64).max)
        np.minimum.at(lo, self.stream[self.live], self.cursor[self.live])
        t = np.unique(s)
        lo, drop = lo[t], lo[t] - self.base[t]
        keep = self.filled[t] - drop
        size = -(-(want[t] - lo) // REPLAY_BLOCK) * REPLAY_BLOCK
        if size.max() > self.buf.shape[1]:
            width = max(2 * self.buf.shape[1], size.max())
            wider = np.empty((len(self.keys), width), dtype=np.uint32)
            wider[:, : self.buf.shape[1]] = self.buf
            self.buf = wider
        for i, d, k, c in zip(t.tolist(), drop.tolist(), keep.tolist(), size.tolist()):
            row = self.buf[i]
            row[:k] = row[d : d + k]
            words = self.rngs[i].getrandbits(32 * (c - k))
            row[k:c] = np.frombuffer(words.to_bytes(4 * (c - k), "little"), "<u4")
        self.base[t], self.filled[t] = lo, size

    def pick(self, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """``choice(range(k))`` for each row's ``k = sizes[i]`` (1 <= k <
        2**32): a word shifted right by ``32 - k.bit_length()``, read again
        while it is k or more."""
        self.live = rows
        out = np.empty(len(rows), dtype=np.int32)
        # frexp's exponent of a positive integer is its bit length.
        shift = (32 - np.frexp(sizes)[1]).astype(np.uint32)[:, None]
        todo = np.arange(len(rows))
        while len(todo):
            r = rows[todo]
            draw = self._read(r, PICK_WINDOW) >> shift[todo]
            ok = draw < sizes[todo, None]
            first = ok.argmax(axis=1)
            hit = ok[np.arange(len(todo)), first]
            self.cursor[r] += np.where(hit, first + 1, PICK_WINDOW)
            out[todo[hit]] = draw[hit, first[hit]]
            todo = todo[~hit]
        return out

    def coins(self, rows: np.ndarray, enabled: np.ndarray, p: float) -> np.ndarray:
        """``random() < p`` once per set entry of the vertex-by-row
        ``enabled``, ascending, each row redrawn whole while it comes out
        empty.  ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``
        over two words.

        Each pass reads whole redraws of a row for at least 2 / p coins (at
        most `MAX_COIN_WINDOW` coins, unless one redraw needs more), so at
        most e**-2 of the rows need another pass.
        """
        self.live = rows
        k = enabled.sum(axis=0)
        span = np.arange(k.max())
        window = min(math.ceil(2 / p), MAX_COIN_WINDOW)
        heads = np.zeros((len(rows), len(span)), dtype=bool)
        todo = np.arange(len(rows))
        while len(todo):
            r, kk = rows[todo], k[todo]
            flips = -(-window // kk) * kk
            w = self._read(r, 2 * int(flips.max()))
            u = ((w[:, 0::2] >> 5) * 67108864.0 + (w[:, 1::2] >> 6)) * 2.0**-53
            ok = (u < p) & (np.arange(u.shape[1]) < flips[:, None])
            first = ok.argmax(axis=1)
            hit = ok[np.arange(len(todo)), first]
            # The first head's redraw is the row's first non-empty one.
            start = first - first % kk
            self.cursor[r] += 2 * np.where(hit, start + kk, flips)
            cols = np.minimum(start[hit, None] + span, u.shape[1] - 1)
            heads[todo[hit]] = np.take_along_axis(ok[hit], cols, axis=1) & (
                span < kk[hit, None]
            )
            todo = todo[~hit]
        rank = np.maximum(np.cumsum(enabled, axis=0) - 1, 0)
        return enabled & np.take_along_axis(heads.T, rank, axis=0)


DaemonPolicy = (
    SynchronousDaemon
    | CentralRoundRobin
    | CentralRandom
    | CentralAdversarial
    | RandomDistributed
)


def enumerate_choices(enabled: Iterable[int]) -> list[frozenset[int]]:
    """All non-empty subsets of the enabled set, in a canonical order.

    Order: by subset size is NOT used; subsets follow binary counting over
    the sorted vertex list, so {a} before {b} before {a,b}.  Rejects enabled
    sets larger than `DEFAULT_BRANCH_CAP`.
    """
    ordered = sorted(set(enabled))
    if not ordered:
        raise ValueError("enabled set is empty")
    k = len(ordered)
    if k > DEFAULT_BRANCH_CAP:
        raise ValueError(
            f"enabled set of size {k} exceeds branching cap {DEFAULT_BRANCH_CAP}"
        )
    out = []
    for mask in range(1, 1 << k):
        out.append(frozenset(ordered[i] for i in range(k) if mask >> i & 1))
    return out


def make_daemon(
    name: str, *, n: int, seed: int = 0, prob: float = 0.5
) -> DaemonPolicy:
    """Policy factory keyed by CLI name; a fresh instance per run."""
    key = name.strip().lower()
    if key == "sync":
        return SynchronousDaemon(seed)
    if key == "central-rr":
        return CentralRoundRobin(n, seed)
    if key == "central-rand":
        return CentralRandom(seed)
    if key == "central-adv":
        return CentralAdversarial(seed)
    if key == "dist-rand":
        return RandomDistributed(prob, seed)
    raise ValueError(
        f"unknown daemon {name!r} (expected {', '.join(DAEMON_NAMES[:-1])} "
        f"or {DAEMON_NAMES[-1]})"
    )

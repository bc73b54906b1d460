"""Executable property suites over the clock, the guards and whole runs.

Each suite returns a list of CheckResult records so the CLI and the test
suite can share one implementation.  A failing check carries enough detail
to reproduce the counterexample.

The transient-phase suite restates, as trace predicates, the structural
facts that make early safety work on synchronous runs: a vertex privileged
within the first diam steps never repaired its clock before that and was
never inside an island containing a zero register; islands that do not
contain zero lose depth every synchronous step; and diam steps after any
illegitimate start, every register is confined to the initial segment plus
a narrow arc of the ring.

Every scheduler policy is stated once in batched form, by
`batched_selector`, for `engine.ensemble_runs`.  Only the source of its
random numbers differs between callers: `Streams`, numpy streams for
`policy_ensembles` (the ensemble and `compare`'s sampled bounds), or
`Replay`, for `sweep`, which reads the words of the scalar daemons' own
`random.Random` generators into numpy buffers and replays their ``choice``
and ``random()`` calls on all rows at once, draw for draw.
`policy_ensembles` steps the five ensemble policies as consecutive row
blocks of one matrix, so each step makes one kernel call for all of them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from . import clock
from .daemon import SynchronousDaemon, enumerate_choices, make_daemon
from .engine import (
    EnsembleRuns,
    ensemble_runs,
    islands,
    local_state,
    restrict_trace,
    run,
    run_stats,  # bound here for bench/tracer.py, which patches it per module
    step,
)
from .graph import Graph
from .protocol import (
    RULE_CONVERGE,
    RULE_RESET,
    SsmeProtocol,
    is_unison_legitimate,
    ssme_guards,
)
from .search import (
    DEFAULT_CONFIG_BUDGET,
    DEFAULT_STATE_BUDGET,
    StateSpace,
    ssme_unfair_step_bound,
    sync_worst_bound,
    worst_case_unfair,
)


# The suites' fixed instances: the algebra suite's clock (stem, ring) and
# the guard check's n, diam and largest neighbourhood.
CLOCK_ALPHA, CLOCK_RING = 5, 12
GUARD_N, GUARD_DIAM, GUARD_MAX_DEGREE = 3, 1, 3


@dataclass
class CheckResult:
    name: str
    ok: bool
    details: str = ""

    def __str__(self) -> str:
        tag = "PASS" if self.ok else "FAIL"
        return f"{tag} {self.name}" + (f": {self.details}" if self.details else "")


def _result(name: str, failures: list, extra: str = "") -> CheckResult:
    if failures:
        return CheckResult(name, False, f"{len(failures)} counterexamples, first: {failures[0]}")
    return CheckResult(name, True, extra)


def random_config(protocol, n: int, rng: random.Random) -> tuple[int, ...]:
    """``n`` registers drawn uniformly from the protocol's state domain."""
    domain = protocol.state_domain()
    return tuple(rng.choice(domain) for _ in range(n))


def random_inits(protocol, n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """``count`` `random_config` draws from one ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [random_config(protocol, n, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# Clock algebra
# ---------------------------------------------------------------------------


def clock_checks() -> list[CheckResult]:
    alpha, ring = CLOCK_ALPHA, CLOCK_RING
    params = clock.ClockParams(alpha, ring)
    out = []

    bad = []
    c = -alpha
    for i in range(alpha):
        c = clock.increment(c, params)
    if c != 0:
        bad.append(f"stem of {alpha} did not end at 0 (got {c})")
    orbit = [c]
    for _ in range(2 * ring):
        c = clock.increment(c, params)
        orbit.append(c)
    for i, val in enumerate(orbit):
        if val != i % ring:
            bad.append(f"ring orbit broke at tick {i}: {val}")
            break
    out.append(_result("increment climbs the stem then cycles the ring", bad))

    bad = []
    span = range(-ring, 2 * ring)
    for a in span:
        if clock.ring_distance(a, a, ring) != 0:
            bad.append(f"d({a},{a}) != 0")
    for a, b in product(span, repeat=2):
        d = clock.ring_distance(a, b, ring)
        if d != clock.ring_distance(b, a, ring) or not 0 <= d <= ring // 2:
            bad.append(f"d({a},{b}) = {d}")
            break
    for a, b, e in product(range(ring), repeat=3):
        if clock.ring_distance(a, e, ring) > clock.ring_distance(
            a, b, ring
        ) + clock.ring_distance(b, e, ring):
            bad.append(f"triangle inequality fails at ({a},{b},{e})")
            break
    out.append(_result("ring distance is a bounded symmetric metric", bad))

    bad = []
    for a, b in product(params.values(), repeat=2):
        lc = clock.locally_comparable(a, b, ring)
        either = clock.leq_local(a, b, ring) or clock.leq_local(b, a, ring)
        if lc != either:
            bad.append(f"({a},{b}): comparable={lc} either-order={either}")
    out.append(_result("locally comparable iff ordered one way or the other", bad))

    bad = []
    if clock.reset(params) != -alpha:
        bad.append(f"reset gave {clock.reset(params)}")
    if not (clock.is_init(0, params) and clock.is_stab(0, params)):
        bad.append("zero must be both initial and correct")
    out.append(_result("reset bottoms the stem; zero overlaps both segments", bad))

    bad = []
    for n in range(1, 12):
        for diam in range(0, n):
            p = clock.ssme_params(n, diam)
            if not (p.ring > n and p.alpha >= n - 2):
                bad.append(f"n={n} diam={diam}: alpha={p.alpha} K={p.ring}")
    out.append(_result("derived clock sizes dominate the vertex count", bad))
    return out


# ---------------------------------------------------------------------------
# Guard structure
# ---------------------------------------------------------------------------


def guard_checks() -> list[CheckResult]:
    n, diam, max_degree = GUARD_N, GUARD_DIAM, GUARD_MAX_DEGREE
    params = clock.ssme_params(n, diam)
    values = list(params.values())
    out = []

    bad = []
    for r_v in values:
        for size in range(1, max_degree + 1):
            for neigh in combinations_with_replacement(values, size):
                guards = ssme_guards(r_v, neigh, params.ring)
                if sum(guards) > 1:
                    bad.append(f"r={r_v} neigh={neigh} guards={guards}")
    out.append(
        _result(
            "at most one guard holds per vertex "
            f"(exhaustive, n={n} diam={diam}, degrees 1..{max_degree})",
            bad,
        )
    )

    bad = []
    for nn in range(2, 9):
        for dd in range(1, nn):
            p = SsmeProtocol(nn, dd)
            for i, j in combinations(range(nn), 2):
                if clock.ring_distance(p.thresholds[i], p.thresholds[j], p.ring) <= dd:
                    bad.append(f"n={nn} diam={dd} ids=({i},{j})")
            for th in p.thresholds:
                if not 0 < th <= p.ring - 1:
                    bad.append(f"n={nn} diam={dd} threshold {th} outside ring")
    out.append(
        _result("privilege thresholds sit in the ring, pairwise > diam apart", bad)
    )
    return out


# ---------------------------------------------------------------------------
# Closure of the legitimate set
# ---------------------------------------------------------------------------


def sample_legitimate_config(g: Graph, ring: int, rng: random.Random) -> list[int]:
    """Random drift-1 configuration grown along a BFS tree.

    Non-tree edges can still violate the drift bound, so callers re-check
    legitimacy and retry.
    """
    vals = [-1] * g.n
    vals[0] = rng.randrange(ring)
    frontier = [0]
    seen = {0}
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.adj[v]:
                if u not in seen:
                    seen.add(u)
                    vals[u] = (vals[v] + rng.randint(-1, 1)) % ring
                    nxt.append(u)
        frontier = nxt
    return vals


def closure_checks(
    g: Graph,
    *,
    samples: int = 2000,
    seed: int = 1,
) -> list[CheckResult]:
    proto = SsmeProtocol.for_graph(g)
    params = proto.params
    closure_bad: list = []
    safety_bad: list = []

    def check_config(cfg: tuple[int, ...]) -> None:
        if len(proto.privileged_vertices(cfg, g)) > 1:
            safety_bad.append(cfg)
        rules = [proto.enabled_rule(v, cfg, g) for v in range(g.n)]
        enabled = [v for v, r in enumerate(rules) if r is not None]
        if not enabled:
            closure_bad.append(("terminal", cfg))
            return
        for subset in enumerate_choices(enabled):
            nxt = step(proto, g, cfg, sorted(subset))
            if not is_unison_legitimate(nxt, g, params):
                closure_bad.append((cfg, sorted(subset), nxt))
                return

    checked = 0
    if StateSpace(proto.state_domain(), g.n).total <= DEFAULT_CONFIG_BUDGET:
        for cfg in product(params.values(), repeat=g.n):
            if is_unison_legitimate(cfg, g, params):
                check_config(cfg)
                checked += 1
    else:
        rng = random.Random(seed)
        while checked < samples:
            cfg = tuple(sample_legitimate_config(g, params.ring, rng))
            if not is_unison_legitimate(cfg, g, params):
                continue
            check_config(cfg)
            checked += 1
    return [
        _result(
            "legitimate configurations are closed under every activation choice",
            closure_bad,
            f"{checked} configurations",
        ),
        _result(
            "legitimate configurations have at most one privileged vertex",
            safety_bad,
            f"{checked} configurations",
        ),
    ]


# ---------------------------------------------------------------------------
# Transient-phase invariants on synchronous runs
# ---------------------------------------------------------------------------


def sample_initial_config(proto: SsmeProtocol, rng: random.Random) -> tuple[int, ...]:
    """Uniform configuration; half the time 1-2 registers are planted near
    their privilege threshold so early-privilege hypotheses actually fire."""
    cfg = list(random_config(proto, proto.n, rng))
    if rng.random() < 0.5:
        for v in rng.sample(range(proto.n), k=rng.randint(1, min(2, proto.n))):
            offset = rng.randrange(max(1, proto.diam))
            cfg[v] = (proto.thresholds[v] - offset) % proto.ring
    return tuple(cfg)


def transient_checks(
    g: Graph, *, samples: int = 10_000, seed: int = 0
) -> list[CheckResult]:
    proto = SsmeProtocol.for_graph(g)
    params = proto.params
    diam = g.diam
    rng = random.Random(seed)
    no_repair_bad: list = []
    zero_island_bad: list = []
    depth_bad: list = []
    window_bad: list = []
    ring_size = params.ring
    arc_lo = (2 * proto.n - 2) * (diam + 1) + 3
    arc_hi = 2 * diam - 1

    def in_recovery_window(r: int) -> bool:
        # Initial segment, or the ring arc running from arc_lo through 0 up
        # to arc_hi (the arc wraps past K-1).
        if r <= 0:
            return True
        return r >= arc_lo or r <= arc_hi

    for _ in range(samples):
        init = sample_initial_config(proto, rng)
        trace = run(
            proto, g, init, SynchronousDaemon(), max_steps=diam
        )
        if trace.steps < diam:
            window_bad.append((init, "terminal after", trace.steps))
            continue
        island_cache: dict[int, object] = {}

        def islands_at(i: int):
            if i not in island_cache:
                island_cache[i] = islands(trace.configs[i], g, params)
            return island_cache[i]

        for i in range(diam):
            priv = proto.privileged_vertices(trace.configs[i], g)
            for v in priv:
                for j in range(i):
                    fired = trace.fired_rule(j, v)
                    if fired in (RULE_CONVERGE, RULE_RESET):
                        no_repair_bad.append((init, v, i, j, fired))
                for j in range(i + 1):
                    isl = islands_at(j).island_of(v)
                    if isl is not None and isl.has_zero:
                        zero_island_bad.append((init, v, i, j))
        for i in range(1, diam):
            report = islands_at(i)
            if report.legitimate:
                continue
            before = islands_at(i - 1)
            for isl in report.islands:
                # Borderless islands fall outside the proper-subset notion
                # the depth argument is about.
                if isl.has_zero or isl.depth == float("inf"):
                    continue
                for v in isl.vertices:
                    prev = before.island_of(v) if not before.legitimate else None
                    if prev is None:
                        depth_bad.append((init, v, i, "no island before"))
                    elif not prev.has_zero and prev.depth < isl.depth + 1:
                        depth_bad.append((init, v, i, prev.depth, isl.depth))
        if not is_unison_legitimate(trace.configs[0], g, params):
            final = trace.configs[diam]
            for v in range(g.n):
                if not in_recovery_window(final[v]):
                    window_bad.append((init, v, final[v]))
    return [
        _result(
            "no repair rule fired before an early privilege", no_repair_bad,
            f"{samples} synchronous traces",
        ),
        _result(
            "early-privileged vertices stayed out of zero-islands",
            zero_island_bad,
            f"{samples} synchronous traces",
        ),
        _result(
            "non-zero islands lose depth every synchronous step", depth_bad,
            f"{samples} synchronous traces",
        ),
        _result(
            "after diam steps registers sit in the recovery window",
            window_bad,
            f"{samples} synchronous traces",
        ),
    ]


# ---------------------------------------------------------------------------
# Radius-k indistinguishability
# ---------------------------------------------------------------------------


def indistinguishability_checks(
    g: Graph, *, pairs: int = 1000, seed: int = 0
) -> list[CheckResult]:
    if g.diam < 1:
        raise ValueError("indistinguishability check needs a graph of diameter >= 1")
    proto = SsmeProtocol.for_graph(g)
    params = proto.params
    rng = random.Random(seed)
    bad: list = []
    for _ in range(pairs):
        v = rng.randrange(g.n)
        k = rng.randint(1, g.diam)
        a = list(random_config(proto, g.n, rng))
        b = list(a)
        for u in range(g.n):
            if g.dist[v][u] > k:
                b[u] = rng.randrange(-params.alpha, params.ring)
        if local_state(a, g, v, k) != local_state(b, g, v, k):
            bad.append(("ball mismatch", v, k))
            continue
        policy = SynchronousDaemon()
        ta = run(proto, g, tuple(a), policy, max_steps=k)
        tb = run(proto, g, tuple(b), policy, max_steps=k)
        if restrict_trace(ta, v) != restrict_trace(tb, v):
            bad.append((tuple(a), tuple(b), v, k))
    return [
        _result(
            "agreeing radius-k balls give identical k-step local histories",
            bad,
            f"{pairs} constructed pairs",
        )
    ]


# ---------------------------------------------------------------------------
# Scheduler ensemble: convergence within the proven budget, safety after
# ---------------------------------------------------------------------------


# (label, `make_daemon` name, activation probability, which dist-rand reads)
ENSEMBLE_POLICIES = (
    ("central-rr", "central-rr", 0.5),
    ("central-rand", "central-rand", 0.5),
    ("central-adv", "central-adv", 0.5),
    ("dist-rand:0.3", "dist-rand", 0.3),
    ("dist-rand:0.7", "dist-rand", 0.7),
)


def _nth(mask: np.ndarray, nth: np.ndarray) -> np.ndarray:
    """One-hot of the ``nth[b]``-th (from 1) set entry of column b of a
    vertex-by-row mask."""
    seen = np.zeros(mask.shape[1], dtype=np.int32)
    out = np.empty_like(mask)
    for v, col in enumerate(mask):
        seen += col
        out[v] = col & (seen == nth)
    return out


def _round_robin(n: int, size: int):
    """`CentralRoundRobin` for `ensemble_runs`, with one cursor per row id
    below ``size``."""
    cols = np.arange(n)[:, None]
    cursor = np.zeros(size, dtype=np.int64)

    def select(rows, R, b):
        enabled = b.enabled.T
        ahead = enabled & (cols >= cursor[rows])
        act = _nth(np.where(ahead.any(axis=0), ahead, enabled), 1)
        cursor[rows] = ((act * cols).sum(axis=0) + 1) % n
        return act

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


class Streams:
    """Draws from numpy streams: row r draws from ``rngs[r // per_stream]``."""

    def __init__(self, rngs: list, per_stream: int):
        self.rngs = rngs
        # Stream s's first row id; the last entry ends the last stream.
        self.starts = np.arange(len(rngs) + 1) * per_stream

    def _draw(self, rows: np.ndarray, width: int) -> np.ndarray:
        """``width`` uniforms per row id (ascending), one row each."""
        out = np.empty((len(rows), width))
        cuts = np.searchsorted(rows, self.starts).tolist()
        for rng, a, z in zip(self.rngs, cuts, cuts[1:]):
            if a < z:
                rng.random(out=out[a:z])
        return out

    def pick(self, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """A uniform index below ``sizes[i]`` for each row."""
        return (self._draw(rows, 1)[:, 0] * sizes).astype(np.int32)

    def coins(self, rows: np.ndarray, enabled: np.ndarray, p: float) -> np.ndarray:
        """Each set entry of the vertex-by-row ``enabled`` with probability
        p, every row redrawn whole while it comes out empty."""
        n = len(enabled)
        act = enabled & (self._draw(rows, n).T < p)
        empty = np.flatnonzero(~act.any(axis=0))
        while len(empty):
            act[:, empty] = enabled[:, empty] & (self._draw(rows[empty], n).T < p)
            empty = empty[~act[:, empty].any(axis=0)]
        return act


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


def batched_selector(name: str, proto, g: Graph, draws, size: int, *, prob: float):
    """The daemon ``make_daemon(name, n=g.n, prob=prob)`` as a selection for
    `ensemble_runs` over row ids below ``size``.

    ``sync`` takes every enabled vertex and ``central-rr`` keeps a cursor
    per row; neither draws.  ``central-rand`` and ``central-adv`` pick
    uniformly from the enabled set or from `_adversarial_best`, and
    ``dist-rand`` activates each enabled vertex with probability ``prob``,
    redrawing empty selections.  The random numbers come from ``draws``:
    `Streams` for the ensembles, `Replay` for rows that must equal
    `engine.run` under the scalar daemon step for step.  The protocol is
    reached only through its batch kernel.
    """
    kind = make_daemon(name, n=g.n, prob=prob).name
    if kind == "sync":
        return lambda rows, R, b: b.enabled.T
    if kind == "central-rr":
        return _round_robin(g.n, size)
    if kind == "dist-rand":
        return lambda rows, R, b: draws.coins(rows, b.enabled.T, prob)

    def select(rows, R, b):
        if kind == "central-rand":
            pool = b.enabled.T
        else:
            pool = _adversarial_best(proto, g, R, b)
        return _nth(pool, draws.pick(rows, pool.sum(axis=0)) + 1)

    return select


def policy_ensembles(
    proto, g: Graph, inits, *, seed: int, seeds, max_steps: int, tail: int
):
    """``(label, EnsembleRuns)`` for each policy of `ENSEMBLE_POLICIES`.

    The rows of ``inits`` fall into one block per policy, in order, and all
    blocks step as the rows of one `ensemble_runs` matrix: one kernel call a
    step serves every policy, and each policy's selector sees only the live
    rows of its own block, under row ids local to the block.  Local row r
    of a block runs under policy seed ``seeds[r // per]``, where ``per =
    block // len(seeds)``, and each (``seed``, policy, policy seed) draws
    from its own numpy stream.  A policy's runs are those `ensemble_runs`
    gives on its block alone.
    """
    size, extra = divmod(len(inits), len(ENSEMBLE_POLICIES))
    if extra:
        raise ValueError(
            f"{len(inits)} rows do not split into {len(ENSEMBLE_POLICIES)} "
            "equal policy blocks"
        )
    starts = (np.arange(len(ENSEMBLE_POLICIES) + 1) * size).tolist()
    selects = []
    for i, (_, name, prob) in enumerate(ENSEMBLE_POLICIES):
        # Like random.Random, a negative seed seeds as its absolute value.
        rngs = [np.random.default_rng([abs(seed), i, abs(s)]) for s in seeds]
        draws = Streams(rngs, size // len(seeds))
        selects.append(batched_selector(name, proto, g, draws, size, prob=prob))

    def select(rows, R, b):
        cuts = np.searchsorted(rows, starts).tolist()
        return np.concatenate(
            [
                pick(rows[a:z] - start, R[a:z], b._make(m[a:z] for m in b))
                for pick, start, a, z in zip(selects, starts, cuts, cuts[1:])
                if a < z
            ],
            axis=1,
        )

    res = ensemble_runs(proto, g, inits, select, max_steps=max_steps, tail=tail)
    for (label, _, _), a, z in zip(ENSEMBLE_POLICIES, starts, starts[1:]):
        yield label, EnsembleRuns(*(getattr(res, f.name)[a:z] for f in fields(res)))


def scheduler_ensemble_check(
    g: Graph,
    *,
    inits: int = 10_000,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    seed: int = 99,
    tail: int = 12,
) -> CheckResult:
    """Every sampled run under every adversarial policy must reach a
    legitimate configuration within the proven step bound and stay
    ME-safe from its first legitimate configuration on.

    Each policy runs every policy seed x every initial configuration, as
    one block of rows; `policy_ensembles` steps the five blocks as one
    matrix.
    """
    proto = SsmeProtocol.for_graph(g)
    bound = ssme_unfair_step_bound(g.n, g.diam)
    initials = random_inits(proto, g.n, inits, seed)
    # Row r of each policy's block runs initial configuration r % inits
    # under seeds[r // inits].
    batch = np.tile(
        np.array(initials, dtype=np.int32).reshape(inits, g.n),
        (len(ENSEMBLE_POLICIES) * len(seeds), 1),
    )
    bad: list = []
    for label, res in policy_ensembles(
        proto, g, batch, seed=seed, seeds=seeds, max_steps=bound + tail, tail=tail
    ):
        late = (res.legitimate_at < 0) | (res.legitimate_at > bound)
        unsafe = ~late & (res.unsafe_after > 0)
        for r in np.flatnonzero(late | unsafe).tolist():
            reason = "no legitimacy within bound" if late[r] else (
                "unsafe after legitimacy"
            )
            bad.append((label, seeds[r // inits], initials[r % inits], reason))
    return _result(
        "adversarial schedulers converge in budget and stay safe",
        bad,
        f"{len(ENSEMBLE_POLICIES) * len(seeds) * inits} runs on n={g.n}",
    )


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def bounds_checks(
    g: Graph, *, samples: int = 100_000, seed: int = 0
) -> list[CheckResult]:
    proto = SsmeProtocol.for_graph(g)
    out = []
    target = -(-g.diam // 2)
    scan = sync_worst_bound(proto, g, samples=samples, seed=seed)
    bad = []
    if scan.unreached:
        bad.append(f"{scan.unreached} runs missed legitimacy in 2n+diam steps")
    if scan.max_convergence_me != target:
        bad.append(
            f"worst synchronous convergence {scan.max_convergence_me}, "
            f"expected {target} (witness {scan.witness_me})"
        )
    out.append(
        _result(
            "worst synchronous convergence equals ceil(diam/2)",
            bad,
            f"{scan.runs} runs",
        )
    )
    total = StateSpace(proto.state_domain(), g.n).total
    if total <= DEFAULT_STATE_BUDGET:
        bound = ssme_unfair_step_bound(g.n, g.diam)
        res = worst_case_unfair(proto, g)
        bad = []
        if res.max_steps > bound:
            bad.append(f"longest recovery {res.max_steps} exceeds bound {bound}")
        out.append(
            _result(
                "unconstrained-scheduler worst case within the cubic bound",
                bad,
                f"{res.states} states, worst {res.max_steps} <= {bound}",
            )
        )
    else:
        out.append(
            CheckResult(
                "unconstrained-scheduler worst case within the cubic bound",
                True,
                f"skipped: state space {total} exceeds budget {DEFAULT_STATE_BUDGET}",
            )
        )
    return out

"""Worst-case search oracles: exhaustive and sampled state-space sweeps.

Three searches live here.  The first two run on the protocol's numpy batch
kernel (`batch`), which evaluates guards and actions for a whole matrix of
configurations at once.  Both exhaustive solvers read one `StateSpace`, the
one holder of the mixed-radix index weights: it indexes every
configuration, rejects a space past an int32 index or the caller's budget,
and walks positions, among every index, the orbit representatives or the
configurations of a few vertices, in slices of `CHUNK_ROWS`, one kernel
call each.

* `sync_worst_case` measures the worst mutual-exclusion convergence index
  over many initial configurations under the synchronous scheduler.  There
  every configuration has exactly one successor, so the exhaustive mode
  stores each configuration's successor as a mixed-radix index and solves
  every run at once on that functional graph.  A vertex's columns of the
  kernel read only its closed neighbourhood, so where that is cheaper the
  kernel runs once per vertex over its neighbourhood's configurations, and
  the whole-space arrays are sums and counts of those small tables,
  broadcast over the index.  Levels are peeled back from the legitimate
  set over the core: the configurations with a predecessor, plus the
  legitimate set.  Every other configuration takes its fields from its
  successor's in one pass after the peel.  Only the exhaustive mode takes
  a liveness window.  The sample mode has no state graph; it steps its
  runs as the rows of `engine.ensemble_runs`.
  `_sync_scan_scalar` states the same scan through `run` traces: it is the
  reference the tests compare against, and it validates the witness below.
  `sync_worst_bound` is the one place that picks the mode from the size of
  the state space.

* `worst_case_unfair` computes the longest action sequence from any
  configuration to the first legitimate one over the full nondeterministic
  transition relation (every non-empty activation subset).  It solves one
  representative per orbit of the protocol's declared `symmetry`, the
  smallest index in the orbit: the relation reads only `legit`, `enabled`
  and `nxt`, which the symmetry maps onto themselves, so every state of an
  orbit has the same distance.  Guards and actions are evaluated once per
  representative, each activation subset's successors are built once as
  an earlier subset's plus one vertex's mixed-radix index delta and mapped
  to their orbits' representatives one slice of `CHUNK_ROWS` at a time,
  and the longest paths come from peeling the core level by level back
  from the legitimate set: the states that some non-legitimate state
  steps to.  Each unfinished state watches one successor, before which
  every successor is finished, so a level costs one lookup per unfinished
  state plus a rescan of the states whose watched successor has just
  finished.  Every other state finishes after the peel, one step past
  its farthest successor, in one pass.
  Legitimate configurations are absorbing targets; a cycle among
  non-legitimate configurations or a stuck non-legitimate configuration is
  surfaced as a falsification artifact, never ignored.

* `lower_bound_witness` writes down, in closed form, an initial
  configuration whose convergence index is exactly ceil(diam/2).  From the
  all-zero configuration the clocks tick in lockstep, so a vertex w is
  privileged at step thresholds[w].  For two vertices w at distance diam,
  every vertex of w's radius-t ball, t = ceil(diam/2) - 1, is set to
  thresholds[w] - t, and every other vertex to 0.  A vertex's first t
  synchronous steps depend only on its radius-t ball, so both become
  privileged together at step t.  A planted configuration that misses
  ceil(diam/2) falsifies the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .daemon import SynchronousDaemon, enumerate_choices
from .engine import (
    FalsificationError,
    convergence_index_au,
    convergence_index_me,
    ensemble_runs,
    liveness_report,
    run,
)
from .graph import Graph
from .protocol import SsmeProtocol

# Default budgets of the exhaustive synchronous scan and the unconstrained
# solver, in configurations.
DEFAULT_CONFIG_BUDGET = 10_000_000
DEFAULT_STATE_BUDGET = 2**21
# Configurations per kernel call.  The clock kernel holds a few int64 index
# matrices per chunk; at 2^15 rows they stay small beside the solvers' arrays
# of one entry per configuration, where 2^18 rows raised the exhaustive
# scans' peak RSS and slowed them.  At 2^16 rows a chunk's temporaries were
# handed back to the OS after each chunk and faulted in again by the next
# (about 9,900 minor faults per repeated ssme ring:4 scan, against 780).
CHUNK_ROWS = 1 << 15


def _slices(count: int):
    """Consecutive slices of `CHUNK_ROWS` positions covering ``range(count)``;
    only the last may be shorter."""
    for start in range(0, count, CHUNK_ROWS):
        yield slice(start, min(start + CHUNK_ROWS, count))


def ssme_unfair_step_bound(n: int, diam: int) -> int:
    """Proven cap on steps to legitimacy under any scheduler (stem = n)."""
    return 2 * diam * n**3 + (n + 1) * n**2 + (n - 2 * diam) * n


@dataclass
class SyncScanResult:
    runs: int
    # -1 and () while no run is reached.
    max_convergence_me: int = -1
    witness_me: tuple[int, ...] = ()
    max_convergence_legit: int = -1
    witness_legit: tuple[int, ...] = ()
    unreached: int = 0
    unsafe_after_legitimate: int = 0
    min_cs_count: int | None = None
    cs_witness: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# Synchronous sweep on the protocol's batch kernel
# ---------------------------------------------------------------------------


def _scan_result(conv: np.ndarray, legit: np.ndarray, config_at) -> SyncScanResult:
    """The result of runs whose ME convergence and first legitimate indices
    are ``conv`` and ``legit``, -1 where a run is unreached; run i starts
    from ``config_at(i)``."""
    result = SyncScanResult(runs=len(legit), unreached=int((legit < 0).sum()))
    if result.unreached < result.runs:
        i_me, i_lg = int(conv.argmax()), int(legit.argmax())
        result.max_convergence_me = int(conv[i_me])
        result.witness_me = config_at(i_me)
        result.max_convergence_legit = int(legit[i_lg])
        result.witness_legit = config_at(i_lg)
    return result


@dataclass(frozen=True)
class StateSpace:
    """Every configuration of ``n`` vertices over ``domain``, indexed in
    mixed radix in ``product(domain, repeat=n)`` order: configuration c has
    index ``sum((c[v] - domain[0]) * weight[v])``."""

    domain: range
    n: int

    @classmethod
    def of(cls, protocol, g: Graph, budget: int) -> StateSpace:
        """The state space of ``protocol`` on ``g``, rejected before anything
        is allocated when it does not fit an int32 index or exceeds
        ``budget`` configurations."""
        space = cls(protocol.state_domain(), g.n)
        total = space.total
        if total >= 2**31:
            raise ValueError(
                f"exhaustive mode indexes configurations as int32; "
                f"{total} configurations do not fit"
            )
        if total > budget:
            raise ValueError(
                f"exhaustive mode needs {total} configurations, budget is {budget}"
            )
        return space

    @property
    def total(self) -> int:
        return len(self.domain) ** self.n

    @property
    def weight(self) -> list[int]:
        return [len(self.domain) ** (self.n - 1 - v) for v in range(self.n)]

    def config_at(self, i: int) -> tuple[int, ...]:
        D = len(self.domain)
        return tuple(self.domain[i // w % D] for w in self.weight)

    def configs(self, idx: np.ndarray) -> np.ndarray:
        """The configurations at the int32 indices ``idx``, one row each,
        column-major so that a kernel reads each vertex contiguously.  The
        digits are peeled off the index, last vertex first, as
        ``q = idx // D`` and ``idx - q * D``; `of` keeps every index below
        2^31, so this is int32 arithmetic, and the last quotient is vertex
        0's digit."""
        D, lo = len(self.domain), self.domain[0]
        R = np.empty((len(idx), self.n), dtype=np.int32, order="F")
        for v in range(self.n - 1, 0, -1):
            q = idx // D
            R[:, v] = idx - q * D + lo
            idx = q
        R[:, 0] = idx + lo
        return R

    def index(self, R: np.ndarray) -> np.ndarray:
        """The int32 index of each configuration row of ``R``."""
        lo, w = self.domain[0], self.weight
        out = (R[:, 0] - lo) * np.int32(w[0])
        for v in range(1, self.n):
            out += (R[:, v] - lo) * np.int32(w[v])
        return out

    def deltas(self, R: np.ndarray, nxt: np.ndarray) -> np.ndarray:
        """Each vertex's int32 index delta from the rows of ``R`` to those of
        ``nxt``, one row per vertex.  The domain is a range, so a value's
        index moves by its value's change."""
        return (nxt - R).T * np.array(self.weight, dtype=np.int32)[:, None]

    def batches(
        self, protocol, g: Graph, at: np.ndarray | None = None,
        cols: list[int] | None = None,
    ):
        """``(here, R, protocol.batch(R, g))`` for each slice ``here`` of
        `CHUNK_ROWS` positions, over every configuration or over the sorted
        int32 indices ``at`` only: every kernel call but the last is full.
        Row r of R is the configuration at position ``here.start + r`` of
        the indices covered: of the space, or of ``at``.  With ``cols``, a
        sorted list of vertices, the positions are those of the space of
        ``cols`` alone, every other column held at ``domain[0]``.  One chunk
        is alive at a time when the caller drops its ``R`` and batch before
        asking for the next one."""
        walk = self if cols is None else StateSpace(self.domain, len(cols))
        for here in _slices(walk.total if at is None else len(at)):
            R = walk.configs(
                np.arange(here.start, here.stop, dtype=np.int32)
                if at is None else at[here]
            )
            if cols is not None:
                part, R = R, np.full(
                    (len(R), self.n), self.domain[0], dtype=np.int32, order="F"
                )
                R[:, cols] = part
                del part
            yield here, R, protocol.batch(R, g)
            del R


def _sampled_chunks(domain: Sequence[int], n: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    lo, hi = domain[0], domain[-1]
    for here in _slices(count):
        size = (here.stop - here.start, n)
        yield np.asfortranarray(rng.integers(lo, hi + 1, size=size, dtype=np.int32))


def _int_type(top: int) -> np.dtype:
    """The narrowest signed integer type holding ``-1..top``."""
    return np.min_scalar_type(-top - 1)


def _power(f: np.ndarray, k: int) -> np.ndarray:
    """The index map ``f`` composed with itself ``k`` times, by repeated
    squaring; the identity when ``k`` is 0."""
    out = np.arange(len(f), dtype=f.dtype)
    while k:
        if k & 1:
            out = f[out]
        k >>= 1
        if k:
            f = f[f]
    return out


def _vertex_columns(b, v: int, space: StateSpace, window: bool) -> tuple:
    """Vertex v's columns of the fields the synchronous scan reads from the
    batch ``b``: its value's index term in the successor, privileged,
    tallied, and with a window, enabled and its critical-section bit."""
    lo, w = space.domain[0], np.int32(space.weight[v])
    cols = ((b.nxt[:, v] - lo) * w, b.priv[:, v], b.tally[:, v])
    if window:
        cols += (b.enabled[:, v], b.priv[:, v] & b.enabled[:, v])
    return cols


def _fill(fields: tuple, here: slice, shape: tuple, cols: list, legit_tally: int):
    """Write the synchronous scan's fields at the positions ``here``, whose
    configurations form an array of ``shape``, from each vertex's
    `_vertex_columns` broadcast to that shape.  Three counts go through one
    int8 array: privileged vertices (unsafe at 2 or more), tallied ones
    (legitimate at ``legit_tally``) and, with a window, enabled ones (a
    legitimate configuration with none is stuck)."""
    succ, legit, unsafe, cs, stuck = fields

    def at(a):
        return a[here].reshape(shape)

    nxt = at(succ)
    np.copyto(nxt, cols[0][0])
    for c in cols[1:]:
        nxt += c[0]
    count = np.zeros(shape, dtype=np.int8)
    for c in cols:
        count += c[1]
    np.greater_equal(count, 2, out=at(unsafe))
    count[...] = 0
    for c in cols:
        count += c[2]
    ok = at(legit)
    np.equal(count, legit_tally, out=ok)
    if cs is not None:
        count[...] = 0
        for v, c in enumerate(cols):
            count += c[3]
            np.copyto(at(cs[v]), c[4])
        stuck.append(np.flatnonzero(ok & (count == 0)) + here.start)


def _sync_kernel_pass(
    protocol, g: Graph, space: StateSpace, window: bool
) -> tuple:
    """The arrays the synchronous scan solves on, one entry per
    configuration: the successor's int32 index, legitimate, unsafe (two or
    more privileged vertices) and, with a window, the critical-section
    bits, one row per vertex, and the indices of the legitimate
    configurations where no vertex is enabled (stuck).

    By `Batch`'s locality, vertex v's columns depend only on the values of
    its closed neighbourhood N[v].  Where the D^|N[v]| neighbourhood
    configurations, summed over the vertices, are fewer than the D^n of the
    space, the kernel runs once per vertex over N[v]'s configurations,
    every other vertex at ``domain[0]``, and keeps v's columns as small
    tables.  Each field is then built by broadcasting the tables over the
    ``(D,) * n`` view of the index, one slab of leading digits, at most
    `CHUNK_ROWS` configurations, at a time: the successor index is the sum
    of each vertex's term, and the three counts add one table per vertex.
    Otherwise (complete graphs, and a few vertices on a short path or ring)
    one group of every vertex walks the space itself, and each chunk's
    columns are written straight into the fields."""
    n, total, D = g.n, space.total, len(space.domain)
    succ = np.empty(total, dtype=np.int32)
    legit = np.empty(total, dtype=bool)
    unsafe = np.empty(total, dtype=bool)
    cs = np.empty((n, total), dtype=bool) if window else None
    stuck = [np.empty(0, dtype=np.int64)]
    fields = (succ, legit, unsafe, cs, stuck)
    target = protocol.legit_tally
    closed = [sorted({v, *g.adj[v]}) for v in range(n)]
    if sum([D ** len(c) for c in closed]) >= total:
        for here, R, b in space.batches(protocol, g):
            columns = [_vertex_columns(b, v, space, window) for v in range(n)]
            _fill(fields, here, (len(R),), columns, target)
            del R, b, columns
        return succ, legit, unsafe, cs, np.concatenate(stuck)

    # Vertex v's tables span the axes of N[v] and are flat along the rest.
    tables = []
    for v, cols in enumerate(closed):
        shape = [D if u in cols else 1 for u in range(n)]
        for here, R, b in space.batches(protocol, g, cols=cols):
            columns = _vertex_columns(b, v, space, window)
            if not here.start:
                tables.append([np.empty(shape, dtype=c.dtype) for c in columns])
            for t, c in zip(tables[v], columns):
                t.reshape(-1)[here] = c
            del R, b, columns
    lead = min([s for s in range(n + 1) if D ** (n - s) <= CHUNK_ROWS])
    size, shape = D ** (n - lead), (D,) * (n - lead)
    for p in range(D**lead):
        digits = [p // D ** (lead - 1 - a) % D for a in range(lead)]
        columns = []
        for cols, table in zip(closed, tables):
            # The slab's leading digits, on the axes the tables span.
            at = tuple([d if a in cols else 0 for a, d in enumerate(digits)])
            columns.append([t[at] for t in table])
        _fill(fields, slice(p * size, (p + 1) * size), shape, columns, target)
    return succ, legit, unsafe, cs, np.concatenate(stuck)


def _sync_scan_exhaustive(
    protocol, g: Graph, space: StateSpace, liveness_window: int | None
) -> SyncScanResult:
    """`sync_worst_case` over every configuration, solved on the
    synchronous successor function that `_sync_kernel_pass` stores, with
    its flags."""
    n, total, config_at = g.n, space.total, space.config_at
    cap = protocol.sync_step_bound(g)
    tail = liveness_window or 0

    # Kernel pass: the successor's index, and the flags the fields read.
    succ, legit, unsafe, cs, stuck = _sync_kernel_pass(
        protocol, g, space, liveness_window is not None
    )
    top = np.flatnonzero(legit)
    gone = top[~legit[succ[top]]]
    if len(gone):
        cfg = config_at(int(gone[0]))
        raise FalsificationError(
            f"legitimate configuration {cfg} steps out of the legitimate set",
            artifact=[cfg, config_at(int(succ[gone[0]]))],
        )

    # Legitimate configurations: each runs its own tail of `tail` steps,
    # cut short where a configuration has no enabled vertex.
    level = np.full(total, -1, dtype=_int_type(cap))
    level[top] = 0
    conv = np.full(total, -1, dtype=_int_type(cap + tail + 1))
    cur = top
    alive = np.ones(len(top), dtype=bool)
    last = np.full(len(top), -1, dtype=np.int32)
    after = np.zeros(len(top), dtype=np.int32)
    if cs is not None:
        full = np.zeros((n, len(top)), dtype=np.int32)  # window from 0
        since = np.zeros((n, len(top)), dtype=np.int32)  # from the last unsafe
    for t in range(tail + 1):
        hit = unsafe[cur] & alive
        last[hit] = t
        if t:
            after += hit
        if cs is not None and t < tail:
            here_cs = cs[:, cur]
            full += here_cs
            since += here_cs
            since[:, hit] = 0
        if len(stuck):
            alive &= ~np.isin(cur, stuck)
        cur = succ[cur]
    conv[top] = last + 1

    # The core: every successor, plus the legitimate set.  It is closed
    # under the step, so its levels peel without the rest of the space.
    # Core configurations are addressed by their position in `core`, which
    # is sorted; `nxt` is each one's successor's position.
    in_core = legit.copy()
    in_core[succ] = True
    core = np.flatnonzero(in_core).astype(np.int32)
    del in_core
    core_succ = succ[core]
    nxt = np.searchsorted(core, core_succ).astype(np.int32)
    if cs is not None:
        ctype = _int_type(tail + 1)
        after_of = np.zeros(total, dtype=ctype)
        after_of[top] = after
        low = np.full(total, np.iinfo(ctype).max, dtype=ctype)
        low[top] = since.min(axis=0)
        # Window counts, kept for the core only: no other configuration's
        # window slides along them.
        sums = np.zeros((n, len(core)), dtype=ctype)
        sums[:, np.searchsorted(core, top)] = full
        del full, since
        # succ^(tail - 1) and succ^tail of each core configuration.
        if tail:
            back = core[_power(nxt, tail - 1)]
            ahead = succ[back]
        else:
            ahead = core

    # Level k holds the core configurations whose successor sits at level
    # k - 1: they are k synchronous steps from legitimacy.  A run's fields
    # are its successor's, one step later, except where its window opens at
    # step 0 (conv == 0); there the window's counts slide along the
    # successor's.
    core_level = level[core]
    for k in range(1, cap + 1):
        j = np.flatnonzero((core_level < 0) & (core_level[nxt] == k - 1))
        if not len(j):
            break
        core_level[j] = k
        i, s = core[j], core_succ[j]
        conv_s = conv[s]
        conv[i] = np.where(conv_s > 0, conv_s + 1, unsafe[i])
        if cs is not None:
            after_of[i] = after_of[s]
            low[i] = low[s]
            z = conv[i] == 0
            j, i = j[z], i[z]
            # From here on, s is the successor's position in `core`.
            s, a = nxt[j], ahead[j]
            for v in range(n):
                h = cs[v][i] + sums[v][s] - cs[v][a]
                sums[v][j] = h
                m = h if v == 0 else np.minimum(m, h, out=m)
            low[i] = m
    level[core] = core_level

    # Every other configuration has no predecessor: it takes its fields
    # from its successor's by the same rule, in one pass.
    ls = level[succ]
    eden = (ls >= 0) & (ls < cap)
    eden[core] = False
    np.add(ls, 1, out=level, where=eden)
    del ls
    conv_s = conv[succ]
    np.copyto(conv, np.where(conv_s > 0, conv_s + 1, unsafe), where=eden)
    del conv_s
    if cs is not None:
        np.copyto(after_of, after_of[succ], where=eden)
        # A window that opens at step 0 slides along the successor's, as
        # in the peel; succ^tail i is succ^(tail - 1) of i's successor, or
        # i itself when the window is empty.  `shift` holds each core
        # configuration's S(s) - cs(succ^(tail - 1) s); it is read only
        # through `succ`, so only its core entries are set.
        shift = np.empty(total, dtype=ctype)
        for v in range(n):
            shift[core] = sums[v] - cs[v][back] if tail else sums[v]
            h = shift[succ]
            if tail:
                h += cs[v]
            m = h if v == 0 else np.minimum(m, h, out=m)
        np.copyto(low, np.where(conv == 0, m, low[succ]), where=eden)

    result = _scan_result(conv, level, config_at)
    if cs is not None and result.unreached < total:
        result.unsafe_after_legitimate = int(after_of.sum(dtype=np.int64))
        j = int(low.argmin())
        result.min_cs_count, result.cs_witness = int(low[j]), config_at(j)
    return result


def sync_worst_case(
    protocol,
    g: Graph,
    mode: str = "exhaustive",
    *,
    samples: int = 0,
    seed: int = 0,
    liveness_window: int | None = None,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
) -> SyncScanResult:
    """Worst ME convergence index under the synchronous scheduler.

    ``mode`` is ``exhaustive`` (every configuration of the `StateSpace`,
    rejected when it exceeds ``config_budget`` or does not fit an int32
    index) or ``sample`` (``samples`` configurations drawn uniformly from
    ``seed``).  Sampled maxima are lower bounds on the true worst case.  A
    ``liveness_window`` is taken by the exhaustive mode only; the sample
    mode raises ``ValueError`` on one, and either mode on a negative one.

    Each initial configuration is one run, as `_sync_scan_scalar` records
    it.  A run is reached when it is legitimate within
    ``protocol.sync_step_bound(g)`` steps; it then goes on for
    ``liveness_window`` steps (none without a window) and ends early only
    where no vertex is enabled.  Its ME convergence index is one past its
    last configuration with two or more privileged vertices.
    ``unsafe_after_legitimate`` counts such configurations after the run's
    first legitimate one; that configuration itself is never counted.  The
    liveness window of a run covers its steps ``[conv, conv + window)``,
    clipped to the run's end, and ``min_cs_count`` is the fewest
    critical-section entries (privileged and activated) of any vertex in
    it.  Witnesses are the first configurations attaining each extremum,
    in ``product(domain, repeat=n)`` order or in the order drawn.

    The sample mode steps each chunk of runs as the rows of
    `engine.ensemble_runs` under the synchronous selection, stopping each
    at its first legitimate configuration.

    The exhaustive mode solves every run on the successor function.
    Legitimate configurations step through their own tail.  A
    configuration k steps from legitimacy takes its fields from its
    successor's, one step later: its ME convergence index is the
    successor's plus one, unless the successor's run is ME-safe
    throughout, in which case it is 1 when this configuration is unsafe
    and 0 otherwise.  Only a run that is ME-safe from its start opens its
    window at step 0; its per-vertex counts slide along its successor's as
    ``S(i) = cs(i) + S(succ i) - cs(succ^window i)``.  Every other run
    shares its successor's window.

    The kernel pass, `_sync_kernel_pass`, reads each vertex's columns of
    the kernel once per configuration of its closed neighbourhood, where
    those are fewer in sum than the configurations of the space (on ssme
    ring:4, 4 x 27^3 = 78,732 kernel rows for 531,441 configurations), and
    builds the successor index and the flags by broadcasting them over the
    index; otherwise it runs the kernel over the space itself.

    Levels are peeled over the core only: the configurations that are
    some configuration's successor, plus the legitimate set.  The core is
    closed under the step; on the clock protocol it is under 1% of the
    space (0.35% on ring:4), on the token ring a quarter to a third.
    Every other configuration has no predecessor, so no run's fields wait
    on its own; after the peel it takes its fields from its successor's by
    the same rule, in one pass over the space.  Window counts are kept for
    the core only, where ``succ^window`` is also composed, by repeated
    squaring.  The critical-section bits and window counts are held as one
    contiguous row per vertex, and the fewest entries are a running
    minimum over the rows.  The scan relies on the legitimate set being
    closed under the synchronous step, and raises FalsificationError with a
    legitimate configuration and its successor where it is not.
    """
    protocol.check_graph(g)
    if liveness_window is not None and liveness_window < 0:
        raise ValueError(f"liveness window must be >= 0, got {liveness_window}")
    if mode == "exhaustive":
        space = StateSpace.of(protocol, g, config_budget)
        return _sync_scan_exhaustive(protocol, g, space, liveness_window)
    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if samples <= 0:
        raise ValueError("sample mode needs samples > 0")
    if liveness_window is not None:
        raise ValueError("sample mode takes no liveness window")
    cap = protocol.sync_step_bound(g)
    chunks = list(_sampled_chunks(protocol.state_domain(), g.n, samples, seed))
    runs = [
        ensemble_runs(
            protocol, g, chunk, lambda rows, R, b: b.enabled.T,
            max_steps=cap, tail=0,
        )
        for chunk in chunks
    ]
    legit = np.concatenate([res.legitimate_at for res in runs])
    conv = np.concatenate([res.last_unsafe for res in runs]) + 1
    inits = np.concatenate(chunks)
    return _scan_result(
        np.where(legit >= 0, conv, -1), legit, lambda i: tuple(inits[i].tolist())
    )


def sync_worst_bound(protocol, g: Graph, *, samples: int, seed: int) -> SyncScanResult:
    """`sync_worst_case`, exact when the `StateSpace` fits
    `DEFAULT_CONFIG_BUDGET` and sampled otherwise.  A sampled maximum is
    only a lower bound, so on a clock protocol the closed-form
    `lower_bound_witness`, planted on the paper's thresholds (it reaches
    ceil(diam/2) there or raises FalsificationError), is folded into the
    maximum and its witness when it lies in the protocol's domain, at the
    index one run measures on the protocol itself."""
    domain = protocol.state_domain()
    budget = DEFAULT_CONFIG_BUDGET
    if StateSpace(domain, g.n).total <= budget:
        return sync_worst_case(protocol, g, "exhaustive", config_budget=budget)
    scan = sync_worst_case(protocol, g, "sample", samples=samples, seed=seed)
    if isinstance(protocol, SsmeProtocol):
        wit = lower_bound_witness(g).config
        if all(x in domain for x in wit):
            conv = _sync_scan_scalar(protocol, g, [wit], None).max_convergence_me
            if conv > scan.max_convergence_me:
                scan.max_convergence_me, scan.witness_me = conv, wit
    return scan


def _sync_scan_scalar(
    protocol, g: Graph, configs: Iterable[tuple[int, ...]],
    liveness_window: int | None,
) -> SyncScanResult:
    """`sync_worst_case` over ``configs``, one `run` trace each: the
    reference the batched scan is tested against, and the check of
    `lower_bound_witness`'s planted configuration."""
    policy = SynchronousDaemon()
    cap = protocol.sync_step_bound(g)
    tail = liveness_window or 0
    acc = SyncScanResult(runs=0)
    for init in configs:
        trace = run(
            protocol, g, init, policy,
            max_steps=cap + tail, stop_at_legitimate=True, tail=tail,
        )
        conv = convergence_index_me(trace)
        legit = convergence_index_au(trace)
        acc.runs += 1
        if conv is None or legit is None or legit > cap:
            acc.unreached += 1
            continue
        acc.unsafe_after_legitimate += trace.unsafe_after
        if conv > acc.max_convergence_me:
            acc.max_convergence_me = conv
            acc.witness_me = init
        if legit > acc.max_convergence_legit:
            acc.max_convergence_legit = legit
            acc.witness_legit = init
        if liveness_window is not None:
            counts = liveness_report(trace, liveness_window)
            low = min(counts.values())
            if acc.min_cs_count is None or low < acc.min_cs_count:
                acc.min_cs_count = low
                acc.cs_witness = init
    return acc


# ---------------------------------------------------------------------------
# Exhaustive search over the full scheduler choice relation
# ---------------------------------------------------------------------------


@dataclass
class UnfairSearchResult:
    max_steps: int
    witness: tuple[int, ...]
    # Configurations in the state space.
    states: int
    # Representatives solved, one per orbit of the protocol's symmetry.
    orbits: int
    # Activation choices, 2^|enabled| - 1 per non-legitimate state, over
    # the whole state space.
    edges: int


def _subset_successors(states: np.ndarray, deltas: list[np.ndarray]) -> np.ndarray:
    """The successor indices of ``states`` under every non-empty subset of
    k vertices, where ``deltas[i]`` is the index delta of moving the i-th
    vertex alone: one column per subset, in the binary-counting order of
    `enumerate_choices`: column j - 1 moves the vertices of j's set bits.
    Those are the bits of ``j & (j - 1)`` (none when it is 0) plus j's
    lowest set bit, so each column is an earlier column, or ``states``
    itself, plus one vertex's deltas.  The matrix is column-major: each
    column is written, and later read, contiguously."""
    succ = np.empty(
        (len(states), 2 ** len(deltas) - 1), dtype=np.int32, order="F"
    )
    for j in range(1, succ.shape[1] + 1):
        rest = j & (j - 1)
        base = states if rest == 0 else succ[:, rest - 1]
        np.add(base, deltas[(j & -j).bit_length() - 1], out=succ[:, j - 1])
    return succ


def worst_case_unfair(
    protocol,
    g: Graph,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> UnfairSearchResult:
    """Longest action sequence to the first legitimate configuration, over
    every initial configuration and every legal activation choice.

    Configurations are indexed as in `StateSpace`, which rejects spaces
    past ``state_budget`` configurations (the whole space, not its orbits)
    or past an int32 index.

    The solve runs on the orbits of ``protocol.symmetry(g)``: a group of
    maps on value matrices that carry the protocol's ``legit``,
    ``enabled`` and ``nxt`` onto themselves (`protocol.ValueShift` for the
    token ring, `protocol.VertexPermutations` for the clock protocol on a
    complete graph).  A protocol without the method, or returning None,
    has the trivial group, whose orbits are single configurations.  Each
    orbit is solved at its smallest index, its representative: vertex 0
    is the most significant digit, so the first configuration attaining
    the maximum, the first stuck one and the lowest unfinished one are all
    representatives.  ``states`` counts the whole space, ``orbits`` the
    representatives, and ``edges`` the activation choices of the whole
    space, each representative's times its orbit's size.

    One pass of the protocol's batch kernel over the representatives, one
    `StateSpace.batches` slice per call, evaluates every guard and action
    once, stores each vertex's index delta, and sums ``edges``.  States
    are grouped by enabled mask, and `_subset_successors` builds a group's
    successors one activation subset at a time, in the binary-counting
    order of `enumerate_choices`, each from a smaller subset's plus one
    vertex's deltas.  The successor matrix's buffer is then mapped to the
    representatives' positions one slice of `CHUNK_ROWS` at a time, with
    one canonical-form call per slice.  A state's distance is its longest
    path to legitimacy: 0 on the legitimate set, and otherwise one past
    its farthest successor's.

    Distances are peeled level by level over the core only: the states
    that some non-legitimate state steps to.  Level k holds the core
    states whose successors all lie in levels below k.  Every other
    state is no state's successor, so no distance waits on it; after the
    peel, each such state takes one past its farthest successor's in one
    pass over its group's columns.  Only the core's rows are held through
    the peel: the groups are built one at a time, in descending mask
    order, to mark the core, and each keeps the rows marked so far, nearly
    the whole core; the rest of the core is built again before the peel,
    and the other rows after it, again one group at a time.

    In the peel, each unfinished state watches one successor: every
    successor before it, in the canonical subset order, is finished.  A
    level reads the watched successor of each unfinished state and
    rescans only the states whose watched successor has finished; a
    rescanned state finishes when all its successors have, and otherwise
    watches its first unfinished one.  A level therefore costs its
    unfinished core states plus the rescans, and the successor matrices
    are never copied.

    Raises FalsificationError on a stuck non-legitimate configuration or on
    a cycle among non-legitimate configurations (the states that never
    finish); either would contradict convergence under the unconstrained
    scheduler.  The cycle is found by following each unfinished
    configuration's first unfinished successor from the lowest unfinished
    configuration.  The walk steps configurations, not orbits, since a
    vertex permutation reorders the activation subsets: each step runs the
    kernel on one row and reads whether each successor has finished
    through its orbit.
    """
    protocol.check_graph(g)
    space = StateSpace.of(protocol, g, state_budget)
    n, config_at = g.n, space.config_at

    # The representatives, each the smallest index in its orbit, in order:
    # every index (None) under the trivial group.  Distances, masks and
    # deltas are held per representative, and a state is addressed by its
    # representative's position.
    symmetry = getattr(protocol, "symmetry", None)
    group = symmetry(g) if symmetry is not None else None
    reps = None if group is None else group.representatives(n)
    orbits = space.total if reps is None else len(reps)

    def rep(pos):
        """The index of the representative at ``pos``."""
        return pos if reps is None else reps[pos]

    def to_positions(idx: np.ndarray) -> None:
        """Replace each int32 index in ``idx`` by its orbit's position, one
        slice of `CHUNK_ROWS` at a time.  Where the representatives are a
        prefix of the indices, an index in it is its own orbit's position,
        and only the others are mapped."""
        if reps is None:
            return
        prefix = reps[-1] == orbits - 1
        for here in _slices(len(idx)):
            part = idx[here]
            far = np.flatnonzero(part >= orbits) if prefix else slice(None)
            canon = space.index(group.canonical(space.configs(part[far])))
            part[far] = canon if prefix else np.searchsorted(reps, canon)

    # Kernel pass over the representatives: legitimacy, enabled mask,
    # per-vertex index delta, and the activation choices of the states
    # each representative stands for.  An enabled mask fits in n bits.
    mtype = _int_type(2**n - 1)
    done = np.empty(orbits, dtype=bool)
    mask_of = np.empty(orbits, dtype=mtype)
    # One row per vertex, so that a group gathers each vertex's deltas
    # contiguously.
    delta_of = np.empty((n, orbits), dtype=np.int32)
    bits = 2 ** np.arange(n, dtype=mtype)
    edges = 0
    for here, R, b in space.batches(protocol, g, reps):
        done[here] = b.legit
        mask_of[here] = b.enabled @ bits
        delta_of[:, here] = space.deltas(R, b.nxt)
        choices = np.where(b.legit, 0, (1 << b.enabled.sum(axis=1)) - 1)
        size = 1 if group is None else group.orbit_sizes(R)
        edges += int((choices * size).sum())
        stuck = np.flatnonzero(~b.legit & (mask_of[here] == 0))
        if len(stuck):
            cfg = config_at(int(rep(here.start + stuck[0])))
            raise FalsificationError(
                f"stuck non-legitimate configuration {cfg}", artifact=cfg
            )
        del R, b

    # The live states, grouped by enabled mask, with the mask's vertices,
    # in descending mask order (see the core below).
    live = np.flatnonzero(~done).astype(np.int32)
    live_masks = mask_of[live]
    groups = []
    for m in np.unique(live_masks).tolist()[::-1]:
        verts = [v for v in range(n) if m >> v & 1]
        # The columns' subsets; rejects an enabled set past the branching cap.
        enumerate_choices(verts)
        groups.append((live[live_masks == m], verts))
    del mask_of, live, live_masks

    def successors(states: np.ndarray, verts: list[int]) -> np.ndarray:
        """Row r holds the positions of the r-th state's successors, one
        column per activation subset in the canonical order: built as
        indices from the representative's own and mapped to positions
        along the matrix's column-major buffer."""
        deltas = [delta_of[v][states] for v in verts]
        succ = _subset_successors(rep(states), deltas)
        to_positions(succ.reshape(-1, order="F"))
        return succ

    # The core: every state some live state steps to.  Each group's
    # successors are built to mark it, one group at a time, and only the
    # rows already marked, which this group or an earlier one steps to,
    # are kept for the peel, each watching its first column to start with.
    # In descending mask order that is nearly every core row (all of them
    # on ssme complete:4 and complete:5 and the token ring at n = 6, all but
    # about a hundred of 87,217 on ssme ring:4); a core row marked later is
    # built again after the pass.  A row outside the core is no state's
    # successor, so it finishes after the peel.
    in_core = np.zeros(orbits, dtype=bool)
    peel, kept = [], []
    for states, verts in groups:
        succ = successors(states, verts)
        in_core[succ] = True
        kept.append(in_core[states])
        peel.append((states[kept[-1]], succ[kept[-1]]))
        del succ
    for (states, verts), old in zip(groups, kept):
        late = states[in_core[states] & ~old]
        if len(late):
            peel.append((late, successors(late, verts)))
    del kept
    peel = [
        (core, succ, np.arange(len(core)), succ[:, 0])
        for core, succ in peel if len(core)
    ]
    # An unfinished state's distance lies past every finished one's.
    unfinished = np.iinfo(np.int32).max
    dist = np.where(done, 0, unfinished).astype(np.int32)

    # Peel: only a row whose watched successor has finished is rescanned.
    # It finishes at this level when all its successors have, and
    # otherwise watches its first unfinished one.
    level = 0
    while peel:
        finished = []
        for _, succ, rows, watch in peel:
            f = done[watch]
            moved = rows[f]
            watch[f] = succ[moved, done[succ[moved]].argmin(axis=1)]
            f[f] = done[watch[f]]
            finished.append(f)
        if not any(f.any() for f in finished):
            break
        level += 1
        for i, f in enumerate(finished):
            states, succ, rows, watch = peel[i]
            dist[states[rows[f]]] = level
            done[states[rows[f]]] = True
            peel[i] = (states, succ, rows[~f], watch[~f])
        peel = [grp for grp in peel if len(grp[2])]
    del peel

    # A row outside the core finishes one step past its farthest successor,
    # once all of them have.  Its group's successors are built here, one
    # group at a time, and the farthest is a running maximum over the
    # columns.
    for states, verts in groups:
        rest = states[~in_core[states]]
        succ = successors(rest, verts)
        last = dist[succ[:, 0]]
        for j in range(1, succ.shape[1]):
            np.maximum(last, dist[succ[:, j]], out=last)
        f = last < unfinished
        dist[rest[f]] = last[f] + 1
        done[rest[f]] = True
        del succ
    del delta_of

    if not done.all():
        # Follow each unfinished configuration's first unfinished successor
        # from the lowest one until a configuration repeats.  The walk steps
        # configurations, not orbits: one kernel row per step, reading
        # whether a successor has finished through its orbit's position.
        def first_unfinished(i: int) -> int:
            idx = np.array([i], dtype=np.int32)
            R = space.configs(idx)
            b = protocol.batch(R, g)
            d = space.deltas(R, b.nxt)
            deltas = [d[v] for v in range(n) if b.enabled[0, v]]
            succ = _subset_successors(idx, deltas)[0]
            at = succ.copy()
            to_positions(at)
            return int(succ[done[at].argmin()])

        seen: dict[int, int] = {}
        path: list[int] = []
        cur = int(rep(np.flatnonzero(~done)[0]))
        while cur not in seen:
            seen[cur] = len(path)
            path.append(cur)
            cur = first_unfinished(cur)
        cycle = [config_at(i) for i in path[seen[cur]:]] + [config_at(cur)]
        raise FalsificationError(
            "cycle among non-legitimate configurations "
            f"({len(cycle) - 1} actions)",
            artifact=cycle,
        )
    best = int(dist.argmax())
    return UnfairSearchResult(
        max_steps=int(dist[best]), witness=config_at(int(rep(best))),
        states=space.total, orbits=orbits, edges=edges,
    )


# ---------------------------------------------------------------------------
# Lower-bound witness construction
# ---------------------------------------------------------------------------


@dataclass
class WitnessResult:
    config: tuple[int, ...]
    convergence: int
    target: int


def lower_bound_witness(g: Graph) -> WitnessResult:
    """Initial configuration forcing the worst synchronous convergence index.

    Two vertices u, v at distance diam are made privileged together at
    step t = ceil(diam/2) - 1.  On the lockstep run from all zeros, w is
    privileged at step thresholds[w], so t steps earlier its radius-t ball
    held thresholds[w] - t.  Those values are planted on the balls of u and
    v, 0 everywhere else.  One `_sync_scan_scalar` run validates that it
    converges exactly at ceil(diam/2); a miss raises FalsificationError
    with the planted configuration as its artifact.
    """
    protocol = SsmeProtocol.for_graph(g)
    diam = g.diam
    if diam < 1:
        raise ValueError("witness construction needs a graph of diameter >= 1")
    target = math.ceil(diam / 2)
    t = target - 1
    u = next(a for a in range(g.n) if diam in g.dist[a])
    v = g.dist[u].index(diam)
    # The two balls are disjoint because 2t < diam.
    planted = [0] * g.n
    for w in (u, v):
        for x in range(g.n):
            if g.dist[w][x] <= t:
                planted[x] = protocol.thresholds[w] - t
    config = tuple(planted)
    conv = _sync_scan_scalar(protocol, g, [config], None).max_convergence_me
    if conv != target:
        raise FalsificationError(
            f"planted witness has ME convergence index {conv} (-1: unreached), "
            f"not ceil(diam/2) = {target}",
            artifact=config,
        )
    return WitnessResult(config=config, convergence=conv, target=target)

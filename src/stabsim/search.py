"""Worst-case search oracles: exhaustive and sampled state-space sweeps.

Three searches live here.  The first two run on the protocol's numpy batch
kernel (`batch`), which evaluates guards and actions for a whole matrix of
configurations at once.  Both exhaustive solvers read one `StateSpace`: it
indexes every configuration in mixed radix, rejects a space past an int32
index or the caller's budget, and feeds the kernel in chunks of
`CHUNK_ROWS` configurations.

* `sync_worst_case` measures the worst mutual-exclusion convergence index
  over many initial configurations under the synchronous scheduler.  There
  every configuration has exactly one successor, so the exhaustive mode
  evaluates the kernel once per configuration, stores the successor as a
  mixed-radix index, and solves every run at once on that functional
  graph: levels are peeled back from the legitimate set, and each
  configuration's fields are gathered from its successor's.  Only the
  exhaustive mode takes a liveness window.  The sample mode has no state
  graph; it steps its runs as the rows of `engine.ensemble_runs`.
  `_sync_scan_scalar` states the same scan through `run` traces: it is the
  reference the tests compare against, and it validates the witness below.
  `sync_worst_bound` is the one place that picks the mode from the size of
  the state space.

* `worst_case_unfair` computes the longest action sequence from any
  configuration to the first legitimate one over the full nondeterministic
  transition relation (every non-empty activation subset).  Guards and
  actions are evaluated once per configuration, each activation subset's
  successors are built once as an earlier subset's plus one vertex's
  mixed-radix index delta, and the longest paths come from peeling the
  state graph level by level back from the legitimate set.  Each
  unfinished state watches one successor, before which every successor is
  finished, so a level costs one lookup per unfinished state plus a
  rescan of the states whose watched successor has just finished.
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
from .protocol import SsmeProtocol, rows_with

# Default budgets of the exhaustive synchronous scan and the unconstrained
# solver, in configurations.
DEFAULT_CONFIG_BUDGET = 10_000_000
DEFAULT_STATE_BUDGET = 2**21
# Configurations per kernel call.  The clock kernel holds a few int64 index
# matrices per chunk; at 2^16 rows they stay small beside the solvers' arrays
# of one entry per configuration, where 2^18 rows raised the exhaustive
# scans' peak RSS and slowed them.
CHUNK_ROWS = 1 << 16


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

    def batches(self, protocol, g: Graph):
        """``(here, R, protocol.batch(R, g))`` for each run of `CHUNK_ROWS`
        consecutive indices ``here``; row r of R is configuration
        ``here.start + r``.  R's digits are peeled off an int32 index, last
        vertex first, as ``q = idx // D`` and ``idx - q * D``.  One chunk is
        alive at a time when the caller drops its ``R`` and batch before
        asking for the next one."""
        D, lo, total = len(self.domain), self.domain[0], self.total
        for start in range(0, total, CHUNK_ROWS):
            here = slice(start, min(start + CHUNK_ROWS, total))
            # `of` keeps every index below 2^31, so the digits are int32
            # arithmetic; the last quotient is vertex 0's digit.
            idx = np.arange(here.start, here.stop, dtype=np.int32)
            # Column-major, so that the kernel reads each vertex contiguously.
            R = np.empty((len(idx), self.n), dtype=np.int32, order="F")
            for v in range(self.n - 1, 0, -1):
                q = idx // D
                R[:, v] = idx - q * D + lo
                idx = q
            R[:, 0] = idx + lo
            del idx
            yield here, R, protocol.batch(R, g)
            del R


def _sampled_chunks(domain: Sequence[int], n: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    lo, hi = domain[0], domain[-1]
    left = count
    while left > 0:
        rows = min(left, CHUNK_ROWS)
        yield np.asfortranarray(
            rng.integers(lo, hi + 1, size=(rows, n), dtype=np.int32)
        )
        left -= rows


def _int_type(top: int) -> np.dtype:
    """The narrowest signed integer type holding ``-1..top``."""
    return np.min_scalar_type(-top - 1)


def _sync_scan_exhaustive(
    protocol, g: Graph, space: StateSpace, liveness_window: int | None
) -> SyncScanResult:
    """`sync_worst_case` over every configuration, solved on the
    synchronous successor function."""
    n, total, config_at = g.n, space.total, space.config_at
    cap = protocol.sync_step_bound(g)
    tail = liveness_window or 0

    # Kernel pass: the successor's index, and the flags the fields read.
    succ = np.empty(total, dtype=np.int32)
    legit = np.empty(total, dtype=bool)
    unsafe = np.empty(total, dtype=bool)
    # Critical-section bits, one row per vertex.
    cs = None if liveness_window is None else np.empty((n, total), dtype=bool)
    # Legitimate configurations where no vertex is enabled.
    stuck = [np.empty(0, dtype=np.int64)]
    w32 = np.asarray(space.weight, dtype=np.int32)
    lo = space.domain[0]
    for here, R, b in space.batches(protocol, g):
        to = succ[here]
        np.multiply(b.nxt[:, 0] - lo, w32[0], out=to)
        for v in range(1, n):
            to += (b.nxt[:, v] - lo) * w32[v]
        legit[here] = b.legit
        unsafe[here] = rows_with(b.priv, 2)
        if cs is not None:
            cs[:, here] = (b.priv & b.enabled).T
            stuck.append(
                np.flatnonzero(b.legit & ~rows_with(b.enabled, 1)) + here.start
            )
        del R, b
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
    stuck = np.concatenate(stuck)
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
    if cs is not None:
        ctype = _int_type(tail + 1)
        after_of = np.zeros(total, dtype=ctype)
        after_of[top] = after
        low = np.full(total, np.iinfo(ctype).max, dtype=ctype)
        low[top] = since.min(axis=0)
        sums = np.zeros((n, total), dtype=ctype)
        sums[:, top] = full
        del full, since
        # succ^tail by repeated squaring.
        ahead = np.arange(total, dtype=np.int32)
        power, k = succ, tail
        while k:
            if k & 1:
                ahead = power[ahead]
            k >>= 1
            if k:
                power = power[power]
        del power

    # Level k holds the configurations whose successor sits at level k - 1:
    # they are k synchronous steps from legitimacy.  A run's fields are its
    # successor's, one step later, except where its window opens at step 0
    # (conv == 0); there the window's counts slide along the successor's.
    for k in range(1, cap + 1):
        i = np.flatnonzero((level < 0) & (level[succ] == k - 1))
        if not len(i):
            break
        s = succ[i]
        level[i] = k
        conv_s = conv[s]
        conv[i] = np.where(conv_s > 0, conv_s + 1, unsafe[i])
        if cs is not None:
            after_of[i] = after_of[s]
            low[i] = low[s]
            z = conv[i] == 0
            i, s = i[z], s[z]
            a = ahead[i]
            for v in range(n):
                h = cs[v][i] + sums[v][s] - cs[v][a]
                sums[v][i] = h
                m = h if v == 0 else np.minimum(m, h, out=m)
            low[i] = m

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
    shares its successor's window.  The critical-section bits and window
    counts are held as one contiguous row per vertex: a level slides them
    one vertex row at a time, and the fewest entries are a running minimum
    over the rows.  The kernel pass sums each successor's index one vertex
    column at a time.  The scan relies on the legitimate set
    being closed under the synchronous step, and raises FalsificationError
    with a legitimate configuration and its successor where it is not.
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


def sync_worst_bound(
    protocol, g: Graph, *, samples: int, seed: int,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
) -> SyncScanResult:
    """`sync_worst_case`, exact when the `StateSpace` fits ``config_budget``
    and sampled otherwise.  A sampled maximum is only a lower bound, so on
    a clock protocol the closed-form `lower_bound_witness`, planted on the
    paper's thresholds (it reaches ceil(diam/2) there or raises
    FalsificationError), is folded into the maximum and its witness when it
    lies in the protocol's domain, at the index one run measures on the
    protocol itself."""
    domain = protocol.state_domain()
    if StateSpace(domain, g.n).total <= config_budget:
        return sync_worst_case(protocol, g, "exhaustive", config_budget=config_budget)
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
    states: int
    # Successor entries built: 2^|enabled| - 1 per non-legitimate state.
    edges: int


def _subset_successors(states: np.ndarray, deltas: list[np.ndarray]) -> np.ndarray:
    """The successor indices of ``states`` under every non-empty subset of
    k vertices, where ``deltas[i]`` is the index delta of moving the i-th
    vertex alone: one column per subset, in the binary-counting order of
    `enumerate_choices`: column j - 1 moves the vertices of j's set bits.
    Those are the bits of ``j & (j - 1)`` (none when it is 0) plus j's
    lowest set bit, so each column is an earlier column, or ``states``
    itself, plus one vertex's deltas."""
    succ = np.empty((len(states), 2 ** len(deltas) - 1), dtype=np.int32)
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
    past ``state_budget`` or past an int32 index.  One pass of the
    protocol's batch kernel over the state space evaluates every guard and
    action once, and stores each vertex's index delta.  States are grouped
    by enabled mask, and `_subset_successors` builds a group's successors
    one activation subset at a time, in the binary-counting order of
    `enumerate_choices`, each from a smaller subset's plus one vertex's
    deltas; ``edges`` counts them.  States are then peeled level by
    level: level 0 is the legitimate set, and level k holds the states
    whose successors all lie in levels below k.  A state's level is its
    longest path to legitimacy.

    Each unfinished state watches one successor: every successor before
    it, in the canonical subset order, is finished.  A level reads the
    watched successor of each unfinished state and rescans only the states
    whose watched successor has finished; a rescanned state finishes when
    all its successors have, and otherwise watches its first unfinished
    one.  A level therefore costs its unfinished states plus the rescans,
    and the successor matrices are never copied.

    Raises FalsificationError on a stuck non-legitimate configuration or on
    a cycle among non-legitimate configurations (the states that never
    peel); either would contradict convergence under the unconstrained
    scheduler.  The cycle is found by following each unfinished state's
    watched successor, its first unfinished one, from the lowest
    unfinished state.
    """
    protocol.check_graph(g)
    space = StateSpace.of(protocol, g, state_budget)
    n, total, config_at = g.n, space.total, space.config_at

    # Kernel pass: legitimacy, enabled mask and per-vertex index delta.
    # The domain is a range, so a value's index moves by its value's change.
    # An enabled mask fits in n bits.
    mtype = _int_type(2**n - 1)
    done = np.empty(total, dtype=bool)
    mask_of = np.empty(total, dtype=mtype)
    # One row per vertex, so that a group gathers each vertex's deltas
    # contiguously.
    delta_of = np.empty((n, total), dtype=np.int32)
    bits = 2 ** np.arange(n, dtype=mtype)
    w32 = np.asarray(space.weight, dtype=np.int32)
    for here, R, b in space.batches(protocol, g):
        done[here] = b.legit
        mask_of[here] = b.enabled @ bits
        for v in range(n):
            np.multiply(b.nxt[:, v] - R[:, v], w32[v], out=delta_of[v, here])
        stuck = np.flatnonzero(~b.legit & (mask_of[here] == 0))
        if len(stuck):
            cfg = config_at(here.start + int(stuck[0]))
            raise FalsificationError(
                f"stuck non-legitimate configuration {cfg}", artifact=cfg
            )
        del R, b

    # Successors, grouped by enabled mask: row r of a group's matrix holds
    # the successors of its r-th state, one column per activation subset
    # in the canonical order.
    live = np.flatnonzero(~done).astype(np.int32)
    live_masks = mask_of[live]
    groups = []
    for m in np.unique(live_masks).tolist():
        states = live[live_masks == m]
        verts = [v for v in range(n) if m >> v & 1]
        # The columns' subsets; rejects an enabled set past the branching cap.
        enumerate_choices(verts)
        deltas = [delta_of[v][states] for v in verts]
        groups.append((states, _subset_successors(states, deltas)))
    del delta_of, mask_of, live, live_masks
    edges = sum(succ.size for _, succ in groups)
    # Each group also keeps its live rows and the successor each row
    # watches, its first column to start with.
    groups = [
        (states, succ, np.arange(len(states)), succ[:, 0].copy())
        for states, succ in groups
    ]

    # Peel: only a row whose watched successor has finished is rescanned.
    # It finishes at this level when all its successors have, and
    # otherwise watches its first unfinished one.
    dist = np.zeros(total, dtype=np.int32)
    level = 0
    while groups:
        finished = []
        for _, succ, rows, watch in groups:
            f = done[watch]
            moved = rows[f]
            watch[f] = succ[moved, done[succ[moved]].argmin(axis=1)]
            f[f] = done[watch[f]]
            finished.append(f)
        if not any(f.any() for f in finished):
            break
        level += 1
        for i, f in enumerate(finished):
            states, succ, rows, watch = groups[i]
            dist[states[rows[f]]] = level
            done[states[rows[f]]] = True
            groups[i] = (states, succ, rows[~f], watch[~f])
        groups = [grp for grp in groups if len(grp[2])]

    if groups:
        # Every unfinished state watches its first unfinished successor:
        # follow them from the lowest one until a state repeats.
        succ_of = np.full(total, -1, dtype=np.int32)
        for states, _, rows, watch in groups:
            succ_of[states[rows]] = watch
        seen: dict[int, int] = {}
        path: list[int] = []
        cur = int(np.flatnonzero(~done)[0])
        while cur not in seen:
            seen[cur] = len(path)
            path.append(cur)
            cur = int(succ_of[cur])
        cycle = [config_at(i) for i in path[seen[cur]:]] + [config_at(cur)]
        raise FalsificationError(
            "cycle among non-legitimate configurations "
            f"({len(cycle) - 1} actions)",
            artifact=cycle,
        )
    best = int(dist.argmax())
    return UnfairSearchResult(
        max_steps=int(dist[best]), witness=config_at(best), states=total,
        edges=edges,
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

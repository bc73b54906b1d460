"""Worst-case search oracles: exhaustive and sampled state-space sweeps.

Three searches live here.

* `sync_worst_case` measures the worst mutual-exclusion convergence index
  over many initial configurations under the synchronous scheduler, with an
  optional liveness window.  For the clock protocol the sweep is vectorized
  with numpy (hundreds of thousands of runs stepped as one matrix); once
  every run is legitimate, runs that share their configuration and window
  end are stepped through the window as one.  A scalar path drives any
  protocol and doubles as the cross-check.

* `worst_case_unfair` computes the longest action sequence from any
  configuration to the first legitimate one over the full nondeterministic
  transition relation (every non-empty activation subset).  Guards and
  actions are evaluated once per configuration, successors are built as
  mixed-radix index sums, and the longest paths come from peeling the
  state graph level by level back from the legitimate set.  Legitimate
  configurations are absorbing targets; a cycle among non-legitimate
  configurations or a stuck non-legitimate configuration is surfaced as a
  falsification artifact, never ignored.

* `lower_bound_witness` builds an initial configuration whose convergence
  index is exactly ceil(diam/2): it replays a synchronous execution to find
  moments where two far-apart vertices are privileged and splices their
  radius-(ceil(diam/2)-1) balls into one configuration.  Because a vertex's
  first k synchronous steps depend only on its radius-k ball, both planted
  vertices become privileged simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .daemon import DEFAULT_BRANCH_CAP, SynchronousDaemon, enumerate_choices
from .engine import (
    FalsificationError,
    convergence_index_au,
    convergence_index_me,
    liveness_report,
    run,
)
from .graph import Graph
from .protocol import SsmeProtocol

DEFAULT_CONFIG_BUDGET = 10_000_000


def ssme_unfair_step_bound(n: int, diam: int) -> int:
    """Proven cap on steps to legitimacy under any scheduler (stem = n)."""
    return 2 * diam * n**3 + (n + 1) * n**2 + (n - 2 * diam) * n


@dataclass
class SyncScanResult:
    runs: int
    max_convergence_me: int
    witness_me: tuple[int, ...]
    max_convergence_legit: int
    witness_legit: tuple[int, ...]
    unreached: int
    unsafe_after_legitimate: int
    min_cs_count: int | None = None
    cs_witness: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# Vectorized synchronous sweep for the clock protocol
# ---------------------------------------------------------------------------


def _batch_masks(R: np.ndarray, g: Graph, ring: int, thresholds: np.ndarray):
    """Per-row guard masks for a matrix of configurations (rows) x vertices."""
    n = g.n
    stab = R >= 0
    allc = np.ones(R.shape, dtype=bool)
    namin = np.ones(R.shape, dtype=bool)
    conv = R < 0
    for v in range(n):
        rv = R[:, v]
        sv = stab[:, v]
        for u in g.adj[v]:
            ru = R[:, u]
            d = (rv - ru) % ring
            allc[:, v] &= sv & stab[:, u] & ((d <= 1) | (d >= ring - 1))
            namin[:, v] &= ((ru - rv) % ring) <= 1
            conv[:, v] &= (ru <= 0) & (rv <= ru)
    na = allc & namin
    ra = ~allc & (R > 0)
    enabled = na | conv | ra
    priv = R == thresholds
    legit = allc.all(axis=1) & stab.all(axis=1)
    return na, conv, ra, enabled, priv, legit


def _batch_step(R: np.ndarray, na, conv, ra, alpha: int, ring: int) -> np.ndarray:
    ticked = np.where(R < 0, R + 1, (R + 1) % ring)
    out = np.where(na | conv, ticked, R)
    return np.where(ra, -alpha, out)


def _row_keys(columns: list[np.ndarray], radices: list[int]) -> np.ndarray:
    """One int64 key per row, equal exactly when the rows are equal.

    Column ``c`` holds values in ``[0, radices[c])``.  The key is their
    mixed-radix number; when it would overflow int64 it is first renumbered
    densely by ``np.unique``.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    limit = np.iinfo(np.int64).max
    for col, radix in zip(columns, radices):
        if int(key.max()) > (limit - radix) // radix:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
        key = key * radix + col
    return key


def _sync_scan_ssme_chunk(
    protocol: SsmeProtocol,
    g: Graph,
    chunk: np.ndarray,
    liveness_window: int | None,
) -> SyncScanResult:
    ring = protocol.ring
    alpha = protocol.alpha
    thresholds = np.asarray(protocol.thresholds, dtype=chunk.dtype)
    init = chunk.copy()
    R = chunk
    B = R.shape[0]
    cap = protocol.sync_step_bound(g)
    window = liveness_window or 0
    last_unsafe = np.full(B, -1, dtype=np.int32)
    legit_at = np.full(B, -1, dtype=np.int32)
    unsafe_after = 0
    t = 0
    while True:
        na, conv, ra, enabled, priv, legit = _batch_masks(R, g, ring, thresholds)
        # A row's own run, as the scalar path records it, ends `window`
        # steps after its first legitimate configuration.
        hit = np.flatnonzero(priv.sum(axis=1) >= 2)
        hit_legit = legit_at[hit]
        own = hit[(hit_legit < 0) | (t <= hit_legit + window)]
        last_unsafe[own] = t
        unsafe_after += int((legit_at[own] >= 0).sum())
        fresh = legit & (legit_at < 0)
        legit_at[fresh] = t
        if (legit_at >= 0).all() or t >= cap:
            break
        R = _batch_step(R, na, conv, ra, alpha, ring)
        t += 1
    unreached = int((legit_at < 0).sum())
    conv_me = last_unsafe + 1
    reached = legit_at >= 0
    conv_me_eff = np.where(reached, conv_me, -1)
    i_me = int(conv_me_eff.argmax())
    i_lg = int(np.where(reached, legit_at, -1).argmax())
    result = SyncScanResult(
        runs=B,
        max_convergence_me=int(conv_me_eff[i_me]),
        witness_me=tuple(int(x) for x in init[i_me]),
        max_convergence_legit=int(legit_at[i_lg]),
        witness_legit=tuple(int(x) for x in init[i_lg]),
        unreached=unreached,
        unsafe_after_legitimate=unsafe_after,
    )
    if liveness_window is None or unreached:
        return result
    # Count critical-section events from here on, crediting each row only
    # inside [conv, conv + window).  Events before this point are ignored,
    # which can only undercount; the window is still long enough because the
    # settled system ticks every clock at least once per (window - diam)
    # steps.  Unsafe configurations after this point count up to the end of
    # the row's own run.  Rows that share their configuration, their window
    # end and their run end count alike, so only one row of each such class
    # is stepped.
    lo_conv, lo_legit = int(conv_me.min()), int(legit_at.min())
    keys = _row_keys(
        [R[:, v] + alpha for v in range(g.n)]
        + [conv_me - lo_conv, legit_at - lo_legit],
        [alpha + ring] * g.n
        + [int(conv_me.max()) - lo_conv + 1, int(legit_at.max()) - lo_legit + 1],
    )
    _, first, inverse, sizes = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    R = R[first]
    ends = conv_me[first] + liveness_window
    stops = legit_at[first] + liveness_window
    counts = np.zeros(R.shape, dtype=np.int32)
    # The configuration at t was counted above.
    start = t
    last = max(int(ends.max()) - 1, int(stops.max()))
    while t <= last:
        na, conv_m, ra, enabled, priv, _legit = _batch_masks(
            R, g, ring, thresholds
        )
        if t > start:
            unsafe = (priv.sum(axis=1) >= 2) & (t <= stops)
            result.unsafe_after_legitimate += int(sizes[unsafe].sum())
        live = t < ends
        counts += (priv & enabled & live[:, None]).astype(np.int32)
        R = _batch_step(R, na, conv_m, ra, alpha, ring)
        t += 1
    per_row_min = counts.min(axis=1)[inverse]
    j = int(per_row_min.argmin())
    result.min_cs_count = int(per_row_min[j])
    result.cs_witness = tuple(int(x) for x in init[j])
    return result


def _merge(acc: SyncScanResult | None, nxt: SyncScanResult) -> SyncScanResult:
    if acc is None:
        return nxt
    if nxt.max_convergence_me > acc.max_convergence_me:
        acc.max_convergence_me = nxt.max_convergence_me
        acc.witness_me = nxt.witness_me
    if nxt.max_convergence_legit > acc.max_convergence_legit:
        acc.max_convergence_legit = nxt.max_convergence_legit
        acc.witness_legit = nxt.witness_legit
    acc.runs += nxt.runs
    acc.unreached += nxt.unreached
    acc.unsafe_after_legitimate += nxt.unsafe_after_legitimate
    if nxt.min_cs_count is not None and (
        acc.min_cs_count is None or nxt.min_cs_count < acc.min_cs_count
    ):
        acc.min_cs_count = nxt.min_cs_count
        acc.cs_witness = nxt.cs_witness
    return acc


def _exhaustive_chunks(domain: Sequence[int], n: int, chunk_rows: int):
    lo = domain[0]
    D = len(domain)
    total = D**n
    start = 0
    while start < total:
        stop = min(start + chunk_rows, total)
        idx = np.arange(start, stop, dtype=np.int64)
        R = np.empty((stop - start, n), dtype=np.int32)
        for v in range(n - 1, -1, -1):
            R[:, v] = idx % D + lo
            idx //= D
        yield R
        start = stop


def _sampled_chunks(
    domain: Sequence[int], n: int, count: int, seed: int, chunk_rows: int
):
    rng = np.random.default_rng(seed)
    lo, hi = domain[0], domain[-1]
    left = count
    while left > 0:
        rows = min(left, chunk_rows)
        yield rng.integers(lo, hi + 1, size=(rows, n), dtype=np.int32)
        left -= rows


def sync_worst_case(
    protocol,
    g: Graph,
    mode: str = "exhaustive",
    *,
    samples: int = 0,
    seed: int = 0,
    liveness_window: int | None = None,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
    chunk_rows: int = 1 << 18,
    force_scalar: bool = False,
) -> SyncScanResult:
    """Worst ME convergence index under the synchronous scheduler.

    ``mode`` is ``exhaustive`` (every configuration of the state space,
    rejected when it exceeds ``config_budget``) or ``sample`` (``samples``
    configurations drawn uniformly from ``seed``).  Sampled maxima are lower
    bounds on the true worst case.
    """
    protocol.check_graph(g)
    domain = list(protocol.state_domain())
    n = g.n
    if mode == "exhaustive":
        total = len(domain) ** n
        if total > config_budget:
            raise ValueError(
                f"exhaustive mode needs {total} configurations, "
                f"budget is {config_budget}"
            )
        chunks: Iterable[np.ndarray] = _exhaustive_chunks(domain, n, chunk_rows)
    elif mode == "sample":
        if samples <= 0:
            raise ValueError("sample mode needs samples > 0")
        chunks = _sampled_chunks(domain, n, samples, seed, chunk_rows)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    acc: SyncScanResult | None = None
    if isinstance(protocol, SsmeProtocol) and not force_scalar:
        for chunk in chunks:
            acc = _merge(
                acc, _sync_scan_ssme_chunk(protocol, g, chunk, liveness_window)
            )
    else:
        for chunk in chunks:
            acc = _merge(
                acc,
                _sync_scan_scalar(
                    protocol, g, (tuple(int(x) for x in row) for row in chunk),
                    liveness_window,
                ),
            )
    assert acc is not None
    return acc


def _sync_scan_scalar(
    protocol, g: Graph, configs: Iterable[tuple[int, ...]],
    liveness_window: int | None,
) -> SyncScanResult:
    policy = SynchronousDaemon()
    cap = protocol.sync_step_bound(g)
    tail = liveness_window or 0
    acc = SyncScanResult(
        runs=0,
        max_convergence_me=-1,
        witness_me=(),
        max_convergence_legit=-1,
        witness_legit=(),
        unreached=0,
        unsafe_after_legitimate=0,
    )
    for init in configs:
        trace = run(
            protocol, g, init, policy,
            max_steps=cap + tail, stop_at_legitimate=True, tail=tail,
        )
        conv = convergence_index_me(trace, protocol, g)
        legit = convergence_index_au(trace, protocol, g)
        acc.runs += 1
        if conv is None or legit is None:
            acc.unreached += 1
            continue
        acc.unsafe_after_legitimate += sum(
            len(protocol.privileged_vertices(c, g)) >= 2
            for c in trace.configs[legit + 1:]
        )
        if conv > acc.max_convergence_me:
            acc.max_convergence_me = conv
            acc.witness_me = init
        if legit > acc.max_convergence_legit:
            acc.max_convergence_legit = legit
            acc.witness_legit = init
        if liveness_window is not None:
            counts = liveness_report(trace, protocol, g, liveness_window)
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


def worst_case_unfair(
    protocol,
    g: Graph,
    *,
    state_budget: int = 250_000,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> UnfairSearchResult:
    """Longest action sequence to the first legitimate configuration, over
    every initial configuration and every legal activation choice.

    Configurations are indexed in mixed radix, in ``product(domain,
    repeat=n)`` order.  One pass over the state space evaluates every guard
    and action once; the successors under each activation subset are then
    built as index sums, and states are peeled level by level: level 0 is
    the legitimate set, and level k holds the states whose successors all
    lie in levels below k.  A state's level is its longest path to
    legitimacy.

    Raises FalsificationError on a stuck non-legitimate configuration or on
    a cycle among non-legitimate configurations (the states that never
    peel); either would contradict convergence under the unconstrained
    scheduler.
    """
    protocol.check_graph(g)
    domain = list(protocol.state_domain())
    n = g.n
    D = len(domain)
    total = D**n
    if total > state_budget:
        raise ValueError(
            f"state space of {total} configurations exceeds budget {state_budget}"
        )
    itype = np.int32 if total < 2**31 else np.int64
    pos = {x: i for i, x in enumerate(domain)}
    weight = [D ** (n - 1 - v) for v in range(n)]

    def config_at(i: int) -> tuple[int, ...]:
        return tuple(domain[i // w % D] for w in weight)

    # One pass: legitimacy, enabled mask and per-vertex index delta.
    is_legitimate = protocol.is_legitimate
    enabled_rule = protocol.enabled_rule
    apply = protocol.apply
    done = np.zeros(total, dtype=bool)
    mask_of = np.zeros(total, dtype=np.int64)
    delta_of = np.zeros((total, n), dtype=itype)
    for i, cfg in enumerate(product(domain, repeat=n)):
        if is_legitimate(cfg, g):
            done[i] = True
            continue
        m = 0
        for v in range(n):
            rule = enabled_rule(v, cfg, g)
            if rule is not None:
                m |= 1 << v
                delta_of[i, v] = (
                    pos[apply(v, rule, cfg, g)] - pos[cfg[v]]
                ) * weight[v]
        if not m:
            raise FalsificationError(
                f"stuck non-legitimate configuration {cfg}", artifact=cfg
            )
        mask_of[i] = m

    # Successors, grouped by enabled mask: row r of a group's matrix holds
    # the successors of its r-th state, one column per activation subset
    # in the canonical order.
    live = np.flatnonzero(~done).astype(itype)
    live_masks = mask_of[live]
    groups = []
    for m in np.unique(live_masks).tolist():
        states = live[live_masks == m]
        subsets = enumerate_choices(
            [v for v in range(n) if m >> v & 1], cap=branch_cap
        )
        choose = np.array(
            [[v in subset for subset in subsets] for v in range(n)], dtype=itype
        )
        groups.append((states, states[:, None] + delta_of[states] @ choose))
    del delta_of

    # Peel: a state whose successors are all finished finishes at this
    # level, and its row is dropped.
    dist = np.zeros(total, dtype=np.int32)
    level = 0
    while groups:
        finished = [done[succ].all(axis=1) for _, succ in groups]
        if not any(f.any() for f in finished):
            break
        level += 1
        for i, f in enumerate(finished):
            states, succ = groups[i]
            dist[states[f]] = level
            done[states[f]] = True
            groups[i] = (states[~f], succ[~f])
        groups = [grp for grp in groups if len(grp[0])]

    if groups:
        # Every unfinished state keeps a successor that is unfinished:
        # follow them from the lowest one until a state repeats.
        succ_of = np.full(total, -1, dtype=itype)
        for states, succ in groups:
            pick = (~done[succ]).argmax(axis=1)
            succ_of[states] = succ[np.arange(len(states)), pick]
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
        max_steps=int(dist[best]), witness=config_at(best), states=total
    )


# ---------------------------------------------------------------------------
# Lower-bound witness construction
# ---------------------------------------------------------------------------


@dataclass
class WitnessResult:
    config: tuple[int, ...]
    convergence: int
    target: int
    constructed: bool  # False when the splice failed and search took over

    @property
    def achieved(self) -> bool:
        return self.convergence == self.target


def _measure_sync_convergence(protocol, g: Graph, init: Sequence[int]) -> int | None:
    cap = protocol.sync_step_bound(g)
    trace = run(
        protocol, g, init, SynchronousDaemon(),
        max_steps=cap, stop_at_legitimate=True, tail=0,
    )
    return convergence_index_me(trace, protocol, g)


def lower_bound_witness(g: Graph, protocol: SsmeProtocol | None = None) -> WitnessResult:
    """Initial configuration forcing the worst synchronous convergence index.

    Two vertices at distance diam are made privileged at step
    t = ceil(diam/2) - 1 by planting, in an otherwise-zero configuration,
    the radius-t balls copied from moments of a synchronous reference run in
    which each vertex is privileged t steps later.  The balls cannot
    overlap, and radius-t agreement pins each vertex's first t steps, so the
    result is validated by simulation to converge exactly at ceil(diam/2).
    """
    if protocol is None:
        protocol = SsmeProtocol.for_graph(g)
    protocol.check_graph(g)
    diam = g.diam
    if diam < 1:
        raise ValueError("witness construction needs a graph of diameter >= 1")
    target = math.ceil(diam / 2)
    t = target - 1
    u, v = next(
        (a, b)
        for a in range(g.n)
        for b in range(g.n)
        if g.dist[a][b] == diam
    )
    # Reference run: from the all-zero legitimate configuration the clocks
    # tick in lockstep, so every vertex is privileged when the common value
    # crosses its threshold.
    reference = run(
        protocol, g, (0,) * g.n, SynchronousDaemon(),
        max_steps=2 * protocol.ring + protocol.alpha,
    )

    def ball_at_privilege(w: int) -> dict[int, int] | None:
        for i in range(t, len(reference.configs)):
            if protocol.privileged(w, reference.configs[i], g):
                src = reference.configs[i - t]
                return {
                    x: src[x] for x in range(g.n) if g.dist[w][x] <= t
                }
        return None

    ball_u = ball_at_privilege(u)
    ball_v = ball_at_privilege(v)
    if ball_u is not None and ball_v is not None and not (
        set(ball_u) & set(ball_v)
    ):
        planted = [0] * g.n
        for x, val in ball_u.items():
            planted[x] = val
        for x, val in ball_v.items():
            planted[x] = val
        conv = _measure_sync_convergence(protocol, g, planted)
        if conv == target:
            return WitnessResult(
                config=tuple(planted), convergence=conv, target=target,
                constructed=True,
            )
    # Construction failed; fall back to search.
    domain_size = len(protocol.state_domain()) ** g.n
    if domain_size <= DEFAULT_CONFIG_BUDGET:
        scan = sync_worst_case(protocol, g, "exhaustive")
    else:
        scan = sync_worst_case(protocol, g, "sample", samples=1_000_000, seed=7)
    return WitnessResult(
        config=scan.witness_me,
        convergence=scan.max_convergence_me,
        target=target,
        constructed=False,
    )

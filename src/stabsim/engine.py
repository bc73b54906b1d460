"""Execution engine: step protocols under a scheduler and measure the result.

A configuration is a tuple of per-vertex states.  One step applies the
actions of a scheduler-selected subset of the enabled vertices against the
pre-step configuration (simultaneous semantics) and counts as one action
regardless of how many vertices moved.  A trace records the configuration
sequence together with who moved, which rule fired, and which moves were
critical-section events (privileged vertex activated).

`ensemble_runs` steps a matrix of runs at once, as the rows of the
protocol's batch kernel, each row stopping where `run` would; it is the
one batched run loop, and every batched caller steps its runs on it.
Both loops keep a run's summary indices while they step, by one rule:
`run` on its `Trace`, `ensemble_runs` per row.  The convergence indices
read them off the trace.

Besides plain runs, this module carries the analysis ops over
configurations and traces: legitimacy, mutual-exclusion safety,
convergence indices, per-vertex liveness counts, island decomposition of
partially-repaired configurations, and radius-k local views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .clock import ClockParams
from .daemon import StepContext
from .graph import Graph
from .protocol import is_unison_legitimate, rows_with, tallied

Config = tuple[int, ...]

REASON_TERMINAL = "terminal"
REASON_MAX_STEPS = "max_steps"
REASON_CONVERGED = "converged"


class FalsificationError(RuntimeError):
    """A property the system is supposed to guarantee was observed to fail.

    Carries the offending artifact (a configuration, or a cycle of
    configurations) so it can be dumped for inspection.
    """

    def __init__(self, message: str, artifact=None):
        super().__init__(message)
        self.artifact = artifact


@dataclass(frozen=True)
class Trace:
    """One recorded execution.

    ``rules[i]`` is aligned with ``activated[i]``: the label fired by each
    activated vertex during action i.  ``cs_events[i]`` lists the activated
    vertices that were privileged in ``configs[i]``.  The five summary
    indices are the per-row fields of `EnsembleRuns`, kept by `run` while
    it steps.
    """

    configs: tuple[Config, ...]
    activated: tuple[tuple[int, ...], ...]
    rules: tuple[tuple[str, ...], ...]
    cs_events: tuple[tuple[int, ...], ...]
    reason: str
    legitimate_at: int
    last_unsafe: int
    last_illegitimate: int
    violations: int
    unsafe_after: int

    @property
    def steps(self) -> int:
        return len(self.activated)

    def fired_rule(self, i: int, v: int) -> str | None:
        """Rule fired by vertex v during action i, or None if it sat still."""
        try:
            j = self.activated[i].index(v)
        except ValueError:
            return None
        return self.rules[i][j]


def enabled_rules(protocol, g: Graph, config: Sequence[int]) -> list[str | None]:
    return [protocol.enabled_rule(v, config, g) for v in range(g.n)]


def step(
    protocol, g: Graph, config: Sequence[int], activated: Sequence[int]
) -> Config:
    """Apply one action: every activated vertex fires its enabled rule.

    Activating a vertex with no enabled rule, or an empty set, is rejected.
    """
    if not activated:
        raise ValueError("activation set must be non-empty")
    rules = {}
    for v in set(activated):
        rule = protocol.enabled_rule(v, config, g)
        if rule is None:
            raise ValueError(f"vertex {v} is not enabled")
        rules[v] = rule
    new = list(config)
    for v, rule in rules.items():
        new[v] = protocol.apply(v, rule, config, g)
    return tuple(new)


def _checked_selection(selected: set[int], enabled: set[int]) -> set[int]:
    if not selected:
        raise ValueError("scheduler returned an empty selection")
    if not selected <= enabled:
        raise ValueError(
            f"scheduler selected non-enabled vertices {sorted(selected - enabled)}"
        )
    return selected


def run(
    protocol,
    g: Graph,
    init: Sequence[int],
    policy,
    *,
    max_steps: int | None = None,
    stop_at_legitimate: bool = False,
    tail: int = 0,
) -> Trace:
    """Drive one execution and record everything.

    Stops on a terminal configuration (empty enabled set), on the step
    budget, or - when ``stop_at_legitimate`` - ``tail`` steps after the
    first legitimate configuration.  Each recorded configuration's
    privileged set and legitimacy are evaluated once, and the trace's
    summary indices are kept from them as `ensemble_runs` keeps its rows'.
    An ``init`` that is not one value per vertex, each in
    ``protocol.state_domain()``, raises ``ValueError``; the configurations
    stepped from it are not checked again.
    """
    protocol.check_graph(g)
    if max_steps is None:
        max_steps = protocol.default_max_steps(g)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if tail < 0:
        raise ValueError("tail must be >= 0")
    config = tuple(init)
    if len(config) != g.n:
        raise ValueError(
            f"initial configuration has {len(config)} values, graph has "
            f"{g.n} vertices"
        )
    domain = protocol.state_domain()
    for x in config:
        if x not in domain:
            raise ValueError(
                f"initial configuration holds {x}, outside the {protocol.name} "
                f"states {domain[0]}..{domain[-1]}"
            )
    configs = [config]
    activated_log: list[tuple[int, ...]] = []
    rules_log: list[tuple[str, ...]] = []
    cs_log: list[tuple[int, ...]] = []
    legit_at = last_unsafe = last_illegit = -1
    violations = unsafe_after = 0
    ctx = StepContext(protocol, g, config, None)
    while True:
        here = len(configs) - 1
        priv = protocol.privileged_vertices(config, g)
        if len(priv) > 1:
            last_unsafe = here
            violations += 1
            unsafe_after += legit_at >= 0
        if not protocol.is_legitimate(config, g):
            last_illegit = here
        elif legit_at < 0:
            legit_at = here
        if stop_at_legitimate and legit_at >= 0 and here - legit_at >= tail:
            reason = REASON_CONVERGED
            break
        if here >= max_steps:
            reason = REASON_MAX_STEPS
            break
        rules = enabled_rules(protocol, g, config)
        enabled = {v for v, r in enumerate(rules) if r is not None}
        if not enabled:
            reason = REASON_TERMINAL
            break
        ctx.config = config
        ctx.rules = rules
        selected = _checked_selection(set(policy.select(enabled, ctx)), enabled)
        sel = tuple(sorted(selected))
        new = list(config)
        for v in sel:
            new[v] = protocol.apply(v, rules[v], config, g)
        cs_log.append(tuple(v for v in sel if v in priv))
        activated_log.append(sel)
        rules_log.append(tuple(rules[v] for v in sel))
        config = tuple(new)
        configs.append(config)
    return Trace(
        configs=tuple(configs),
        activated=tuple(activated_log),
        rules=tuple(rules_log),
        cs_events=tuple(cs_log),
        reason=reason,
        legitimate_at=legit_at,
        last_unsafe=last_unsafe,
        last_illegitimate=last_illegit,
        violations=violations,
        unsafe_after=unsafe_after,
    )


def run_stats(
    protocol, g: Graph, init: Sequence[int], policy, *, max_steps: int, tail: int = 0
) -> Trace:
    """`run` stopped ``tail`` steps after legitimacy: the test oracle that
    the rows of `ensemble_runs` are held equal to."""
    return run(
        protocol, g, init, policy,
        max_steps=max_steps, stop_at_legitimate=True, tail=tail,
    )


# ---------------------------------------------------------------------------
# Trace measurements
# ---------------------------------------------------------------------------


def convergence_index_me(trace: Trace) -> int | None:
    """Smallest index from which every recorded configuration is ME-safe.

    Only meaningful when the trace reached a legitimate configuration
    (closure of the legitimate set makes the suffix check sound); returns
    None ("undetermined") otherwise.
    """
    return None if trace.legitimate_at < 0 else trace.last_unsafe + 1


def convergence_index_au(trace: Trace) -> int | None:
    """Smallest index from which every recorded configuration is legitimate.

    None when even the final configuration is not legitimate.
    """
    last = trace.last_illegitimate
    return None if last == trace.steps else last + 1


def liveness_report(trace: Trace, window: int) -> dict[int, int]:
    """Critical-section events per vertex in the ``window`` steps after the
    ME convergence index."""
    if window < 0:
        raise ValueError("window must be >= 0")
    conv = convergence_index_me(trace)
    if conv is None:
        raise ValueError("trace did not reach a legitimate configuration")
    counts = {v: 0 for v in range(len(trace.configs[0]))}
    for i in range(conv, min(conv + window, trace.steps)):
        for v in trace.cs_events[i]:
            counts[v] += 1
    return counts


# ---------------------------------------------------------------------------
# Island decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Island:
    vertices: frozenset[int]
    has_zero: bool
    border: frozenset[int]
    depth: float  # math.inf when the island has no border


@dataclass(frozen=True)
class IslandReport:
    legitimate: bool
    islands: tuple[Island, ...]

    def island_of(self, v: int) -> Island | None:
        for isl in self.islands:
            if v in isl.vertices:
                return isl
        return None


def islands(config: Sequence[int], g: Graph, params: ClockParams) -> IslandReport:
    """Maximal correct-connected regions of a not-yet-legitimate configuration.

    Components of the subgraph on correct registers restricted to edges with
    at most one tick of drift.  Every correct-valued vertex lands in exactly
    one island; a legitimate configuration has no islands and is flagged
    instead.  An island containing a zero register is a zero-island.  The
    border is the set of members with a neighbor outside; the depth is the
    greatest hop distance (in the full graph) from a member to the border,
    infinite in the degenerate case of a borderless island.
    """
    if is_unison_legitimate(config, g, params):
        return IslandReport(legitimate=True, islands=())
    ring = params.ring
    n = g.n

    def edge_ok(u: int, v: int) -> bool:
        if config[u] < 0 or config[v] < 0:
            return False
        d = (config[u] - config[v]) % ring
        return d <= 1 or ring - d <= 1

    seen = [False] * n
    out: list[Island] = []
    for v0 in range(n):
        if seen[v0] or config[v0] < 0:
            continue
        comp = []
        stack = [v0]
        seen[v0] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for u in g.adj[x]:
                if not seen[u] and edge_ok(x, u):
                    seen[u] = True
                    stack.append(u)
        members = frozenset(comp)
        border = frozenset(
            x for x in comp if any(u not in members for u in g.adj[x])
        )
        if border:
            depth: float = max(
                min(g.dist[x][b] for b in border) for x in comp
            )
        else:
            depth = math.inf
        out.append(
            Island(
                vertices=members,
                has_zero=any(config[x] == 0 for x in comp),
                border=border,
                depth=depth,
            )
        )
    out.sort(key=lambda isl: min(isl.vertices))
    return IslandReport(legitimate=False, islands=tuple(out))


# ---------------------------------------------------------------------------
# Local views
# ---------------------------------------------------------------------------


def local_state(config: Sequence[int], g: Graph, v: int, k: int) -> dict[int, int]:
    """States of all vertices within k hops of v, keyed by vertex."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if k < 0:
        raise ValueError("radius must be >= 0")
    row = g.dist[v]
    return {u: config[u] for u in range(g.n) if row[u] <= k}


def restrict_trace(trace: Trace, v: int) -> tuple[int, ...]:
    """The per-step state sequence of a single vertex across the trace."""
    return tuple(c[v] for c in trace.configs)


# ---------------------------------------------------------------------------
# Batched runs
# ---------------------------------------------------------------------------


@dataclass
class EnsembleRuns:
    """Per-row summary of `ensemble_runs`.

    A row's configurations are indexed from 0 (its initial one) to
    ``steps`` (its last one).  ``legitimate_at`` is the first legitimate
    index; ``last_unsafe`` and ``last_illegitimate`` are the last index with
    two or more privileged vertices and the last index that is not
    legitimate; each is -1 where there is none.  ``reason`` indexes
    `STOP_REASONS`.
    """

    steps: np.ndarray
    legitimate_at: np.ndarray
    last_unsafe: np.ndarray
    last_illegitimate: np.ndarray
    violations: np.ndarray
    unsafe_after: np.ndarray
    reason: np.ndarray
    final: np.ndarray


# `run`'s stop reasons, in its order of precedence.
STOP_REASONS = (REASON_CONVERGED, REASON_MAX_STEPS, REASON_TERMINAL)
_CONVERGED, _MAX_STEPS, _TERMINAL = range(3)


def ensemble_runs(
    proto,
    g: Graph,
    inits: np.ndarray,
    select,
    *,
    max_steps: int,
    tail: int,
    stop_at_legitimate: bool = True,
) -> EnsembleRuns:
    """Step every row of ``inits`` as its own run of ``proto``.

    Each row stops as `run` does: ``tail`` steps after its first
    legitimate configuration (unless ``stop_at_legitimate`` is false), at
    ``max_steps``, or when nothing is enabled; where several hold, the
    reason is the first of `STOP_REASONS`.  All rows take step t together,
    and finished rows leave the matrix.

    Unsafe configurations (two or more privileged vertices) are counted in
    two ways.  ``violations`` counts every one a row visits.
    ``unsafe_after`` counts only those after the first legitimate
    configuration, which itself is never counted there; `run` keeps its
    trace's indices by the same rule.

    ``select(rows, R, b)`` gets the ids (ascending) of the live rows, their
    configurations and the protocol's `Batch` of ``R``, and returns an
    activation mask per row, transposed: vertex by row.  As in `run`,
    an empty activation or one outside the enabled set raises
    ``ValueError``.  ``R`` is kept column-major, which makes each vertex's
    column contiguous for the kernel and the per-row reductions cheap.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if tail < 0:
        raise ValueError("tail must be >= 0")
    R = np.array(inits, dtype=np.int32, order="F")
    B = len(R)
    # One row per `EnsembleRuns` field from ``legitimate_at`` to
    # ``unsafe_after``: ``kept`` for the live runs, ``out`` for the stopped.
    kept = np.zeros((5, B), dtype=np.int32)
    kept[:3] = -1
    out = kept.copy()
    steps = np.zeros(B, dtype=np.int32)
    reason = np.zeros(B, dtype=np.int8)
    final = np.empty((B, g.n), dtype=np.int32)
    rows = np.arange(B)
    t = 0
    while len(rows):
        legit_at, last_unsafe, last_illegit, violations, unsafe_after = kept
        b = proto.batch(R, g)
        unsafe = rows_with(b.priv, 2)
        last_unsafe[unsafe] = t
        violations += unsafe
        unsafe_after += unsafe & (legit_at >= 0)
        legit = tallied(b.tally, proto.legit_tally)
        last_illegit[~legit] = t
        legit_at[legit & (legit_at < 0)] = t
        why = np.where(rows_with(b.enabled, 1), -1, _TERMINAL).astype(np.int8)
        if t >= max_steps:
            why[:] = _MAX_STEPS
        if stop_at_legitimate:
            why[(legit_at >= 0) & (t - legit_at >= tail)] = _CONVERGED
        stop = why >= 0
        if stop.any():
            done = rows[stop]
            out[:, done] = kept[:, stop]
            steps[done] = t
            reason[done] = why[stop]
            final[done] = R[stop]
            if stop.all():
                break
            keep = ~stop
            rows = rows[keep]
            R = np.asfortranarray(R[keep])
            kept = kept[:, keep]
            b = b._make(m[keep] for m in b)
        act = select(rows, R, b).T
        empty = ~rows_with(act, 1)
        if empty.any():
            raise ValueError(
                f"scheduler returned an empty selection in row {rows[empty][0]}"
            )
        stray = act & ~b.enabled
        if stray.any():
            r, v = np.argwhere(stray)[0]
            raise ValueError(
                f"scheduler selected non-enabled vertex {v} in row {rows[r]}"
            )
        R = np.asfortranarray(np.where(act, b.nxt, R))
        del b, act  # freed before the next step's kernel call
        t += 1
    return EnsembleRuns(steps, *out, reason, final)


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


def format_trace(trace: Trace, meta: Mapping[str, object] | None = None) -> str:
    """Deterministic plain-text export of one run."""
    lines = ["# stabsim trace v1"]
    for key in sorted(meta or {}):
        lines.append(f"meta {key} {meta[key]}")
    for i, cfg in enumerate(trace.configs):
        lines.append("config %d %s" % (i, " ".join(map(str, cfg))))
        if i < trace.steps:
            lines.append(
                "step %d activated %s" % (i, " ".join(map(str, trace.activated[i])))
            )
            lines.append("step %d rules %s" % (i, " ".join(trace.rules[i])))
            lines.append(
                "step %d cs %s" % (i, " ".join(map(str, trace.cs_events[i])))
            )
    lines.append(f"reason {trace.reason}")
    return "\n".join(lines).rstrip() + "\n"

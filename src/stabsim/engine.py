"""Execution engine: step protocols under a scheduler and measure the result.

A configuration is a tuple of per-vertex states.  One step applies the
actions of a scheduler-selected subset of the enabled vertices against the
pre-step configuration (simultaneous semantics) and counts as one action
regardless of how many vertices moved.  A trace records the configuration
sequence together with who moved, which rule fired, and which moves were
critical-section events (privileged vertex activated).

Besides plain runs, this module carries the analysis ops over
configurations and traces: legitimacy, mutual-exclusion safety,
convergence indices, per-vertex liveness counts, island decomposition of
partially-repaired configurations, and radius-k local views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .clock import ClockParams
from .daemon import StepContext
from .graph import Graph

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
    vertices that were privileged in ``configs[i]``.
    """

    configs: tuple[Config, ...]
    activated: tuple[tuple[int, ...], ...]
    rules: tuple[tuple[str, ...], ...]
    cs_events: tuple[tuple[int, ...], ...]
    reason: str

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


def enabled_set(protocol, g: Graph, config: Sequence[int]) -> tuple[int, ...]:
    """Vertices whose guard holds in this configuration."""
    return tuple(
        v for v in range(g.n) if protocol.enabled_rule(v, config, g) is not None
    )


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


def privileged_set(protocol, g: Graph, config: Sequence[int]) -> tuple[int, ...]:
    return protocol.privileged_vertices(config, g)


def me_safety_ok(protocol, g: Graph, config: Sequence[int]) -> bool:
    """Mutual-exclusion safety: at most one privileged vertex."""
    return len(protocol.privileged_vertices(config, g)) <= 1


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
    first legitimate configuration.
    """
    protocol.check_graph(g)
    if max_steps is None:
        max_steps = protocol.default_max_steps(g)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    config = tuple(init)
    configs = [config]
    activated_log: list[tuple[int, ...]] = []
    rules_log: list[tuple[str, ...]] = []
    cs_log: list[tuple[int, ...]] = []
    legit_at: int | None = None
    reason = REASON_MAX_STEPS
    ctx = StepContext(protocol, g, config, None)
    while True:
        here = len(configs) - 1
        if stop_at_legitimate:
            if legit_at is None and protocol.is_legitimate(config, g):
                legit_at = here
            if legit_at is not None and here - legit_at >= tail:
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
        priv = protocol.privileged_vertices(config, g)
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
    )


# ---------------------------------------------------------------------------
# Trace measurements
# ---------------------------------------------------------------------------


def convergence_index_me(trace: Trace, protocol, g: Graph) -> int | None:
    """Smallest index from which every recorded configuration is ME-safe.

    Only meaningful when the trace reached a legitimate configuration
    (closure of the legitimate set makes the suffix check sound); returns
    None ("undetermined") otherwise.
    """
    if not any(protocol.is_legitimate(c, g) for c in trace.configs):
        return None
    last_unsafe = -1
    for i, c in enumerate(trace.configs):
        if len(protocol.privileged_vertices(c, g)) > 1:
            last_unsafe = i
    return last_unsafe + 1


def convergence_index_au(trace: Trace, protocol, g: Graph) -> int | None:
    """Smallest index from which every recorded configuration is legitimate.

    None when even the final configuration is not legitimate.
    """
    idx: int | None = None
    for i in range(len(trace.configs) - 1, -1, -1):
        if not protocol.is_legitimate(trace.configs[i], g):
            break
        idx = i
    return idx


def count_safety_violations(trace: Trace, protocol, g: Graph) -> int:
    return sum(
        1
        for c in trace.configs
        if len(protocol.privileged_vertices(c, g)) > 1
    )


def liveness_report(trace: Trace, protocol, g: Graph, window: int) -> dict[int, int]:
    """Critical-section events per vertex in the ``window`` steps after the
    ME convergence index."""
    if window < 0:
        raise ValueError("window must be >= 0")
    conv = convergence_index_me(trace, protocol, g)
    if conv is None:
        raise ValueError("trace did not reach a legitimate configuration")
    counts = {v: 0 for v in range(g.n)}
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

    @property
    def is_zero(self) -> bool:
        return self.has_zero


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
# Compact runner (no trace recording) for large ensembles
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RunStats:
    steps: int
    legitimate_at: int | None
    last_unsafe: int
    unsafe_at_or_after_legitimate: int
    reason: str
    final: Config

    @property
    def convergence_me(self) -> int | None:
        if self.legitimate_at is None:
            return None
        return self.last_unsafe + 1


def run_stats(
    protocol,
    g: Graph,
    init: Sequence[int],
    policy,
    *,
    max_steps: int,
    tail: int = 0,
) -> RunStats:
    """Like `run` with stop-at-legitimacy, but records only summary indices.

    Guards are re-evaluated incrementally (only around activated vertices),
    which keeps large scheduler ensembles affordable.
    """
    n = g.n
    adj = g.adj
    config = list(init)
    rules: list[str | None] = [
        protocol.enabled_rule(v, config, g) for v in range(n)
    ]
    enabled = {v for v, r in enumerate(rules) if r is not None}
    # While any repair rule is enabled the configuration cannot be
    # legitimate, so the full legitimacy scan is skipped.
    repair_rules = frozenset(protocol.repair_rules)
    repair_count = sum(1 for r in rules if r in repair_rules)
    legit_at: int | None = None
    last_unsafe = -1
    unsafe_after = 0
    t = 0
    reason = REASON_MAX_STEPS
    ctx = StepContext(protocol, g, config, rules)
    priv_of = protocol.privileged_vertices
    while True:
        if len(priv_of(config, g)) > 1:
            last_unsafe = t
            if legit_at is not None:
                unsafe_after += 1
        if legit_at is None:
            if repair_count == 0 and protocol.is_legitimate(config, g):
                legit_at = t
        if legit_at is not None and t - legit_at >= tail:
            reason = REASON_CONVERGED
            break
        if t >= max_steps:
            reason = REASON_MAX_STEPS
            break
        if not enabled:
            reason = REASON_TERMINAL
            break
        selected = _checked_selection(set(policy.select(enabled, ctx)), enabled)
        updates = {v: protocol.apply(v, rules[v], config, g) for v in selected}
        affected = set()
        for v in selected:
            config[v] = updates[v]
            affected.add(v)
            affected.update(adj[v])
        for v in affected:
            new_rule = protocol.enabled_rule(v, config, g)
            repair_count += (new_rule in repair_rules) - (rules[v] in repair_rules)
            rules[v] = new_rule
            if new_rule is None:
                enabled.discard(v)
            else:
                enabled.add(v)
        t += 1
    return RunStats(
        steps=t,
        legitimate_at=legit_at,
        last_unsafe=last_unsafe,
        unsafe_at_or_after_legitimate=unsafe_after,
        reason=reason,
        final=tuple(config),
    )


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

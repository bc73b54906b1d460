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
"""

from __future__ import annotations

import random
from typing import Iterable

DEFAULT_BRANCH_CAP = 16


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


class CentralRandom:
    name = "central-rand"

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def select(self, enabled: set[int], ctx: StepContext | None = None) -> set[int]:
        return {self.rng.choice(sorted(enabled))}


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
        f"unknown daemon {name!r} "
        "(expected sync, central-rr, central-rand, central-adv or dist-rand)"
    )

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

`policy_ensembles` (the ensemble check, and the sampled branch of
`unfair_worst_bound`) runs each scheduler policy under its daemon class's
``batched`` selection, with random numbers from `Streams`, one numpy
stream per policy and policy seed, where `sweep` uses `daemon.Replay`.  It
steps the five ensemble policies as consecutive row blocks of one matrix,
so each step makes one kernel call for all of them.

The speculation comparison has two halves, each chosen exact or sampled
in one place: `search.sync_worst_bound` for the synchronous worst case and
`unfair_worst_bound` for the unconstrained one.  `bounds_checks` gates
both, and the CLI's `compare` tabulates both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from . import clock
from .daemon import SynchronousDaemon, enumerate_choices, make_daemon
from .engine import (
    EnsembleRuns,
    FalsificationError,
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


class Streams:
    """The ``draws`` of a daemon's ``batched`` selection from numpy
    streams: row r draws from ``rngs[r // per_stream]``."""

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
    if extra or size % len(seeds):
        raise ValueError(
            f"{len(inits)} rows do not split into {len(ENSEMBLE_POLICIES)} "
            f"equal policy blocks of {len(seeds)} equal seed streams"
        )
    starts = (np.arange(len(ENSEMBLE_POLICIES) + 1) * size).tolist()
    selects = []
    for i, (_, name, prob) in enumerate(ENSEMBLE_POLICIES):
        # Like random.Random, a negative seed seeds as its absolute value.
        rngs = [np.random.default_rng([abs(seed), i, abs(s)]) for s in seeds]
        draws = Streams(rngs, size // len(seeds))
        policy = make_daemon(name, n=g.n, prob=prob)
        selects.append(policy.batched(proto, g, draws, size))

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


@dataclass(frozen=True)
class UnfairBound:
    """The worst steps to legitimacy under the unconstrained scheduler:
    exact over ``covered`` states, or a lower bound over ``covered``
    sampled runs."""

    max_steps: int
    exact: bool
    covered: int

    def __str__(self) -> str:
        unit = "states" if self.exact else "sampled runs"
        return f"{self.covered} {unit}, worst {self.max_steps}"


def unfair_worst_bound(protocol, g: Graph, *, samples: int, seed: int) -> UnfairBound:
    """`search.worst_case_unfair`'s exact worst case when the `StateSpace`
    fits `DEFAULT_STATE_BUDGET`, and a sampled lower bound otherwise.

    The sample runs each `ENSEMBLE_POLICIES` policy on ``samples // 25``
    initial configurations (at least one) under each of five policy seeds.
    The policies take consecutive blocks of one `random_inits` draw from
    ``seed``, and `policy_ensembles` steps the blocks as one matrix.  A run
    that reaches no legitimate configuration within the step budget (the
    cubic bound on a clock protocol) raises `FalsificationError` with its
    initial configuration.
    """
    if StateSpace(protocol.state_domain(), g.n).total <= DEFAULT_STATE_BUDGET:
        res = worst_case_unfair(protocol, g, state_budget=DEFAULT_STATE_BUDGET)
        return UnfairBound(res.max_steps, True, res.states)
    budget = (
        ssme_unfair_step_bound(g.n, g.diam)
        if protocol.name == "ssme"
        else protocol.default_max_steps(g)
    )
    seeds = range(5)
    per = max(1, samples // 25)
    block = len(seeds) * per
    inits = random_inits(protocol, g.n, len(ENSEMBLE_POLICIES) * block, seed)
    worst = 0
    for i, (label, res) in enumerate(policy_ensembles(
        protocol, g, np.array(inits, dtype=np.int32),
        seed=seed, seeds=seeds, max_steps=budget, tail=0,
    )):
        missed = np.flatnonzero(res.legitimate_at < 0)
        if len(missed):
            r = int(missed[0])
            raise FalsificationError(
                f"{label} run under policy seed {seeds[r // per]} reached no "
                f"legitimate configuration within {budget} steps",
                artifact=inits[i * block + r],
            )
        worst = max(worst, int(res.legitimate_at.max()))
    return UnfairBound(worst, False, len(inits))


def bounds_checks(
    g: Graph, *, samples: int = 100_000, seed: int = 0
) -> list[CheckResult]:
    proto = SsmeProtocol.for_graph(g)
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
    sync = _result(
        "worst synchronous convergence equals ceil(diam/2)", bad, f"{scan.runs} runs"
    )
    bound = ssme_unfair_step_bound(g.n, g.diam)
    unfair = unfair_worst_bound(proto, g, samples=samples, seed=seed)
    bad = []
    if unfair.max_steps > bound:
        bad.append(f"longest recovery {unfair.max_steps} exceeds bound {bound}")
    return [
        sync,
        _result(
            "unconstrained-scheduler worst case within the cubic bound",
            bad,
            f"{unfair} <= {bound}",
        ),
    ]

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from . import clock
from .daemon import SynchronousDaemon, enumerate_choices, make_daemon
from .engine import (
    is_unison_legitimate,
    islands,
    local_state,
    restrict_trace,
    run,
    run_stats,  # bound here for bench/tracer.py, which patches it per module
    step,
)
from .graph import Graph, bfs_distances
from .protocol import (
    RULE_CONVERGE,
    RULE_NORMAL,
    RULE_RESET,
    SsmeProtocol,
    ssme_guards,
    ssme_rule,
)
from .search import (
    _batch_masks,
    _batch_step,
    lower_bound_witness,
    ssme_unfair_step_bound,
    sync_worst_case,
    worst_case_unfair,
)


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


# ---------------------------------------------------------------------------
# Clock algebra
# ---------------------------------------------------------------------------


def clock_checks(alpha: int = 5, ring: int = 12) -> list[CheckResult]:
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


def guard_checks(n: int = 3, diam: int = 1, max_degree: int = 3) -> list[CheckResult]:
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
                first = None
                for label, hit in zip(
                    (RULE_NORMAL, RULE_CONVERGE, RULE_RESET), guards
                ):
                    if hit:
                        first = label
                        break
                if ssme_rule(r_v, neigh, params.ring) != first:
                    bad.append(f"fused rule mismatch at r={r_v} neigh={neigh}")
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
            p = clock.ssme_params(nn, dd)
            thresholds = [2 * nn + 2 * dd * i for i in range(nn)]
            for i, j in combinations_with_replacement(range(nn), 2):
                if i == j:
                    continue
                if clock.ring_distance(thresholds[i], thresholds[j], p.ring) <= dd:
                    bad.append(f"n={nn} diam={dd} ids=({i},{j})")
            for th in thresholds:
                if not 0 < th <= p.ring - 1:
                    bad.append(f"n={nn} diam={dd} threshold {th} outside ring")
    out.append(
        _result("privilege thresholds sit in the ring, pairwise > diam apart", bad)
    )
    return out


# ---------------------------------------------------------------------------
# Graph metrics
# ---------------------------------------------------------------------------


def graph_checks(graphs: list[Graph]) -> list[CheckResult]:
    bad = []
    for g in graphs:
        for v in range(g.n):
            if list(g.dist[v]) != bfs_distances(g.adj, v):
                bad.append(f"n={g.n} m={g.m} source={v}")
    return [_result("distance matrix agrees with per-query BFS", bad)]


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
    exhaustive: bool = False,
    exhaustive_cap: int = 20_000,
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
    if exhaustive:
        total = params.size ** g.n
        if total > exhaustive_cap:
            raise ValueError(
                f"exhaustive closure over {total} configurations exceeds cap "
                f"{exhaustive_cap}"
            )
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
    params = proto.params
    cfg = [rng.randrange(-params.alpha, params.ring) for _ in range(proto.n)]
    if rng.random() < 0.5:
        for v in rng.sample(range(proto.n), k=rng.randint(1, min(2, proto.n))):
            offset = rng.randrange(max(1, proto.diam))
            cfg[v] = (proto.thresholds[v] - offset) % params.ring
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
    proto = SsmeProtocol.for_graph(g)
    params = proto.params
    rng = random.Random(seed)
    bad: list = []
    for _ in range(pairs):
        v = rng.randrange(g.n)
        k = rng.randint(1, g.diam)
        a = [rng.randrange(-params.alpha, params.ring) for _ in range(g.n)]
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


ENSEMBLE_POLICIES = (
    "central-rr", "central-rand", "central-adv", "dist-rand:0.3", "dist-rand:0.7",
)


def ensemble_policy_factories(n: int) -> list[tuple[str, object]]:
    """The scalar daemon of each ensemble policy, built from a seed."""

    def factory(pname: str):
        kind, _, prob = pname.partition(":")
        return lambda s: make_daemon(kind, n=n, seed=s, prob=float(prob or 0.5))

    return [(pname, factory(pname)) for pname in ENSEMBLE_POLICIES]


@dataclass
class EnsembleRuns:
    """Per-row summary of `ensemble_runs`, in the sense of `RunStats`.

    ``legitimate_at`` is -1 for a row that never became legitimate.
    """

    steps: np.ndarray
    legitimate_at: np.ndarray
    last_unsafe: np.ndarray
    unsafe_after: np.ndarray
    final: np.ndarray


def ensemble_runs(
    proto: SsmeProtocol,
    g: Graph,
    inits: np.ndarray,
    select,
    *,
    max_steps: int,
    tail: int,
) -> EnsembleRuns:
    """Step every row of ``inits`` as its own run of the clock protocol.

    Each row is one `run_stats` run: it stops ``tail`` steps after its first
    legitimate configuration, at ``max_steps``, or when nothing is enabled.
    All rows take step t together, and finished rows leave the matrix.

    ``select(rows, R, masks)`` gets the ids (ascending) of the live rows,
    their configurations and the `_batch_masks` guards of ``R``, and returns
    a non-empty activation mask inside the enabled set per row, transposed:
    vertex by row.  ``R`` is kept column-major, which makes each vertex's
    column contiguous for the kernel and the per-row reductions cheap.
    """
    ring, alpha = proto.ring, proto.alpha
    thresholds = np.asarray(proto.thresholds, dtype=np.int32)
    R = np.array(inits, dtype=np.int32, order="F")
    B = len(R)
    out = EnsembleRuns(
        steps=np.zeros(B, dtype=np.int32),
        legitimate_at=np.full(B, -1, dtype=np.int32),
        last_unsafe=np.full(B, -1, dtype=np.int32),
        unsafe_after=np.zeros(B, dtype=np.int32),
        final=np.empty((B, g.n), dtype=np.int32),
    )
    rows = np.arange(B)
    legit_at = out.legitimate_at.copy()
    last_unsafe = out.last_unsafe.copy()
    unsafe_after = out.unsafe_after.copy()
    t = 0
    while len(rows):
        masks = _batch_masks(R, g, ring, thresholds)
        na, conv, ra, enabled, priv, legit = masks
        unsafe = priv.sum(axis=1) >= 2
        last_unsafe[unsafe] = t
        unsafe_after += unsafe & (legit_at >= 0)
        legit_at[legit & (legit_at < 0)] = t
        stop = ((legit_at >= 0) & (t - legit_at >= tail)) | ~enabled.any(axis=1)
        if t >= max_steps:
            stop[:] = True
        if stop.any():
            done = rows[stop]
            out.steps[done] = t
            out.legitimate_at[done] = legit_at[stop]
            out.last_unsafe[done] = last_unsafe[stop]
            out.unsafe_after[done] = unsafe_after[stop]
            out.final[done] = R[stop]
            if stop.all():
                break
            keep = ~stop
            rows = rows[keep]
            R = np.asfortranarray(R[keep])
            legit_at, last_unsafe = legit_at[keep], last_unsafe[keep]
            unsafe_after = unsafe_after[keep]
            masks = tuple(m[keep] for m in masks)
            na, conv, ra = masks[:3]
        act = select(rows, R, masks).T
        R = np.asfortranarray(
            _batch_step(R, na & act, conv & act, ra & act, alpha, ring)
        )
        t += 1
    return out


def _uniform(rngs: list, stream: np.ndarray, width: int = 1) -> np.ndarray:
    """``width`` uniforms per entry of ``stream`` (ascending stream ids), as
    a row-by-width matrix whose row i is drawn from ``rngs[stream[i]]``."""
    out = np.empty((len(stream), width))
    cuts = np.searchsorted(stream, np.arange(1, len(rngs)))
    for rng, part in zip(rngs, np.split(out, cuts)):
        if len(part):
            rng.random(out=part)
    return out


def _nth(mask: np.ndarray, nth: np.ndarray) -> np.ndarray:
    """One-hot of the ``nth[b]``-th (from 1) set entry of column b of a
    vertex-by-row mask."""
    seen = np.zeros(mask.shape[1], dtype=np.int32)
    out = np.empty_like(mask)
    for v, col in enumerate(mask):
        seen += col
        out[v] = col & (seen == nth)
    return out


def _uniform_pick(mask: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One set entry per column of a vertex-by-row mask, uniformly by ``u``."""
    return _nth(mask, (u * mask.sum(axis=0)).astype(np.int32) + 1)


def ensemble_selector(
    pname: str, proto: SsmeProtocol, g: Graph, rngs: list, per_stream: int
):
    """Batched form of the ensemble policy ``pname`` for `ensemble_runs`.

    Row r draws from ``rngs[r // per_stream]``.  ``central-rr`` equals
    `CentralRoundRobin` exactly.  The random policies have the distributions
    of their scalar daemons: ``central-rand`` picks an enabled vertex
    uniformly, ``central-adv`` picks uniformly among the enabled vertices
    that leave the most reset-enabled vertices after moving alone, and
    ``dist-rand:p`` activates each enabled vertex with probability p,
    redrawing the rows that came out empty.
    """
    n = g.n
    idx = np.arange(n)
    cols = idx[:, None]

    def uniform(rows, width=1):
        return _uniform(rngs, rows // per_stream, width)

    if pname == "central-rr":
        cursor = np.zeros(len(rngs) * per_stream, dtype=np.int64)

        def select(rows, R, masks):
            enabled = masks[3].T
            ahead = enabled & (cols >= cursor[rows])
            act = _nth(np.where(ahead.any(axis=0), ahead, enabled), 1)
            cursor[rows] = ((act * cols).sum(axis=0) + 1) % n
            return act

    elif pname == "central-rand":

        def select(rows, R, masks):
            return _uniform_pick(masks[3].T, uniform(rows)[:, 0])

    elif pname == "central-adv":
        ring, alpha = proto.ring, proto.alpha
        thresholds = np.asarray(proto.thresholds, dtype=np.int32)

        def select(rows, R, masks):
            # Score each enabled v by the reset-enabled vertices after v
            # alone moves, as `CentralAdversarial` does.  The n one-vertex
            # moves of every row are stacked into one matrix, candidate-major.
            na, conv, ra, enabled = masks[:4]
            B = len(R)
            moved = _batch_step(R, na, conv, ra, alpha, ring)
            trial = np.repeat(R.T[:, None, :], n, axis=1)
            trial[idx, idx] = moved.T
            after = _batch_masks(trial.reshape(n, n * B).T, g, ring, thresholds)[2]
            score = np.asfortranarray(after).sum(axis=1).reshape(n, B)
            score = np.where(enabled.T, score, -1)
            best = score == score.max(axis=0)
            return _uniform_pick(best, uniform(rows)[:, 0])

    elif pname.startswith("dist-rand:"):
        p = float(pname.partition(":")[2])

        def select(rows, R, masks):
            enabled = masks[3].T
            act = enabled & (uniform(rows, n).T < p)
            empty = np.flatnonzero(~act.any(axis=0))
            while len(empty):
                act[:, empty] = enabled[:, empty] & (uniform(rows[empty], n).T < p)
                empty = empty[~act[:, empty].any(axis=0)]
            return act

    else:
        raise ValueError(f"unknown ensemble policy {pname!r}")
    return select


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

    The runs of one policy, every policy seed x every initial configuration,
    are stepped as the rows of one matrix.  Each (check seed, policy,
    policy seed) draws from its own numpy stream.
    """
    proto = SsmeProtocol.for_graph(g)
    params = proto.params
    bound = ssme_unfair_step_bound(g.n, g.diam)
    rng = random.Random(seed)
    initials = [
        tuple(rng.randrange(-params.alpha, params.ring) for _ in range(g.n))
        for _ in range(inits)
    ]
    # Row r runs initial configuration r % inits under seeds[r // inits].
    batch = np.tile(
        np.array(initials, dtype=np.int32).reshape(inits, g.n), (len(seeds), 1)
    )
    bad: list = []
    for i, pname in enumerate(ENSEMBLE_POLICIES):
        # Like random.Random, a negative seed seeds as its absolute value.
        rngs = [np.random.default_rng([abs(seed), i, abs(s)]) for s in seeds]
        res = ensemble_runs(
            proto, g, batch, ensemble_selector(pname, proto, g, rngs, inits),
            max_steps=bound + tail, tail=tail,
        )
        late = (res.legitimate_at < 0) | (res.legitimate_at > bound)
        unsafe = ~late & (res.unsafe_after > 0)
        for r in np.flatnonzero(late | unsafe).tolist():
            reason = "no legitimacy within bound" if late[r] else (
                "unsafe after legitimacy"
            )
            bad.append((pname, seeds[r // inits], initials[r % inits], reason))
    return _result(
        "adversarial schedulers converge in budget and stay safe",
        bad,
        f"{len(ENSEMBLE_POLICIES) * len(seeds) * inits} runs on n={g.n}",
    )


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def bounds_checks(
    g: Graph,
    *,
    exhaustive: bool = False,
    samples: int = 100_000,
    seed: int = 0,
    unfair_state_budget: int = 4096,
) -> list[CheckResult]:
    proto = SsmeProtocol.for_graph(g)
    out = []
    target = -(-g.diam // 2)
    if exhaustive:
        scan = sync_worst_case(proto, g, "exhaustive")
        observed = scan.max_convergence_me
    else:
        # A sampled maximum is only a lower bound; fold in the constructed
        # witness so the worst case is actually reached.
        scan = sync_worst_case(proto, g, "sample", samples=samples, seed=seed)
        wit = lower_bound_witness(g, proto)
        observed = max(scan.max_convergence_me, wit.convergence)
    bad = []
    if scan.unreached:
        bad.append(f"{scan.unreached} runs missed legitimacy in 2n+diam steps")
    if observed != target:
        bad.append(
            f"worst synchronous convergence {observed}, "
            f"expected {target} (witness {scan.witness_me})"
        )
    out.append(
        _result(
            "worst synchronous convergence equals ceil(diam/2)",
            bad,
            f"{scan.runs} runs",
        )
    )
    total = proto.params.size ** g.n
    if total <= unfair_state_budget:
        bound = ssme_unfair_step_bound(g.n, g.diam)
        res = worst_case_unfair(proto, g, state_budget=unfair_state_budget)
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
                f"skipped: state space {total} exceeds budget {unfair_state_budget}",
            )
        )
    return out

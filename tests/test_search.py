import copy
import functools
import tracemalloc
import weakref
from itertools import combinations, permutations, product

import numpy as np
import pytest

from stabsim import generate, search
from stabsim.clock import ClockParams
from stabsim.engine import FalsificationError, run, step
from stabsim.daemon import SynchronousDaemon, enumerate_choices
from stabsim.graph import parse_graph
from stabsim.protocol import (
    Batch,
    DijkstraProtocol,
    SsmeProtocol,
    ValueShift,
    VertexPermutations,
    make_protocol,
    rows_with,
    tallied,
)
from stabsim.search import (
    StateSpace,
    _sampled_chunks,
    _sync_scan_scalar,
    lower_bound_witness,
    ssme_unfair_step_bound,
    sync_worst_bound,
    sync_worst_case,
    worst_case_unfair,
)


def test_unfair_step_bound_values():
    assert ssme_unfair_step_bound(2, 1) == 28
    assert ssme_unfair_step_bound(5, 2) == 655


# (protocol, graph, window) triples on which the exhaustive scan must equal
# the scalar reference field by field; the windowless ones also hold the
# sample mode to it.  Window "2K" is twice the clock's ring, "2k" twice the
# token ring's state count; an integer window is taken as given, and window
# 0 slides no count at all.
DIFFERENTIAL_CASES = (
    [
        ("ssme", spec, window)
        for spec in ("path:1", "path:2", "path:3", "ring:3", "complete:3")
        for window in (None, "2K")
    ]
    + [("dijkstra", f"ring:{n}", None) for n in (3, 4, 5)]
    + [("dijkstra", f"ring:{n}", "2k") for n in (4, 5)]
    + [
        ("frozen", "path:2", None),
        ("frozen", "path:2", "2K"),
        ("hasty", "path:3", None),
        ("hasty", "path:3", "2K"),
        ("toggler", "path:2", None),
        ("small-clock", "complete:4", "2K"),
    ]
    + [
        (name, spec, window)
        for name, spec in (
            ("ssme", "path:2"),
            ("small-clock", "complete:4"),
            ("dijkstra", "ring:4"),
        )
        for window in (0, 1)
    ]
)


class TestSyncWorstCase:
    def test_path2_exhaustive_exact(self):
        g = generate("path:2")
        p = SsmeProtocol.for_graph(g)
        scan = sync_worst_case(p, g, "exhaustive")
        assert scan.runs == 100
        assert scan.max_convergence_me == 1
        assert scan.witness_me == (4, 6)
        assert scan.unreached == 0
        assert scan.unsafe_after_legitimate == 0

    def test_budget_rejection(self, monkeypatch):
        g = generate("ring:4")
        p = SsmeProtocol.for_graph(g)
        monkeypatch.setattr(search, "DEFAULT_CONFIG_BUDGET", 1000)
        with pytest.raises(ValueError, match="budget"):
            sync_worst_case(p, g, "exhaustive")

    def test_sample_mode_needs_count(self):
        g = generate("path:2")
        p = SsmeProtocol.for_graph(g)
        with pytest.raises(ValueError):
            sync_worst_case(p, g, "sample", samples=0)

    @pytest.mark.parametrize("mode", ["exhaustive", "sample"])
    def test_negative_window_is_rejected(self, mode, monkeypatch):
        # Rejected before the state space is sized, let alone allocated.
        def no_space(*args):
            raise AssertionError("StateSpace.of reached")

        monkeypatch.setattr(StateSpace, "of", no_space)
        g = generate("path:2")
        p = SsmeProtocol.for_graph(g)
        with pytest.raises(ValueError, match="window must be >= 0"):
            sync_worst_case(p, g, mode, samples=10, liveness_window=-1)

    def test_sample_mode_takes_no_window(self):
        g = generate("path:2")
        p = SsmeProtocol.for_graph(g)
        with pytest.raises(ValueError, match="window"):
            sync_worst_case(p, g, "sample", samples=10, liveness_window=4)

    def test_batched_equals_scalar_on_sampled_configs(self):
        g = generate("ring:4")
        p = SsmeProtocol.for_graph(g)
        batched = sync_worst_case(p, g, "sample", samples=1500, seed=13)
        rng = np.random.default_rng(13)
        rows = rng.integers(-p.alpha, p.ring, size=(1500, 4), dtype=np.int32)
        scalar = _sync_scan_scalar(
            p, g, (tuple(int(x) for x in r) for r in rows), None
        )
        assert batched.max_convergence_me == scalar.max_convergence_me
        assert batched.witness_me == scalar.witness_me
        assert batched.max_convergence_legit == scalar.max_convergence_legit
        assert batched.witness_legit == scalar.witness_legit
        assert batched.unreached == scalar.unreached == 0
        assert batched.unsafe_after_legitimate == 0
        assert scalar.unsafe_after_legitimate == 0

    def test_batched_step_matches_engine_step(self):
        g = generate("ring:4")
        p = SsmeProtocol.for_graph(g)
        rng = np.random.default_rng(5)
        rows = rng.integers(-p.alpha, p.ring, size=(100, 4), dtype=np.int32)
        for depth in range(4):
            nxt, enabled, priv, _hits, tally = p.batch(rows, g)
            legit = tallied(tally, p.legit_tally)
            for i in range(rows.shape[0]):
                cfg = tuple(int(x) for x in rows[i])
                expected_enabled = set(
                    v for v in range(4)
                    if p.enabled_rule(v, cfg, g) is not None
                )
                assert expected_enabled == {
                    v for v in range(4) if enabled[i, v]
                }
                assert p.privileged_vertices(cfg, g) == tuple(
                    v for v in range(4) if priv[i, v]
                )
                assert p.is_legitimate(cfg, g) == bool(legit[i])
                if expected_enabled:
                    assert (
                        step(p, g, cfg, sorted(expected_enabled))
                        == tuple(int(x) for x in nxt[i])
                    )
            rows = nxt

    def test_chunked_scan_merges_correctly(self, monkeypatch):
        g = generate("path:2")
        p = SsmeProtocol.for_graph(g)
        whole = sync_worst_case(p, g, "exhaustive")
        monkeypatch.setattr(search, "CHUNK_ROWS", 7)
        chunked = sync_worst_case(p, g, "exhaustive")
        assert whole.max_convergence_me == chunked.max_convergence_me
        assert whole.witness_me == chunked.witness_me
        assert whole.runs == chunked.runs == 100

    @pytest.mark.parametrize("spec", ["path:3", "complete:3"])
    def test_window_classes_match_scalar(self, spec):
        g = generate(spec)
        p = SsmeProtocol.for_graph(g)
        window = 2 * p.ring
        batched = sync_worst_case(p, g, "exhaustive", liveness_window=window)
        scalar = _cached_scalar("ssme", spec, "2K")
        for field in (
            "runs",
            "max_convergence_me",
            "witness_me",
            "max_convergence_legit",
            "witness_legit",
            "min_cs_count",
            "cs_witness",
            "unreached",
        ):
            assert getattr(batched, field) == getattr(scalar, field), field
        assert batched.unsafe_after_legitimate == 0
        assert scalar.unsafe_after_legitimate == 0

    @pytest.mark.parametrize("spec", ["path:3", "complete:3"])
    def test_window_classes_chunked(self, spec, monkeypatch):
        g = generate(spec)
        p = SsmeProtocol.for_graph(g)
        window = 2 * p.ring
        whole = sync_worst_case(p, g, "exhaustive", liveness_window=window)
        monkeypatch.setattr(search, "CHUNK_ROWS", 7)
        chunked = sync_worst_case(p, g, "exhaustive", liveness_window=window)
        assert chunked == whole
        assert whole.cs_witness is not None

    @pytest.mark.parametrize("window", [None, "2K"])
    @pytest.mark.parametrize("chunk_rows", [7, None])
    def test_unsafe_counts_each_run_alone(self, window, chunk_rows, monkeypatch):
        # With one shared threshold the legitimate set is not ME-safe, so
        # the count depends on where each run ends, and a run's window can
        # open after its first legitimate configuration.
        g = generate("path:2")
        p = one_threshold(g)
        w = None if window is None else 2 * p.ring
        if chunk_rows is not None:
            monkeypatch.setattr(search, "CHUNK_ROWS", chunk_rows)
        batched = sync_worst_case(p, g, "exhaustive", liveness_window=w)
        scalar = _exhaustive_scalar(p, g, w)
        assert batched == scalar
        if window is not None:
            assert batched.unsafe_after_legitimate > 0
            assert (batched.max_convergence_me, batched.min_cs_count) == (17, 0)

    @pytest.mark.parametrize("chunk_rows", [7, None])
    @pytest.mark.parametrize(
        "case", DIFFERENTIAL_CASES, ids=lambda c: "-".join(map(str, c))
    )
    def test_exhaustive_equals_scalar(self, case, chunk_rows, monkeypatch):
        g, p, w = _differential_case(*case)
        if chunk_rows is not None:
            monkeypatch.setattr(search, "CHUNK_ROWS", chunk_rows)
        scan = sync_worst_case(p, g, "exhaustive", liveness_window=w)
        assert scan == _cached_scalar(*case)

    @pytest.mark.parametrize("chunk_rows", [7, None])
    @pytest.mark.parametrize(
        "case",
        [c for c in DIFFERENTIAL_CASES if c[2] is None],
        ids=lambda c: "-".join(map(str, c[:2])),
    )
    def test_sample_equals_scalar_on_the_same_draws(
        self, case, chunk_rows, monkeypatch
    ):
        g, p, _ = _differential_case(*case)
        if chunk_rows is not None:
            monkeypatch.setattr(search, "CHUNK_ROWS", chunk_rows)
        scan = sync_worst_case(p, g, "sample", samples=300, seed=11)
        draws = _sampled_chunks(p.state_domain(), g.n, 300, 11)
        configs = (tuple(r) for R in draws for r in R.tolist())
        assert scan == _sync_scan_scalar(p, g, configs, None)

    def test_unreached_states(self):
        # Frozen strands 45 of its 100 runs; SyncToggler reaches none.
        g = generate("path:2")
        scan = sync_worst_case(Frozen.for_graph(g), g, "exhaustive", liveness_window=4)
        assert scan.unreached == 45
        assert scan.min_cs_count is not None
        scan = sync_worst_case(SyncToggler(), g, "exhaustive", liveness_window=4)
        assert scan.unreached == scan.runs == 4
        assert (scan.max_convergence_me, scan.witness_me) == (-1, ())
        assert scan.min_cs_count is None

    def test_legitimate_set_must_be_closed(self):
        g = generate("path:2")
        with pytest.raises(FalsificationError, match="steps out") as exc:
            sync_worst_case(Leaky(), g, "exhaustive")
        assert exc.value.artifact == [(0, 0), (1, 1)]

    def test_threshold_at_zero_breaks_ring4(self):
        # A broken variant past the scalar oracle's reach: with vertex 0's
        # threshold at 0, two vertices are still privileged together one
        # step later than ceil(diam/2) = 1.
        g = generate("ring:4")
        p = SsmeProtocol(4, 2, thresholds=(0, 4, 8, 12))
        scan = sync_worst_case(p, g, "exhaustive")
        assert (scan.max_convergence_me, scan.witness_me) == (2, (0, 7, 7, 7))
        rerun = _sync_scan_scalar(p, g, [scan.witness_me], None)
        assert rerun.max_convergence_me == 2

    def test_int32_index_limit(self):
        # 2000**3 configurations: rejected before anything is allocated.
        g = generate("ring:3")
        p = DijkstraProtocol(3, 2000)
        with pytest.raises(ValueError, match="int32"):
            sync_worst_case(p, g, "exhaustive")
        g = generate("path:6")
        with pytest.raises(ValueError, match="int32"):
            sync_worst_case(SsmeProtocol.for_graph(g), g, "exhaustive")


def _whole_walk_pass(protocol, g, space, window):
    """The synchronous scan's kernel pass as one `StateSpace.batches` walk
    over the whole space, reading legitimacy through `tallied`: the
    reference the per-vertex split pass is held to."""
    n, total = g.n, space.total
    succ = np.empty(total, dtype=np.int32)
    legit = np.empty(total, dtype=bool)
    unsafe = np.empty(total, dtype=bool)
    cs = np.empty((n, total), dtype=bool) if window else None
    stuck = [np.empty(0, dtype=np.int64)]
    for here, R, b in space.batches(protocol, g):
        succ[here] = space.index(b.nxt)
        ok = legit[here] = tallied(b.tally, protocol.legit_tally)
        unsafe[here] = rows_with(b.priv, 2)
        if window:
            cs[:, here] = (b.priv & b.enabled).T
            stuck.append(np.flatnonzero(ok & ~rows_with(b.enabled, 1)) + here.start)
        del R, b
    return succ, legit, unsafe, cs, np.concatenate(stuck)


# The spider with legs 1-2, 3 and 4 at vertex 0: no vertex sees every
# other, so the scan splits.  The paper's clock gives it 43^5 = 147 M
# configurations; `small_clock` gives 6^5.
SPIDER = "5 4\n0 1\n1 2\n0 3\n0 4\n"


def _split_case(name):
    if name == "small-clock spider":
        g = parse_graph(SPIDER)
        return small_clock(g), g
    proto, spec = name.split()
    g = generate(spec)
    return make_protocol(proto, g), g


SPLIT_CASES = [
    "ssme ring:4", "ssme path:4", "small-clock spider",
    "dijkstra ring:4", "dijkstra ring:5",
]


class TestSplitPass:
    @pytest.mark.parametrize("window", [False, True])
    @pytest.mark.parametrize(
        "case,chunk_rows",
        [(case, None) for case in SPLIT_CASES]
        + [(case, 7) for case in SPLIT_CASES[2:]],
    )
    def test_split_pass_equals_the_whole_walk(
        self, case, chunk_rows, window, monkeypatch
    ):
        p, g = _split_case(case)
        space = StateSpace.of(p, g, 10**7)
        D = len(space.domain)
        split_rows = sum(D ** (1 + len(g.adj[v])) for v in range(g.n))
        assert split_rows < space.total
        want = _whole_walk_pass(p, g, space, window)
        if chunk_rows is not None:
            monkeypatch.setattr(search, "CHUNK_ROWS", chunk_rows)
        counted = _OneChunkAlive(p)
        got = search._sync_kernel_pass(counted, g, space, window)
        # The split takes fewer kernel calls on the clock cases, and on
        # every case at 7 rows per call; the small spaces otherwise fit one
        # or two calls and are walked whole.
        split = chunk_rows is not None or case.startswith("ssme")
        assert sum(counted.rows) == (split_rows if split else space.total)
        names = ("succ", "legit", "unsafe", "cs", "stuck")
        for name, a, b in zip(names, got, want):
            if name == "stuck":
                a, b = np.sort(a), np.sort(b)
            assert (a is None and b is None) or np.array_equal(a, b), name
        # Legitimate and unsafe configurations both occur.
        assert want[1].any() and want[2].any()

    @pytest.mark.parametrize("window", [None, "2K"])
    def test_scan_equals_the_scan_on_the_whole_walk(self, window, monkeypatch):
        g = generate("ring:4")
        p = SsmeProtocol.for_graph(g)
        w = None if window is None else 2 * p.ring
        split = sync_worst_case(p, g, "exhaustive", liveness_window=w)
        monkeypatch.setattr(search, "_sync_kernel_pass", _whole_walk_pass)
        assert split == sync_worst_case(p, g, "exhaustive", liveness_window=w)

    @pytest.mark.parametrize(
        "spec,rows",
        [
            # One call per vertex over its 27^3 neighbourhood values.
            ("ring:4", [19_683] * 4),
            # Every vertex sees every other: the space itself, 20^4.
            ("complete:4", [32_768] * 4 + [160_000 - 4 * 32_768]),
        ],
    )
    def test_kernel_rows_per_scan(self, spec, rows):
        g = generate(spec)
        p = _OneChunkAlive(SsmeProtocol.for_graph(g))
        sync_worst_case(p, g, "exhaustive", liveness_window=2 * p.ring)
        assert p.rows == rows

    @pytest.mark.parametrize(
        "window,mib",
        # The tracemalloc peaks of the whole-space walk, 6.63 and 10.71 MiB,
        # rounded up to a tenth of a MiB.
        [(None, 6.7), ("2K", 10.8)],
    )
    def test_scan_peak_memory(self, window, mib):
        g = generate("ring:4")
        p = SsmeProtocol.for_graph(g)
        w = None if window is None else 2 * p.ring
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            sync_worst_case(p, g, "exhaustive", liveness_window=w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


STATE_SPACE_CASES = [("ssme", "path:2"), ("dijkstra", "ring:3")]


class TestStateSpace:
    @pytest.mark.parametrize("proto,spec", STATE_SPACE_CASES)
    def test_index_order_is_product_order(self, proto, spec):
        g = generate(spec)
        p = make_protocol(proto, g)
        space = StateSpace.of(p, g, 10_000)
        expected = list(product(p.state_domain(), repeat=g.n))
        assert space.total == len(expected)
        assert [space.config_at(i) for i in range(space.total)] == expected

    @pytest.mark.parametrize("proto,spec", STATE_SPACE_CASES)
    def test_chunks_tile_the_space_in_order(self, proto, spec, monkeypatch):
        monkeypatch.setattr(search, "CHUNK_ROWS", 7)
        g = generate(spec)
        p = make_protocol(proto, g)
        space = StateSpace.of(p, g, 10_000)
        chunks = list(space.batches(p, g))
        assert [(h.start, h.stop) for h, _, _ in chunks] == [
            (i, min(i + 7, space.total)) for i in range(0, space.total, 7)
        ]
        rows = [tuple(r) for _, R, _ in chunks for r in R.tolist()]
        assert rows == list(product(p.state_domain(), repeat=g.n))
        for _, R, b in chunks:
            assert (b.nxt == p.batch(R, g).nxt).all()

    @pytest.mark.parametrize(
        "solve,calls",
        [
            # 100 configurations.
            (lambda p, g: sync_worst_case(p, g, "exhaustive"), 7),
            (lambda p, g: sync_worst_case(p, g, "exhaustive", liveness_window=4), 7),
            # 55 representatives under the swap of path:2's two vertices.
            (worst_case_unfair, 4),
        ],
        ids=["sync", "sync-window", "unfair"],
    )
    def test_kernel_pass_holds_one_chunk(self, solve, calls, monkeypatch):
        monkeypatch.setattr(search, "CHUNK_ROWS", 16)
        g = generate("path:2")
        p = _OneChunkAlive(SsmeProtocol.for_graph(g))
        solve(p, g)
        assert len(p.rows) == calls

    def test_orbit_walk_fills_every_chunk(self, monkeypatch):
        # ssme complete:5 has 118,755 representatives: four kernel calls,
        # all full but the last, and the successors' orbits are taken one
        # slice of at most CHUNK_ROWS rows at a time.
        canonical_rows = []
        canonical = VertexPermutations.canonical

        def counted(group, R):
            canonical_rows.append(len(R))
            return canonical(group, R)

        monkeypatch.setattr(VertexPermutations, "canonical", counted)
        g = generate("complete:5")
        p = _OneChunkAlive(SsmeProtocol.for_graph(g))
        worst_case_unfair(p, g, state_budget=10**7)
        rows = search.CHUNK_ROWS
        assert p.rows == [rows] * 3 + [118_755 - 3 * rows]
        assert 0 < max(canonical_rows) <= rows


class _OneChunkAlive:
    """A protocol whose batch kernel checks, on each call, that the ``R``
    and ``nxt`` of every earlier call have been freed, and records each
    call's row count."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = []
        self.refs = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def batch(self, R, g):
        assert all(ref() is None for ref in self.refs), f"call {len(self.rows)}"
        b = self.inner.batch(R, g)
        self.rows.append(len(R))
        self.refs += [weakref.ref(R), weakref.ref(b.nxt)]
        return b


def _exhaustive_scalar(p, g, window):
    """The scalar reference scan over every configuration."""
    return _sync_scan_scalar(p, g, product(p.state_domain(), repeat=g.n), window)


def _differential_case(name, spec, window):
    g = generate(spec)
    make = {
        "ssme": SsmeProtocol.for_graph,
        "dijkstra": DijkstraProtocol.for_graph,
        "frozen": Frozen.for_graph,
        "hasty": Hasty.for_graph,
        "toggler": lambda g: SyncToggler(),
        "small-clock": small_clock,
    }[name]
    p = make(g)
    if window is None or isinstance(window, int):
        return g, p, window
    return g, p, 2 * (p.ring if window == "2K" else p.k)


@functools.cache
def _cached_scalar(name, spec, window):
    """`_exhaustive_scalar` for one differential case, computed once."""
    g, p, w = _differential_case(name, spec, window)
    return _exhaustive_scalar(p, g, w)


def one_threshold(g):
    """The clock protocol on ``g`` whose vertices all share vertex 0's
    threshold, 2n."""
    return SsmeProtocol(g.n, g.diam, thresholds=(2 * g.n,) * g.n)


class Frozen(SsmeProtocol):
    """`one_threshold`'s protocol with two terminal configurations: every
    vertex at the stem's bottom (not legitimate), and every vertex on the
    shared threshold (legitimate and unsafe)."""

    def __init__(self, n, diam):
        super().__init__(n, diam, thresholds=(2 * n,) * n)

    def _frozen(self, R):
        return (R == -self.alpha).all(axis=1) | (R == self.thresholds[0]).all(axis=1)

    def enabled_rule(self, v, config, g):
        if self._frozen(np.array([config]))[0]:
            return None
        return super().enabled_rule(v, config, g)

    def batch(self, R, g):
        b = super().batch(R, g)
        frozen = self._frozen(R)[:, None]
        return b._replace(
            nxt=np.where(frozen, R, b.nxt),
            enabled=b.enabled & ~frozen,
            hits=b.hits & ~frozen,
        )


def small_clock(g):
    """The clock protocol on cherry(1, 5) with thresholds 0..n-1: 6^4 =
    1,296 configurations on complete:4, where some runs outside the
    legitimate set are ME-safe from their start and so slide their liveness
    window."""
    return SsmeProtocol(
        g.n, g.diam, params=ClockParams(1, 5), thresholds=range(g.n)
    )


def spread(g):
    """ring:6's clock with thresholds 0, 18, ..., 42: the paper's ring:6
    witness ``(11, 11, 29, 29, 29, 11)`` is ME-safe from its start here."""
    return SsmeProtocol(g.n, g.diam, thresholds=(0, 18, 24, 30, 36, 42))


class Hasty(SsmeProtocol):
    """Clock protocol that promises legitimacy within two synchronous steps."""

    def sync_step_bound(self, g):
        return 2


def _oracle_unfair(protocol, g):
    """Longest path to legitimacy by value iteration over tuples.

    Independent of the solver: every non-empty subset of the enabled
    vertices moves, and values are relaxed to a fixpoint.
    """
    states = list(product(protocol.state_domain(), repeat=g.n))
    succ = {}
    for s in states:
        if protocol.is_legitimate(s, g):
            continue
        rules = {v: protocol.enabled_rule(v, s, g) for v in range(g.n)}
        enabled = [v for v, r in rules.items() if r is not None]
        nxt = set()
        for k in range(1, len(enabled) + 1):
            for subset in combinations(enabled, k):
                new = list(s)
                for v in subset:
                    new[v] = protocol.apply(v, rules[v], s, g)
                nxt.add(tuple(new))
        succ[s] = nxt
    value = dict.fromkeys(states, 0)
    for _ in range(len(states) + 1):
        changed = False
        for s, nxt in succ.items():
            best = 1 + max(value[t] for t in nxt)
            if best != value[s]:
                value[s] = best
                changed = True
        if not changed:
            break
    else:
        raise AssertionError("no fixpoint: a cycle among non-legitimate states")
    worst = max(value.values())
    return worst, next(s for s in states if value[s] == worst), len(states)


def _is_move(protocol, g, a, b) -> bool:
    """b follows a when some non-empty subset of a's enabled vertices moves."""
    enabled = [v for v in range(g.n) if protocol.enabled_rule(v, a, g) is not None]
    return any(
        step(protocol, g, a, subset) == b
        for k in range(1, len(enabled) + 1)
        for subset in combinations(enabled, k)
    )


class Toggler:
    """Flips every vertex forever and is never legitimate."""

    name = "toggler"
    reset_rule = None
    legit_tally = 0

    def batch(self, R, g):
        every = np.ones(R.shape, dtype=bool)
        return Batch(1 - R, every, ~every, every, every)

    def check_graph(self, g):
        pass

    def state_domain(self):
        return range(2)

    def enabled_rule(self, v, config, g):
        return "T"

    def apply(self, v, rule, config, g):
        return 1 - config[v]

    def privileged_vertices(self, config, g):
        return ()

    def is_legitimate(self, config, g):
        return False


class SyncToggler(Toggler):
    def sync_step_bound(self, g):
        return 3


class Leaky(SyncToggler):
    """Toggler whose all-zero configuration counts as legitimate, although
    its successor does not."""

    def batch(self, R, g):
        return super().batch(R, g)._replace(tally=R != 0)


class Climber(Toggler):
    """Vertex 0 climbs 0 -> 1 -> 2, and a configuration is legitimate once
    it holds 2 there; while vertex 0 holds 0, every other vertex steps
    x -> x + 1 mod 3.  Configurations with vertex 0 at 1 finish in one
    step, so each state with vertex 0 at 0 sees its first successor (move
    vertex 0 alone) finish and keeps cycling through the other columns."""

    def state_domain(self):
        return range(3)

    def batch(self, R, g):
        enabled = np.ones(R.shape, dtype=bool)
        enabled[:, 0] = R[:, 0] < 2
        enabled[:, 1:] = R[:, :1] == 0
        nxt = np.where(enabled, R + 1, R)
        nxt[:, 1:] %= 3
        tally = np.zeros_like(enabled)
        tally[:, 0] = R[:, 0] != 2
        return Batch(nxt, enabled, np.zeros_like(enabled), enabled, tally)

    def enabled_rule(self, v, config, g):
        return "C" if (config[0] < 2 if v == 0 else config[0] == 0) else None

    def apply(self, v, rule, config, g):
        return config[0] + 1 if v == 0 else (config[v] + 1) % 3

    def is_legitimate(self, config, g):
        return config[0] == 2


class Hopper(Toggler):
    """One vertex over 0..4, never legitimate, moving 0 -> 3, 1 -> 2,
    2 -> 1, 3 -> 4 and 4 -> 3: nothing steps to 0."""

    MOVES = (3, 2, 1, 4, 3)

    def state_domain(self):
        return range(5)

    def batch(self, R, g):
        b = super().batch(R, g)
        return b._replace(nxt=np.asarray(self.MOVES, dtype=np.int32)[R])

    def apply(self, v, rule, config, g):
        return self.MOVES[config[v]]


class TestUnfairWorstCase:
    @pytest.mark.parametrize(
        "proto,spec",
        [
            ("ssme", "path:2"),
            ("ssme", "path:3"),
            ("ssme", "ring:3"),
            ("ssme", "complete:3"),
            ("dijkstra", "ring:3"),
            ("dijkstra", "ring:4"),
            ("dijkstra", "ring:5"),
        ],
    )
    def test_matches_value_iteration(self, proto, spec):
        g = generate(spec)
        p = make_protocol(proto, g)
        res = worst_case_unfair(p, g, state_budget=10_000)
        assert (res.max_steps, res.witness, res.states) == _oracle_unfair(p, g)

    @pytest.mark.parametrize("chunk_rows", [7, None])
    @pytest.mark.parametrize("proto,spec", [("ssme", "path:2"), ("dijkstra", "ring:3")])
    def test_edges_count_every_activation_choice(
        self, proto, spec, chunk_rows, monkeypatch
    ):
        if chunk_rows is not None:
            monkeypatch.setattr(search, "CHUNK_ROWS", chunk_rows)
        g = generate(spec)
        p = make_protocol(proto, g)
        want = 0
        for s in product(p.state_domain(), repeat=g.n):
            if not p.is_legitimate(s, g):
                enabled = [
                    v for v in range(g.n) if p.enabled_rule(v, s, g) is not None
                ]
                want += len(enumerate_choices(enabled))
        assert worst_case_unfair(p, g, state_budget=10_000).edges == want

    @pytest.mark.parametrize("proto,spec", [("dijkstra", "ring:4"), ("ssme", "path:3")])
    def test_subset_successors_follow_enumerate_choices(self, proto, spec):
        # On every mask of three enabled vertices, column j of the successor
        # matrix is what `step` reaches under the j-th `enumerate_choices`
        # subset; the deltas come from `step` too, not from the kernel.
        g = generate(spec)
        p = make_protocol(proto, g)
        space = StateSpace(p.state_domain(), g.n)
        index = {space.config_at(i): i for i in range(space.total)}
        groups = {}
        for cfg, i in index.items():
            enabled = [v for v in range(g.n) if p.enabled_rule(v, cfg, g) is not None]
            if len(enabled) == 3:
                groups.setdefault(tuple(enabled), []).append(i)
        assert groups
        for enabled, rows in groups.items():
            configs = [space.config_at(i) for i in rows]
            deltas = [
                np.array(
                    [index[step(p, g, c, [v])] - i for c, i in zip(configs, rows)],
                    dtype=np.int32,
                )
                for v in enabled
            ]
            succ = search._subset_successors(np.array(rows, dtype=np.int32), deltas)
            subsets = enumerate_choices(enabled)
            assert succ.shape == (len(rows), len(subsets))
            for c, row in zip(configs, succ.tolist()):
                assert [space.config_at(j) for j in row] == [
                    step(p, g, c, sorted(subset)) for subset in subsets
                ]

    def test_path2_exact_and_bounded(self):
        g = generate("path:2")
        p = SsmeProtocol.for_graph(g)
        res = worst_case_unfair(p, g, state_budget=200)
        assert res.states == 100
        # Exact worst over the full choice relation, frozen as a regression
        # value after exhaustive longest-path search.
        assert res.max_steps == 6
        assert res.max_steps <= ssme_unfair_step_bound(2, 1)

    def test_budget_rejection(self):
        g = generate("ring:4")
        p = SsmeProtocol.for_graph(g)
        with pytest.raises(ValueError, match="budget"):
            worst_case_unfair(p, g, state_budget=100)

    def test_int32_index_limit(self):
        # 2000**3 configurations: rejected before anything is allocated.
        with pytest.raises(ValueError, match="int32"):
            worst_case_unfair(
                DijkstraProtocol(3, 2000), generate("ring:3"), state_budget=10**12
            )

    def test_dijkstra_values(self):
        # Frozen from exhaustive longest-path search, cross-checked against
        # an independent value iteration.
        expected = {3: 3, 4: 13}
        for n, worst in expected.items():
            g = generate(f"ring:{n}")
            p = DijkstraProtocol.for_graph(g)
            res = worst_case_unfair(p, g, state_budget=10_000)
            assert res.max_steps == worst

    def test_cycle_is_reported(self):
        p = Toggler()
        for spec in ("path:1", "path:3"):
            g = generate(spec)
            with pytest.raises(FalsificationError, match="cycle") as exc:
                worst_case_unfair(p, g, state_budget=10)
            cycle = exc.value.artifact
            assert len(cycle) >= 2
            assert cycle[0] == cycle[-1]
            assert not any(p.is_legitimate(c, g) for c in cycle)
            for a, b in zip(cycle, cycle[1:]):
                assert _is_move(p, g, a, b)

    def test_cycle_past_finished_successors(self):
        # The walk starts at (0, 0, 0), whose first successor (1, 0, 0)
        # finishes at level 1; the cycle follows each state's first
        # unfinished successor in the canonical subset order.
        p, g = Climber(), generate("path:3")
        with pytest.raises(FalsificationError, match="3 actions") as exc:
            worst_case_unfair(p, g, state_budget=100)
        cycle = exc.value.artifact
        assert cycle == [(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 0)]
        for a, b in zip(cycle, cycle[1:]):
            assert _is_move(p, g, a, b)

    def test_cycle_walk_starts_at_the_lowest_unfinished_state(self):
        # (0,) has no predecessor; the walk still starts there, so it
        # reports the cycle (0,) runs into, not the lower one at (1,).
        p, g = Hopper(), generate("path:1")
        with pytest.raises(FalsificationError, match="2 actions") as exc:
            worst_case_unfair(p, g, state_budget=10)
        assert exc.value.artifact == [(3,), (4,), (3,)]
        for a, b in zip(exc.value.artifact, exc.value.artifact[1:]):
            assert _is_move(p, g, a, b)

    def test_branch_cap_rejection(self):
        class Frozen(Toggler):
            """One value per vertex; every vertex is enabled and stays put."""

            def state_domain(self):
                return range(1)

            def apply(self, v, rule, config, g):
                return config[v]

            def batch(self, R, g):
                return super().batch(R, g)._replace(nxt=R.copy())

        with pytest.raises(ValueError, match="branching cap"):
            worst_case_unfair(Frozen(), generate("path:17"), state_budget=10)

    def test_stuck_state_is_reported(self):
        class Stuck:
            name = "stuck"
            reset_rule = None
            legit_tally = 0

            def check_graph(self, g):
                pass

            def state_domain(self):
                return range(2)

            def enabled_rule(self, v, config, g):
                return None

            def apply(self, v, rule, config, g):
                raise AssertionError

            def privileged_vertices(self, config, g):
                return ()

            def is_legitimate(self, config, g):
                return False

            def batch(self, R, g):
                none = np.zeros(R.shape, dtype=bool)
                return Batch(R.copy(), none, none, none, ~none)

        g = generate("path:1")
        with pytest.raises(FalsificationError, match="stuck") as exc:
            worst_case_unfair(Stuck(), g, state_budget=10)
        assert exc.value.artifact == (0,)

        class StuckPastZero(Stuck):
            """Legitimate while vertex 0 holds 0, so (1, 0) is stuck first."""

            def is_legitimate(self, config, g):
                return config[0] == 0

            def batch(self, R, g):
                tally = np.zeros(R.shape, dtype=bool)
                tally[:, 0] = R[:, 0] != 0
                return super().batch(R, g)._replace(tally=tally)

        with pytest.raises(FalsificationError, match="stuck") as exc:
            worst_case_unfair(StuckPastZero(), generate("path:2"), state_budget=10)
        assert exc.value.artifact == (1, 0)


def _plain(p):
    """A copy of ``p`` declaring no symmetry: its unconstrained solve walks
    every configuration, the reference an orbit solve is held to."""
    plain = copy.copy(p)
    plain.symmetry = lambda g: None
    return plain


class ShortRing(DijkstraProtocol):
    """Token ring with fewer than n + 1 states, which can cycle."""

    def __init__(self, n, k):
        super().__init__(n)
        self.k = k


class Relay(Toggler):
    """Values 0..2 on any graph, legitimate when every vertex holds 2.  A
    vertex at 0 moves to 1; one at 1 falls back to 0 while another vertex
    holds 0, and moves on to 2 otherwise.  Every rule reads the other
    values as a multiset, so each vertex permutation is a symmetry, and the
    configurations holding a 0 cycle."""

    def state_domain(self):
        return range(3)

    def symmetry(self, g):
        return VertexPermutations(3)

    def batch(self, R, g):
        zeros = (R == 0).sum(axis=1, keepdims=True)
        enabled = R < 2
        nxt = np.where(R == 0, 1, np.where(R == 1, np.where(zeros > 0, 0, 2), R))
        enabled &= ~(R == 2).all(axis=1, keepdims=True)
        return Batch(
            np.where(enabled, nxt, R).astype(np.int32), enabled,
            np.zeros_like(enabled), enabled, R != 2,
        )

    def enabled_rule(self, v, config, g):
        return None if config[v] == 2 or set(config) == {2} else "R"

    def apply(self, v, rule, config, g):
        if config[v] == 0:
            return 1
        return 0 if 0 in config else 2

    def is_legitimate(self, config, g):
        return set(config) == {2}


def _generators(group, n):
    """Maps of value matrices that generate ``group``: a shift by one, or a
    transposition and an n-cycle of the vertices."""
    if isinstance(group, ValueShift):
        return [lambda M: (M + 1) % group.k]
    cycle = [*range(1, n), 0]
    swap = [1, 0, *range(2, n)]
    return [lambda M, p=p: np.asfortranarray(M[:, p]) for p in (swap, cycle)]


def _assert_equivariant(p, g):
    """Each generator of ``p.symmetry(g)`` maps the protocol's own ``batch``
    over the whole space onto itself: ``nxt`` and ``enabled`` move with
    the configurations, and legitimacy stays."""
    space = StateSpace.of(p, g, 10**6)
    R = space.configs(np.arange(space.total, dtype=np.int32))
    b = p.batch(R, g)
    legit = tallied(b.tally, p.legit_tally)
    for move in _generators(p.symmetry(g), g.n):
        moved = p.batch(move(R), g)
        assert (moved.nxt == move(b.nxt)).all()
        # A value shift moves no vertex, so it leaves the enabled mask.
        on = b.enabled if isinstance(p.symmetry(g), ValueShift) else move(b.enabled)
        assert (moved.enabled == on).all()
        assert (tallied(moved.tally, p.legit_tally) == legit).all()


def _solve(p, g):
    try:
        res = worst_case_unfair(p, g, state_budget=10**6)
    except FalsificationError as exc:
        return str(exc), exc.artifact
    return res.max_steps, res.witness, res.states, res.edges


# Every group the protocols declare, on spaces small enough to solve
# without the group as well: the clock protocols on complete graphs, and
# the token ring at K = n + 1 and n + 2.
CLOCKS = {
    "ssme": SsmeProtocol.for_graph,
    "small-clock": small_clock,
    "one-threshold": one_threshold,
    "frozen": Frozen.for_graph,
}
ORBIT_CASES = [
    *(f"{name} complete:{n}" for name in CLOCKS for n in (2, 3, 4)),
    *(f"dijkstra ring:{n} k={n + extra}" for n in (3, 4, 5, 6) for extra in (1, 2)),
]


def _orbit_case(case):
    """The protocol of ``case``, the same protocol declaring no symmetry,
    and the graph."""
    name, spec, *k = case.split()
    g = generate(spec)
    if name in CLOCKS:
        p = CLOCKS[name](g)
    else:
        p = DijkstraProtocol(g.n, int(k[0][2:]))
    return p, _plain(p), g


def _chunk_rows(case):
    """Kernel rows per call for the chunked solves of ``case``: 7, or 1,024
    on spaces of 10^5 configurations or more (the token ring at n = 6, the
    paper's clocks on complete:4), where 7-row calls take seconds and
    1,024-row ones still make 9 to 32 per orbit solve and 115 to 256 per
    plain one."""
    p, _, g = _orbit_case(case)
    return 7 if len(p.state_domain()) ** g.n < 10**5 else 1024


class TestSymmetry:
    @pytest.mark.parametrize("case", ORBIT_CASES)
    def test_declared_symmetry_is_one(self, case):
        p, _, g = _orbit_case(case)
        assert p.symmetry(g) is not None
        _assert_equivariant(p, g)

    def test_equivariance_check_has_teeth(self):
        class Lopsided(SsmeProtocol):
            """Vertex 0 never resets."""

            def batch(self, R, g):
                b = super().batch(R, g)
                keep = b.hits.copy()
                keep[:, 1:] = False
                return b._replace(
                    nxt=np.where(keep, R, b.nxt),
                    enabled=b.enabled & ~keep,
                    hits=b.hits & ~keep,
                )

        g = generate("complete:3")
        with pytest.raises(AssertionError):
            _assert_equivariant(Lopsided.for_graph(g), g)

    @pytest.mark.parametrize(
        "p,spec",
        [
            (SsmeProtocol(2, 1), "complete:2"),
            (SsmeProtocol(3, 1), "complete:3"),
            (small_clock(generate("complete:4")), "complete:4"),
            (DijkstraProtocol(3, 5), "ring:3"),
            (DijkstraProtocol(4), "ring:4"),
        ],
        ids=str,
    )
    def test_group_matches_its_orbits(self, p, spec):
        # Every orbit, closed under the whole group by brute force: its
        # smallest index is the canonical form, the representatives are
        # those indices, and each orbit's size is its number of members.
        g = generate(spec)
        group = p.symmetry(g)
        space = StateSpace.of(p, g, 10**6)
        R = space.configs(np.arange(space.total, dtype=np.int32))
        if isinstance(group, ValueShift):
            images = [(R + c) % group.k for c in range(group.k)]
        else:
            images = [R[:, list(perm)] for perm in permutations(range(g.n))]
        orbit = np.stack([space.index(M) for M in images])
        smallest = orbit.min(axis=0)
        assert (space.index(group.canonical(R)) == smallest).all()
        reps = np.unique(smallest)
        assert (group.representatives(g.n) == reps).all()
        sizes = [len(set(orbit[:, i].tolist())) for i in reps]
        assert group.orbit_sizes(R[reps]).tolist() == sizes

    @pytest.mark.parametrize(
        "case,chunk_rows",
        [(case, rows) for case in ORBIT_CASES for rows in (_chunk_rows(case), None)],
    )
    def test_orbit_solve_equals_the_plain_solve(self, case, chunk_rows, monkeypatch):
        if chunk_rows is not None:
            monkeypatch.setattr(search, "CHUNK_ROWS", chunk_rows)
        p, plain, g = _orbit_case(case)
        assert _solve(p, g) == _solve(plain, g)

    def test_stuck_configuration_under_the_group(self):
        # Frozen's all-bottom configuration is stuck; it is also the first
        # representative, so both solves raise on it.
        p, plain, g = _orbit_case("frozen complete:3")
        message, artifact = _solve(p, g)
        assert message.startswith("stuck") and artifact == (-3, -3, -3)
        assert _solve(plain, g) == (message, artifact)

    @pytest.mark.parametrize(
        "p,plain,spec",
        [
            (ShortRing(4, 3), _plain(ShortRing(4, 3)), "ring:4"),
            (ShortRing(5, 2), _plain(ShortRing(5, 2)), "ring:5"),
            (Relay(), _plain(Relay()), "complete:3"),
            (Relay(), _plain(Relay()), "complete:4"),
        ],
        ids=["token-ring-4-k3", "token-ring-5-k2", "relay-3", "relay-4"],
    )
    def test_cycle_under_the_group(self, p, plain, spec):
        # The walk steps configurations, so the artifact is the plain
        # solve's, move for move.
        g = generate(spec)
        assert p.symmetry(g) is not None
        message, cycle = _solve(p, g)
        assert message.startswith("cycle")
        assert _solve(plain, g) == (message, cycle)
        for a, b in zip(cycle, cycle[1:]):
            assert _is_move(p, g, a, b)

    @pytest.mark.parametrize(
        "proto,spec,orbits",
        [("dijkstra", "ring:6", 16_807), ("ssme", "complete:4", 8_855), ("ssme", "path:3", 8_000)],
    )
    def test_orbits_counts_the_representatives(self, proto, spec, orbits):
        g = generate(spec)
        p = make_protocol(proto, g)
        res = worst_case_unfair(p, g, state_budget=10**6)
        assert res.orbits == orbits
        assert res.states == len(p.state_domain()) ** g.n

    def test_orbit_solve_peak_memory(self):
        # The ssme complete:5 solve allocates no more than 32 MB at its
        # peak: no array spans a mask group's whole successor buffer
        # decoded as configurations.
        g = generate("complete:5")
        p = SsmeProtocol.for_graph(g)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            worst_case_unfair(p, g, state_budget=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32_000_000


class TestWitness:
    def test_path2(self):
        res = lower_bound_witness(generate("path:2"))
        assert res.config == (4, 6)
        assert res.convergence == res.target == 1

    def test_ring4(self):
        res = lower_bound_witness(generate("ring:4"))
        assert res.convergence == res.target == 1

    def test_complete3(self):
        res = lower_bound_witness(generate("complete:3"))
        assert res.convergence == res.target == 1

    def test_ring8_splices_balls(self):
        g = generate("ring:8")
        res = lower_bound_witness(g)
        assert res.convergence == res.target == 2
        # two radius-1 balls planted one tick before the thresholds
        p = SsmeProtocol.for_graph(g)
        planted = [v for v in range(8) if res.config[v] != 0]
        assert len(planted) == 6
        trace = run(p, g, res.config, SynchronousDaemon(), max_steps=2)
        assert len(p.privileged_vertices(trace.configs[1], g)) == 2

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            lower_bound_witness(generate("path:1"))

    def test_missed_target_falsifies_the_construction(self, monkeypatch):
        # Validation sees the planted run unreached: the construction is
        # falsified with the planted configuration, never searched around.
        def unreached(protocol, g, configs, window):
            return search.SyncScanResult(runs=1, unreached=1)

        monkeypatch.setattr(search, "_sync_scan_scalar", unreached)
        with pytest.raises(FalsificationError, match="index -1 ") as exc:
            lower_bound_witness(generate("path:2"))
        assert exc.value.artifact == (4, 6)

    @pytest.mark.parametrize(
        "spec,config",
        [
            ("ring:8", (15, 15, 0, 47, 47, 47, 0, 15)),
            ("path:7", (12, 12, 12, 0, 84, 84, 84)),
            ("grid:3x3", (17, 17, 0, 17, 0, 81, 0, 81, 81)),
            ("complete:4", (8, 10, 0, 0)),
            ("random:8:0.3:1", (15, 15, 27, 27, 15, 0, 27, 0)),
        ],
    )
    def test_config_is_pinned(self, spec, config):
        res = lower_bound_witness(generate(spec))
        assert res.config == config


class TestSyncWorstBound:
    """The sampled `sync_worst_bound` folds the planted witness in only at
    the index it has on the scanned protocol."""

    @pytest.mark.parametrize(
        "make, spec, config_budget",
        [
            (SsmeProtocol.for_graph, "ring:6", search.DEFAULT_CONFIG_BUDGET),
            (spread, "ring:6", search.DEFAULT_CONFIG_BUDGET),
            # The paper's complete:4 witness (8, 10, 0, 0) lies outside
            # small_clock's domain -1..4.
            (small_clock, "complete:4", 0),
        ],
        ids=["ssme", "spread", "small-clock"],
    )
    def test_witness_index_is_the_maximum(
        self, monkeypatch, make, spec, config_budget
    ):
        scalar = search._sync_scan_scalar

        def in_domain(protocol, g, configs, window):
            domain = protocol.state_domain()
            assert all(x in domain for c in configs for x in c)
            return scalar(protocol, g, configs, window)

        # No protocol runs a configuration outside its own domain.
        monkeypatch.setattr(search, "_sync_scan_scalar", in_domain)
        monkeypatch.setattr(search, "DEFAULT_CONFIG_BUDGET", config_budget)
        g = generate(spec)
        p = make(g)
        scan = sync_worst_bound(p, g, samples=2000, seed=0)
        assert scan.runs == 2000
        rerun = scalar(p, g, [scan.witness_me], None)
        assert rerun.max_convergence_me == scan.max_convergence_me

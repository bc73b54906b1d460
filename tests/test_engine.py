import random

import pytest

from stabsim import generate
from stabsim.clock import ClockParams
from stabsim.daemon import (
    CentralRandom,
    CentralRoundRobin,
    RandomDistributed,
    SynchronousDaemon,
    make_daemon,
)
from stabsim.engine import (
    REASON_CONVERGED,
    REASON_MAX_STEPS,
    REASON_TERMINAL,
    convergence_index_au,
    convergence_index_me,
    enabled_rules,
    format_trace,
    is_unison_legitimate,
    islands,
    liveness_report,
    local_state,
    restrict_trace,
    run,
    run_stats,
    step,
)
from stabsim.protocol import DijkstraProtocol, SsmeProtocol
from stabsim.search import sync_worst_case
from stabsim.verify import sample_legitimate_config

PATH2 = generate("path:2")
SSME2 = SsmeProtocol.for_graph(PATH2)
RING3 = generate("ring:3")
RING4 = generate("ring:4")
DIJK3 = DijkstraProtocol.for_graph(RING3, 4)


class IdleProtocol:
    """Nothing is ever enabled; used to exercise terminal handling."""

    name = "idle"
    reset_rule = None

    def check_graph(self, g):
        pass

    def state_domain(self):
        return range(2)

    def enabled_rule(self, v, config, g):
        return None

    def apply(self, v, rule, config, g):
        raise AssertionError("never called")

    def privileged_vertices(self, config, g):
        return ()

    def is_legitimate(self, config, g):
        return False

    def default_max_steps(self, g):
        return 10


class TestEnabled:
    def test_both_ticking(self):
        assert enabled_rules(SSME2, PATH2, (0, 0)) == ["NA", "NA"]

    def test_only_lower_stem_vertex(self):
        assert enabled_rules(SSME2, PATH2, (-2, -1)) == ["CA", None]

    def test_empty_when_no_guard_holds(self):
        assert enabled_rules(IdleProtocol(), PATH2, (0, 0)) == [None, None]


class TestStep:
    def test_simultaneous(self):
        assert step(SSME2, PATH2, (0, 0), (0, 1)) == (1, 1)

    def test_partial(self):
        assert step(SSME2, PATH2, (0, 0), (0,)) == (1, 0)

    def test_dijkstra_root(self):
        assert step(DIJK3, RING3, (0, 0, 0), (0,)) == (1, 0, 0)

    def test_rejects_non_enabled(self):
        with pytest.raises(ValueError, match="not enabled"):
            step(SSME2, PATH2, (-2, -1), (1,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            step(SSME2, PATH2, (0, 0), ())


class TestLegitimacy:
    def test_all_zero(self):
        assert is_unison_legitimate((0, 0), PATH2, SSME2.params)

    def test_stem_value_breaks_it(self):
        assert not is_unison_legitimate((0, -1), PATH2, SSME2.params)

    def test_wide_edge_breaks_it(self):
        assert not is_unison_legitimate((3, 5), PATH2, ClockParams(5, 12))


class TestPrivilegeAndSafety:
    def test_planted_thresholds_unsafe(self):
        assert SSME2.privileged_vertices((4, 6), PATH2) == (0, 1)

    def test_zero_config_safe(self):
        assert SSME2.privileged_vertices((0, 0), PATH2) == ()

    def test_dijkstra_two_tokens(self):
        assert DIJK3.privileged_vertices((0, 1, 2), RING3) == (1, 2)


class TestRun:
    def test_legitimate_runs_stay_legitimate(self):
        rng = random.Random(0)
        for _ in range(50):
            cfg = tuple(sample_legitimate_config(PATH2, SSME2.ring, rng))
            if not is_unison_legitimate(cfg, PATH2, SSME2.params):
                continue
            trace = run(SSME2, PATH2, cfg, SynchronousDaemon(), max_steps=20)
            assert all(
                is_unison_legitimate(c, PATH2, SSME2.params)
                for c in trace.configs
            )

    def test_stem_start_converges_in_alpha_steps(self):
        init = (-SSME2.alpha,) * 2
        trace = run(SSME2, PATH2, init, SynchronousDaemon(), max_steps=30)
        assert trace.configs[SSME2.alpha] == (0, 0)
        assert convergence_index_au(trace) == SSME2.alpha
        assert convergence_index_me(trace) == 0

    def test_single_vertex_ticks_forever(self):
        g1 = generate("path:1")
        p1 = SsmeProtocol.for_graph(g1)  # alpha=1, ring=3, threshold 2
        trace = run(p1, g1, (-1,), SynchronousDaemon(), max_steps=13)
        assert trace.reason == REASON_MAX_STEPS
        assert trace.steps == 13
        cs = [i for i, ev in enumerate(trace.cs_events) if ev]
        assert cs == [i for i in range(13) if trace.configs[i][0] == 2]
        assert len(cs) >= 4

    def test_terminal_reason(self):
        trace = run(IdleProtocol(), PATH2, (0, 0), SynchronousDaemon())
        assert trace.reason == REASON_TERMINAL
        assert trace.steps == 0

    def test_converged_reason_with_tail(self):
        trace = run(
            SSME2, PATH2, (4, 6), SynchronousDaemon(),
            max_steps=60, stop_at_legitimate=True, tail=3,
        )
        assert trace.reason == REASON_CONVERGED
        assert convergence_index_me(trace) == 1

    @pytest.mark.parametrize(
        "protocol, g, init, match",
        [
            (SsmeProtocol.for_graph(RING4), RING4, (999, 0, 0, 0), "holds 999"),
            (DijkstraProtocol.for_graph(RING4), RING4, (7, -2, 0, 0), "holds 7"),
            (SsmeProtocol.for_graph(RING4), RING4, (0, 0, 0), "has 3 values"),
        ],
        ids=["ssme-out-of-domain", "dijkstra-out-of-domain", "wrong-length"],
    )
    def test_init_outside_the_state_space_is_rejected(self, protocol, g, init, match):
        with pytest.raises(ValueError, match=match):
            run(protocol, g, init, SynchronousDaemon(), max_steps=50)

    def test_trace_shape_invariants(self):
        policy = RandomDistributed(0.6, seed=2)
        trace = run(SSME2, PATH2, (5, 2), policy, max_steps=40)
        for i in range(trace.steps):
            before, after = trace.configs[i], trace.configs[i + 1]
            active = set(trace.activated[i])
            rules = enabled_rules(SSME2, PATH2, before)
            assert all(rules[v] is not None for v in active)
            for v in range(2):
                if v not in active:
                    assert before[v] == after[v]
            assert len(trace.rules[i]) == len(trace.activated[i])
            assert set(trace.cs_events[i]) <= active


class TestConvergenceIndices:
    def test_undetermined_when_budget_too_small(self):
        trace = run(SSME2, PATH2, (5, 2), SynchronousDaemon(), max_steps=1)
        assert convergence_index_me(trace) is None
        assert convergence_index_au(trace) is None

    def test_violation_only_at_start(self):
        trace = run(
            SSME2, PATH2, (4, 6), SynchronousDaemon(),
            max_steps=40, stop_at_legitimate=True, tail=2,
        )
        assert trace.configs[1] == (-2, -2)
        assert convergence_index_me(trace) == 1

    def test_zero_when_never_violated(self):
        trace = run(
            SSME2, PATH2, (0, 1), SynchronousDaemon(),
            max_steps=20, stop_at_legitimate=True, tail=2,
        )
        assert convergence_index_me(trace) == 0
        assert convergence_index_au(trace) == 0


class TestLiveness:
    def test_every_vertex_enters_within_two_cycles(self):
        window = 2 * SSME2.ring
        trace = run(
            SSME2, PATH2, (5, 2), SynchronousDaemon(),
            max_steps=100, stop_at_legitimate=True, tail=window,
        )
        counts = liveness_report(trace, window)
        assert all(c >= 1 for c in counts.values())

    def test_zero_window(self):
        trace = run(
            SSME2, PATH2, (0, 0), SynchronousDaemon(),
            max_steps=20, stop_at_legitimate=True, tail=0,
        )
        assert liveness_report(trace, 0) == {0: 0, 1: 0}

    def test_single_vertex_one_cycle(self):
        g1 = generate("path:1")
        p1 = SsmeProtocol.for_graph(g1)
        trace = run(
            p1, g1, (0,), SynchronousDaemon(),
            max_steps=p1.ring + 2, stop_at_legitimate=True, tail=p1.ring,
        )
        counts = liveness_report(trace, p1.ring)
        assert counts[0] >= 1


class TestIslands:
    PARAMS = ClockParams(5, 12)
    PATH3 = generate("path:3")

    def test_zero_and_nonzero_split(self):
        report = islands((0, 1, 5), self.PATH3, self.PARAMS)
        assert not report.legitimate
        assert len(report.islands) == 2
        first, second = report.islands
        assert first.vertices == frozenset({0, 1})
        assert first.has_zero
        assert first.border == frozenset({1})
        assert first.depth == 1
        assert second.vertices == frozenset({2})
        assert not second.has_zero
        assert second.depth == 0

    def test_no_islands_without_correct_registers(self):
        report = islands((-1, -1, -1), self.PATH3, self.PARAMS)
        assert not report.legitimate
        assert report.islands == ()

    def test_all_border_means_depth_zero(self):
        report = islands((0, 5, 0), self.PATH3, self.PARAMS)
        assert {isl.depth for isl in report.islands} == {0}
        for isl in report.islands:
            assert isl.border == isl.vertices

    def test_legitimate_config_flagged(self):
        report = islands((1, 1, 1), self.PATH3, self.PARAMS)
        assert report.legitimate
        assert report.islands == ()

    def test_every_correct_vertex_in_exactly_one_island(self):
        rng = random.Random(3)
        g = generate("ring:6")
        p = SsmeProtocol.for_graph(g)
        for _ in range(200):
            cfg = tuple(
                rng.randrange(-p.alpha, p.ring) for _ in range(6)
            )
            report = islands(cfg, g, p.params)
            if report.legitimate:
                continue
            for v in range(6):
                homes = [
                    isl for isl in report.islands if v in isl.vertices
                ]
                assert len(homes) == (1 if cfg[v] >= 0 else 0)


class TestLocalViews:
    def test_radius_zero(self):
        assert local_state((4, 6), PATH2, 1, 0) == {1: 6}

    def test_radius_diameter_is_whole_config(self):
        g = generate("ring:6")
        cfg = tuple(range(6))
        assert local_state(cfg, g, 2, g.diam) == {v: cfg[v] for v in range(6)}

    def test_restrict(self):
        trace = run(SSME2, PATH2, (4, 6), SynchronousDaemon(), max_steps=3)
        assert restrict_trace(trace, 0) == (4, -2, -1, 0)


class Picks:
    """A policy that selects ``pick(enabled)``."""

    def __init__(self, pick):
        self.pick = pick

    def select(self, enabled, ctx):
        return self.pick(enabled)


@pytest.mark.parametrize(
    "call, match",
    [
        (
            lambda: run(SSME2, PATH2, (0, 0), Picks(lambda en: set()), max_steps=5),
            "scheduler returned an empty selection",
        ),
        (
            # From (-2, -1) only vertex 0 is enabled.
            lambda: run(SSME2, PATH2, (-2, -1), Picks(lambda en: {1}), max_steps=5),
            r"scheduler selected non-enabled vertices \[1\]",
        ),
        (
            lambda: run(SSME2, PATH2, (0, 0), SynchronousDaemon(), max_steps=-1),
            "max_steps must be >= 0",
        ),
        (
            lambda: liveness_report(
                run(SSME2, PATH2, (0, 0), SynchronousDaemon(), max_steps=2), -1
            ),
            "window must be >= 0",
        ),
        (
            lambda: liveness_report(
                run(SSME2, PATH2, (-2, -1), SynchronousDaemon(), max_steps=0), 3
            ),
            "trace did not reach a legitimate configuration",
        ),
        (lambda: local_state((0, 0), PATH2, 2, 1), "vertex 2 out of range"),
        (lambda: local_state((0, 0), PATH2, -1, 1), "vertex -1 out of range"),
        (lambda: local_state((0, 0), PATH2, 0, -1), "radius must be >= 0"),
        (lambda: sync_worst_case(SSME2, PATH2, "bogus"), "unknown mode 'bogus'"),
    ],
    ids=[
        "run-empty-selection", "run-non-enabled-selection", "run-negative-budget",
        "liveness-negative-window", "liveness-never-legitimate",
        "local-state-vertex-past-n", "local-state-negative-vertex",
        "local-state-negative-radius", "sync-worst-case-unknown-mode",
    ],
)
def test_bad_input_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestDeterminism:
    def test_same_seed_same_trace_bytes(self):
        def once():
            policy = CentralRandom(seed=31)
            trace = run(SSME2, PATH2, (5, 2), policy, max_steps=50,
                        stop_at_legitimate=True, tail=5)
            return format_trace(trace, meta={"seed": 31})

        assert once() == once()

    def test_different_seed_diverges_somewhere(self):
        outs = set()
        for seed in range(6):
            policy = RandomDistributed(0.5, seed=seed)
            trace = run(SSME2, PATH2, (5, 2), policy, max_steps=50)
            outs.add(format_trace(trace))
        assert len(outs) > 1


class OneThreshold(SsmeProtocol):
    """Clock protocol whose vertices all share vertex 0's threshold, 2n."""

    def __init__(self, n, diam):
        super().__init__(n, diam, thresholds=(2 * n,) * n)


class TestRunStatsAgreesWithRun:
    @pytest.mark.parametrize("graph_spec", ["path:3", "ring:4"])
    def test_indices_match_full_run(self, graph_spec):
        g = generate(graph_spec)
        p = SsmeProtocol.for_graph(g)
        rng = random.Random(7)
        for i in range(40):
            init = tuple(rng.randrange(-p.alpha, p.ring) for _ in range(g.n))
            policy_a = CentralRoundRobin(g.n, seed=i)
            policy_b = CentralRoundRobin(g.n, seed=i)
            budget = p.default_max_steps(g)
            trace = run(p, g, init, policy_a, max_steps=budget,
                        stop_at_legitimate=True, tail=4)
            stats = run_stats(p, g, init, policy_b, max_steps=budget, tail=4)
            assert stats.configs[-1] == trace.configs[-1]
            assert stats.steps == trace.steps
            assert convergence_index_me(stats) == convergence_index_me(trace)
            legit_idx = next(
                (k for k, c in enumerate(trace.configs)
                 if p.is_legitimate(c, g)), -1,
            )
            assert stats.legitimate_at == legit_idx

    @pytest.mark.parametrize("stop", [True, False])
    @pytest.mark.parametrize(
        "daemon", ["sync", "central-rr", "central-rand", "central-adv", "dist-rand"]
    )
    @pytest.mark.parametrize(
        "proto, spec",
        [
            (SsmeProtocol, "path:3"),
            (SsmeProtocol, "ring:4"),
            (DijkstraProtocol, "ring:4"),
            (OneThreshold, "path:2"),
        ],
    )
    def test_trace_fields_equal_a_rescan(self, proto, spec, daemon, stop):
        g = generate(spec)
        p = proto.for_graph(g)
        domain = p.state_domain()
        rng = random.Random(11)
        inits = [tuple(rng.choice(domain) for _ in range(g.n)) for _ in range(25)]
        if isinstance(p, SsmeProtocol):
            # Legitimate, and unsafe where the vertices share a threshold.
            inits.append((p.thresholds[0],) * g.n)
        for i, init in enumerate(inits):
            trace = run(
                p, g, init, make_daemon(daemon, n=g.n, seed=i, prob=0.4),
                max_steps=60, stop_at_legitimate=stop, tail=3,
            )
            want = _rescan(trace, p, g)
            got = {f: getattr(trace, f) for f in want}
            assert got == want, init
            legit_at = want["legitimate_at"]
            assert convergence_index_me(trace) == (
                None if legit_at < 0 else want["last_unsafe"] + 1
            )
            last = want["last_illegitimate"]
            assert convergence_index_au(trace) == (
                None if last == trace.steps else last + 1
            )
            assert trace.violations == want["violations"]
            if stop:
                stats = run_stats(
                    p, g, init, make_daemon(daemon, n=g.n, seed=i, prob=0.4),
                    max_steps=60, tail=3,
                )
                assert stats.legitimate_at == legit_at
                assert stats.last_unsafe == want["last_unsafe"]
                assert stats.unsafe_after == want["unsafe_after"]


def _rescan(trace, p, g):
    """The summary fields of ``trace``, rescanned from its configurations."""
    legit = [p.is_legitimate(c, g) for c in trace.configs]
    unsafe = [len(p.privileged_vertices(c, g)) > 1 for c in trace.configs]
    legit_at = legit.index(True) if True in legit else -1
    return {
        "legitimate_at": legit_at,
        "last_unsafe": max((i for i, u in enumerate(unsafe) if u), default=-1),
        "last_illegitimate": max(
            (i for i, ok in enumerate(legit) if not ok), default=-1
        ),
        "violations": sum(unsafe),
        "unsafe_after": 0 if legit_at < 0 else sum(unsafe[legit_at + 1:]),
    }

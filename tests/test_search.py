from itertools import combinations, product

import numpy as np
import pytest

from stabsim import generate
from stabsim.engine import FalsificationError, run, step
from stabsim.daemon import SynchronousDaemon
from stabsim.protocol import DijkstraProtocol, SsmeProtocol, make_protocol
from stabsim.search import (
    _row_keys,
    _sync_scan_scalar,
    lower_bound_witness,
    ssme_unfair_step_bound,
    sync_worst_case,
    worst_case_unfair,
)


def test_unfair_step_bound_values():
    assert ssme_unfair_step_bound(2, 1) == 28
    assert ssme_unfair_step_bound(5, 2) == 655


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

    def test_budget_rejection(self):
        g = generate("ring:4")
        p = SsmeProtocol.for_graph(g)
        with pytest.raises(ValueError, match="budget"):
            sync_worst_case(p, g, "exhaustive", config_budget=1000)

    def test_sample_mode_needs_count(self):
        g = generate("path:2")
        p = SsmeProtocol.for_graph(g)
        with pytest.raises(ValueError):
            sync_worst_case(p, g, "sample", samples=0)

    def test_batched_equals_scalar_on_sampled_configs(self):
        g = generate("ring:4")
        p = SsmeProtocol.for_graph(g)
        batched = sync_worst_case(
            p, g, "sample", samples=1500, seed=13, liveness_window=2 * p.ring
        )
        rng = np.random.default_rng(13)
        rows = rng.integers(-p.alpha, p.ring, size=(1500, 4), dtype=np.int32)
        scalar = _sync_scan_scalar(
            p, g, (tuple(int(x) for x in r) for r in rows), 2 * p.ring
        )
        assert batched.max_convergence_me == scalar.max_convergence_me
        assert batched.witness_me == scalar.witness_me
        assert batched.max_convergence_legit == scalar.max_convergence_legit
        assert batched.witness_legit == scalar.witness_legit
        assert batched.unreached == scalar.unreached == 0
        assert batched.min_cs_count == scalar.min_cs_count == 1
        assert batched.unsafe_after_legitimate == 0
        assert scalar.unsafe_after_legitimate == 0

    def test_batched_step_matches_engine_step(self):
        from stabsim.search import _batch_masks, _batch_step

        g = generate("ring:4")
        p = SsmeProtocol.for_graph(g)
        rng = np.random.default_rng(5)
        rows = rng.integers(-p.alpha, p.ring, size=(100, 4), dtype=np.int32)
        thresholds = np.asarray(p.thresholds, dtype=np.int32)
        policy = SynchronousDaemon()
        for depth in range(4):
            na, conv, ra, enabled, priv, legit = _batch_masks(
                rows, g, p.ring, thresholds
            )
            nxt = _batch_step(rows, na, conv, ra, p.alpha, p.ring)
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

    def test_chunked_scan_merges_correctly(self):
        g = generate("path:2")
        p = SsmeProtocol.for_graph(g)
        whole = sync_worst_case(p, g, "exhaustive")
        chunked = sync_worst_case(p, g, "exhaustive", chunk_rows=7)
        assert whole.max_convergence_me == chunked.max_convergence_me
        assert whole.witness_me == chunked.witness_me
        assert whole.runs == chunked.runs == 100

    @pytest.mark.parametrize("spec", ["path:3", "complete:3"])
    def test_window_classes_match_scalar(self, spec):
        g = generate(spec)
        p = SsmeProtocol.for_graph(g)
        window = 2 * p.ring
        batched = sync_worst_case(p, g, "exhaustive", liveness_window=window)
        scalar = sync_worst_case(
            p, g, "exhaustive", liveness_window=window, force_scalar=True
        )
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
    def test_window_classes_chunked(self, spec):
        g = generate(spec)
        p = SsmeProtocol.for_graph(g)
        window = 2 * p.ring
        whole = sync_worst_case(p, g, "exhaustive", liveness_window=window)
        chunked = sync_worst_case(
            p, g, "exhaustive", liveness_window=window, chunk_rows=7
        )
        assert chunked == whole
        assert whole.cs_witness is not None

    @pytest.mark.parametrize("window", [None, "2K"])
    @pytest.mark.parametrize("chunk_rows", [7, None])
    def test_unsafe_counts_each_run_alone(self, window, chunk_rows):
        # With one shared threshold the legitimate set is not ME-safe, so
        # the count depends on where each run ends.
        g = generate("path:2")
        p = OneThreshold.for_graph(g)
        w = None if window is None else 2 * p.ring
        chunking = {} if chunk_rows is None else {"chunk_rows": chunk_rows}
        batched = sync_worst_case(p, g, "exhaustive", liveness_window=w, **chunking)
        scalar = sync_worst_case(
            p, g, "exhaustive", liveness_window=w, force_scalar=True
        )
        for field in (
            "unsafe_after_legitimate",
            "runs",
            "unreached",
            "max_convergence_legit",
        ):
            assert getattr(batched, field) == getattr(scalar, field), field
        if window is None:
            assert batched.max_convergence_me == scalar.max_convergence_me
        else:
            assert batched.unsafe_after_legitimate > 0

    def test_row_keys_renumber_before_overflow(self):
        rng = np.random.default_rng(3)
        radix = 1 << 40
        rows = rng.integers(0, 4, size=(300, 3)) * (radix // 4)
        keys = _row_keys([rows[:, c] for c in range(3)], [radix] * 3)
        _, by_row = np.unique(rows, axis=0, return_inverse=True)
        _, by_key = np.unique(keys, return_inverse=True)
        assert np.array_equal(by_row.ravel(), by_key)


class OneThreshold(SsmeProtocol):
    """Clock protocol whose vertices all share vertex 0's threshold."""

    def __init__(self, n, diam):
        super().__init__(n, diam)
        self.thresholds = (self.thresholds[0],) * n


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

    def test_branch_cap_rejection(self):
        class Frozen(Toggler):
            """One value per vertex; every vertex is enabled and stays put."""

            def state_domain(self):
                return range(1)

            def apply(self, v, rule, config, g):
                return config[v]

        with pytest.raises(ValueError, match="branching cap"):
            worst_case_unfair(Frozen(), generate("path:17"), state_budget=10)

    def test_stuck_state_is_reported(self):
        class Stuck:
            name = "stuck"
            reset_rule = None

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

        g = generate("path:1")
        with pytest.raises(FalsificationError, match="stuck"):
            worst_case_unfair(Stuck(), g, state_budget=10)


class TestWitness:
    def test_path2(self):
        res = lower_bound_witness(generate("path:2"))
        assert res.config == (4, 6)
        assert res.convergence == res.target == 1
        assert res.constructed

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
        assert res.constructed
        # two radius-1 balls planted one tick before the thresholds
        p = SsmeProtocol.for_graph(g)
        planted = [v for v in range(8) if res.config[v] != 0]
        assert len(planted) == 6
        trace = run(p, g, res.config, SynchronousDaemon(), max_steps=2)
        assert len(p.privileged_vertices(trace.configs[1], g)) == 2

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            lower_bound_witness(generate("path:1"))

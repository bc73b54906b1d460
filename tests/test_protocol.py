from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabsim import generate
from stabsim.clock import ring_distance, ssme_params
from stabsim.engine import step
from stabsim.protocol import (
    RULE_BUMP,
    RULE_CONVERGE,
    RULE_COPY,
    RULE_NORMAL,
    RULE_RESET,
    SSME_RULES,
    DijkstraProtocol,
    SsmeProtocol,
    make_protocol,
    ssme_guards,
)


PATH2 = generate("path:2")
SSME2 = SsmeProtocol.for_graph(PATH2)  # alpha=2, ring=8


class TestPrivilege:
    RING3 = generate("ring:3")
    SSME3 = SsmeProtocol(3, 1)

    def test_first_identity_threshold(self):
        assert self.SSME3.thresholds[0] == 6
        assert self.SSME3.privileged_vertices((6, 0, 0), self.RING3) == (0,)

    def test_last_identity_threshold(self):
        # 2n + 2*diam*(n-1) coincides with (2n-2)(diam+1)+2
        assert self.SSME3.thresholds[2] == 10 == (2 * 3 - 2) * (1 + 1) + 2
        assert self.SSME3.privileged_vertices((0, 0, 10), self.RING3) == (2,)

    def test_negative_register_never_privileged(self):
        for spec in ("ring:3", "ring:5", "path:2"):
            g = generate(spec)
            p = SsmeProtocol.for_graph(g)
            assert min(p.thresholds) > 0
            assert p.privileged_vertices((-1,) * g.n, g) == ()


class TestSsmeGuards:
    def test_both_normal_at_zero(self):
        for v in (0, 1):
            assert SSME2.enabled_rule(v, (0, 0), PATH2) == RULE_NORMAL

    def test_both_reset_on_wide_drift(self):
        for v in (0, 1):
            assert SSME2.enabled_rule(v, (5, 2), PATH2) == RULE_RESET

    def test_stem_climb_is_ordered(self):
        assert SSME2.enabled_rule(0, (-2, -1), PATH2) == RULE_CONVERGE
        assert SSME2.enabled_rule(1, (-2, -1), PATH2) is None

    def test_apply_rules(self):
        assert SSME2.apply(0, RULE_NORMAL, (7, 7), PATH2) == 0
        assert SSME2.apply(0, RULE_RESET, (5, 2), PATH2) == -2
        assert SSME2.apply(0, RULE_CONVERGE, (-2, -1), PATH2) == -1

    def test_apply_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            SSME2.apply(0, "XX", (0, 0), PATH2)


def test_guard_exclusivity_exhaustive():
    """Over every register value and every neighbor multiset up to degree 3,
    at most one guard holds."""
    params = ssme_params(3, 1)
    values = list(params.values())
    for r_v in values:
        for deg in (1, 2, 3):
            for neigh in combinations_with_replacement(values, deg):
                guards = ssme_guards(r_v, neigh, params.ring)
                assert sum(guards) <= 1, (r_v, neigh, guards)


def test_isolated_vertex_rule_is_a_tick():
    # No neighbors: the guards degenerate and the vertex simply ticks.  NA
    # is vacuous, so it holds beside CA on the stem and, coming first, wins.
    g = generate("path:1")
    p = SsmeProtocol.for_graph(g)
    for r in p.state_domain():
        assert p.enabled_rule(0, (r,), g) == RULE_NORMAL


def test_thresholds_spread_wider_than_diameter():
    for n in range(2, 9):
        for diam in range(1, n):
            p = ssme_params(n, diam)
            thr = [2 * n + 2 * diam * i for i in range(n)]
            for i, j in product(range(n), repeat=2):
                if i != j:
                    assert ring_distance(thr[i], thr[j], p.ring) > diam
            for t in thr:
                assert 0 < t <= p.ring - 1


class TestDijkstra:
    def test_requires_enough_states(self):
        with pytest.raises(ValueError):
            DijkstraProtocol(3, 3)

    def test_states_fit_int32(self):
        # The batch kernels hold states as int32.
        assert DijkstraProtocol(4, 2**31 - 1).k == 2**31 - 1
        with pytest.raises(ValueError, match="K <= 2147483647"):
            DijkstraProtocol(4, 2**31)

    def test_all_equal_gives_root_token(self):
        g = generate("ring:3")
        p = DijkstraProtocol.for_graph(g, 4)
        assert p.privileged_vertices((0, 0, 0), g) == (0,)
        assert p.enabled_rule(0, (0, 0, 0), g) == RULE_BUMP

    def test_distinct_values_give_two_tokens(self):
        g = generate("ring:3")
        p = DijkstraProtocol.for_graph(g, 4)
        assert p.privileged_vertices((0, 1, 2), g) == (1, 2)
        assert not p.is_legitimate((0, 1, 2), g)

    def test_copy_action(self):
        g = generate("ring:3")
        p = DijkstraProtocol.for_graph(g, 4)
        assert p.apply(1, RULE_COPY, (0, 1, 2), g) == 0
        assert p.apply(0, RULE_BUMP, (3, 3, 3), g) == 0

    def test_rejects_non_ring_graph(self):
        g = generate("path:3")
        with pytest.raises(ValueError, match="ring"):
            make_protocol("dijkstra", g)


def _assert_local(p, g, seed, rows=2000):
    """Column v of each per-vertex `Batch` field is unchanged when every
    column outside v's closed neighbourhood is redrawn.  Each row takes its
    values from two of the domain's, so that rows where neighbours agree,
    which the guards single out, are common; the redrawn columns are
    uniform."""
    rng = np.random.default_rng(seed)
    domain = p.state_domain()
    lo, hi = domain[0], domain[-1] + 1
    pairs = rng.integers(lo, hi, size=(rows, 2))
    pick = rng.integers(0, 2, size=(rows, g.n))
    R = np.take_along_axis(pairs, pick, axis=1).astype(np.int32)
    b = p.batch(R, g)
    for v in range(g.n):
        far = [u for u in range(g.n) if u != v and u not in g.adj[v]]
        moved = R.copy()
        moved[:, far] = rng.integers(lo, hi, size=(rows, len(far)))
        m = p.batch(moved, g)
        for field in ("nxt", "enabled", "priv", "hits", "tally"):
            assert np.array_equal(
                getattr(m, field)[:, v], getattr(b, field)[:, v]
            ), (field, v)


@pytest.mark.parametrize(
    "proto,spec",
    [
        ("ssme", "ring:5"),
        ("ssme", "path:4"),
        ("ssme", "grid:3x3"),
        ("dijkstra", "ring:5"),
    ],
)
def test_batch_columns_read_only_the_closed_neighbourhood(proto, spec):
    g = generate(spec)
    _assert_local(make_protocol(proto, g), g, seed=sum(map(ord, spec)))


def test_locality_check_has_teeth():
    # Frozen's freeze reads every vertex: on path:3, redrawing vertex 2
    # wakes vertex 0 on an all-bottom row.
    from test_search import Frozen

    g = generate("path:3")
    with pytest.raises(AssertionError):
        _assert_local(Frozen.for_graph(g), g, seed=3)


def test_make_protocol():
    g = generate("ring:4")
    assert make_protocol("ssme", g).name == "ssme"
    assert make_protocol("dijkstra", g).k == 5
    with pytest.raises(ValueError):
        make_protocol("nope", g)


def test_protocol_graph_mismatch():
    g4 = generate("ring:4")
    g5 = generate("ring:5")
    p = SsmeProtocol.for_graph(g4)
    with pytest.raises(ValueError):
        p.check_graph(g5)


# ---------------------------------------------------------------------------
# The batch kernels against the per-vertex rules
# ---------------------------------------------------------------------------


def _assert_batch_row(p, g, cfg, b, i):
    """Row i of the kernel's `Batch` equals the scalar rules on ``cfg``."""
    rules = [p.enabled_rule(v, cfg, g) for v in range(g.n)]
    enabled = [v for v, rule in enumerate(rules) if rule is not None]
    assert b.enabled[i].tolist() == [rule is not None for rule in rules], cfg
    assert b.nxt[i].tolist() == [
        cfg[v] if rule is None else p.apply(v, rule, cfg, g)
        for v, rule in enumerate(rules)
    ], cfg
    if enabled:
        assert step(p, g, cfg, enabled) == tuple(b.nxt[i].tolist()), cfg
    assert tuple(np.flatnonzero(b.priv[i]).tolist()) == (
        p.privileged_vertices(cfg, g)
    ), cfg
    assert bool(b.legit[i]) == p.is_legitimate(cfg, g), cfg
    assert b.legit[i] == (b.tally[i].sum() == p.legit_tally), cfg
    # The moves `CentralAdversarial` counts.
    target = p.reset_rule
    assert b.hits[i].tolist() == [
        rule is not None if target is None else rule == target for rule in rules
    ], cfg


@pytest.mark.parametrize(
    "proto,spec",
    [
        ("ssme", "path:1"),
        ("ssme", "path:2"),
        ("ssme", "path:3"),
        ("ssme", "ring:3"),
        ("dijkstra", "ring:3"),
        ("dijkstra", "ring:4"),
        ("dijkstra", "ring:5"),
    ],
)
def test_batch_matches_scalar_rules_exhaustively(proto, spec):
    g = generate(spec)
    p = make_protocol(proto, g)
    configs = list(product(p.state_domain(), repeat=g.n))
    R = np.array(configs, dtype=np.int32)
    b = p.batch(R, g)
    for i, cfg in enumerate(configs):
        _assert_batch_row(p, g, cfg, b, i)
    # The ensembles hand the kernel column-major matrices.
    for row_major, col_major in zip(b, p.batch(np.asfortranarray(R), g)):
        assert np.array_equal(row_major, col_major)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    prob=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_guards_rule_and_kernel_agree_on_random_graphs(n, prob, seed, data):
    g = generate(f"random:{n}:{prob}:{seed}")
    p = SsmeProtocol.for_graph(g)
    domain = p.state_domain()
    configs = data.draw(
        st.lists(
            st.tuples(*[st.integers(domain[0], domain[-1])] * n),
            min_size=1,
            max_size=20,
        )
    )
    b = p.batch(np.array(configs, dtype=np.int32), g)
    for i, cfg in enumerate(configs):
        _assert_batch_row(p, g, cfg, b, i)


def _boundary_rows(p, n, rng):
    """Rows that put every boundary value of ``p``'s domain at every vertex,
    rows drawn from the boundary values and their neighbours, rows in
    unison around them, rows on the stem and uniform rows."""
    lo, top, ring = -p.alpha, p.ring - 1, p.ring
    edges = sorted({lo, -1, 0, 1, ring - 2, top, *p.thresholds})
    near = sorted({e + d for e in edges for d in (-1, 0, 1)} & set(p.state_domain()))

    def uniform(rows, high=top):
        return rng.integers(lo, high + 1, size=(rows, n), dtype=np.int32)

    one_each = uniform(len(edges) * n)
    for i, (e, v) in enumerate(product(edges, range(n))):
        one_each[i, v] = e
    unison = np.array(
        [(e + rng.integers(0, 2, size=n)) % ring for e in edges if e >= 0] * 4,
        dtype=np.int32,
    )
    return np.concatenate([
        one_each,
        rng.choice(near, size=(200, n)).astype(np.int32),
        unison,
        uniform(100, high=1),
        uniform(100),
    ])


@pytest.mark.parametrize("spec", ["ring:8", "grid:3x3", "complete:5", "path:6"])
def test_batch_matches_scalar_rules_at_the_boundaries(spec):
    g = generate(spec)
    p = SsmeProtocol.for_graph(g)
    R = _boundary_rows(p, g.n, np.random.default_rng(sum(map(ord, spec))))
    b = p.batch(R, g)
    rules = {p.enabled_rule(v, tuple(row.tolist()), g) for row in R for v in range(g.n)}
    assert rules == {None, *SSME_RULES}
    assert b.legit.any() and not b.legit.all()
    for i, row in enumerate(R):
        _assert_batch_row(p, g, tuple(row.tolist()), b, i)
    for row_major, col_major in zip(b, p.batch(np.asfortranarray(R), g)):
        assert np.array_equal(row_major, col_major)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("spec", ["path:1", "ring:4"])
def test_batch_rejects_values_outside_the_domain(spec, order):
    g = generate(spec)
    p = SsmeProtocol.for_graph(g)
    domain = p.state_domain()
    i32 = np.iinfo(np.int32)
    for bad in (domain[0] - 1, domain[-1] + 1, i32.min, i32.max):
        R = np.zeros((3, g.n), dtype=np.int32, order=order)
        R[1, -1] = bad
        with pytest.raises(IndexError):
            p.batch(R, g)


def test_batch_takes_int32_only():
    g = generate("ring:4")
    with pytest.raises(TypeError, match="int32"):
        SsmeProtocol.for_graph(g).batch(np.zeros((3, 4), dtype=np.int64), g)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("spec, k", [("ring:3", None), ("ring:4", 6)])
def test_token_ring_batch_rejects_values_outside_the_domain(spec, k, order):
    g = generate(spec)
    p = DijkstraProtocol.for_graph(g, k)
    i32 = np.iinfo(np.int32)
    for bad in (-1, p.k, i32.min, i32.max):
        R = np.zeros((3, g.n), dtype=np.int32, order=order)
        R[1, -1] = bad
        with pytest.raises(IndexError, match=rf"range\({p.k}\)"):
            p.batch(R, g)
    # Both ends: this row once gave nxt [7, 7, -2] with no error.
    if g.n == 3:
        with pytest.raises(IndexError):
            p.batch(np.array([[7, -2, 0]], dtype=np.int32), g)
    # The largest value is in the domain.
    top = np.full((2, g.n), p.k - 1, dtype=np.int32, order=order)
    assert p.batch(top, g).enabled[:, 0].all()


def test_token_ring_batch_takes_int32_only():
    g = generate("ring:4")
    with pytest.raises(TypeError, match="int32"):
        DijkstraProtocol.for_graph(g).batch(np.zeros((3, 4), dtype=np.int64), g)

import pytest

from stabsim import generate
from stabsim.daemon import (
    CentralAdversarial,
    CentralRandom,
    CentralRoundRobin,
    RandomDistributed,
    StepContext,
    SynchronousDaemon,
    enumerate_choices,
    make_daemon,
)
from stabsim.engine import enabled_rules
from stabsim.protocol import SsmeProtocol


def test_synchronous_returns_everything():
    assert SynchronousDaemon().select({0, 2, 3}) == {0, 2, 3}


def test_round_robin_wraps():
    policy = CentralRoundRobin(n=4)
    policy.cursor = 1
    assert policy.select({0, 2}) == {2}
    assert policy.cursor == 3
    assert policy.select({0, 2}) == {0}  # nothing >= 3, wrap to smallest


def test_central_random_is_singleton_and_seeded():
    a = CentralRandom(seed=9)
    b = CentralRandom(seed=9)
    seq_a = [a.select({0, 1, 2, 3}) for _ in range(20)]
    seq_b = [b.select({0, 1, 2, 3}) for _ in range(20)]
    assert seq_a == seq_b
    assert all(len(s) == 1 for s in seq_a)


def test_dist_rand_forced_when_p_one():
    assert RandomDistributed(1.0, seed=0).select({1}) == {1}


def test_dist_rand_nonempty_and_reproducible():
    a = RandomDistributed(0.3, seed=4)
    b = RandomDistributed(0.3, seed=4)
    for _ in range(50):
        sa = a.select({0, 1, 2, 3, 4})
        assert sa == b.select({0, 1, 2, 3, 4})
        assert sa and sa <= {0, 1, 2, 3, 4}


def test_dist_rand_rejects_bad_probability():
    with pytest.raises(ValueError):
        RandomDistributed(0.0)
    with pytest.raises(ValueError):
        RandomDistributed(1.5)


def test_adversarial_prefers_keeping_resets_alive():
    # (5, 2) on a two-vertex path: both reset-enabled.  Activating either one
    # alone leaves the other reset-enabled, so both score equally and the
    # seeded tie-break picks one of them.
    g = generate("path:2")
    p = SsmeProtocol.for_graph(g)
    cfg = (5, 2)
    rules = enabled_rules(p, g, cfg)
    ctx = StepContext(p, g, cfg, rules)
    sel = CentralAdversarial(seed=0).select({0, 1}, ctx)
    assert len(sel) == 1 and sel <= {0, 1}


def test_adversarial_needs_context():
    with pytest.raises(ValueError):
        CentralAdversarial().select({0})


def test_enumerate_choices_order():
    assert enumerate_choices({0}) == [frozenset({0})]
    assert enumerate_choices({0, 1}) == [
        frozenset({0}), frozenset({1}), frozenset({0, 1})
    ]


def test_enumerate_choices_rejects_empty_and_oversize():
    with pytest.raises(ValueError):
        enumerate_choices(set())
    with pytest.raises(ValueError, match="cap"):
        enumerate_choices(set(range(20)))


def test_make_daemon_names():
    for name in ("sync", "central-rr", "central-rand", "central-adv", "dist-rand"):
        policy = make_daemon(name, n=4, seed=1, prob=0.4)
        assert policy.name.startswith(name.split(":")[0])
    with pytest.raises(ValueError):
        make_daemon("chaotic", n=4)

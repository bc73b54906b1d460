import re

import pytest
from hypothesis import given, settings, strategies as st

from stabsim import clock


FIG = clock.ClockParams(alpha=5, ring=12)


def test_increment_on_stem():
    assert clock.increment(-5, FIG) == -4


def test_increment_wraps_ring():
    assert clock.increment(11, FIG) == 0


def test_increment_from_zero():
    assert clock.increment(0, FIG) == 1


def test_increment_rejects_out_of_range():
    with pytest.raises(ValueError):
        clock.increment(-6, FIG)
    with pytest.raises(ValueError):
        clock.increment(12, FIG)


@pytest.mark.parametrize(
    "a,b,expected",
    [(0, 0, 0), (11, 0, 1), (3, 9, 6)],
)
def test_ring_distance_examples(a, b, expected):
    assert clock.ring_distance(a, b, 12) == expected


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: clock.ClockParams(0, 5), "clock stem length must be >= 1, got 0"),
        (lambda: clock.ClockParams(3, 1), "clock ring size must be >= 2, got 1"),
        (lambda: clock.leq_local(0, 0, 1), "ring size must be >= 2, got 1"),
    ],
    ids=["stem-0", "ring-1", "leq-local-ring-1"],
)
def test_rejects_a_degenerate_clock(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_ring_distance_rejects_small_ring():
    with pytest.raises(ValueError):
        clock.ring_distance(0, 0, 1)


def test_leq_local_examples():
    assert clock.leq_local(11, 0, 12)
    assert not clock.leq_local(0, 2, 12)
    for c in range(-5, 12):
        assert clock.leq_local(c, c, 12)


def test_reset_examples():
    assert clock.reset(FIG) == -5
    assert clock.reset(clock.ClockParams(1, 4)) == -1
    assert clock.reset(clock.ssme_params(4, 2)) == -4


def test_classify_examples():
    assert clock.is_init(0, FIG) and clock.is_stab(0, FIG)


@pytest.mark.parametrize(
    "n,diam,alpha,ring",
    [(3, 1, 3, 12), (4, 2, 4, 23), (1, 0, 1, 3)],
)
def test_ssme_params_examples(n, diam, alpha, ring):
    p = clock.ssme_params(n, diam)
    assert (p.alpha, p.ring) == (alpha, ring)


def test_ssme_params_rejects_bad_input():
    with pytest.raises(ValueError):
        clock.ssme_params(0, 1)
    with pytest.raises(ValueError):
        clock.ssme_params(3, -1)


@given(st.integers(1, 20), st.integers(2, 60))
@settings(max_examples=60, deadline=None)
def test_increment_orbit(alpha, ring):
    """From the stem bottom: exactly alpha ticks to zero, then period ring."""
    p = clock.ClockParams(alpha, ring)
    c = -alpha
    for _ in range(alpha):
        c = clock.increment(c, p)
    assert c == 0
    seen = [c]
    for _ in range(2 * ring):
        c = clock.increment(c, p)
        seen.append(c)
    assert seen == [i % ring for i in range(2 * ring + 1)]


@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(2, 40))
@settings(max_examples=150, deadline=None)
def test_ring_distance_metric(a, b, ring):
    d = clock.ring_distance(a, b, ring)
    assert 0 <= d <= ring // 2
    assert d == clock.ring_distance(b, a, ring)
    assert clock.ring_distance(a, a, ring) == 0
    assert clock.locally_comparable(a, b, ring) == (
        clock.leq_local(a, b, ring) or clock.leq_local(b, a, ring)
    )


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(2, 30))
@settings(max_examples=150, deadline=None)
def test_ring_distance_triangle(a, b, c, ring):
    assert clock.ring_distance(a, c, ring) <= (
        clock.ring_distance(a, b, ring) + clock.ring_distance(b, c, ring)
    )


@given(st.integers(1, 30), st.integers(0, 29))
@settings(max_examples=100, deadline=None)
def test_ssme_params_dominate_topology_constants(n, diam):
    p = clock.ssme_params(n, diam)
    assert p.ring > n
    assert p.alpha >= n - 2

import pytest
from hypothesis import example, given, settings, strategies as st

from stabsim import graph as G


def test_build_ring4_diameter():
    g = G.build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.diam == 2
    assert g.m == 4


def test_build_path5_diameter():
    g = G.build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert g.diam == 4


def test_distance_query():
    g = G.build_graph(3, [(0, 1), (1, 2)])
    assert g.dist[0][2] == 2


def test_rejects_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        G.build_graph(4, [(0, 1), (2, 3)])


def test_rejects_out_of_range_and_loops():
    with pytest.raises(ValueError):
        G.build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        G.build_graph(3, [(1, 1)])


def test_duplicate_edges_collapse():
    g = G.build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_generators():
    assert G.generate("ring:6").m == 6
    assert G.generate("ring:6").diam == 3
    assert G.generate("complete:4").m == 6
    assert G.generate("complete:4").diam == 1
    assert G.generate("grid:2x2").m == 4
    assert G.generate("grid:2x2").diam == 2


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError):
        G.generate("ring:0")
    with pytest.raises(ValueError):
        G.generate("torus:3")


def test_random_connected_deterministic():
    a = G.random_connected(12, 0.15, seed=5)
    b = G.random_connected(12, 0.15, seed=5)
    assert a.edges == b.edges
    assert a.diam == b.diam


@pytest.mark.parametrize(
    "spec,edges",
    [
        (
            "random:12:0.1:3",
            ((0, 1), (0, 6), (0, 7), (1, 4), (2, 3), (2, 7), (3, 11), (4, 5),
             (5, 8), (8, 9), (10, 11)),
        ),
        (
            "random:10:0.05:0",
            ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 8),
             (7, 9)),
        ),
    ],
)
def test_random_connected_chains_components_pinned(spec, edges):
    # Both samples are disconnected, so these edges include the chaining.
    assert G.generate(spec).edges == edges


@pytest.mark.parametrize("n", range(1, 9))
def test_ring_path_diameters(n):
    assert G.ring(n).diam == n // 2
    assert G.path(n).diam == n - 1


def test_file_roundtrip(tmp_path):
    g = G.generate("grid:2x3")
    target = tmp_path / "g.txt"
    G.save_graph(g, target)
    back = G.load_graph(target)
    assert back.edges == g.edges
    assert back.diam == g.diam


def test_parse_comments_and_errors():
    text = "# a comment\n3 2\n0 1\n# middle\n1 2\n"
    g = G.parse_graph(text)
    assert g.n == 3 and g.m == 2
    with pytest.raises(ValueError):
        G.parse_graph("3 2\n0 1\n")
    with pytest.raises(ValueError):
        G.parse_graph("")


def test_load_missing_file():
    with pytest.raises(ValueError, match="not found"):
        G.load_graph("/definitely/not/here.txt")


@given(
    st.builds(
        G.random_connected,
        st.integers(2, 16), st.floats(0.05, 0.9), st.integers(0, 10_000),
    )
)
@example(G.generate("ring:5"))
@example(G.generate("path:4"))
@example(G.generate("grid:2x3"))
@example(G.generate("complete:4"))
@settings(max_examples=60, deadline=None)
def test_matrix_agrees_with_per_query_bfs(g):
    for v in range(g.n):
        assert list(g.dist[v]) == G.bfs_distances(g.adj, v)
    assert g.diam == max(max(row) for row in g.dist)
    for v in range(g.n):
        assert g.dist[v][v] == 0
        for u in range(g.n):
            assert g.dist[v][u] == g.dist[u][v]

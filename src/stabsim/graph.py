"""Undirected connected communication graphs with precomputed metrics.

Vertices are identified by 0..n-1.  Every graph carries its all-pairs
shortest-path matrix (in hops) and diameter, computed at construction;
disconnected input is rejected because the rest of the system has no
semantics for infinite distance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]
    dist: tuple[tuple[int, ...], ...]
    diam: int

    @property
    def m(self) -> int:
        return len(self.edges)


def _frontier_distances(adj: Sequence[Sequence[int]], source: int) -> list[int]:
    # Level-set BFS: expand whole frontiers, recording the level at first sight.
    n = len(adj)
    seen = {source: 0}
    level = 0
    frontier = {source}
    while frontier:
        level += 1
        nxt = set()
        for v in frontier:
            for u in adj[v]:
                if u not in seen:
                    seen[u] = level
                    nxt.add(u)
        frontier = nxt
    return [seen.get(v, -1) for v in range(n)]


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate, normalize and measure a graph given as vertex count + edge pairs.

    Rejects out-of-range endpoints, self-loops and disconnected graphs.
    Duplicate pairs (either orientation) collapse to one edge.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    norm: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        norm.add((u, v) if u < v else (v, u))
    edge_tuple = tuple(sorted(norm))
    adj_lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_tuple:
        adj_lists[u].append(v)
        adj_lists[v].append(u)
    adj = tuple(tuple(sorted(a)) for a in adj_lists)
    dist_rows = []
    for v in range(n):
        row = _frontier_distances(adj, v)
        if any(d < 0 for d in row):
            missing = [u for u, d in enumerate(row) if d < 0]
            raise ValueError(
                f"graph is disconnected: no path from {v} to {missing[:5]}"
            )
        dist_rows.append(tuple(row))
    diam = max(max(row) for row in dist_rows)
    return Graph(n=n, edges=edge_tuple, adj=adj, dist=tuple(dist_rows), diam=diam)


def ring(n: int) -> Graph:
    if n < 1:
        raise ValueError("ring needs at least one vertex")
    if n == 1:
        return build_graph(1, [])
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return build_graph(rows * cols, edges)


def random_connected(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample patched up to connectivity, deterministic from seed.

    When the sample is disconnected, components are chained together by an
    edge between their smallest vertices.
    """
    if n < 1:
        raise ValueError("random graph needs at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    rng = random.Random(seed)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = [False] * n
    reps = []
    for v in range(n):
        if not seen[v]:
            reps.append(v)
            for u, d in enumerate(_frontier_distances(adj, v)):
                seen[u] = seen[u] or d >= 0
    for a, b in zip(reps, reps[1:]):
        edges.add((a, b) if a < b else (b, a))
    return build_graph(n, edges)


def generate(spec: str) -> Graph:
    """Build a graph from a compact description.

    Forms: ``ring:N``, ``path:N``, ``complete:N``, ``grid:RxC``,
    ``random:N:P:SEED``.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "ring":
            return ring(int(rest))
        if kind == "path":
            return path(int(rest))
        if kind == "complete":
            return complete(int(rest))
        if kind == "grid":
            r, _, c = rest.lower().partition("x")
            return grid(int(r), int(c))
        if kind == "random":
            n_s, p_s, seed_s = rest.split(":")
            return random_connected(int(n_s), float(p_s), int(seed_s))
    except ValueError as exc:
        raise ValueError(f"bad graph spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown graph kind {kind!r} in spec {spec!r}")


def parse_graph(text: str) -> Graph:
    """Parse the plain-text format: header ``n m``, then ``u v`` per edge.

    Lines starting with ``#`` are comments.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {lines[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


def format_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def load_graph(file_path: str | Path) -> Graph:
    p = Path(file_path)
    if not p.is_file():
        raise ValueError(f"graph file not found or not a file: {p}")
    return parse_graph(p.read_text())


def save_graph(g: Graph, file_path: str | Path) -> None:
    Path(file_path).write_text(format_graph(g))

"""Input graphs and k-coloring instances.

Two text formats are accepted:

* adjacency matrix (``.adj``) -- n lines of n whitespace-separated 0/1
  entries, symmetric, zero diagonal;
* edge list (``.edg``) -- one ``i j`` pair per line, ``#`` comments ignored;
  an optional leading ``n <count>`` line pins the vertex count.

Vertices are 0-indexed everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import AsymmetricMatrix, InvalidK, MalformedMatrix, SelfLoop


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n <= 0:
            raise MalformedMatrix(f"vertex count must be positive, got {self.n}")
        for i, j in self.edges:
            if i == j:
                raise SelfLoop(f"edge ({i}, {j}) is a self-loop")
            if not (0 <= i < j < self.n):
                raise MalformedMatrix(f"edge ({i}, {j}) out of range for n={self.n}")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Edges in lexicographic (i, j) order; fixes the comparator schedule."""
        return sorted(self.edges)


@dataclass(frozen=True)
class Instance:
    """A k-coloring problem: graph plus color count and derived encoding data.

    ``c`` is the number of bits per vertex; color patterns in
    ``[k, 2**c)`` encode no legal color and must never be marked.
    """

    graph: Graph
    k: int
    c: int = field(init=False)
    invalid_colors: frozenset[int] = field(init=False)

    def __post_init__(self):
        if self.k < 2:
            raise InvalidK(f"k must be >= 2, got {self.k}")
        c = max(1, math.ceil(math.log2(self.k)))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "invalid_colors", frozenset(range(self.k, 2 ** c)))


def make_instance(graph: Graph, k: int) -> Instance:
    return Instance(graph, k)


def edges_from_pairs(n: int, pairs) -> frozenset[tuple[int, int]]:
    """Canonicalize (i, j) pairs: sort endpoints, drop duplicates."""
    canon = set()
    for i, j in pairs:
        if i == j:
            raise SelfLoop(f"edge ({i}, {j}) is a self-loop")
        canon.add((min(i, j), max(i, j)))
    return frozenset(canon)


def parse_adjacency(text: str) -> Graph:
    """Parse an adjacency-matrix text block into a Graph."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise MalformedMatrix("empty adjacency matrix")
    n = len(rows)
    matrix = []
    for r, row in enumerate(rows):
        if len(row) != n:
            raise MalformedMatrix(f"row {r} has {len(row)} entries, expected {n}")
        vals = []
        for entry in row:
            if entry not in ("0", "1"):
                raise MalformedMatrix(f"non-binary entry {entry!r} in row {r}")
            vals.append(int(entry))
        matrix.append(vals)
    for i in range(n):
        if matrix[i][i] != 0:
            raise SelfLoop(f"nonzero diagonal at vertex {i}")
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise AsymmetricMatrix(f"entries ({i},{j}) and ({j},{i}) differ")
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                      if matrix[i][j] == 1)
    return Graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list text block ("i j" per line, "#" comments)."""
    pairs = []
    declared_n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2 and declared_n is None and not pairs:
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise MalformedMatrix(
                    f"line {lineno}: non-integer vertex count in {line!r}")
            continue
        if len(parts) != 2:
            raise MalformedMatrix(f"line {lineno}: expected 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedMatrix(f"line {lineno}: non-integer endpoint in {line!r}")
        if i < 0 or j < 0:
            raise MalformedMatrix(f"line {lineno}: negative vertex index")
        pairs.append((i, j))
    n = declared_n if declared_n is not None else (
        max((max(i, j) for i, j in pairs), default=-1) + 1)
    if n <= 0:
        raise MalformedMatrix("edge list declares no vertices")
    return Graph(n, edges_from_pairs(n, pairs))


def parse_graph_file(path: str) -> Graph:
    """Dispatch on extension: .edg edge list, anything else adjacency matrix."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".edg"):
        return parse_edge_list(text)
    return parse_adjacency(text)

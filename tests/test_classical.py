import random
from itertools import product

import numpy as np
import pytest

from conftest import (TRIANGLE_K3_SOLUTIONS, all_graphs, complete_graph,
                      path_graph)
from qkcolor import classical
from qkcolor.classical import (ENUMERATION_CEILING, bitstrings,
                               decode_bitstring, encode_assignment, is_proper,
                               solutions)
from qkcolor.errors import TooLarge
from qkcolor.graphs import Graph, make_instance


def test_is_proper():
    tri = complete_graph(3)
    assert is_proper(tri, [0, 1, 2], 3)
    assert not is_proper(tri, [0, 0, 1], 3)     # monochromatic edge
    assert not is_proper(tri, [0, 1, 3], 3)     # color out of range


def test_colors_outside_the_range():
    p2 = path_graph(2)
    assert is_proper(p2, [1, 0], 2)
    for colors in ([-1, 0], [0, -3], [2, 0], [0, 5]):
        assert not is_proper(p2, colors, 2), colors
    assert not is_proper(complete_graph(3), [-1, 0, 1], 3)
    # 2**c - 1 is the widest code; one past it, or below 0, has none
    assert encode_assignment([3, 0], 2) == "1100"
    for colors, c, bad in (([-1, 0], 1, -1), ([5, 0], 2, 5), ([0, 2], 1, 2),
                           ([0, 1, -2], 3, -2)):
        with pytest.raises(ValueError, match=f"^color {bad} has no {c}-bit "
                           "code$"):
            encode_assignment(colors, c)


def test_encode_decode_roundtrip():
    assert encode_assignment([1, 2, 0], 2) == "011000"
    assert decode_bitstring("011000", 3, 2) == [1, 2, 0]
    for colors in ([0, 3], [2, 1], [3, 3]):
        assert decode_bitstring(encode_assignment(colors, 2), 2, 2) == colors


def test_triangle_solutions():
    inst = make_instance(complete_graph(3), 3)
    assert solutions(inst) == TRIANGLE_K3_SOLUTIONS


def test_uncolorable_graph_has_no_solutions():
    assert solutions(make_instance(complete_graph(3), 2)) == set()


def _filtered_product(inst):
    """Every assignment of 2**c patterns to the n vertices, filtered by
    ``is_proper``: the loop ``solutions`` replaced, kept as its reference."""
    return {encode_assignment(a, inst.c)
            for a in product(range(2 ** inst.c), repeat=inst.graph.n)
            if is_proper(inst.graph, a, inst.k)}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_solutions_equal_the_filtered_product(k):
    for n in (2, 3, 4):
        for graph in all_graphs(n):
            inst = make_instance(graph, k)
            assert solutions(inst) == _filtered_product(inst), (n, graph.edges)


def test_solutions_across_chunks(monkeypatch):
    # 7 strings per chunk: 37 chunks over the 2**8 data strings, the last
    # one short
    monkeypatch.setattr(classical, "_CHUNK", 7)
    for graph in all_graphs(4):
        inst = make_instance(graph, 3)
        assert solutions(inst) == _filtered_product(inst), graph.edges


@pytest.mark.parametrize("width", range(1, 25))
def test_bitstrings_match_format(width):
    rng = random.Random(width)
    top = 2 ** width - 1
    picks = [0, top, top // 3] + [rng.randrange(top + 1) for _ in range(40)]
    for xs in (picks, sorted(set(picks)), [], [top], [0]):
        got = bitstrings(np.array(xs, dtype=np.int64), width)
        assert got == [format(x, f"0{width}b") for x in xs], xs
        assert all(type(s) is str for s in got)


def test_bitstrings_across_chunks(monkeypatch):
    # 7 indices per chunk: the 50 indices take 8 chunks, the last one short
    monkeypatch.setattr(classical, "_CHUNK", 7)
    xs = list(range(255, 205, -1))
    assert bitstrings(np.array(xs), 8) == [format(x, "08b") for x in xs]


def test_enumeration_ceiling():
    big = Graph(ENUMERATION_CEILING + 1, frozenset())
    with pytest.raises(TooLarge):
        solutions(make_instance(big, 2))


# Independent ground truth: the chromatic polynomial by deletion-contraction.
# P(G, k) counts proper k-colorings, which must equal len(solutions) when k
# uses every bit pattern or invalid patterns are excluded by is_proper.

def _chromatic(n_vertices: frozenset, edges: frozenset, k: int) -> int:
    if not edges:
        return k ** len(n_vertices)
    e = min(edges)
    u, v = e
    deleted = edges - {e}
    # contract v into u: redirect v's edges, drop loops and duplicates
    merged = set()
    for a, b in deleted:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            merged.add((min(a2, b2), max(a2, b2)))
    return (_chromatic(n_vertices, frozenset(deleted), k)
            - _chromatic(n_vertices - {v}, frozenset(merged), k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_solution_count_matches_chromatic_polynomial(k):
    for n in (2, 3, 4):
        for graph in all_graphs(n):
            inst = make_instance(graph, k)
            expected = _chromatic(frozenset(range(n)), graph.edges, k)
            assert len(solutions(inst)) == expected, (n, sorted(graph.edges))

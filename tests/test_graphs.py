import pytest

from qkcolor.errors import (AsymmetricMatrix, InvalidK, MalformedMatrix,
                            SelfLoop)
from qkcolor.graphs import (Graph, Instance, edges_from_pairs, make_instance,
                            parse_adjacency, parse_edge_list,
                            parse_graph_file)
from qkcolor.oracle import plan_layout

K3_ADJ = "0 1 1\n1 0 1\n1 1 0\n"


def test_parse_adjacency_triangle():
    g = parse_adjacency(K3_ADJ)
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_parse_adjacency_blank_lines_ignored():
    g = parse_adjacency("\n0 1\n\n1 0\n\n")
    assert g.n == 2 and g.num_edges == 1


@pytest.mark.parametrize("text,exc", [
    ("", MalformedMatrix),
    ("0 1\n1", MalformedMatrix),            # ragged row
    ("0 2\n2 0", MalformedMatrix),          # non-binary entry
    ("0 1\n0 0", AsymmetricMatrix),
    ("1 0\n0 0", SelfLoop),                 # nonzero diagonal
])
def test_parse_adjacency_rejects(text, exc):
    with pytest.raises(exc):
        parse_adjacency(text)


def test_parse_edge_list_basic():
    g = parse_edge_list("# triangle\n0 1\n1 2  # back edge\n2 0\n")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_parse_edge_list_header_pins_vertex_count():
    g = parse_edge_list("n 5\n0 1\n")
    assert g.n == 5
    assert g.num_edges == 1


def test_parse_edge_list_infers_vertex_count():
    assert parse_edge_list("0 3\n").n == 4


def test_parse_edge_list_duplicates_collapse():
    g = parse_edge_list("0 1\n1 0\n0 1\n")
    assert g.num_edges == 1


@pytest.mark.parametrize("text", ["0 1 2\n", "a b\n", "0 -1\n", "",
                                  "n x\n0 1\n"])
def test_parse_edge_list_rejects(text):
    with pytest.raises(MalformedMatrix):
        parse_edge_list(text)


def test_parse_graph_file_dispatch(tmp_path):
    adj = tmp_path / "g.adj"
    adj.write_text(K3_ADJ)
    edg = tmp_path / "g.edg"
    edg.write_text("0 1\n1 2\n2 0\n")
    assert parse_graph_file(str(adj)).edges == parse_graph_file(str(edg)).edges


def test_graph_validation():
    with pytest.raises(SelfLoop):
        Graph(2, frozenset({(1, 1)}))
    with pytest.raises(MalformedMatrix):
        Graph(2, frozenset({(0, 5)}))
    with pytest.raises(MalformedMatrix):
        Graph(0, frozenset())


def test_graph_helpers():
    g = Graph(4, edges_from_pairs(4, [(2, 0), (1, 2)]))
    assert g.sorted_edges() == [(0, 2), (1, 2)]


def test_edges_from_pairs_rejects_self_loop():
    with pytest.raises(SelfLoop):
        edges_from_pairs(3, [(1, 1)])


@pytest.mark.parametrize("k,c,invalid", [
    (2, 1, set()),
    (3, 2, {3}),
    (4, 2, set()),
    (5, 3, {5, 6, 7}),
    (8, 3, set()),
])
def test_instance_encoding_width(k, c, invalid):
    inst = make_instance(Graph(2, frozenset({(0, 1)})), k)
    assert inst.c == c
    assert set(inst.invalid_colors) == invalid
    assert plan_layout(inst).layout.num_data == 2 * c


def test_instance_rejects_small_k():
    with pytest.raises(InvalidK):
        Instance(Graph(2, frozenset()), 1)

import numpy as np
import pytest

from netvar.graphs import (
    NodeSet,
    SampleSet,
    SampleSetError,
    biorient,
    edge_index,
    edge_pairs,
    format_sample_set,
    parse_sample_set,
    sample_set_from_edge_lists,
)


def test_parse_single_edge():
    ss = parse_sample_set("nodes A B C\ngraph\nA B\n")
    assert ss.m == 1 and ss.k == 3
    assert ss.incidence.tolist() == [[1, 0, 0]]


def test_parse_duplicate_blocks():
    text = "nodes A B C\ngraph\nA B\nB C\ngraph\nA B\nB C\n"
    ss = parse_sample_set(text)
    assert ss.m == 2
    assert np.array_equal(ss.incidence[0], ss.incidence[1])


def test_parse_directed_antiparallel_collapse():
    ss = parse_sample_set("nodes A B\ngraph\nA B\nB A\n")
    assert ss.incidence.tolist() == [[1]]


def test_parse_empty_graph_block():
    ss = parse_sample_set("nodes A B C\ngraph\ngraph\nA C\n")
    assert ss.incidence.tolist() == [[0, 0, 0], [0, 1, 0]]


def test_parse_comments_and_blanks():
    text = "# header comment\nnodes A B  # trailing\n\ngraph # block\nA B\n"
    assert parse_sample_set(text).incidence.tolist() == [[1]]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SampleSetError, match="line 3: unknown node label 'D'"):
        parse_sample_set("nodes A B C\ngraph\nA D\n")
    with pytest.raises(SampleSetError, match="line 3: self-loop"):
        parse_sample_set("nodes A B C\ngraph\nB B\n")
    with pytest.raises(SampleSetError, match="empty input"):
        parse_sample_set("# nothing\n\n")
    with pytest.raises(SampleSetError, match="no 'graph' blocks"):
        parse_sample_set("nodes A B\n")
    with pytest.raises(SampleSetError, match="line 2: edge line before"):
        parse_sample_set("nodes A B\nA B\n")
    with pytest.raises(SampleSetError, match="line 1: duplicate node labels"):
        parse_sample_set("nodes A B A\ngraph\n")
    with pytest.raises(SampleSetError, match="line 3: edge line needs two labels"):
        parse_sample_set("nodes A B C\ngraph\nA B C\n")


def test_biorient():
    assert biorient([("A", "B")]) == {("A", "B")}
    assert biorient([("A", "B"), ("B", "A")]) == {("A", "B")}
    assert biorient([("A", "B"), ("B", "C"), ("C", "B")]) == {("A", "B"), ("B", "C")}
    with pytest.raises(SampleSetError, match="self-loop"):
        biorient([("A", "A")])


def test_edge_index_three_nodes():
    nodes = NodeSet(("A", "B", "C"))
    assert edge_index(("A", "B"), nodes) == 0
    assert edge_index(("A", "C"), nodes) == 1
    assert edge_index(("B", "C"), nodes) == 2
    assert edge_index(("C", "A"), nodes) == 1  # order of the pair is irrelevant
    with pytest.raises(SampleSetError):
        edge_index(("A", "Z"), nodes)
    with pytest.raises(SampleSetError):
        edge_index(("A", "A"), nodes)


@pytest.mark.parametrize("v", range(2, 12))
def test_edge_index_is_a_bijection(v):
    nodes = NodeSet(tuple(f"n{i}" for i in range(v)))
    seen = [edge_index(p, nodes) for p in edge_pairs(nodes)]
    assert sorted(seen) == list(range(v * (v - 1) // 2))


def test_round_trip_serialization():
    rng = np.random.default_rng(5)
    for v in (2, 3, 5):
        nodes = NodeSet(tuple(f"x{i}" for i in range(v)))
        inc = rng.integers(0, 2, size=(7, nodes.k), dtype=np.uint8)
        ss = SampleSet(nodes, inc)
        again = parse_sample_set(format_sample_set(ss))
        assert again.nodes == nodes
        assert np.array_equal(again.incidence, ss.incidence)


def test_directed_dag_equals_biorientation():
    # arcs of a DAG vs its undirected edge set parse identically
    arcs = "nodes A B C D\ngraph\nA B\nA C\nB D\nC D\n"
    undirected = "nodes A B C D\ngraph\nA B\nA C\nB D\nC D\n"
    da = parse_sample_set(arcs)
    un = parse_sample_set(undirected)
    assert np.array_equal(da.incidence, un.incidence)
    # with both arc directions present the undirected side is unchanged
    both = "nodes A B C D\ngraph\nA B\nB A\nA C\nB D\nD B\nC D\n"
    assert np.array_equal(parse_sample_set(both).incidence, un.incidence)


def test_sample_set_from_edge_lists():
    ss = sample_set_from_edge_lists("ABC", [[("A", "B")], [("B", "C"), ("C", "B")]])
    assert ss.incidence.tolist() == [[1, 0, 0], [0, 0, 1]]


def test_sample_set_validation():
    nodes = NodeSet(("A", "B"))
    with pytest.raises(SampleSetError, match="0 or 1"):
        SampleSet(nodes, np.array([[2]]))
    with pytest.raises(SampleSetError, match="at least one graph"):
        SampleSet(nodes, np.zeros((0, 1), dtype=np.uint8))
    with pytest.raises(SampleSetError, match="need at least 2 nodes"):
        NodeSet(("A",))


def test_incidence_is_immutable():
    ss = parse_sample_set("nodes A B\ngraph\nA B\n")
    with pytest.raises(ValueError):
        ss.incidence[0, 0] = 0


def test_rejections_name_their_cause():
    with pytest.raises(SampleSetError, match=r"must be an m x k matrix, got shape \(3,\)"):
        SampleSet(None, np.zeros(3, dtype=np.uint8))
    with pytest.raises(SampleSetError, match=r"incidence must be m x 3, got shape \(2, 2\)"):
        SampleSet(NodeSet(("A", "B", "C")), np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(SampleSetError, match="expected 'nodes <label> ...' header"):
        parse_sample_set("graph\nA B\n")
    with pytest.raises(SampleSetError, match="cannot serialize an anonymous edge-subset"):
        format_sample_set(SampleSet(None, np.ones((1, 1), dtype=np.uint8)))
    with pytest.raises(SampleSetError, match="need at least one graph"):
        sample_set_from_edge_lists("AB", [])

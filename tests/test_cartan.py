import pytest

from qchar.cartan import (
    DiagramError,
    EXTREMAL,
    NEITHER,
    SPECIAL,
    build_diagram,
    classify_nodes,
    graph_distance,
    parse_diagram,
)


def test_a2_matrix():
    c = build_diagram("A", 2)
    assert c.nodes == (1, 2)
    assert c.c(1, 2) == c.c(2, 1) == -1
    assert c.sym == {1: 1, 2: 1}
    assert c.simply_laced


def test_d4_adjacency():
    c = build_diagram("D", 4)
    assert c.nodes == (1, 2, 3, 4)
    assert c.neighbors(2) == (1, 3, 4)
    assert c.neighbors(1) == (2,)


def test_affine_triangle_all_adjacent():
    c = build_diagram("A", 2, affine=True)
    assert c.nodes == (0, 1, 2)
    for i in c.nodes:
        for j in c.nodes:
            if i != j:
                assert c.c(i, j) == -1
    assert c.affine and c.simply_laced


@pytest.mark.parametrize("series,rank,affine", [
    ("A", 0, False), ("D", 3, False), ("E", 5, False), ("E", 9, False),
    ("F", 3, False), ("G", 3, False), ("B", 1, False), ("H", 4, False),
    ("A", 1, True), ("D", 3, True), ("B", 3, True), ("E", 5, True),
])
def test_invalid_series_rank(series, rank, affine):
    with pytest.raises(DiagramError):
        build_diagram(series, rank, affine=affine)


def test_parse_diagram():
    assert parse_diagram("A3").name == "A3"
    assert parse_diagram("E6").nodes == (1, 2, 3, 4, 5, 6)
    assert parse_diagram("A2~").affine
    with pytest.raises(DiagramError):
        parse_diagram("A3~x")
    with pytest.raises(DiagramError):
        parse_diagram("3A")


def test_symmetrizers_non_simply_laced():
    b3 = build_diagram("B", 3)
    assert b3.sym == {1: 2, 2: 2, 3: 1}
    assert b3.c(3, 2) == -2 and b3.c(2, 3) == -1
    c3 = build_diagram("C", 3)
    assert c3.sym == {1: 1, 2: 1, 3: 2}
    assert c3.c(2, 3) == -2 and c3.c(3, 2) == -1
    g2 = build_diagram("G", 2)
    assert g2.sym == {1: 3, 2: 1}
    assert g2.c(2, 1) == -3
    f4 = build_diagram("F", 4)
    assert f4.sym == {1: 2, 2: 2, 3: 1, 4: 1}
    assert f4.c(3, 2) == -2
    for c in (b3, c3, g2, f4):
        assert not c.simply_laced
        # D.C symmetric is enforced at construction; double-check here
        for i in c.nodes:
            for j in c.nodes:
                assert c.r(i) * c.c(i, j) == c.r(j) * c.c(j, i)


def test_graph_distance_examples():
    a3 = build_diagram("A", 3)
    assert graph_distance(a3, 1, 1) == 1
    assert graph_distance(a3, 1, 3) == 3
    d4 = build_diagram("D", 4)
    assert graph_distance(d4, 1, 4) == 3


def test_graph_distance_symmetric_and_triangle():
    for c in (build_diagram("A", 4), build_diagram("D", 5),
              build_diagram("E", 6), build_diagram("A", 3, affine=True)):
        for i in c.nodes:
            for j in c.nodes:
                dij = graph_distance(c, i, j)
                assert dij == graph_distance(c, j, i)
                for k in c.nodes:
                    assert graph_distance(c, i, k) <= dij + graph_distance(c, j, k) - 1


def test_classify_nodes_type_a():
    for n in (1, 2, 3, 4, 5):
        nc = classify_nodes(build_diagram("A", n))
        assert all(d is None for d in nc.d.values())
        if n >= 2:
            assert nc.kind[1] == EXTREMAL and nc.kind[n] == EXTREMAL
        else:
            assert nc.kind[1] == NEITHER  # no neighbors at all


def test_classify_nodes_d4():
    nc = classify_nodes(build_diagram("D", 4))
    assert nc.kind[2] == SPECIAL and nc.d[2] == 1
    for i in (1, 3, 4):
        assert nc.kind[i] == EXTREMAL and nc.d[i] == 2
    # triality: the three outer nodes carry identical classification
    assert len({(nc.kind[i], nc.d[i]) for i in (1, 3, 4)}) == 1


def test_classify_nodes_triangle():
    nc = classify_nodes(build_diagram("A", 2, affine=True))
    assert all(kind == NEITHER for kind in nc.kind.values())
    assert all(d is None for d in nc.d.values())


def test_classify_nodes_e6():
    nc = classify_nodes(build_diagram("E", 6))
    assert nc.kind[3] == SPECIAL
    assert {i for i, k in nc.kind.items() if k == EXTREMAL} == {1, 5, 6}
    assert nc.d == {1: 3, 2: 2, 3: 1, 4: 2, 5: 3, 6: 2}


def test_d_distance_matches_definition():
    # d_i <= min over special nodes of d(i, s); equality on trees
    for c in (build_diagram("D", 5), build_diagram("E", 7),
              build_diagram("D", 4, affine=True), build_diagram("E", 6, affine=True),
              build_diagram("E", 7, affine=True), build_diagram("E", 8, affine=True)):
        nc = classify_nodes(c)
        specials = [s for s in c.nodes if nc.kind[s] == SPECIAL]
        assert specials
        for i in c.nodes:
            best = min(graph_distance(c, i, s) for s in specials)
            assert nc.d[i] == best


def test_graph_distance_unreachable_and_bad_node():
    from qchar.cartan import CartanData
    two = CartanData("pair", (1, 2), {(1, 1): 2, (2, 2): 2}, {1: 1, 2: 1})
    assert graph_distance(two, 1, 2) is None
    assert graph_distance(two, 1, 1) == 1
    with pytest.raises(DiagramError):
        graph_distance(build_diagram("A", 2), 1, 5)


def test_affine_d4_center_degree_four():
    c = build_diagram("D", 4, affine=True)
    assert c.neighbors(2) == (0, 1, 3, 4)
    nc = classify_nodes(c)
    assert nc.kind[2] == SPECIAL
    assert nc.kind[0] == EXTREMAL

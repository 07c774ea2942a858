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


# the CLI prints these messages, so they are pinned exactly
_REJECTED = {
    ("A", 0, False): "rank 0 too small for series A",
    ("D", 3, False): "rank 3 too small for series D",
    ("E", 5, False): "rank 5 too small for series E",
    ("E", 9, False): "series E has ranks 6, 7, 8",
    ("F", 3, False): "rank 3 too small for series F",
    ("G", 3, False): "series G has rank 2",
    ("B", 1, False): "rank 1 too small for series B",
    ("H", 4, False): "unknown series 'H'",
    ("A", 1, True): "affine A requires rank >= 2",
    ("D", 3, True): "affine D requires rank >= 4",
    ("B", 3, True): "affine series B not supported (only simply-laced affine diagrams)",
    ("E", 5, True): "affine E has ranks 6, 7, 8",
}


@pytest.mark.parametrize("series,rank,affine", list(_REJECTED))
def test_invalid_series_rank(series, rank, affine):
    with pytest.raises(DiagramError) as exc:
        build_diagram(series, rank, affine=affine)
    assert str(exc.value) == _REJECTED[(series, rank, affine)]


def _chain(n):
    return [(i, i + 1) for i in range(1, n)]


# edge lists transcribed from the Kac table in the cartan module docstring
_KAC_AFFINE = {
    **{("A", n): _chain(n) + [(0, 1), (n, 0)] for n in range(2, 9)},
    **{("D", n): _chain(n - 2) + [(n - 2, n - 1), (n - 2, n), (0, 2)]
       for n in range(4, 9)},
    ("E", 6): _chain(5) + [(3, 6), (0, 6)],
    ("E", 7): _chain(6) + [(3, 7), (0, 1)],
    ("E", 8): _chain(7) + [(5, 8), (0, 7)],
}


def _edges(c):
    return {frozenset((i, j)) for i in c.nodes for j in c.neighbors(i)}


@pytest.mark.parametrize("series,rank", list(_KAC_AFFINE))
def test_affine_edges_match_kac_table(series, rank):
    c = build_diagram(series, rank, affine=True)
    assert c.name == f"{series}{rank}~" and c.affine and c.simply_laced
    assert c.nodes == tuple(range(rank + 1))
    assert _edges(c) == {frozenset(e) for e in _KAC_AFFINE[(series, rank)]}
    assert all(c.c(i, j) == -1 for i in c.nodes for j in c.neighbors(i))


CONSTRUCTIBLE = ([("A", n, False) for n in range(1, 9)]
                 + [(s, n, False) for s in "BC" for n in range(2, 7)]
                 + [("D", n, False) for n in range(4, 9)]
                 + [("E", n, False) for n in (6, 7, 8)]
                 + [("F", 4, False), ("G", 2, False)]
                 + [(s, n, True) for s, n in _KAC_AFFINE])


@pytest.mark.parametrize("series,rank,affine", CONSTRUCTIBLE)
def test_two_coloring_constructible(series, rank, affine):
    c = build_diagram(series, rank, affine=affine)
    color = c.two_coloring()
    # only the odd cycles A_n~, n even, are not bipartite
    if affine and series == "A" and rank % 2 == 0:
        assert color is None
        return
    assert color[c.nodes[0]] == 0
    assert set(color) == set(c.nodes) and set(color.values()) <= {0, 1}
    assert all(color[i] != color[j] for i in c.nodes for j in c.neighbors(i))


def test_two_coloring_first_node_of_each_component():
    from qchar.cartan import CartanData
    # components 3 - 2 - 1 (listed from 3) and 5 - 4, plus the isolated node 6
    nodes = (3, 2, 1, 5, 4, 6)
    cartan = {(i, i): 2 for i in nodes}
    for i, j in ((1, 2), (2, 3), (4, 5)):
        cartan[(i, j)] = cartan[(j, i)] = -1
    c = CartanData("split", nodes, cartan, {i: 1 for i in nodes})
    assert c.two_coloring() == {3: 0, 2: 1, 1: 0, 5: 0, 4: 1, 6: 0}


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

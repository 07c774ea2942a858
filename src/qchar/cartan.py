"""Dynkin diagrams, Cartan matrices and node combinatorics.

Finite series A-G and the simply-laced affine series (cycles A_n~, forked
D_n~, extended E_k~) are constructible.  Node numbering follows Kac's
enumeration:

    A_n   : chain 1 - 2 - ... - n
    B_n   : chain, node n short              (r = 2,...,2,1)
    C_n   : chain, node n long               (r = 1,...,1,2)
    D_n   : chain 1 - ... - (n-2), nodes n-1 and n attached to n-2
    E_6   : chain 1 - 2 - 3 - 4 - 5, node 6 attached to 3
    E_7   : chain 1 - ... - 6,      node 7 attached to 3
    E_8   : chain 1 - ... - 7,      node 8 attached to 5
    F_4   : chain, nodes 1,2 long            (r = 2,2,1,1)
    G_2   : node 1 long                      (r = 3,1)
    A_n~  : (n+1)-cycle on nodes 0..n        (n >= 2)
    D_n~  : D_n plus node 0 attached to 2
    E_6~ / E_7~ / E_8~ : node 0 attached to 6 / 1 / 7

Graph distance d(i,j) counts sequence length, not edge count, so
d(i,i) = 1 and adjacent nodes have distance 2.  All downstream power
bounds use this convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

EXTREMAL = "extremal"
SPECIAL = "special"
NEITHER = "neither"


# powers, relative to A_{i,q^r}, of its Y_{j}^{-1} factors for C_{j,i} = -1, -2, -3
_NEIGHBOR_POWERS = {-1: (0,), -2: (-1, 1), -3: (-2, 0, 2)}


class DiagramError(ValueError):
    """Raised for unknown series, invalid ranks or malformed diagram specs."""


class CartanData:
    """Immutable Cartan datum: node set, Cartan matrix and symmetrizer.

    ``cartan[(i, j)]`` holds C_{i,j}; missing keys off the diagonal are 0.
    ``sym[i]`` is the symmetrizer entry r_i, so D = diag(r_i) makes D.C
    symmetric and q_i = q^{r_i}.
    """

    __slots__ = ("name", "nodes", "cartan", "sym", "affine", "_adj", "_sig",
                 "_arows")

    def __init__(self, name, nodes, cartan, sym, affine=False):
        self.name = name
        self.nodes = tuple(nodes)
        self.cartan = dict(cartan)
        self.sym = dict(sym)
        self.affine = affine
        adj = {i: [] for i in self.nodes}
        for (i, j), v in sorted(self.cartan.items()):
            if i != j and v < 0:
                adj[i].append(j)
        self._adj = {i: tuple(js) for i, js in adj.items()}
        self._sig = (self.name, self.nodes, tuple(sorted(self.cartan.items())),
                     tuple(sorted(self.sym.items())))
        self._arows = {}
        self._validate()

    def _validate(self):
        for i in self.nodes:
            if self.c(i, i) != 2:
                raise DiagramError(f"C[{i},{i}] must be 2")
            if self.sym[i] < 1:
                raise DiagramError(f"symmetrizer entry r_{i} must be positive")
        for i in self.nodes:
            for j in self.nodes:
                if i == j:
                    continue
                cij, cji = self.c(i, j), self.c(j, i)
                if cij > 0 or (cij == 0) != (cji == 0):
                    raise DiagramError(f"bad Cartan entries at ({i},{j})")
                if self.sym[i] * cij != self.sym[j] * cji:
                    raise DiagramError(f"D.C not symmetric at ({i},{j})")

    def c(self, i, j) -> int:
        if i == j:
            return 2
        return self.cartan.get((i, j), 0)

    def r(self, i) -> int:
        return self.sym[i]

    def neighbors(self, i) -> tuple:
        """Nodes j adjacent to i (C_{i,j} < 0), ascending."""
        return self._adj[i]

    def degree(self, i) -> int:
        return len(self._adj[i])

    def a_row(self, i) -> tuple:
        """The root monomial A_{i,q^0} as ``((node, power), exponent)`` pairs.

        The leading Y_{i,q^{r_i}} comes first and every other entry lies at
        a lower power; A_{i,q^r} is the row with each power shifted by r.
        Built on first use and kept.
        """
        row = self._arows.get(i)
        if row is None:
            ri = self.sym[i]
            e = {(i, ri): 1, (i, -ri): 1}
            for j in self._adj[i]:
                cji = self.c(j, i)
                powers = _NEIGHBOR_POWERS.get(cji)
                if powers is None or powers[-1] >= ri:
                    raise ValueError(f"unexpected Cartan entry C[{j},{i}] = {cji}")
                for p in powers:
                    e[(j, p)] = e.get((j, p), 0) - 1
            row = self._arows[i] = tuple(e.items())
        return row

    @property
    def simply_laced(self) -> bool:
        return all(r == 1 for r in self.sym.values()) and all(
            v in (-1, 0) for (i, j), v in self.cartan.items() if i != j)

    def distances(self, sources) -> dict:
        """Sequence-length distance to the nearest of ``sources`` for every
        node reachable from them: 1 on a source, 2 on its neighbours."""
        dist = dict.fromkeys(sources, 1)
        frontier = list(dist)
        while frontier:
            nxt = []
            for u in frontier:
                for w in self._adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def two_coloring(self):
        """A proper 2-coloring of the diagram, or None if not bipartite.

        Each component's first node gets colour 0, every other node the
        parity of its distance from it.
        """
        color = {}
        for start in self.nodes:
            if start not in color:
                color.update((j, (d - 1) % 2)
                             for j, d in self.distances((start,)).items())
        if any(color[i] == color[j] for i in self.nodes for j in self._adj[i]):
            return None
        return color

    def __eq__(self, other):
        return isinstance(other, CartanData) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    def __repr__(self):
        return f"CartanData({self.name!r})"


@dataclass(frozen=True)
class NodeClassification:
    """Per-node kind (extremal / special / neither) and special-node distance.

    ``d[i]`` is the length of the shortest injective adjacency chain from i
    to a special node (1 when i itself is special); None encodes +infinity
    when the diagram has no special node.
    """

    kind: dict
    d: dict


def _chain_edges(n):
    return [(i, i + 1) for i in range(1, n)]


_SERIES_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}
_AFFINE_MIN_RANK = {"A": 2, "D": 4, "E": 6}


def build_diagram(series: str, rank: int, affine: bool = False) -> CartanData:
    """Construct the Cartan datum for a series letter and rank.

    Affine construction is restricted to the simply-laced affine diagrams
    A_n~ (n >= 2), D_n~ (n >= 4) and E_6~/E_7~/E_8~; each is the finite
    diagram of the same series and rank plus node 0.
    """
    series = series.upper()
    if series not in _SERIES_MIN_RANK:
        raise DiagramError(f"unknown series {series!r}")
    if affine:
        if series not in _AFFINE_MIN_RANK:
            raise DiagramError(f"affine series {series} not supported "
                               "(only simply-laced affine diagrams)")
        if series == "E" and rank not in (6, 7, 8):
            raise DiagramError("affine E has ranks 6, 7, 8")
        if rank < _AFFINE_MIN_RANK[series]:
            raise DiagramError(f"affine {series} requires rank >= "
                               f"{_AFFINE_MIN_RANK[series]}")
    elif rank < _SERIES_MIN_RANK[series]:
        raise DiagramError(f"rank {rank} too small for series {series}")
    elif series == "E" and rank not in (6, 7, 8):
        raise DiagramError("series E has ranks 6, 7, 8")
    elif series == "F" and rank != 4:
        raise DiagramError("series F has rank 4")
    elif series == "G" and rank != 2:
        raise DiagramError("series G has rank 2")

    nodes = list(range(1, rank + 1))
    edges = _chain_edges(rank)
    if series == "D":
        edges = _chain_edges(rank - 1) + [(rank - 2, rank)]
    elif series == "E":
        edges = _chain_edges(rank - 1) + [({6: 3, 7: 3, 8: 5}[rank], rank)]
    sym = {i: 1 for i in nodes}
    # unequal-length edges: (i, j, cij, cji) with C_{i,j} = cij
    skew = []
    if series == "B":
        sym = {i: 2 for i in nodes}
        sym[rank] = 1
        skew = [(rank - 1, rank, -1, -2)]
    elif series == "C":
        sym[rank] = 2
        skew = [(rank - 1, rank, -2, -1)]
    elif series == "F":
        sym = {1: 2, 2: 2, 3: 1, 4: 1}
        skew = [(2, 3, -1, -2)]
    elif series == "G":
        sym = {1: 3, 2: 1}
        skew = [(1, 2, -1, -3)]
    if affine:
        nodes = [0] + nodes
        # node 0 closes the A chain into a cycle and extends D and E
        joins = {"A": (1, rank), "D": (2,), "E": ({6: 6, 7: 1, 8: 7}.get(rank),)}
        edges += [(0, j) for j in joins[series]]
        sym = {0: 1, **sym}

    cartan = {(i, i): 2 for i in nodes}
    for i, j in edges:
        cartan[(i, j)] = cartan[(j, i)] = -1
    for i, j, cij, cji in skew:
        cartan[(i, j)] = cij
        cartan[(j, i)] = cji
    return CartanData(f"{series}{rank}{'~' if affine else ''}", nodes, cartan,
                      sym, affine=affine)


_SPEC_RE = re.compile(r"^([A-Ga-g])(\d+)(~?)$")


def parse_diagram(text: str) -> CartanData:
    """Parse a diagram spec string such as "A3", "D4", "E6" or "A2~"."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise DiagramError(f"cannot parse diagram spec {text!r}")
    series, rank, tilde = m.group(1).upper(), int(m.group(2)), m.group(3)
    return build_diagram(series, rank, affine=bool(tilde))


def graph_distance(c: CartanData, i, j):
    """Sequence-length distance: d(i,i) = 1, adjacent nodes have d = 2.

    Returns None when j is unreachable from i.
    """
    if i not in c._adj or j not in c._adj:
        raise DiagramError(f"unknown node {i if i not in c._adj else j}")
    return c.distances((i,)).get(j)


def classify_nodes(c: CartanData) -> NodeClassification:
    """Classify each node and compute its distance to the nearest special node.

    A node is extremal when it has exactly one neighbor and special when it
    has at least three.  d[i] is the minimal length of an injective chain
    i = i_1, ..., i_d with consecutive nodes adjacent and i_d special; on
    an unweighted graph breadth-first search realizes it.
    """
    kind = {}
    for i in c.nodes:
        deg = c.degree(i)
        if deg == 1:
            kind[i] = EXTREMAL
        elif deg >= 3:
            kind[i] = SPECIAL
        else:
            kind[i] = NEITHER
    dist = c.distances([i for i in c.nodes if kind[i] == SPECIAL])
    return NodeClassification(kind=kind, d={i: dist.get(i) for i in c.nodes})

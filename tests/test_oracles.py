"""Independent cross-checks of the closure output against classical data.

Type-A string modules restrict to irreducible rectangular-shape modules of
the underlying special linear algebra, so the closure's total multiplicity
must equal the count of semistandard tableaux of that rectangle; the
first-node fundamentals have a closed ladder formula; minuscule and vector
fundamentals elsewhere have textbook dimensions and are thin.  On types A,
D and E the Kirillov-Reshetikhin characters satisfy the T-system
(Nakajima, arXiv:math/0204185), which checks actual monomials and
multiplicities where no tableau count exists.
"""

import itertools

import pytest

from qchar.cartan import build_diagram, parse_diagram
from qchar.expansion import (
    SPECIAL_FM_CONSISTENT,
    fm_algorithm,
    qchar_is_thin,
)
from qchar.monomials import Monomial, a_monomial, kr_highest


def ssyt_rectangles(letters, rows, cols):
    """Count semistandard tableaux of shape (cols^rows) with entries
    1..letters: chains of entrywise-ordered strict columns."""
    columns = [tuple(cmb) for cmb in itertools.combinations(range(1, letters + 1), rows)]
    counts = {col: 1 for col in columns}
    for _ in range(cols - 1):
        nxt = {}
        for col, ways in counts.items():
            for col2 in columns:
                if all(a <= b for a, b in zip(col, col2)):
                    nxt[col2] = nxt.get(col2, 0) + ways
        counts = nxt
    return sum(counts.values())


def test_type_a_string_dimensions_match_tableaux():
    for n in (2, 3, 4):
        c = build_diagram("A", n)
        for i in c.nodes:
            for k in (1, 2, 3, 4):
                rep = fm_algorithm(c, kr_highest(c, i, k, 0))
                assert rep.verdict == SPECIAL_FM_CONSISTENT
                expected = ssyt_rectangles(n + 1, i, k)
                assert rep.qchar.dimension() == expected, (n, i, k)


def test_type_a_first_node_fundamental_ladder():
    # V at the first chain node: n+1 terms Y_{j-1,q^{j}}^{-1} Y_{j,q^{j-1}}
    for n in (1, 2, 3, 4):
        c = build_diagram("A", n)
        rep = fm_algorithm(c, Monomial.y(1, 0))
        assert rep.verdict == SPECIAL_FM_CONSISTENT
        expected = {}
        for j in range(1, n + 2):
            e = {}
            if j > 1:
                e[(j - 1, j)] = -1
            if j <= n:
                e[(j, j - 1)] = 1
            expected[Monomial(e)] = 1
        assert rep.qchar.terms == expected, n


def test_minuscule_and_vector_fundamentals():
    e6 = build_diagram("E", 6)
    rep = fm_algorithm(e6, Monomial.y(1, 0))
    assert rep.verdict == SPECIAL_FM_CONSISTENT
    assert len(rep.qchar) == 27 and qchar_is_thin(rep.qchar)

    d5 = build_diagram("D", 5)
    rep = fm_algorithm(d5, Monomial.y(1, 0))
    assert rep.verdict == SPECIAL_FM_CONSISTENT
    assert len(rep.qchar) == 10 and qchar_is_thin(rep.qchar)
    # spin node of D5: 16-dimensional, thin
    rep = fm_algorithm(d5, Monomial.y(5, 0))
    assert rep.verdict == SPECIAL_FM_CONSISTENT
    assert len(rep.qchar) == 16 and qchar_is_thin(rep.qchar)


def test_standard_product_dominates_string_character():
    # the ordered product of fundamentals carries the string character
    # inside it, coefficient by coefficient
    for n, i, k in [(2, 1, 2), (2, 1, 3), (3, 2, 2)]:
        c = build_diagram("A", n)
        kr = fm_algorithm(c, kr_highest(c, i, k, 0)).qchar
        prod = {Monomial.one(): 1}
        for kp in range(1, k + 1):
            fund = fm_algorithm(c, Monomial.y(i, k - 2 * kp + 1)).qchar
            nxt = {}
            for m1, t1 in prod.items():
                for m2, t2 in fund.terms.items():
                    mm = m1 * m2
                    nxt[mm] = nxt.get(mm, 0) + t1 * t2
            prod = nxt
        assert sum(prod.values()) == (ssyt_rectangles(n + 1, i, 1)) ** k
        for m, t in kr.terms.items():
            assert prod.get(m, 0) >= t


# (node, k) of every checked T-system identity, per diagram.  Left out for
# the size of the left-hand product, not of any closure: D4 node 2 at k = 3
# (1,582,379 terms), D5 node 2 at k = 2 (341,594), E6 nodes 2 and 4 at
# k = 1 (86,373 each) and E6 node 3 at k = 1 (3,790,864).
T_SYSTEM_CELLS = {
    "A2": [(i, k) for i in (1, 2) for k in (1, 2, 3)],
    "A3": [(i, k) for i in (1, 2, 3) for k in (1, 2, 3)],
    "A4": [(i, k) for i in (1, 2, 3, 4) for k in (1, 2, 3)],
    "D4": [(i, k) for i in (1, 2, 3, 4) for k in (1, 2, 3) if (i, k) != (2, 3)],
    "D5": [(i, k) for i in (1, 4, 5) for k in (1, 2)] + [(2, 1), (3, 1)],
    "E6": [(i, 1) for i in (1, 5, 6)],
}


def _sum_product(*chars):
    """The product of characters whose monomials are ints that multiply by
    addition."""
    out = {0: 1}
    for char in chars:
        nxt = {}
        for m1, t1 in out.items():
            for m2, t2 in char.items():
                nxt[m1 + m2] = nxt.get(m1 + m2, 0) + t1 * t2
        out = nxt
    return out


@pytest.mark.parametrize("name", sorted(T_SYSTEM_CELLS))
def test_kr_characters_satisfy_the_t_system(name):
    # chi(W_{k,r-1}) chi(W_{k,r+1})
    #     = chi(W_{k+1,r}) chi(W_{k-1,r}) + prod_{j~i} chi(W^{(j)}_{k,r}),
    # W^{(i)}_{k,r} = L(kr_highest(c, i, k, r)), W_0 = 1
    c = parse_diagram(name)
    r = 0
    modules = set()
    for i, k in T_SYSTEM_CELLS[name]:
        modules |= {(i, k, r - 1), (i, k, r + 1), (i, k + 1, r), (i, k - 1, r)}
        modules |= {(j, k, r) for j in c.neighbors(i)}
    chars = {}
    for i, k, s in modules:
        if k == 0:
            continue  # W_0 = 1
        rep = fm_algorithm(c, kr_highest(c, i, k, s))
        assert rep.verdict == SPECIAL_FM_CONSISTENT, (name, i, k, s)
        chars[i, k, s] = rep.qchar.terms
    # a monomial as one int, a 16-bit signed digit per variable, so that
    # a product of monomials is the sum of their ints
    slot = {v: 16 * n for n, v in enumerate(sorted(
        {v for terms in chars.values() for m in terms for v, _ in m.items()}))}

    def packed(m):
        return sum(e << slot[v] for v, e in m.items())

    def w(i, k, s):
        if k == 0:
            return {0: 1}
        return {packed(m): t for m, t in chars[i, k, s].items()}

    for i, k in T_SYSTEM_CELLS[name]:
        left = _sum_product(w(i, k, r - 1), w(i, k, r + 1))
        right = _sum_product(w(i, k + 1, r), w(i, k - 1, r))
        neighbours = _sum_product(*(w(j, k, r) for j in c.neighbors(i)))
        for m, t in neighbours.items():
            right[m] = right.get(m, 0) + t
        assert left == right, (name, i, k)
        # the neighbour term starts one root step per string power below
        # the left-hand highest monomial: A_{i,p}^{-1} for p in the string at r
        top = kr_highest(c, i, k, r - 1) * kr_highest(c, i, k, r + 1)
        for p in kr_highest(c, i, k, r).node_powers(i):
            top = top * a_monomial(c, i, p) ** -1
        high = Monomial.one()
        for j in c.neighbors(i):
            high = high * kr_highest(c, j, k, r)
        assert top == high and neighbours[packed(high)] == 1, (name, i, k)

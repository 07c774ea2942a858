import json
import random

import pytest

from qchar.cartan import build_diagram
from qchar.monomials import (
    AWitness,
    Monomial,
    a_monomial,
    divide_as_a_product,
    exponent_profile,
    format_monomial,
    is_right_negative,
    is_thin_monomial,
    kr_highest,
    monomial_from_json,
    monomial_to_json,
    parse_monomial,
    witness_from_json,
    witness_to_json,
)

A1 = build_diagram("A", 1)
A2 = build_diagram("A", 2)
A3 = build_diagram("A", 3)
D4 = build_diagram("D", 4)


def test_monomial_canonical_form():
    m = Monomial({(1, 3): 2, (2, 0): 0, (1, -1): 1})
    assert m.key == (((1, -1), 1), ((1, 3), 2))
    assert m.u(2, 0) == 0
    assert m * m ** -1 == Monomial.one()
    assert (m ** 3).u(1, 3) == 6


def test_multiplication_commutes_and_cancels():
    a = parse_monomial("1_0 2_5^-2")
    b = parse_monomial("2_5^2 3_1")
    assert a * b == b * a == parse_monomial("1_0 3_1")


def _equal_routes(rng, exps):
    """Monomials equal to Monomial(exps), each built a different way."""
    items = list(exps.items())
    rng.shuffle(items)
    cut = rng.randint(0, len(items))
    a, b = Monomial(dict(items[:cut])), Monomial(dict(items[cut:]))
    z = Monomial({(rng.randint(1, 4), rng.randint(-6, 6)): rng.randint(1, 3)})
    m = Monomial(exps)
    return [Monomial(dict(items)),
            a * b, b * a,
            (a * z) * (b * z ** -1),
            m * a * a ** -1,
            (m ** -1) ** -1,
            m ** 1, (m ** -1) ** -1 * Monomial.one(),
            (m ** 3) * (m ** -2),
            parse_monomial(format_monomial(m))]


def test_equal_monomials_hash_and_compare_alike():
    rng = random.Random(20261018)
    for trial in range(400):
        exps = {(rng.randint(1, 4), rng.randint(-6, 6)):
                rng.choice([-12, -2, -1, 1, 3, 10]) for _ in range(rng.randint(0, 8))}
        want = tuple(sorted(exps.items()))
        routes = _equal_routes(rng, exps)
        read_first = trial % 2 == 0
        for m in routes:
            if read_first or rng.random() < 0.3:
                assert m.key == want
        table = {}
        for n, m in enumerate(routes):
            table.setdefault(m, n)
        assert list(table.values()) == [0]
        first = routes[0]
        for m in routes:
            assert m == first and hash(m) == hash(first) and table[m] == 0
            assert m.key == want and m.key is m.key
        # every accessor reads the key alike, whatever route built it
        u = dict(want)
        probes = list(u) + [(j, r) for j in range(1, 6) for r in (-7, 0, 7)]
        for m in routes:
            for j, r in probes:
                assert m.u(j, r) == u.get((j, r), 0)
            for j in range(1, 6):
                assert list(m.node_powers(j).items()) == [
                    (r, v) for (l, r), v in want if l == j]
                assert m.is_dominant([j]) == all(v > 0 for (l, _), v in want if l == j)
            assert m.is_dominant() == all(v > 0 for v in u.values())
            assert m.is_identity() == (not u)
            assert m.max_power() == max((r for _, r in u), default=None)
        other = first * Monomial.y(5, 0)
        assert other != first and other not in table
        # a product that cancels to the identity
        one = first * first ** -1
        assert one == Monomial.one() and hash(one) == hash(Monomial.one())
        assert one.is_identity() and one.key == ()
    assert Monomial({(1, 0): 0}) == Monomial.one()
    assert Monomial.y(1, 0) != ((1, 0), 1) and Monomial.y(1, 0) != Monomial.y(1, 0).key


def test_a_monomial_simply_laced():
    assert a_monomial(A2, 1, 1) == parse_monomial("1_0 1_2 2_1^-1")
    assert a_monomial(A1, 1, 0) == parse_monomial("1_-1 1_1")
    assert a_monomial(D4, 2, 1) == parse_monomial("2_0 2_2 1_1^-1 3_1^-1 4_1^-1")


def test_a_monomial_multiple_edge_branches():
    b2 = build_diagram("B", 2)
    # node 2 is short (r=1), its long neighbor enters through C_{1,2} = -1
    assert a_monomial(b2, 2, 0) == parse_monomial("2_-1 2_1 1_0^-1")
    # node 1 is long (r=2); C_{2,1} = -2 spreads the short neighbor over two powers
    assert a_monomial(b2, 1, 0) == parse_monomial("1_-2 1_2 2_-1^-1 2_1^-1")
    g2 = build_diagram("G", 2)
    # C_{2,1} = -3: triple spread
    assert a_monomial(g2, 1, 0) == parse_monomial("1_-3 1_3 2_-2^-1 2_0^-1 2_2^-1")


def test_kr_highest():
    assert kr_highest(A1, 1, 3, 0) == parse_monomial("1_2 1_0 1_-2")
    assert kr_highest(A3, 2, 1, 7) == parse_monomial("2_7")
    assert kr_highest(A3, 2, 3, 2) == parse_monomial("2_0 2_2 2_4")
    # q_i-string at a long node steps by 2 r_i
    b2 = build_diagram("B", 2)
    assert kr_highest(b2, 1, 2, 0) == parse_monomial("1_-2 1_2")
    with pytest.raises(ValueError):
        kr_highest(A1, 1, 0, 0)


def test_exponent_profile():
    m = parse_monomial("1_1 1_3^-1")
    u, sums, omega = exponent_profile(m, A2)
    assert u == {(1, 1): 1, (1, 3): -1}
    assert sums[1] == 0 and sums[2] == 0
    assert omega == (0, 0)

    x = kr_highest(A3, 2, 3, 0)
    _, sums, omega = exponent_profile(x, A3)
    assert sums == {1: 0, 2: 3, 3: 0}
    assert omega == (0, 3, 0)

    ainv = a_monomial(A2, 1, 1) ** -1
    _, sums, omega = exponent_profile(ainv, A2)
    assert sums == {1: -2, 2: 1}
    assert omega == (-2, 1)


def test_is_dominant():
    assert Monomial.one().is_dominant()
    assert Monomial.one().is_dominant([1])
    assert parse_monomial("1_1 3_1 2_4").is_dominant()
    assert not (a_monomial(A3, 2, 1) ** -1).is_dominant()
    m = parse_monomial("1_1 2_2^-1")
    assert m.is_dominant([1]) and not m.is_dominant([2]) and not m.is_dominant()


def test_right_negative():
    assert is_right_negative(a_monomial(A3, 1, 0) ** -1)
    prod = (a_monomial(A3, 1, 0) ** -1) * (a_monomial(A3, 2, 3) ** -1)
    assert is_right_negative(prod)
    assert not is_right_negative(parse_monomial("1_5"))
    with pytest.raises(ValueError):
        is_right_negative(Monomial.one())


def test_right_negative_orbit_shift_reduction():
    # the defining condition quantifies over spectral shifts; within one
    # orbit every shift inspects the same maximal power, so the evaluation
    # is shift invariant
    cases = [a_monomial(A3, 2, 1) ** -1,
             parse_monomial("1_0 2_3^-1 3_3^-1"),
             parse_monomial("1_4")]
    for m in cases:
        base = is_right_negative(m)
        for j in (-3, 1, 8):
            shifted = Monomial({(i, r + j): e for (i, r), e in m.items()})
            assert is_right_negative(shifted) == base


def test_thin_monomial():
    assert is_thin_monomial(Monomial.one())
    assert not is_thin_monomial(parse_monomial("1_3^2"))
    assert not is_thin_monomial(parse_monomial("1_1 1_3^2 1_5 2_4^-1"))


def test_divide_reflexive():
    m = parse_monomial("1_1 2_4 2_0^-1")
    w = divide_as_a_product(A3, m, m)
    assert w == AWitness({}) and w.total() == 0


def test_divide_single_step():
    m = kr_highest(A3, 2, 3, 2)
    mp = parse_monomial("1_1 3_1 2_4")
    w = divide_as_a_product(A3, mp, m)
    assert w is not None and w.key == (((2, 1), 1),)
    assert w.apply(A3, m) == mp


def test_divide_composed_witness():
    m = kr_highest(A3, 2, 3, 2)
    w = divide_as_a_product(A3, parse_monomial("2_2"), m)
    assert w is not None
    assert dict(w.key) == {(1, 2): 1, (3, 2): 1, (2, 1): 1, (2, 3): 1}
    assert w.apply(A3, m) == parse_monomial("2_2")


def test_divide_incomparable():
    assert divide_as_a_product(A2, parse_monomial("2_0"), parse_monomial("1_0")) is None
    assert divide_as_a_product(A2, parse_monomial("1_2"), parse_monomial("1_0")) is None
    # above rather than below: positive top exponent in the ratio
    m = kr_highest(A2, 1, 2, 0)
    assert divide_as_a_product(A2, m * a_monomial(A2, 1, 2), m) is None


def test_divide_residue_below_the_ratio():
    # eliminating from the top leaves an exponent below the ratio's lowest
    # power, up to r_i = 3 powers down on G2
    cases = [("A", 2, "1_3 2_2^-1 2_4^-2"), ("C", 3, "1_2^-1 2_1"),
             ("B", 3, "1_4^-1 2_0"), ("C", 3, "2_4^-1 3_1"),
             ("G", 2, "1_2 1_3^-2 2_0^-1")]
    for series, rank, text in cases:
        c = build_diagram(series, rank)
        assert divide_as_a_product(c, parse_monomial(text), Monomial()) is None, text


def test_witness_rejects_negative():
    with pytest.raises(ValueError):
        AWitness({(1, 0): -1})


def test_text_round_trip():
    cases = ["1", "1_0", "2_-3^-2 2_1", "1_1 1_3^2 1_5 2_4^-1", "0_2 1_2 2_2"]
    for text in cases:
        m = parse_monomial(text)
        assert format_monomial(m) == text
        assert parse_monomial(format_monomial(m)) == m
    with pytest.raises(ValueError):
        parse_monomial("1_")
    with pytest.raises(ValueError):
        parse_monomial("1_0^0")


def test_json_round_trip():
    m = parse_monomial("1_-1 2_0^-3 3_7")
    blob = json.dumps(monomial_to_json(m))
    assert monomial_from_json(json.loads(blob)) == m
    w = divide_as_a_product(A3, parse_monomial("2_2"), kr_highest(A3, 2, 3, 2))
    assert witness_from_json(witness_to_json(w)) == w

import random
from itertools import combinations

import pytest
from _sl2 import in_special_position, kr_qchar_sl2, product, standard_qchar_sl2

from qchar.cartan import build_diagram
from qchar.monomials import AWitness, Monomial, a_monomial, kr_highest
from qchar.sl2 import normal_writing, simple_qchar_sl2, sl2_divide

A1 = build_diagram("A", 1)


def Y(*pairs):
    """Rank-1 monomial as a power -> exponent dict."""
    e = {}
    for r, v in pairs:
        e[r] = e.get(r, 0) + v
    return {r: v for r, v in e.items() if v}


def _lift(e):
    return Monomial({(1, r): v for r, v in e.items()})


def _string(k, c):
    return kr_highest(A1, 1, k, c).node_powers(1)


def _apply(table, highest):
    """The monomial highest * prod A_{q^p}^{-count} named by a step table."""
    return AWitness({(1, p): x for p, x in table}).apply(A1, highest)


def _monomials(char, highest):
    """A step-keyed character as Monomial -> multiplicity on A1."""
    out = {}
    for table, t in char.items():
        mu = _apply(table, highest)
        out[mu] = out.get(mu, 0) + t
    return out


def _a_inv(p):
    return a_monomial(A1, 1, p) ** -1


def _nested_oracle(k, c):
    """Expand the nested product X (1 + A^{-1} (1 + A^{-1} (...))) literally."""
    inner = {Monomial(): 1}
    for t in range(k - 1, -1, -1):  # innermost factor first
        step = _a_inv(c + k - 2 * t)
        out = {Monomial(): 1}
        for m, mult in inner.items():
            mm = m * step
            out[mm] = out.get(mm, 0) + mult
        inner = out
    x = kr_highest(A1, 1, k, c)
    return {x * m: mult for m, mult in inner.items()}


def test_kr_qchar_small_cases():
    assert kr_qchar_sl2(1, 0) == {(): 1, ((1, 1),): 1}
    assert _monomials(kr_qchar_sl2(1, 0), _lift(Y((0, 1)))) == {
        _lift(Y((0, 1))): 1, _lift(Y((2, -1))): 1}
    assert _monomials(kr_qchar_sl2(2, 0), _lift(Y((-1, 1), (1, 1)))) == {
        _lift(Y((-1, 1), (1, 1))): 1,
        _lift(Y((-1, 1), (3, -1))): 1,
        _lift(Y((1, -1), (3, -1))): 1,
    }
    with pytest.raises(ValueError):
        kr_qchar_sl2(0, 0)


@pytest.mark.parametrize("k", range(1, 11))
def test_kr_qchar_matches_nested_oracle(k):
    for c in (0, -3, 5):
        got = kr_qchar_sl2(k, c)
        x = kr_highest(A1, 1, k, c)
        mons = _monomials(got, x)
        assert mons == _nested_oracle(k, c)
        assert len(got) == k + 1
        assert all(t == 1 for t in got.values())
        doms = [m for m in mons if m.is_dominant()]
        assert doms == [x]


def _subset_oracle(k, c):
    """Independent expansion of X prod (1 + A^{-1}) over explicit subsets."""
    steps = [_a_inv(c + k - 2 * t) for t in range(k)]
    out = {}
    for size in range(k + 1):
        for combo in combinations(range(k), size):
            m = kr_highest(A1, 1, k, c)
            for t in combo:
                m = m * steps[t]
            out[m] = out.get(m, 0) + 1
    return out


def test_standard_qchar():
    assert standard_qchar_sl2(1, 0) == kr_qchar_sl2(1, 0)
    for k in (2, 3, 4):
        got = standard_qchar_sl2(k, 0)
        assert _monomials(got, kr_highest(A1, 1, k, 0)) == _subset_oracle(k, 0)
        assert len(got) == 2 ** k
        assert all(t == 1 for t in got.values())


def test_standard_dominates_kr():
    for k in (2, 3, 5):
        kr = kr_qchar_sl2(k, 0)
        std = standard_qchar_sl2(k, 0)
        assert all(std.get(s, 0) >= t for s, t in kr.items())
        assert std != kr


def test_special_position():
    assert in_special_position(1, 0, 1, 2)       # merge is the 2-string at 1
    assert not in_special_position(3, 4, 3, 4)   # merge equals both
    assert not in_special_position(1, 0, 1, 6)   # gap
    assert not in_special_position(1, 0, 1, 1)   # mixed parity
    assert not in_special_position(3, 2, 1, 2)   # merge equals the big one
    assert in_special_position(2, 1, 2, 3)       # overlap, merge is the 3-string


def test_normal_writing_examples():
    assert normal_writing(_string(4, 6)) == ((4, 6),)
    assert normal_writing(Y((0, 1), (2, 1))) == ((2, 1),)
    assert normal_writing(Y((0, 1), (6, 1))) == ((1, 0), (1, 6))
    # overlapping content splits into nested strings
    assert normal_writing(Y((0, 1), (2, 2), (4, 1))) == ((1, 2), (3, 2))
    with pytest.raises(ValueError):
        normal_writing(Y((0, -1)))
    # at step r a string moves by 2r, so powers 2 apart do not join at r = 2
    assert normal_writing(Y((0, 1), (4, 1)), 2) == ((2, 2),)
    assert normal_writing(Y((0, 1), (2, 1)), 2) == ((1, 0), (1, 2))
    assert normal_writing(Y((0, 1), (4, 2), (8, 1)), 2) == ((1, 4), (3, 4))
    assert normal_writing(Y((-3, 1), (3, 1), (9, 1)), 3) == ((3, 3),)
    assert normal_writing(Y((0, 1), (1, 1), (6, 1)), 3) == ((1, 1), (2, 3))
    assert simple_qchar_sl2(Y((0, 1), (4, 1)), 2) == {
        (): 1, ((6, 1),): 1, ((2, 1), (6, 1)): 1}


def test_normal_writing_properties():
    rng = random.Random(7)
    for _ in range(300):
        e = {}
        for _ in range(rng.randint(1, 6)):
            r = rng.randint(-6, 6)
            e[r] = e.get(r, 0) + rng.randint(1, 3)
        nw = normal_writing(e)
        product = Monomial()
        for k, c in nw:
            product = product * kr_highest(A1, 1, k, c)
        assert product == _lift(e)
        for a in range(len(nw)):
            for b in range(a + 1, len(nw)):
                assert not in_special_position(*nw[a], *nw[b])
        # insertion order of the exponent map must not matter
        shuffled = list(e.items())
        rng.shuffle(shuffled)
        assert normal_writing(dict(shuffled)) == nw


def test_simple_qchar():
    assert simple_qchar_sl2(_string(3, -1)) == kr_qchar_sl2(3, -1)
    two_fund = Y((0, 1), (6, 1))
    char = simple_qchar_sl2(two_fund)
    assert len(char) == 4
    assert _monomials(char, _lift(two_fund)) == {
        _lift(Y((0, 1), (6, 1))): 1,
        _lift(Y((0, 1), (8, -1))): 1,
        _lift(Y((2, -1), (6, 1))): 1,
        _lift(Y((2, -1), (8, -1))): 1,
    }
    assert char[()] == 1


def test_simple_qchar_is_the_product_of_its_strings():
    # the tables are grown from count tuples, not multiplied pairwise: the
    # result must be the product over the normal writing, as a dict and in
    # insertion order, also when strings repeat or share powers
    rng = random.Random("simple is product")
    repeated = overlapping = 0
    for _ in range(300):
        e = {}
        for _ in range(rng.randint(1, 4)):  # a sum of random strings
            for r in _string(rng.randint(1, 4), rng.randint(-3, 3)):
                e[r] = e.get(r, 0) + 1
        strings = normal_writing(e)
        want = product(kr_qchar_sl2(k, c) for k, c in strings)
        got = simple_qchar_sl2(e)
        assert got == want and list(got) == list(want), e
        repeated += len(set(strings)) < len(strings)
        powers = [r for k, c in strings for r in _string(k, c)]
        overlapping += len(set(powers)) < len(powers)
    assert repeated and overlapping
    assert simple_qchar_sl2({}) == product([]) == {(): 1}


def test_simple_qchar_highest_and_cone():
    rng = random.Random(11)
    for _ in range(100):
        e = {}
        for _ in range(rng.randint(1, 4)):
            r = rng.randint(-5, 5)
            e[r] = e.get(r, 0) + rng.randint(1, 2)
        char = simple_qchar_sl2(e)
        assert char[()] == 1
        for table in char:
            assert all(x > 0 for _, x in table)
            mu = _apply(table, _lift(e)).node_powers(1)
            assert sl2_divide(mu, e) == dict(table)


def test_sl2_divide():
    x = _string(2, 0)
    assert sl2_divide(x, x) == {}
    assert sl2_divide(Y((-1, 1), (3, -1)), x) == {2: 1}
    assert sl2_divide(Y((1, -1), (3, -1)), x) == {2: 1, 0: 1}
    assert sl2_divide(Y((5, 1)), x) is None

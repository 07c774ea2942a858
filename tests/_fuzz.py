"""Seeded randomized suites shared by the property and acceptance tests."""

import random

from _monomials import exponent_profile, is_right_negative

from qchar.cartan import build_diagram
from qchar.monomials import (
    AWitness,
    Monomial,
    a_monomial,
    divide_as_a_product,
)

FUZZ_DIAGRAMS = [build_diagram("A", 2), build_diagram("A", 3),
                 build_diagram("D", 4), build_diagram("A", 2, affine=True)]
# r_i = 2 or 3: an A-row reaches 2 or 3 powers below its leading Y
MULTI_LACED = [build_diagram("B", 3), build_diagram("C", 3),
               build_diagram("F", 4), build_diagram("G", 2)]


def random_monomial(rng, c, size=4, span=5):
    e = {}
    for _ in range(rng.randint(0, size)):
        key = (rng.choice(c.nodes), rng.randint(-span, span))
        e[key] = e.get(key, 0) + rng.randint(-2, 2)
    return Monomial(e)


def random_witness(rng, c, size=4, span=4, height=2):
    v = {}
    for _ in range(rng.randint(0, size)):
        key = (rng.choice(c.nodes), rng.randint(-span, span))
        v[key] = v.get(key, 0) + rng.randint(1, height)
    return AWitness(v)


def random_right_negative(rng, c, factors=3):
    """Product of root inverses, right-negative by construction."""
    m = Monomial.one()
    for _ in range(rng.randint(1, factors)):
        m = m * (a_monomial(c, rng.choice(c.nodes), rng.randint(-4, 4)) ** -1)
    return m


def run_witness_round_trip(cases=2500, seed=101, diagrams=FUZZ_DIAGRAMS):
    """target = source * prod A^{-v} must solve back to exactly v."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        c = rng.choice(diagrams)
        source = random_monomial(rng, c)
        w = random_witness(rng, c)
        target = w.apply(c, source)
        got = divide_as_a_product(c, target, source)
        assert got == w, (c.name, source, w, got)
        checked += 1
    return checked


def run_partial_order_axioms(cases=1500, seed=202, diagrams=FUZZ_DIAGRAMS):
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        c = rng.choice(diagrams)
        m0 = random_monomial(rng, c)
        w1 = random_witness(rng, c, size=3)
        w2 = random_witness(rng, c, size=3)
        m1 = w1.apply(c, m0)
        m2 = w2.apply(c, m1)
        # reflexive
        assert divide_as_a_product(c, m0, m0) == AWitness({})
        # antisymmetric: both directions solvable forces equality
        down = divide_as_a_product(c, m1, m0)
        up = divide_as_a_product(c, m0, m1)
        assert down == w1
        if up is not None:
            assert up.total() == 0 and w1.total() == 0 and m0 == m1
        # transitive with additive witnesses
        both = divide_as_a_product(c, m2, m0)
        assert both is not None
        combined = dict(w1.items())
        for key, x in w2.items():
            combined[key] = combined.get(key, 0) + x
        assert both == AWitness(combined)
        checked += 3
    return checked


def run_right_negativity(cases=10_000, seed=303):
    """Product closure and downward closure of right-negativity."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        c = rng.choice(FUZZ_DIAGRAMS)
        a = random_right_negative(rng, c)
        b = random_right_negative(rng, c)
        prod = a * b
        if not prod.is_identity():
            assert is_right_negative(prod), (c.name, a, b)
        # downward closure: anything below a right-negative monomial is too
        below = random_witness(rng, c, size=2).apply(c, a)
        if not below.is_identity():
            assert is_right_negative(below), (c.name, a, below)
        # a right-negative monomial is never dominant
        assert not a.is_dominant()
        checked += 1
    return checked


def run_weight_bookkeeping(cases=2000, seed=404):
    """Additivity of the weight vector and the root-count deficit identity."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        c = rng.choice(FUZZ_DIAGRAMS)
        m1 = random_monomial(rng, c)
        m2 = random_monomial(rng, c)
        _, s1, o1 = exponent_profile(m1, c)
        _, s2, o2 = exponent_profile(m2, c)
        _, s12, o12 = exponent_profile(m1 * m2, c)
        assert o12 == tuple(x + y for x, y in zip(o1, o2))
        # each root step at node i shifts the weight by minus column i
        w = random_witness(rng, c, size=3)
        below = w.apply(c, m1)
        _, sb, _ = exponent_profile(below, c)
        per_node = {i: 0 for i in c.nodes}
        for (i, _), x in w.items():
            per_node[i] += x
        for j in c.nodes:
            drop = sum(c.c(j, i) * per_node[i] for i in c.nodes)
            assert sb.get(j, 0) - s1.get(j, 0) == -drop
        checked += 1
    return checked

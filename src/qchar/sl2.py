"""Closed-form rank-1 q-characters as root-step tables.

Everything here lives in a single-node lattice: a monomial is a plain dict
power -> exponent of Y_{q^r}, the root monomial is A_p = Y_{p-1} Y_{p+1},
and the string X_{k,q^c} = Y_{q^{c+k-1}} Y_{q^{c+k-3}} ... Y_{q^{c+1-k}}.

The character of a module with highest monomial m lies in m Z[A^{-1}], so
it is kept as a dict from root-step tables to multiplicities: a table is a
sorted tuple of (power, count) pairs standing for m * prod A_{q^p}^{-count}.
The simple character of a dominant monomial is the product of string
characters over its normal writing (a factorization into strings with no
two factors in special position); the tables add up as the factors
multiply, so no division recovers them afterwards.
"""

from __future__ import annotations

from .cartan import build_diagram
from .monomials import Monomial, divide_as_a_product

_A1 = build_diagram("A", 1)


def product(chars) -> dict:
    """Product of step-keyed characters: tables add, multiplicities multiply."""
    out = {(): 1}
    for char in chars:
        nxt = {}
        for s1, t1 in out.items():
            for s2, t2 in char.items():
                e = dict(s1)
                for p, x in s2:
                    e[p] = e.get(p, 0) + x
                s = tuple(sorted(e.items()))
                nxt[s] = nxt.get(s, 0) + t1 * t2
        out = nxt
    return out


def kr_qchar_sl2(k: int, c: int) -> dict:
    """Character of the simple string module X_{k,q^c}: the nested k+1 term
    formula

    X_{k,q^c} (1 + A_{q^{c+k}}^{-1} (1 + A_{q^{c+k-2}}^{-1} (... ))),

    whose tables are the prefixes of A_{c+k}, A_{c+k-2}, ..., A_{c-k+2}.
    """
    if k < 1:
        raise ValueError("string length must be >= 1")
    return {tuple((c + k - 2 * t, 1) for t in range(n - 1, -1, -1)): 1
            for n in range(k + 1)}


def normal_writing(m: dict) -> tuple:
    """Factor a dominant monomial into strings (k, c), greedily from the top.

    Repeatedly peel the maximal string downward from the highest active
    power.  Greedy peeling leaves no two factors in special position.  The
    sorted result is independent of exponent-map ordering.
    """
    if any(v < 0 for v in m.values()):
        raise ValueError(f"normal writing needs a dominant monomial, got {m!r}")
    work = {r: v for r, v in m.items() if v}
    factors = []
    while work:
        top = max(work)
        p = top
        while work.get(p, 0) > 0:
            work[p] -= 1
            if work[p] == 0:
                del work[p]
            p -= 2
        lo = p + 2
        factors.append(((top - lo) // 2 + 1, (top + lo) // 2))
    return tuple(sorted(factors))


def simple_qchar_sl2(m: dict) -> dict:
    """Character of the simple module with highest monomial m (m dominant):
    the product of string characters over a normal writing of m.

    ``product`` of the ``kr_qchar_sl2`` factors, as a dict and in insertion
    order, built without a dict copy or a sort per pair: while the tables
    grow they are count tuples over the powers any factor can step, and
    each partial table is extended by a string's prefix steps one power at
    a time (a string's tables are its step prefixes, each of multiplicity
    1).  Each distinct table becomes a (power, count) tuple once, at the end.
    """
    strings = normal_writing(m)
    powers = sorted({c + k - 2 * t for k, c in strings for t in range(k)})
    where = {p: q for q, p in enumerate(powers)}
    out = {(0,) * len(powers): 1}
    for k, c in strings:
        steps = [where[c + k - 2 * t] for t in range(k)]
        nxt = {}
        for table, t in out.items():
            nxt[table] = nxt.get(table, 0) + t
            counts = list(table)
            for q in steps:
                counts[q] += 1
                grown = tuple(counts)
                nxt[grown] = nxt.get(grown, 0) + t
        out = nxt
    return {tuple([(p, x) for p, x in zip(powers, table) if x]): t
            for table, t in out.items()}


def sl2_divide(target: dict, source: dict):
    """Solve target = source * prod A_{q^p}^{-v_p}, v >= 0; None if impossible.

    ``divide_as_a_product`` on the one-node diagram A1.
    """
    w = divide_as_a_product(_A1, Monomial({(1, r): e for r, e in target.items()}),
                            Monomial({(1, r): e for r, e in source.items()}))
    return None if w is None else {p: x for (_, p), x in w.items()}

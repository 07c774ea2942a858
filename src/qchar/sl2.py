"""Closed-form rank-1 q-characters as root-step tables.

Everything here lives in a single-node lattice of step r, the lattice of
U_{q^r}(sl2) written in powers of q: a monomial is a plain dict
power -> exponent of Y_{q^p}, the root monomial is A_p = Y_{p-r} Y_{p+r},
and the string X_{k,q^c} = Y_{q^{c+r(k-1)}} Y_{q^{c+r(k-3)}} ...
Y_{q^{c-r(k-1)}}.  A string steps by 2r, so powers in different classes
modulo 2r never meet in one; the default r = 1 is U_q(sl2) itself.

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


def normal_writing(m: dict, r: int = 1) -> tuple:
    """Factor a dominant monomial into strings (k, c) of step r, greedily
    from the top.

    Repeatedly peel the maximal string downward, in steps of 2r, from the
    highest active power.  Greedy peeling leaves no two factors in special
    position.  The sorted result is independent of exponent-map ordering.
    """
    if any(v < 0 for v in m.values()):
        raise ValueError(f"normal writing needs a dominant monomial, got {m!r}")
    work = {p: v for p, v in m.items() if v}
    factors = []
    while work:
        top = max(work)
        p = top
        while work.get(p, 0) > 0:
            work[p] -= 1
            if work[p] == 0:
                del work[p]
            p -= 2 * r
        lo = p + 2 * r
        factors.append(((top - lo) // (2 * r) + 1, (top + lo) // 2))
    return tuple(sorted(factors))


def simple_qchar_sl2(m: dict, r: int = 1) -> dict:
    """Character of the simple module with highest monomial m (m dominant)
    in the lattice of step r: the product of string characters over a
    normal writing of m, where the string (k, c) has the k+1 tables that
    are the prefixes of A_{c+rk}, A_{c+r(k-2)}, ..., A_{c-r(k-2)}.

    Built without a dict copy or a sort per pair: while the tables grow
    they are count tuples over the powers any factor can step, and each
    partial table is extended by a string's prefix steps one power at a
    time (a string's tables are its step prefixes, each of multiplicity 1).
    Each distinct table becomes a (power, count) tuple once, at the end.
    """
    strings = normal_writing(m, r)
    powers = sorted({c + r * (k - 2 * t) for k, c in strings for t in range(k)})
    where = {p: q for q, p in enumerate(powers)}
    out = {(0,) * len(powers): 1}
    for k, c in strings:
        steps = [where[c + r * (k - 2 * t)] for t in range(k)]
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

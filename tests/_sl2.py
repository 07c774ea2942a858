"""Test-side rank-1 oracles: the product of step-keyed characters, the
string and standard characters, special position of two strings, and the
node-i expansion made one residue class at a time."""

from qchar.sl2 import simple_qchar_sl2


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


def standard_qchar_sl2(k: int, c: int) -> dict:
    """Character of the ordered tensor product of k fundamentals:

    X_{k,q^c} prod_{t=0..k-1} (1 + A_{q^{c+k-2t}}^{-1}), expanded with
    multiplicity.  All 2^k products are pairwise distinct.
    """
    if k < 1:
        raise ValueError("string length must be >= 1")
    return product(kr_qchar_sl2(1, c + k - 1 - 2 * t) for t in range(k))


def in_special_position(k1: int, c1: int, k2: int, c2: int) -> bool:
    """Whether the exponent-wise max of two strings is a third, distinct string."""
    s1 = {c1 + k1 - 1 - 2 * t for t in range(k1)}
    s2 = {c2 + k2 - 1 - 2 * t for t in range(k2)}
    merged = s1 | s2
    lo, hi = min(merged), max(merged)
    if (hi - lo) % 2 != 0 or len(merged) != (hi - lo) // 2 + 1:
        return False  # gap or mixed parity: not a string
    return merged != s1 and merged != s2


def expand_by_classes(powers: dict, ri: int) -> list:
    """Node-i expansion of a restriction ``powers`` (power -> exponent) at a
    node with r_i = ``ri``, made one residue class of the power modulo r_i
    at a time: each class is rescaled to the step-1 lattice, expanded there,
    mapped back to q-powers, and the classes are multiplied.  Returns
    ``(table, multiplicity, total)`` per result, root first."""
    classes = {}
    for s, e in powers.items():
        classes.setdefault(s % ri, {})[s // ri] = e
    char = product({tuple((c0 + ri * p, x) for p, x in table): t
                    for table, t in simple_qchar_sl2(classes[c0]).items()}
                   for c0 in sorted(classes))
    return [(table, t, sum(x for _, x in table)) for table, t in char.items()]

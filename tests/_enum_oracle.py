"""Brute-force dominant-monomial oracles shared by the enumeration tests,
and the gap condition of a type-A enumeration."""

from qchar.cartan import CartanData, graph_distance
from qchar.monomials import Monomial, a_monomial, kr_highest


def box_cells(c, i, k, r):
    """The full locality box of the level-k string at node i based at power
    r: nodes within graph distance k-1, the distance-shrunk power window,
    and no parity reduction."""
    cells = []
    for j in c.nodes:
        d = graph_distance(c, i, j)
        if d is None or d > k - 1:
            continue
        for rel in range(d + 1 - k, k - d):
            cells.append((j, r + rel))
    return cells


def box_dominants(c, i, k, r, cap):
    """Independent brute force: ascending-power scan of the full locality
    box, pruning only when a power that no remaining cell can touch has
    gone negative."""
    cells = sorted(box_cells(c, i, k, r), key=lambda jp: (jp[1], jp[0]))
    steps = [dict(a_monomial(c, j, p).items()) for j, p in cells]
    expo = dict(kr_highest(c, i, k, r).items())
    found = []

    def rec(idx):
        if idx == len(cells):
            if all(v >= 0 for v in expo.values()):
                found.append(Monomial({kk: vv for kk, vv in expo.items() if vv}))
            return
        ceiling = cells[idx][1] - 2  # powers <= ceiling can no longer change
        if any(v < 0 and p <= ceiling for (_, p), v in expo.items()):
            return
        rec(idx + 1)
        applied = 0
        for _ in range(cap):
            for key, ae in steps[idx].items():
                expo[key] = expo.get(key, 0) - ae
            applied += 1
            rec(idx + 1)
        for _ in range(applied):
            for key, ae in steps[idx].items():
                expo[key] = expo.get(key, 0) + ae

    rec(0)
    return sorted(set(found), key=lambda m: m.key)


def check_type_A_form(c: CartanData, entries, k: int) -> bool:
    """Gap condition on an enumeration from the first node of a type-A chain.

    Every dominant monomial must factor as Y_{i_1,q^{l_1}}...Y_{i_R,q^{l_R}}
    with l ascending and l_{t+1} - l_t >= i_t + i_{t+1} for consecutive
    factors (exponents expand to repeated factors).
    """
    for m, _ in entries:
        factors = []
        for (i, l), e in m.items():
            if e < 0:
                return False
            factors.extend([(l, i)] * e)
        factors.sort()
        for (l1, i1), (l2, i2) in zip(factors, factors[1:]):
            if l2 - l1 < i1 + i2:
                return False
    return True

"""Test-side monomial oracles: the exponent profile, the largest power,
right negativity, thinness, a witness read back from its JSON form, and
the dict-tree JSON converter that ``cli._json_text`` must match byte for
byte under ``json.dumps(..., indent=2)``."""

from __future__ import annotations

from qchar.cartan import CartanData
from qchar.monomials import AWitness, Monomial


def exponent_profile(m: Monomial, c: CartanData | None = None):
    """Exponent table, per-node sums and the weight vector of a monomial.

    Returns ``(u, u_sums, omega)`` where u maps (node, power) to the stored
    exponent, u_sums maps each node to its power-summed exponent, and omega
    lists the fundamental-weight coefficients (u_sums per node, ordered by
    the diagram's node order when a CartanData is supplied, else by the
    sorted nodes present in m).
    """
    u = dict(m.items())
    nodes = c.nodes if c is not None else tuple(sorted({i for (i, _) in u}))
    sums = {i: 0 for i in nodes}
    for (i, _), v in u.items():
        sums[i] = sums.get(i, 0) + v
    omega = tuple(sums.get(i, 0) for i in nodes)
    return u, sums, omega


def max_power(m: Monomial):
    """Largest power carrying a nonzero exponent (None for the identity)."""
    return max((r for (_, r), _ in m.items()), default=None)


def is_right_negative(m: Monomial) -> bool:
    """True iff every exponent at the maximal active power is <= 0.

    The defining condition quantifies over spectral shifts within the
    orbit, but each shift inspects the same maximal power, so the single
    check below is equivalent (asserted by a dedicated test rather than
    assumed silently).  The identity monomial is excluded by definition.
    """
    if m.is_identity():
        raise ValueError("right-negativity is undefined for the identity monomial")
    top = max_power(m)
    return all(v <= 0 for (_, r), v in m.items() if r == top)


def is_thin_monomial(m: Monomial) -> bool:
    """True iff every exponent lies in {-1, 0, 1}."""
    return all(-1 <= v <= 1 for _, v in m.items())


def witness_from_json(data) -> AWitness:
    v = {}
    for entry in data:
        k = (int(entry["node"]), int(entry["power"]))
        v[k] = v.get(k, 0) + int(entry["count"])
    return AWitness(v)


def monomial_to_json(m: Monomial) -> list:
    return [{"node": i, "power": r, "exponent": e} for (i, r), e in m.items()]


def witness_to_json(w: AWitness) -> list:
    return [{"node": i, "power": r, "count": x} for (i, r), x in w.items()]


def plain_json(doc):
    """A report document with each Monomial and AWitness in its JSON form."""
    if isinstance(doc, dict):
        return {k: plain_json(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [plain_json(v) for v in doc]
    if isinstance(doc, Monomial):
        return monomial_to_json(doc)
    return witness_to_json(doc) if isinstance(doc, AWitness) else doc

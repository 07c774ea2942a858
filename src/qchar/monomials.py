"""Sparse Laurent monomials in the variables Y_{i,q^r} and the root monomials.

Spectral parameters live in a single q-orbit: a variable is indexed by a
node i and an integer power r standing for Y_{i,q^r}.  Everything is exact
integer arithmetic on sparse exponent maps.  A monomial stores only its
canonical key, the tuple of its nonzero ((node, power), exponent) pairs
ordered node-major then power-ascending.

The root monomial A_{i,q^r} is

    Y_{i,q^{r-r_i}} Y_{i,q^{r+r_i}}
        * prod_{C_{j,i}=-1} Y_{j,q^r}^{-1}
        * prod_{C_{j,i}=-2} Y_{j,q^{r-1}}^{-1} Y_{j,q^{r+1}}^{-1}
        * prod_{C_{j,i}=-3} Y_{j,q^{r-2}}^{-1} Y_{j,q^r}^{-1} Y_{j,q^{r+2}}^{-1}

and m' <= m means m' m^{-1} is a product of A_{i,q^r}^{-1}; the exponent
table of that product is an AWitness.
"""

from __future__ import annotations

import re

from .cartan import CartanData


class Monomial:
    """Sparse exponent map (node, power) -> nonzero integer.

    Instances are immutable values: multiplication returns fresh objects
    and zero exponents are never stored.  ``key``, the sorted item tuple,
    is the one stored form: the deterministic tie-breaker, the rendering
    order and the hash, and every accessor reads it.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, exponents=None):
        self.key = key = tuple(sorted(
            (k, v) for k, v in (exponents or {}).items() if v))
        self._hash = hash(key)

    @classmethod
    def one(cls):
        return cls()

    @classmethod
    def y(cls, i, r, e=1):
        return cls({(i, r): e})

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.key == other.key

    def __mul__(self, other):
        a, b = self.key, other.key
        if len(a) < len(b):
            a, b = b, a
        e = dict(a)
        for k, v in b:
            w = e.get(k, 0) + v
            if w:
                e[k] = w
            else:
                del e[k]
        m = Monomial.__new__(Monomial)
        m.key = key = tuple(sorted(e.items()))
        m._hash = hash(key)
        return m

    def __pow__(self, n: int):
        return Monomial({k: n * v for k, v in self.key})

    def u(self, i, r) -> int:
        """Exponent of Y_{i,q^r}."""
        return dict(self.key).get((i, r), 0)

    def node_powers(self, i) -> dict:
        """The map power -> exponent restricted to node i."""
        return {r: v for (j, r), v in self.key if j == i}

    def items(self):
        return self.key

    def is_identity(self) -> bool:
        return not self.key

    def max_power(self):
        """Largest power carrying a nonzero exponent (None for the identity)."""
        return max((r for (_, r), _ in self.key), default=None)

    def is_dominant(self, nodes=None) -> bool:
        """True iff all stored exponents at the given nodes are nonnegative.

        ``nodes`` is a collection of nodes, ``None`` for every node (plain
        dominance).
        """
        for (j, _), v in self.key:
            if v < 0 and (nodes is None or j in nodes):
                return False
        return True

    def __repr__(self):
        return f"Monomial({format_monomial(self)!r})"

    def __str__(self):
        return format_monomial(self)


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


def is_right_negative(m: Monomial) -> bool:
    """True iff every exponent at the maximal active power is <= 0.

    The defining condition quantifies over spectral shifts within the
    orbit, but each shift inspects the same maximal power, so the single
    check below is equivalent (asserted by a dedicated test rather than
    assumed silently).  The identity monomial is excluded by definition.
    """
    if m.is_identity():
        raise ValueError("right-negativity is undefined for the identity monomial")
    top = m.max_power()
    return all(v <= 0 for (_, r), v in m.items() if r == top)


def is_thin_monomial(m: Monomial) -> bool:
    """True iff every exponent lies in {-1, 0, 1}."""
    return all(-1 <= v <= 1 for _, v in m.items())


def a_monomial(c: CartanData, i, r: int) -> Monomial:
    """The root monomial A_{i,q^r}: the diagram's A-row of node i shifted by r."""
    return Monomial({(j, r + p): ae for (j, p), ae in c.a_row(i)})


def kr_highest(c: CartanData, i, k: int, r: int) -> Monomial:
    """Highest monomial of Kirillov-Reshetikhin type: a q_i-string of length k.

    X_{k,q^r}^{(i)} = prod_{k'=1..k} Y_{i, q^{r + r_i (k - 2k' + 1)}}.
    """
    if k < 1:
        raise ValueError("string length k must be >= 1")
    ri = c.r(i)
    e = {}
    for kp in range(1, k + 1):
        p = r + ri * (k - 2 * kp + 1)
        e[(i, p)] = e.get((i, p), 0) + 1
    return Monomial(e)


class AWitness:
    """Exponent table v >= 0 certifying m' = m * prod A_{i,q^r}^{-v_{i,r}}."""

    __slots__ = ("v", "key")

    def __init__(self, v=None):
        vv = {k: x for k, x in (v or {}).items() if x}
        if any(x < 0 for x in vv.values()):
            raise ValueError("witness entries must be nonnegative")
        self.v = vv
        self.key = tuple(sorted(vv.items()))

    def total(self) -> int:
        return sum(self.v.values())

    def items(self):
        return self.key

    def apply(self, c: CartanData, m: Monomial) -> Monomial:
        """m * prod A_{i,q^r}^{-v}."""
        e = dict(m.key)
        for (i, r), x in self.key:
            for (j, p), ae in c.a_row(i):
                kk = (j, r + p)
                e[kk] = e.get(kk, 0) - x * ae
        return Monomial(e)

    def __eq__(self, other):
        return isinstance(other, AWitness) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"AWitness({dict(self.key)!r})"


def divide_as_a_product(c: CartanData, target: Monomial, source: Monomial):
    """Solve target = source * prod A_{i,q^r}^{-v} with all v >= 0.

    Triangular elimination on the ratio, bucketed by power and taken from
    the top power down: at a power S only the leading Y_i of A_{i,q^{S-r_i}}
    can contribute, since every other entry of that row lies strictly
    below S, so the exponents there force v_{i,S-r_i} = -u_{i,S}; subtract
    the row into the lower buckets and go on.  Algebraic independence of
    the A's makes the table unique.  Returns None when the ratio leaves the
    nonnegative A-lattice (a positive forced exponent, a factor below the
    ratio's own support, or a residue left there).
    """
    work = dict(target.key)
    for kk, x in source.key:
        w = work.get(kk, 0) - x
        if w:
            work[kk] = w
        else:
            del work[kk]
    if not work:
        return AWitness({})
    floor = min(p for _, p in work)
    # a row reaches at most r_i below its A's power, which is >= floor
    pad = max(c.sym.values())
    lo = floor - pad
    buckets = [{} for _ in range(max(p for _, p in work) - lo + 1)]
    for (i, p), e in work.items():
        buckets[p - lo][i] = e
    v = {}
    for s in range(len(buckets) - 1, pad - 1, -1):
        for i, e in buckets[s].items():
            if not e:
                continue
            if e > 0:
                return None
            a = s - c.r(i)  # the forced factor's power, as a bucket index
            if a < pad:
                # any valid factor bottoms out inside the ratio's support
                return None
            v[(i, a + lo)] = -e
            for (j, p), ae in c.a_row(i)[1:]:
                bucket = buckets[a + p]
                bucket[j] = bucket.get(j, 0) - e * ae
    if any(any(bucket.values()) for bucket in buckets[:pad]):
        return None
    wit = AWitness(v)
    if wit.apply(c, source) != target:
        raise AssertionError("witness elimination out of step with multiplication")
    return wit


# --- text and JSON forms -------------------------------------------------

_TOKEN_RE = re.compile(r"^(\d+)_(-?\d+)(?:\^(-?\d+))?$")


def format_monomial(m: Monomial) -> str:
    """Compact text form: `i_r` factors with `^p` exponents, `1` for identity."""
    if m.is_identity():
        return "1"
    parts = []
    for (i, r), e in m.items():
        parts.append(f"{i}_{r}" if e == 1 else f"{i}_{r}^{e}")
    return " ".join(parts)


def parse_monomial(text: str) -> Monomial:
    text = text.strip()
    if text in ("", "1"):
        return Monomial()
    e = {}
    for tok in text.split():
        mt = _TOKEN_RE.match(tok)
        if not mt:
            raise ValueError(f"cannot parse monomial token {tok!r}")
        i, r = int(mt.group(1)), int(mt.group(2))
        p = int(mt.group(3)) if mt.group(3) else 1
        if p == 0:
            raise ValueError(f"zero exponent in token {tok!r}")
        e[(i, r)] = e.get((i, r), 0) + p
    return Monomial(e)


def monomial_to_json(m: Monomial) -> list:
    return [{"node": i, "power": r, "exponent": e} for (i, r), e in m.items()]


def monomial_from_json(data) -> Monomial:
    e = {}
    for entry in data:
        k = (int(entry["node"]), int(entry["power"]))
        e[k] = e.get(k, 0) + int(entry["exponent"])
    return Monomial(e)


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


def witness_from_json(data) -> AWitness:
    v = {}
    for entry in data:
        k = (int(entry["node"]), int(entry["power"]))
        v[k] = v.get(k, 0) + int(entry["count"])
    return AWitness(v)

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
    def _from_key(cls, key):
        """The monomial of an already canonical ``key``, trusted unchecked."""
        m = cls.__new__(cls)
        m.key = key
        m._hash = hash(key)
        return m

    @classmethod
    def one(cls):
        return cls()

    @classmethod
    def y(cls, i, r, e=1):
        """The single variable Y_{i,q^r} raised to ``e``."""
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
        return Monomial._from_key(tuple(sorted(e.items())))

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

    __slots__ = ("key",)

    def __init__(self, v=None):
        vv = {k: x for k, x in (v or {}).items() if x}
        if any(x < 0 for x in vv.values()):
            raise ValueError("witness entries must be nonnegative")
        self.key = tuple(sorted(vv.items()))

    @classmethod
    def _from_key(cls, key):
        """The witness of an already canonical ``key``, trusted unchecked."""
        w = cls.__new__(cls)
        w.key = key
        return w

    def total(self) -> int:
        return sum(x for _, x in self.key)

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


def monomial_from_json(data) -> Monomial:
    e = {}
    for entry in data:
        k = (int(entry["node"]), int(entry["power"]))
        e[k] = e.get(k, 0) + int(entry["exponent"])
    return Monomial(e)

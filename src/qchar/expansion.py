"""Single-node expansions, the monomial generation process and the
Frenkel-Mukhin closure.

``expand_Li`` pushes the rank-1 closed forms through a chosen node: restrict
an i-dominant monomial to its Y_i content, take the simple character of
U_{q_i}(sl2), q_i = q^{r_i}, in the rank-1 lattice of step r_i, and read
each rank-1 root step A_{q^p}^{-1} as A_{i,q^p}^{-1}.

``generate_process`` grows a set of monomials certified to occur in the
character of the simple module L(m): starting from a dominant m, any
generated monomial that is i-dominant and is not already accounted for by
the node-i expansion of a strictly greater generated monomial may itself be
expanded at i, and everything in its expansion occurs.  Every generated
monomial carries a replayable chain of (node, root, result) steps.

``fm_algorithm`` runs the Frenkel-Mukhin closure in its coloured form:
assuming the character of L(m) has no second dominant monomial, each node
i records how much of each monomial's multiplicity the node-i expansions of
higher monomials already explain, and a settling monomial expands at i with
the rest as coefficient, forcing multiplicities below it.  That is the
greedy decomposition of each node-i class (an orbit of node i's root
lattice) into rank-1 simple characters from the top, made once: expansions
never leave their root's class and settle after it, so no class is ever
re-derived.  Forcing a second dominant monomial refutes the assumption; the
refutation is then certified with a generation-process chain.

The closure and the generation process expand through one ``_Expander``
per run (per cell in the empirical pipeline), which calls
``expand_Li_steps`` once per content: the exponents of a node restriction
up to a shift by a multiple of r_i, together with r_i.  The rank-1
character reads nothing else, so nodes with one r_i that meet one content
share its step tables.  The engine alone decides whether a root is
i-dominant, and hands out the packed delta of each result but the root:
each packed restriction packs its content's rank-1 step tables once,
shifted to it, with its own node's row of A^{-1}.
Chain replay shares none of it: each step is checked against
``expand_Li``, which applies the same tables through ``AWitness.apply``.

Inside a run, the closure and the process hold each monomial packed as
one non-negative int: each node owns a slot of fixed-width fields, one per
power of a window from a base power up, and a field holds its exponent
plus half its range (excess encoding).  The base is the lowest power of
the run's start, or of the string for all runs of an empirical cell (an
expansion never reaches below its root's node restriction), and the
window is sized from the start's powers and a reach read off the Cartan
data; a field of width w holds |e| < 2^(w-1).  Since one root step moves
a field by at most 1, every exponent of a monomial T steps below the
start m stays within max |e_m| + T, and no node-i expansion reaches above
its restriction's top power plus 2 r_i, so the engine widens its fields
or its window and restarts the run before a result could leave them.  A
result is the root plus a signed packed delta, so products, equality and
hashing are on one int, and a monomial is dominant exactly when it keeps
the top bit of every field, a single ``&`` against the packed identity.
Every result but the root has a larger witness total than its root, so
both worklists are lists per total of packed monomials, and both runs walk
them in one loop: pop the next total's level, settle or expand its
members, and push their results at higher totals.  The process sorts each
level by key when it reaches it, which pops in the same (total, key) order
as a heap would.  The closure settles each level in push order, as the
order within a level changes nothing it computes, and sorts only a level
where it stops.  A key is joined from the engine's cached per-node pairs,
and a ``Monomial`` built from it, only for a sort or the output: the
process builds one per monomial with a chain, and the closure one per
settle only for its character, so a cell's closures build none.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field

from . import sl2
from .cartan import CartanData, DiagramError
from .monomials import AWitness, Monomial, format_monomial

SPECIAL_FM_CONSISTENT = "SpecialFMConsistent"
NOT_SPECIAL = "NotSpecial"
INCONCLUSIVE = "Inconclusive"

DEFAULT_FM_STEPS = 200_000
DEFAULT_PROCESS_STEPS = 100_000


class QCharacter:
    """Finite multiset of monomials with positive integer multiplicities."""

    __slots__ = ("terms", "highest")

    def __init__(self, terms, highest=None):
        self.terms = {m: t for m, t in terms.items() if t}
        if any(t < 0 for t in self.terms.values()):
            raise ValueError("multiplicities must be positive")
        self.highest = highest

    def multiplicity(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def __contains__(self, m):
        return m in self.terms

    def __len__(self):
        """Number of distinct monomials."""
        return len(self.terms)

    def dimension(self) -> int:
        """Total multiplicity."""
        return sum(self.terms.values())

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].key)

    def dominant_monomials(self):
        return sorted((m for m in self.terms if m.is_dominant()),
                      key=lambda m: m.key)

    def __eq__(self, other):
        return isinstance(other, QCharacter) and self.terms == other.terms

    def __repr__(self):
        return f"QCharacter({len(self.terms)} monomials, dim {self.dimension()})"

    def to_text(self) -> str:
        parts = []
        for m, t in self.items_sorted():
            s = format_monomial(m)
            parts.append(s if t == 1 else f"{t}*{s}")
        return " + ".join(parts) if parts else "0"

    def _doc(self) -> dict:
        return {"highest": self.highest,
                "terms": [{"monomial": m, "multiplicity": t}
                          for m, t in self.items_sorted()]}


def expand_Li_steps(c: CartanData, m: Monomial, i) -> list:
    """Node-i expansion as rank-1 step tables: ``(table, multiplicity,
    total)`` per result, root first, where ``table`` holds (power, count)
    pairs in ascending power, the result is m times the product of the
    A_{i,q^power}^{-count}, and ``total`` is the sum of the counts.
    Distinct tables give distinct results."""
    if i not in c.nodes:
        raise DiagramError(f"node {i} not in diagram {c.name}")
    if not m.is_dominant([i]):
        raise ValueError(f"monomial {format_monomial(m)} is not {i}-dominant")
    char = sl2.simple_qchar_sl2(m.node_powers(i), c.r(i))
    return [(table, t, sum(x for _, x in table)) for table, t in char.items()]


def expand_Li(c: CartanData, m: Monomial, i) -> QCharacter:
    """Expansion of an i-dominant monomial through node i.

    The result is m times the mapped simple rank-1 character of the node-i
    restriction; its highest monomial is m with multiplicity 1.
    """
    return QCharacter({AWitness({(i, p): x for p, x in table}).apply(c, m): t
                       for table, t, _ in expand_Li_steps(c, m, i)},
                      highest=m)


class _FieldsWidened(Exception):
    """The engine widened its layout, since a result of the current run
    could have outgrown it; the run starts over on the wider layout."""


def _rerun_when_widened(run, *args):
    """``run(*args)``, started over each time the engine widens its layout.
    A run is deterministic, so its last attempt is the run that a wide
    enough layout would have made from the start."""
    while True:
        try:
            return run(*args)
        except _FieldsWidened:
            pass


@functools.cache
def _spread(n, rmax):
    """The window widths modulo 61 at which fields of any two of n slots
    lie more than a margin of fields off a multiple of 61 apart (see
    ``_Expander._new_layout``): 2 rmax + 3, or the largest margin below it
    that some width meets."""
    for margin in range(2 * rmax + 3, -1, -1):
        spread = frozenset(w for w in range(61) if all(
            margin < d * w % 61 < 61 - margin for d in range(1, n)))
        if spread:
            return spread
    return frozenset(range(61))


class _Expander:
    """The one place where the closure and the process expand a root at a
    node, once per content, and the owner of the packed layout they run on.

    Layout.  Inside a run a monomial is one non-negative int.  Slot s, the
    node ``c.nodes[s]``, owns the ``window`` fields from s * window up, of
    ``bits`` bits each, one per power from ``base`` up, and a field holds
    e + 2 ** (bits - 1) for its exponent e (excess encoding).  While every
    |e| < 2 ** (bits - 1), each field lies in [0, 2 ** bits), so the
    encoding is unique and no sum of exponents carries into a neighbour
    field: a product is the root plus a signed packed delta, equality and
    hashing are on one int, ``zero`` (the identity, which sets the top bit
    of every field) makes a monomial dominant exactly when
    ``x & zero == zero``, and node s's restriction is
    ``(x >> s * window * bits) & mask``.  Three facts keep the layout exact:

    * an expansion never reaches below the lowest power of its root's
      node-i restriction, so a run stays at or above its start's lowest
      power.  That power is a valid base, and the engine of an empirical
      cell takes the string's lowest power, below which no enumerated
      entry lies;
    * nor above the top power of that restriction plus 2 r_i;
    * one A^{-1} factor moves any field by at most 1, so a monomial at
      witness total T below the start m has every |e| <= max |e_m| + T.

    ``start`` lowers the base and doubles ``bits`` until m fits with as
    much room again; if m's powers do not fit the window, it lays out a
    window of m's powers and ``_reach`` more.  For a finite type, every
    power of the character of L(m) lies within r^vee h^vee of m's top
    power, h the Coxeter number, and 4 n r_max bounds that on n nodes; on
    other diagrams it is a sizing hint only.  ``templates`` refuses an
    expansion whose results could pass the field limit, and ``_build`` a
    restriction whose templates could pass the window: each doubles its
    limit and raises ``_FieldsWidened``, and the run starts over.  So a
    field never wraps, no delta spills into the next slot, and a template
    power below the base raises (a negative shift).  A new layout drops the
    packed caches and the key pairs (``_new_layout``), and keeps the
    window at a width where root steps change the int hash.

    Templates.  ``expand_Li_steps`` reads a root only through the
    exponents of its node-i restriction and r_i, and shifting that
    restriction by a multiple of r_i shifts every delta by the same amount.
    A restriction's base is ``r_i * (min power // r_i)``, and its content
    is ``(r_i, ((power - base, exponent), ...))``: no node, so nodes with
    one r_i share it.  Each content is expanded once, at the first node
    that meets it, as a bare node-i monomial at base 0, and its non-root
    results are kept as ``(table, multiplicity, total)``, the rank-1 step
    tables of ``expand_Li_steps``, with the largest total.  A table names
    powers and counts only.  Each packed restriction with the content, at
    any node and in any layout, packs those tables raised by its base, once,
    each delta as one product of its own node's packed row of A^{-1} with
    the table's packed counts (``_pack_tables``), so a power below the
    layout's base raises.  r_i stays in the content, as nodes with
    different r_i do meet one content (in B, C, F and G) and step it by
    different powers.  It keeps its templates ``(packed delta,
    multiplicity, total)``, so a result is ``root + packed delta``.  A
    restriction with a negative exponent gets None.

    Keys.  Few distinct restrictions occur at a slot, so each one's key
    pairs are cached per slot (``_node``).  ``read`` joins the pairs in
    ascending node order (not ``c.nodes`` order), which is the canonical
    key.  The caches live as long as the engine, so the closures and
    certifying processes of a cell share them.
    """

    __slots__ = ("c", "_slot", "base", "bits", "window", "zero", "_mask",
                 "_stride", "_reach", "_spread", "_room", "_contents", "_packed",
                 "_seen", "_by_node")

    def __init__(self, c: CartanData, base=None):
        self.c = c
        self._slot = {j: s for s, j in enumerate(c.nodes)}
        self.base = base  # lowest power of the layout, None until one is seen
        self.bits = 8
        self.window = 0  # powers per slot, 0 until the first start
        rmax = max(map(c.r, c.nodes))
        # h < 4n on every finite type, and r^vee <= max r_j
        self._reach = 4 * len(c.nodes) * rmax
        self._spread = _spread(len(c.nodes), rmax)
        self._room = 0  # largest witness total the current run may reach
        # content (r_i, (power - base, exponent) pairs) -> (largest total,
        # step tables) of the content
        self._contents = {}
        # per slot, packed restriction -> (largest total, packed templates)
        self._packed = [{} for _ in c.nodes]
        # per slot, packed restriction -> its key pairs
        self._seen = [{} for _ in c.nodes]
        self._by_node = [(s, self._seen[s]) for _, s in sorted(self._slot.items())]

    def start(self, m: Monomial) -> int:
        """``m`` packed for a run from it.  The base is lowered to m's
        lowest power, and the fields are widened until they hold twice m's
        largest |e|, so that the run has room for witness totals at least
        up to that exponent.  A window that does not hold m's powers is
        laid out anew with ``_reach`` more."""
        base, top, high = self.base, 0, None
        for (_, p), e in m.items():
            if base is None or p < base:
                base = p
            if high is None or p > high:
                high = p
            if abs(e) > top:
                top = abs(e)
        if base is None:
            base = 0  # the identity on an engine that has seen no power
        span = 0 if high is None else high - base + 1
        if (base != self.base or (2 * top) >> (self.bits - 1)
                or span > self.window or not self.window):
            self.base = base
            while (2 * top) >> (self.bits - 1):
                self.bits *= 2
            self._new_layout(max(span + self._reach, self.window))
        self._room = (1 << (self.bits - 1)) - 1 - top
        return self._pack(m.items())

    def templates(self, x, s, total):
        """None if the packed root ``x``, at witness total ``total`` in the
        current run, is not dominant at the node of slot ``s``; else its
        templates, in the order of ``expand_Li_steps``."""
        v = (x >> self._stride * s) & self._mask
        cache = self._packed[s]
        entry = cache.get(v)
        if entry is None:
            entry = cache[v] = self._build(s, v)
        tmax, tpl = entry
        if total + tmax > self._room:
            self.bits *= 2
            self._new_layout(self.window)
            raise _FieldsWidened
        return tpl

    def read(self, x):
        """The canonical key of the packed ``x``, joined from the cached
        pairs of its node restrictions."""
        key = ()
        stride, mask = self._stride, self._mask
        for s, seen in self._by_node:
            v = (x >> stride * s) & mask
            pairs = seen.get(v)
            key += self._node(s, v) if pairs is None else pairs
        return key

    def _node(self, s, v):
        """The packed restriction ``v`` at slot ``s`` as its ((node, power),
        exponent) pairs in ascending power; cached.  ``v`` xor the slot's
        identity holds each exponent as a ``bits``-bit two's complement
        digit, so no field borrows from the next."""
        pairs = self._seen[s].get(v)
        if pairs is None:
            j, bits = self.c.nodes[s], self.bits
            full = 1 << bits
            digit, half = full - 1, full >> 1
            out, p, w = [], self.base, v ^ (self.zero & self._mask)
            while w:
                e = w & digit
                if e:
                    out.append(((j, p), e - full if e >= half else e))
                w >>= bits
                p += 1
            pairs = self._seen[s][v] = tuple(out)
        return pairs

    def _build(self, s, v):
        """(largest total, templates) of the packed restriction ``v`` at
        slot ``s``, or (0, None) if it has a negative exponent.  It widens
        the window and raises ``_FieldsWidened`` if a template could reach
        past it."""
        zero = self.zero & self._mask
        if v & zero != zero:
            return 0, None
        restr = self._node(s, v)
        i = self.c.nodes[s]
        ri = self.c.r(i)
        if restr and restr[-1][0][1] + 2 * ri >= self.base + self.window:
            self._new_layout(2 * self.window)
            raise _FieldsWidened
        base = ri * (restr[0][0][1] // ri) if restr else 0
        pairs = tuple((p - base, e) for (_, p), e in restr)
        known = self._contents.get((ri, pairs))
        if known is None:
            shape = Monomial._from_key(tuple(((i, p), e) for p, e in pairs))
            tables = expand_Li_steps(self.c, shape, i)[1:]
            known = self._contents[ri, pairs] = (
                max((total for _, _, total in tables), default=0), tables)
        tmax, tables = known
        return tmax, self._pack_tables(i, tables, base)

    def _pack_tables(self, i, tables, shift):
        """Templates ``(packed delta, multiplicity, total)`` of node-i step
        tables, each power raised by ``shift``.  A delta is the sum of
        count times the packed A_{i,q^p}^{-1} over its table: the packed
        row of A_{i,q^{r_i}}^{-1} (lowest power 0) across all slots, times
        sum(count << bits * (p + shift - r_i - base)).  That product is the
        signed packed delta, as multiplication distributes over the shifted
        terms; whether its digits fit their fields is the room check's
        concern in ``templates``, and whether its powers fit the window the
        window check's in ``_build``.  A power below the base raises (a
        negative shift)."""
        bits, ri = self.bits, self.c.r(i)
        row = 0
        for (j, d), ae in self.c.a_row(i):
            row -= ae << self._stride * self._slot[j] + bits * (d + ri)
        off = shift - ri - self.base
        out = []
        for table, t, total in tables:
            steps = 0
            for p, x in table:
                steps += x << bits * (p + off)
            out.append((row * steps, t, total))
        return out

    def _pack(self, items) -> int:
        """((node, power), exponent) pairs packed."""
        x = self.zero
        bits, base, stride, slot = self.bits, self.base, self._stride, self._slot
        for (j, p), e in items:
            x += e << stride * slot[j] + bits * (p - base)
        return x

    def _new_layout(self, window):
        """A layout of at least ``window`` powers per slot, on ``bits``-bit
        fields and the current base.  Python hashes an int modulo
        2 ** 61 - 1, so fields a multiple of 61 fields apart add to a hash
        with one weight, and a root step that moves two such fields by
        opposite amounts would leave it as it was: at a width of 60 on A2~,
        every root step does, and the results of ``qchar --g A2~ "1_0 2_47"``
        share a hash seven at a time on average, up to 214 in one.  The
        window rounds up to a width in ``_spread``, at which no fields of
        two slots whose powers differ by at most the margin lie so.  The
        margin is 2 r_max + 3 on up to seven nodes when r_max <= 2 and on
        up to five when r_max = 3, and at least the 2 r_max - 1 powers that
        one root step's fields span on up to twelve nodes when r_max <= 2.
        A new layout drops the packed caches and the key pairs: their ints
        mean other exponents."""
        while window % 61 not in self._spread:
            window += 1
        self.window, bits = window, self.bits
        self._stride = stride = window * bits
        self._mask = (1 << stride) - 1
        self.zero = (((1 << stride * len(self._slot)) - 1) // ((1 << bits) - 1)
                     << (bits - 1))
        for cache in self._packed + self._seen:
            cache.clear()


@dataclass(frozen=True)
class TraceStep:
    """One expansion step: ``result`` occurs in the node-``node`` expansion
    of ``root``."""

    node: int
    root: Monomial
    result: Monomial

    def _doc(self) -> dict:
        return {"node": self.node, "root": self.root, "result": self.result}


@dataclass
class GenerationTrace:
    """Monomials generated from a dominant start, each with a replayable chain."""

    start: Monomial
    chains: dict = field(default_factory=dict)  # Monomial -> tuple[TraceStep]
    partial: bool = False
    steps: int = 0

    def dominant_monomials(self):
        """Dominant generated monomials other than the start."""
        return sorted((m for m in self.chains
                       if m != self.start and m.is_dominant()),
                      key=lambda m: m.key)

    def replay(self, c: CartanData) -> bool:
        """Re-run every chain through ``expand_Li``, apart from the engine
        that generated it: the start and every step's node must lie in the
        diagram, each root must be node-dominant and each result must occur
        in the root's expansion at that node.  It checks steps, not their
        admissibility: a step from a root that the process would block at
        that node (so possibly leaving the character of L(start)) still
        replays."""
        if any(j not in c.nodes for (j, _), _ in self.start.items()):
            return False
        expansions = {}  # (root, node) -> its expansion
        for m, chain in self.chains.items():
            cur = self.start
            for step in chain:
                if (step.root != cur or step.node not in c.nodes
                        or not step.root.is_dominant([step.node])):
                    return False
                key = (step.root, step.node)
                if key not in expansions:
                    expansions[key] = expand_Li(c, step.root, step.node)
                if step.result not in expansions[key]:
                    return False
                cur = step.result
            if cur != m:
                return False
        return True


def _check_start(c: CartanData, m: Monomial, what: str):
    """Reject a start that is not dominant or names a node outside the diagram."""
    if not m.is_dominant():
        raise ValueError(f"{what} starts from a dominant monomial")
    for (j, _), _ in m.items():
        if j not in c.nodes:
            raise DiagramError(f"node {j} not in diagram {c.name}")


def generate_process(c: CartanData, m: Monomial,
                     budget: int = DEFAULT_PROCESS_STEPS,
                     stop_on_dominant: bool = False,
                     *, _expander: _Expander | None = None) -> GenerationTrace:
    """Closure of {m} under admissible single-node expansions.

    A generated monomial mu may be expanded at node i when it is i-dominant
    and not blocked at i: no strictly greater generated monomial that is
    i-dominant yields mu in its own node-i expansion (a rank-1 simple
    character can hold dominant monomials below its highest one, so such a
    result may be i-dominant).  Monomials pop in ascending order of the
    witness total against m, ties broken by the canonical encoding, so runs
    are reproducible.  A non-root result of a node-i expansion lies strictly
    below its root, and every push has a larger total than the monomial
    just popped, so when mu pops every generated monomial strictly greater
    than mu has popped already.  The check is therefore one lookup:
    ``covered[i]`` holds the non-root results of the node-i expansions of
    every i-dominant monomial popped so far, blocked or not, and mu is
    blocked at i exactly when it is in ``covered[i]``.  Each chain step
    records that the check held when taken.  The run holds monomials in
    the packed layout of ``_Expander``, each with a link to the (root,
    node) of the step that generated it.  Since every push lands at a
    larger total, the worklist is a list per total, walked in the same
    loop as the closure's; a level is sorted by its members' keys when the
    run reaches it, so the budget and ``stop_on_dominant`` stop the run at
    the same pop as a heap would.  The chains are built at the end, from
    the links, with one ``Monomial`` per generated monomial, whose key
    ``_Expander.read`` joins again from its per-node caches.  A full run keeps a chain for
    every generated monomial; a run that stops on dominant keeps only the
    chains a certificate reads: those of the start, of every generated
    dominant monomial and of their ancestors.  ``_expander`` lets
    ``fm_algorithm`` hand over the expansions its closure already made.
    """
    _check_start(c, m, "generation")
    return _rerun_when_widened(_generate, c, m, budget, stop_on_dominant,
                               _expander or _Expander(c))


def _generate(c, m, budget, stop_on_dominant, ex):
    """The run of ``generate_process`` on the packed layout of ``ex``; it
    raises ``_FieldsWidened`` when ``ex`` widened its layout mid-run."""
    x0 = ex.start(m)
    zero = ex.zero
    links = {x0: None}  # generated monomial -> (packed root, node) of its step
    canonical = {x0: x0}  # one int per monomial, shared by links and covered
    covered = [set() for _ in c.nodes]
    dominant = []  # generated dominant monomials but the start, when stopping
    read = ex.read
    levels = defaultdict(list)
    levels[0].append(x0)
    steps = 0
    partial = False
    total = -1
    while levels and not (partial or dominant):
        total += 1
        level = levels.pop(total, [])
        level.sort(key=read)  # keys are unique, so this is the tie order
        for x in level:
            for s, i in enumerate(c.nodes):
                tpl = ex.templates(x, s, total)
                if tpl is None:
                    continue
                results = [canonical.setdefault(nu, nu) for nu in
                           (x + d for d, _, _ in tpl)]
                blocked = x in covered[s]
                covered[s].update(results)
                if blocked:
                    continue
                if steps >= budget:
                    partial = True
                    break
                steps += 1
                # every monomial is pushed once, under its own key, so the
                # order of the pushes never changes a pop
                link = (x, i)
                for nu, (_, _, n) in zip(results, tpl):
                    if nu in links:
                        continue
                    links[nu] = link
                    levels[total + n].append(nu)
                    if stop_on_dominant and nu & zero == zero:
                        dominant.append(nu)
                if dominant:
                    break
            if partial or dominant:
                break
    found = {x0: m}  # packed -> Monomial, for every monomial with a chain
    chains = {m: ()}
    for last in dominant if stop_on_dominant else links:
        # links run in generation order, so a root is found before its results
        path = []
        while last not in found:
            path.append(last)
            last = links[last][0]
        for nu in reversed(path):
            root, i = links[nu]
            nu_m = found[nu] = Monomial._from_key(read(nu))
            chains[nu_m] = chains[found[root]] + (TraceStep(i, found[root], nu_m),)
    return GenerationTrace(start=m, chains=chains, partial=partial, steps=steps)


@dataclass
class SpecialnessReport:
    """Outcome of the closure on one dominant monomial.

    ``NotSpecial`` always carries a dominant witness strictly below the
    subject together with a replayable generation chain; ``Inconclusive``
    carries a diagnostic (budget exhaustion or a closure inconsistency).
    """

    verdict: str
    subject: Monomial
    qchar: QCharacter | None = None
    witness: Monomial | None = None
    chain: tuple = ()
    steps: int = 0
    diagnostic: str | None = None

    def _doc(self) -> dict:
        out = {"verdict": self.verdict, "subject": self.subject, "steps": self.steps}
        if self.qchar is not None:
            out["qchar"] = self.qchar._doc()
        if self.witness is not None:
            out["witness"] = self.witness
            out["chain"] = [s._doc() for s in self.chain]
        if self.diagnostic:
            out["diagnostic"] = self.diagnostic
        return out


def fm_algorithm(c: CartanData, m: Monomial,
                 budget: int = DEFAULT_FM_STEPS,
                 process_budget: int = DEFAULT_PROCESS_STEPS,
                 order_within_level=None,
                 *, _expander: _Expander | None = None,
                 _qchar: bool = True) -> SpecialnessReport:
    """Frenkel-Mukhin closure for the character of L(m), m dominant.

    Monomials settle by ascending witness total against m; since every
    result lands at a larger total than its root, the worklist is a list
    per total.  Each monomial not yet settled has one state row:
    its multiplicity, then, per node i, the part of it that node-i
    expansions explain; the multiplicity is the maximum of those parts
    over the nodes, and a result is new exactly when it has no row.  When mu
    settles, its multiplicity less its node-i part is the coefficient of
    mu's own node-i expansion, which must then be i-dominant; the expansion
    adds that coefficient times each result's multiplicity to the result's
    node-i part.  This is the greedy decomposition of mu's node-i class
    into rank-1 simple characters from the top, which gives each top its
    multiplicity less what higher tops explained: expansions never leave
    the class, and every result has a strictly larger witness total than
    its root, so it settles after every root above it has added its part.
    So the order of the settles within a total changes nothing computed,
    and a run stops where settling in (total, canonical key) order would.
    ``order_within_level`` replaces that key with any injective key, and
    then orders every level by it, so tests compare a permuted order with
    push order.
    A forced dominant monomial other than m refutes the single-dominant
    hypothesis and is certified via the generation process, witnessed by
    that monomial if the process reaches it, else by the least dominant
    one it generates.  Every other inconclusive exit (a spent budget or a
    non-i-dominant monomial left with a positive coefficient) asks the
    generation process for a second dominant monomial too, and reports
    Inconclusive only if there is none.  The certifying process stops on
    dominant, so it builds ``Monomial``s and chains only for its dominant
    monomials and their ancestors; the witness's chain is the one a run
    that keeps every chain would give.  ``_expander`` lets
    ``check_small_empirical`` share one engine across a cell's closures,
    and ``_qchar=False`` skips the character of a consistent report.
    """
    _check_start(c, m, "the closure")
    ex = _expander or _Expander(c)
    out = _rerun_when_widened(_fm_closure, c, m, budget,
                              order_within_level, ex, _qchar)
    if isinstance(out, SpecialnessReport):
        return out
    # the closure's state is released before the process runs
    forced, steps, diagnostic = out
    trace = generate_process(c, m, budget=process_budget, stop_on_dominant=True,
                             _expander=ex)
    doms = trace.dominant_monomials()
    if not doms:
        return SpecialnessReport(INCONCLUSIVE, m, steps=steps,
                                 diagnostic=diagnostic)
    witness = forced if forced in trace.chains else doms[0]
    return SpecialnessReport(NOT_SPECIAL, m, witness=witness,
                             chain=trace.chains[witness], steps=steps)


def _fm_closure(c, m, budget, order_within_level, ex, qchar=True):
    """The closure of ``fm_algorithm``: its consistent report, with its
    character if ``qchar``, or the (forced dominant or None, steps,
    diagnostic) of an inconclusive exit.  It runs on the packed layout of
    ``ex`` and raises ``_FieldsWidened`` when ``ex`` widened its layout
    mid-run.  A result is pushed packed with its state row, which is final
    when its level is reached, as every root above it has settled.  A
    level settles in push order; its tie order is read only at a level
    where the run stops, and each stop shows without it: the budget ends
    in the level (which keeps its first members in tie order), a member is
    left unexplained, or a result first created in the level is dominant,
    read off the packed identity's mask.  ``_first_stop`` then finds the first
    stop in tie order.  So a consistent run reads no key but those of the
    ``Monomial``s it builds for ``qchar``, one per settle."""
    x0 = ex.start(m)
    width = len(c.nodes) + 1
    # unsettled monomial -> [multiplicity, its share at each node's slot]
    state = {x0: [1] + [0] * (width - 1)}
    terms = {}
    steps = 0
    read, zero = ex.read, ex.zero

    def tie(pushed):
        key = read(pushed[0])
        if order_within_level:
            return order_within_level(Monomial._from_key(key))
        return key

    levels = defaultdict(list)
    levels[0].append((x0, state[x0]))
    total = -1
    while levels:
        total += 1
        level = levels.pop(total, [])
        capped = len(level) > budget - steps
        ordered = capped or order_within_level
        if ordered:
            level.sort(key=tie)
            del level[budget - steps:]
        found = set()  # the level's new results with no negative exponent
        unexplained = False
        for x, row in level:
            del state[x]
            t_mu = row[0]
            if qchar:
                terms[Monomial._from_key(read(x))] = t_mu
            for s in range(width - 1):
                coeff = t_mu - row[s + 1]
                if not coeff:
                    continue
                tpl = ex.templates(x, s, total)
                if tpl is None:
                    unexplained = True
                    continue
                for d, t, n in tpl:
                    nu = x + d
                    r = state.get(nu)
                    if r is None:
                        r = state[nu] = [0] * width
                        r[0] = r[s + 1] = coeff * t
                        levels[total + n].append((nu, r))
                        if nu & zero == zero:
                            found.add(nu)
                        continue
                    f = r[s + 1] = r[s + 1] + coeff * t
                    if f > r[0]:
                        r[0] = f
        if unexplained or found:
            if not ordered:
                level.sort(key=tie)
            return _first_stop(c, ex, level, total, steps, found)
        steps += len(level)
        if capped:
            return None, steps, "step budget exhausted"

    return SpecialnessReport(SPECIAL_FM_CONSISTENT, m, steps=steps,
                             qchar=QCharacter(terms, highest=m) if qchar else None)


def _first_stop(c, ex, level, total, steps, found):
    """The exit of ``_fm_closure`` at ``level``, in tie order, after
    ``steps`` settles: its first member left unexplained, or its first
    expansion to meet a result in ``found``, the level's new dominant
    results (an earlier expansion to meet one would have created it).
    Only results are recomputed: rows and templates are as settled."""
    for steps, (x, row) in enumerate(level, steps + 1):
        for s, i in enumerate(c.nodes):
            if row[0] == row[s + 1]:
                continue
            tpl = ex.templates(x, s, total)
            if tpl is None:
                mu = Monomial._from_key(ex.read(x))
                return None, steps, (f"node-{i} class leaves non-dominant "
                                     f"{format_monomial(mu)} unexplained")
            new = [nu for d, _, _ in tpl if (nu := x + d) in found]
            if new:
                forced = Monomial._from_key(min(ex.read(nu) for nu in new))
                return forced, steps, (
                    "closure forces dominant monomial "
                    f"{format_monomial(forced)} but the generation process "
                    "found no replayable witness within budget")

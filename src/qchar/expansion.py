"""Single-node expansions, the monomial generation process and the
Frenkel-Mukhin closure.

``expand_Li`` pushes the rank-1 closed forms through a chosen node: restrict
an i-dominant monomial to its Y_i content (one rank-1 lattice per residue
class of the power modulo r_i), take the simple rank-1 character, and map
each rank-1 root step A_{q^t}^{-1} back to A_{i,q^{...}}^{-1}.

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
``expand_Li_steps`` once per shape (a node restriction up to a shift by a
multiple of r_i).  The engine alone decides whether a root is i-dominant,
and hands out the step-table delta of each result but the root.  Chain
replay shares none of it: each step is checked against ``expand_Li``.

Inside a run, the closure and the process hold each monomial packed: a
tuple with one int per node, in ``c.nodes`` order, where each power from a
base power up has a fixed-width field holding its exponent.  The base is
the lowest power of the run's start, or of the string for all runs of an
empirical cell (an expansion never reaches below its root's node
restriction), and a field of width w holds |e| < 2^(w-1);
since one root step moves a field by at most 1, every exponent of a
monomial T steps below the start m stays within max |e_m| + T, and the
engine widens its fields and restarts the run before that bound reaches
the limit.  A result is the root plus a packed template delta, so equality
and hashing are on ints, and a ``Monomial`` is built only for a new
monomial, for its tie key and for the output (``QCharacter``, chains and
reports).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import add

from . import sl2
from .cartan import CartanData, DiagramError
from .monomials import (
    Monomial,
    format_monomial,
    monomial_from_json,
    plain_json,
)

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

    def to_json(self) -> dict:
        return plain_json(self._doc())

    @classmethod
    def from_json(cls, data) -> "QCharacter":
        terms = {}
        for entry in data["terms"]:
            m = monomial_from_json(entry["monomial"])
            terms[m] = terms.get(m, 0) + int(entry["multiplicity"])
        h = data.get("highest")
        return cls(terms, highest=None if h is None else monomial_from_json(h))


def qchar_is_thin(chi: QCharacter) -> bool:
    """True iff every multiplicity equals 1."""
    return all(t == 1 for t in chi.terms.values())


def expand_Li_steps(c: CartanData, m: Monomial, i) -> list:
    """Node-i expansion with bookkeeping: ``(delta, multiplicity, total)``
    per result, root first, where the result is ``m * delta``, ``delta`` is
    the product of the A_{i,q^p}^{-x} of its rank-1 step table and
    ``total`` is the sum of the x.  Distinct tables give distinct deltas."""
    if not m.is_dominant([i]):
        raise ValueError(f"monomial {format_monomial(m)} is not {i}-dominant")
    ri = c.r(i)
    classes = {}
    for s, e in m.node_powers(i).items():
        classes.setdefault(s % ri, {})[s // ri] = e

    chars = [{tuple((c0 + ri * p, x) for p, x in table): t
              for table, t in sl2.simple_qchar_sl2(classes[c0]).items()}
             for c0 in sorted(classes)]
    row = c.a_row(i)
    out = []
    for table, t in sl2.product(chars).items():
        delta = {}
        for p, x in table:
            for (j, d), ae in row:
                delta[j, p + d] = delta.get((j, p + d), 0) - x * ae
        out.append((Monomial(delta), t, sum(x for _, x in table)))
    return out


def expand_Li(c: CartanData, m: Monomial, i) -> QCharacter:
    """Expansion of an i-dominant monomial through node i.

    The result is m times the mapped simple rank-1 character of the node-i
    restriction; its highest monomial is m with multiplicity 1.
    """
    return QCharacter({m * delta: t for delta, t, _ in expand_Li_steps(c, m, i)},
                      highest=m)


class _FieldsWidened(Exception):
    """The engine widened its fields, since a result of the current run
    could have outgrown them; the run starts over on the wider layout."""


def _rerun_when_widened(run, *args):
    """``run(*args)``, started over each time the engine widens its fields.
    A run is deterministic, so its last attempt is the run that a wide
    enough layout would have made from the start."""
    while True:
        try:
            return run(*args)
        except _FieldsWidened:
            pass


class _Expander:
    """The one place where the closure and the process expand a root at a
    node, once per shape, and the owner of the packed layout they run on.

    Layout.  Inside a run a monomial is a tuple with one int per node, in
    ``c.nodes`` order.  Node j's int is the sum of e << bits * (p - base)
    over its exponents e at powers p: each power from ``base`` up has a
    field of ``bits`` bits that holds its exponent as a signed digit,
    |e| < 2 ** (bits - 1).  Digits in that range make the encoding unique,
    so a product is the elementwise sum of the tuples, equality and hashing
    are on ints, and node i's restriction is element i.  Two facts keep
    the layout exact:

    * an expansion never reaches below the lowest power of its root's
      node-i restriction, so a run stays at or above its start's lowest
      power.  That power is a valid base, and the engine of an empirical
      cell takes the string's lowest power, below which no enumerated
      entry lies;
    * one A^{-1} factor moves any field by at most 1, so a monomial at
      witness total T below the start m has every |e| <= max |e_m| + T.

    ``start`` lowers the base and doubles ``bits`` until m fits with as
    much room again; ``templates`` refuses an expansion whose results could
    pass the field limit, doubles ``bits`` and raises ``_FieldsWidened``,
    and the run starts over.  So a field never wraps, and a template power
    below the base raises (a negative shift).  A new layout drops the
    packed caches.

    Templates.  ``expand_Li_steps`` reads a root only through its node-i
    restriction, and shifting that restriction by a multiple of r_i shifts
    every delta by the same amount.  A restriction's shape is the
    restriction shifted down by ``r_i * (min power // r_i)``.  The first
    restriction of a shape is expanded once, as a bare node-i monomial, and
    its non-root results are kept as ``(delta, multiplicity, total)``; any
    other restriction of that shape shifts each ``delta``.  Each packed
    restriction keeps its templates ``(packed delta, multiplicity, total,
    delta)``, so a result is ``tuple(map(add, root, packed delta))``, and
    only a new one costs a ``Monomial`` product.  A restriction with a
    negative exponent gets None.  The caches live as long as the engine,
    so the closures and certifying processes of a cell share them.
    """

    __slots__ = ("c", "_slot", "base", "bits", "_room", "_shapes", "_packed")

    def __init__(self, c: CartanData, base=None):
        self.c = c
        self._slot = {j: s for s, j in enumerate(c.nodes)}
        self.base = base  # lowest power of the layout, None until one is seen
        self.bits = 16
        self._room = 0  # largest witness total the current run may reach
        self._shapes = {}  # (i, shape) -> (base, templates) of its first restriction
        # per slot, packed restriction -> (largest total, packed templates)
        self._packed = [{} for _ in c.nodes]

    def start(self, m: Monomial) -> tuple:
        """``m`` packed for a run from it.  The base is lowered to m's
        lowest power, and the fields are widened until they hold twice m's
        largest |e|, so that the run has room for witness totals at least
        up to that exponent."""
        base, top = self.base, 0
        for (_, p), e in m.items():
            if base is None or p < base:
                base = p
            if abs(e) > top:
                top = abs(e)
        if base is None:
            base = 0  # the identity on an engine that has seen no power
        if base != self.base or (2 * top) >> (self.bits - 1):
            self.base = base
            while (2 * top) >> (self.bits - 1):
                self.bits *= 2
            self._new_layout()
        self._room = (1 << (self.bits - 1)) - 1 - top
        return self._pack(m.items())

    def templates(self, x, s, total):
        """None if the packed root ``x``, at witness total ``total`` in the
        current run, is not dominant at the node of slot ``s``; else its
        templates, in the order of ``expand_Li_steps``."""
        v = x[s]
        cache = self._packed[s]
        entry = cache.get(v)
        if entry is None:
            entry = cache[v] = self._build(s, v)
        tmax, tpl = entry
        if total + tmax > self._room:
            self.bits *= 2
            self._new_layout()
            raise _FieldsWidened
        return tpl

    def _build(self, s, v):
        """(largest total, templates) of the packed restriction ``v`` at
        slot ``s``, or (0, None) if it has a negative exponent."""
        i = self.c.nodes[s]
        restr = self._powers(v)
        if any(e < 0 for e in restr.values()):
            return 0, None
        ri = self.c.r(i)
        base = ri * (min(restr) // ri) if restr else 0
        shape = (i, tuple((r - base, e) for r, e in restr.items()))
        first = self._shapes.get(shape)
        if first is None:
            bare = Monomial({(i, r): e for r, e in restr.items()})
            first = self._shapes[shape] = (base, expand_Li_steps(self.c, bare, i)[1:])
        d = base - first[0]
        tpl = []
        for delta, t, total in first[1]:
            x = self._pack(delta.items(), d)
            if d:
                delta = Monomial({(j, p + d): e for (j, p), e in delta.items()})
            tpl.append((x, t, total, delta))
        return max((total for _, _, total, _ in tpl), default=0), tpl

    def _pack(self, items, shift=0) -> tuple:
        """((node, power), exponent) pairs packed, each power raised by
        ``shift``."""
        x = [0] * len(self._slot)
        off, bits, slot = shift - self.base, self.bits, self._slot
        for (j, p), e in items:
            x[slot[j]] += e << bits * (p + off)
        return tuple(x)

    def _powers(self, v) -> dict:
        """power -> exponent of one packed node int, powers ascending."""
        bits = self.bits
        full = 1 << bits
        out = {}
        p = self.base
        while v:
            e = v & (full - 1)
            if e >> (bits - 1):
                e -= full
            if e:
                out[p] = e
            v = (v - e) >> bits
            p += 1
        return out

    def _new_layout(self):
        for cache in self._packed:
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

    def to_json(self) -> dict:
        return plain_json(self._doc())


@dataclass
class GenerationTrace:
    """Monomials generated from a dominant start, each with a replayable chain."""

    start: Monomial
    chains: dict = field(default_factory=dict)  # Monomial -> tuple[TraceStep]
    partial: bool = False
    steps: int = 0

    def monomials(self):
        return sorted(self.chains, key=lambda m: m.key)

    def dominant_monomials(self):
        """Dominant generated monomials other than the start."""
        return sorted((m for m in self.chains
                       if m != self.start and m.is_dominant()),
                      key=lambda m: m.key)

    def __contains__(self, m):
        return m in self.chains

    def replay(self, c: CartanData) -> bool:
        """Re-run every chain through ``expand_Li``, apart from the engine
        that generated it: the start and every step's node must lie in the
        diagram, each root must be node-dominant and each result must occur
        in the root's expansion at that node."""
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

    def to_json(self) -> dict:
        return plain_json({
            "start": self.start,
            "generated": [{"monomial": m, "chain": [s._doc() for s in self.chains[m]]}
                          for m in self.monomials()],
            "partial": self.partial, "steps": self.steps})


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
    the packed layout of ``_Expander``; a ``Monomial`` is built once per
    new one, for its tie key and its chain.  ``_expander`` lets
    ``fm_algorithm`` hand over the expansions its closure already made.
    """
    _check_start(c, m, "generation")
    return _rerun_when_widened(_generate, c, m, budget, stop_on_dominant,
                               _expander or _Expander(c))


def _generate(c, m, budget, stop_on_dominant, ex):
    """The run of ``generate_process`` on the packed layout of ``ex``; it
    raises ``_FieldsWidened`` when ``ex`` widened its fields mid-run."""
    x0 = ex.start(m)
    chains = {m: ()}
    generated = {x0}
    canonical = {x0: x0}  # one tuple per monomial, shared by generated and covered
    covered = [set() for _ in c.nodes]
    heap = [(0, m.key, x0, m)]
    steps = 0
    partial = False
    stop = False
    while heap and not stop:
        total, _, x, mu = heapq.heappop(heap)
        for s, i in enumerate(c.nodes):
            tpl = ex.templates(x, s, total)
            if tpl is None:
                continue
            results = [canonical.setdefault(nu, nu) for nu in
                       (tuple(map(add, x, d)) for d, _, _, _ in tpl)]
            blocked = x in covered[s]
            covered[s].update(results)
            if blocked:
                continue
            if steps >= budget:
                partial = True
                stop = True
                break
            steps += 1
            # every monomial is pushed once, under its own key, so the
            # order of the pushes never changes a pop
            chain = chains[mu]
            for nu, (_, _, n, delta) in zip(results, tpl):
                if nu in generated:
                    continue
                generated.add(nu)
                nu_m = mu * delta
                chains[nu_m] = chain + (TraceStep(i, mu, nu_m),)
                heapq.heappush(heap, (total + n, nu_m.key, nu, nu_m))
                if stop_on_dominant and nu_m.is_dominant():
                    stop = True
            if stop:
                break
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

    def to_json(self) -> dict:
        return plain_json(self._doc())


def fm_algorithm(c: CartanData, m: Monomial,
                 budget: int = DEFAULT_FM_STEPS,
                 process_budget: int = DEFAULT_PROCESS_STEPS,
                 order_within_level=None,
                 *, _expander: _Expander | None = None) -> SpecialnessReport:
    """Frenkel-Mukhin closure for the character of L(m), m dominant.

    The worklist is ordered by ascending witness total against m, ties by
    canonical encoding (``order_within_level`` lets tests permute the tie
    order with any injective key to exercise the order-independence
    contract).  ``colored[i]`` holds, for each monomial not yet settled,
    the part of its multiplicity that node-i expansions explain; its
    multiplicity is the maximum of those parts over the nodes.  When mu
    settles, its multiplicity less its node-i part is the coefficient of
    mu's own node-i expansion, which must then be i-dominant; the expansion
    adds that coefficient times each result's multiplicity to the result's
    node-i part.  This is the greedy decomposition of mu's node-i class
    into rank-1 simple characters from the top, which gives each top its
    multiplicity less what higher tops explained: expansions never leave
    the class, and every result has a strictly larger witness total than
    its root, so it settles after every root above it has added its part.
    A forced dominant monomial other than m refutes the single-dominant
    hypothesis and is certified via the generation process, witnessed by
    that monomial if the process reaches it, else by the first dominant
    one it generates.  Every other inconclusive exit (a spent budget or a
    non-i-dominant monomial left with a positive coefficient) asks the
    generation process for a second dominant monomial too, and reports
    Inconclusive only if there is none.  ``_expander`` lets
    ``check_small_empirical`` share one engine across a cell's closures.
    """
    ex = _expander or _Expander(c)
    out = _rerun_when_widened(_fm_closure, c, m, budget,
                              order_within_level, ex)
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


def _fm_closure(c, m, budget, order_within_level, ex):
    """The closure of ``fm_algorithm``: its consistent report, or the
    (forced dominant or None, steps, diagnostic) of an inconclusive exit.
    It runs on the packed layout of ``ex`` and raises ``_FieldsWidened``
    when ``ex`` widened its fields mid-run.  A monomial leaves ``mult``
    when it settles: its multiplicity is final then, as every root above
    it has settled, and it is no later result, as results lie strictly
    below their roots."""
    _check_start(c, m, "the closure")
    x0 = ex.start(m)
    mult = {x0: 1}  # unsettled monomials
    colored = [{} for _ in c.nodes]  # node share of unsettled multiplicities
    terms = {}
    steps = 0

    def tie_key(nu):
        return order_within_level(nu) if order_within_level else nu.key

    heap = [(0, tie_key(m), x0, m)]
    while heap:
        total, _, x, mu = heapq.heappop(heap)
        if steps >= budget:
            return None, steps, "step budget exhausted"
        steps += 1
        t_mu = terms[mu] = mult.pop(x)
        for s, i in enumerate(c.nodes):
            share = colored[s]
            coeff = t_mu - share.pop(x, 0)
            if not coeff:
                continue
            tpl = ex.templates(x, s, total)
            if tpl is None:
                return None, steps, (f"node-{i} class leaves non-dominant "
                                     f"{format_monomial(mu)} unexplained")
            forced = None  # the least new dominant result, by canonical key
            for d, t, n, delta in tpl:
                nu = tuple(map(add, x, d))
                f = share[nu] = share.get(nu, 0) + coeff * t
                old = mult.get(nu, 0)
                if f > old:
                    mult[nu] = f
                if not old:
                    nu_m = mu * delta
                    heapq.heappush(heap, (total + n, tie_key(nu_m), nu, nu_m))
                    if nu_m.is_dominant() and (forced is None
                                               or nu_m.key < forced.key):
                        forced = nu_m
            if forced is not None:
                return forced, steps, (
                    "closure forces dominant monomial "
                    f"{format_monomial(forced)} but the generation process "
                    "found no replayable witness within budget")

    return SpecialnessReport(SPECIAL_FM_CONSISTENT, m,
                             qchar=QCharacter(terms, highest=m), steps=steps)

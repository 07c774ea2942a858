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

The closure, the generation process and chain replay expand through one
``_Expander`` per run (per cell in the empirical pipeline), which calls
``expand_Li_steps`` once per shape (a node restriction up to a shift by a
multiple of r_i).  The engine alone decides whether a root is i-dominant,
and hands out each result but the root as the root times a step-table delta.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import sl2
from .cartan import CartanData, DiagramError
from .monomials import (
    AWitness,
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
    return [(AWitness({(i, p): x for p, x in table}).apply(c, Monomial()), t,
             sum(x for _, x in table))
            for table, t in sl2.product(chars).items()]


def expand_Li(c: CartanData, m: Monomial, i) -> QCharacter:
    """Expansion of an i-dominant monomial through node i.

    The result is m times the mapped simple rank-1 character of the node-i
    restriction; its highest monomial is m with multiplicity 1.
    """
    return QCharacter({m * delta: t for delta, t, _ in expand_Li_steps(c, m, i)},
                      highest=m)


class _Expander:
    """The one place that expands a root at a node, once per shape.

    ``expand_Li_steps`` reads a root only through its node-i restriction,
    and shifting that restriction by a multiple of r_i shifts every delta
    by the same amount.  A restriction's shape is the restriction shifted
    down by ``base = r_i * (min power // r_i)``.  The first restriction of
    a shape is expanded once, as a bare node-i monomial, and its non-root
    results are kept as templates ``(delta, multiplicity, total)``; any
    other restriction of that shape shifts each ``delta`` by the difference
    of the bases.  A restriction with a negative exponent gets None.  Each
    restriction keeps its templates, so a result costs one product.
    """

    __slots__ = ("c", "_shapes", "_exact")

    def __init__(self, c: CartanData):
        self.c = c
        self._shapes = {}  # (i, shape) -> (base, templates) of its first restriction
        self._exact = {}  # (i, i-dominant restriction) -> templates

    def _templates(self, root: Monomial, i):
        key = (i, tuple((r, e) for (j, r), e in root.key if j == i))
        tpl = self._exact.get(key)
        if tpl is None:
            restr = key[1]
            if any(e < 0 for _, e in restr):
                return None
            ri = self.c.r(i)
            base = ri * (restr[0][0] // ri) if restr else 0
            shape = (i, tuple((r - base, e) for r, e in restr))
            first = self._shapes.get(shape)
            if first is None:
                bare = Monomial({(i, r): e for r, e in restr})
                tpl = expand_Li_steps(self.c, bare, i)[1:]
                self._shapes[shape] = (base, tpl)
            else:
                d = base - first[0]
                tpl = [(Monomial({(j, r + d): e for (j, r), e in delta.key}), t,
                        total) for delta, t, total in first[1]]
            self._exact[key] = tpl
        return tpl

    def results(self, root: Monomial, i):
        """None if ``root`` is not i-dominant, else ``(root * delta,
        multiplicity, total)`` per template, in the order of ``expand_Li_steps``."""
        tpl = self._templates(root, i)
        return None if tpl is None else [(root * delta, t, total)
                                         for delta, t, total in tpl]

    def occurs(self, root: Monomial, i, nu: Monomial) -> bool:
        """Whether ``root`` is i-dominant and ``nu`` occurs in its node-i
        expansion."""
        tpl = self._templates(root, i)
        return tpl is not None and (nu == root or nu * root.inverse() in {
            delta for delta, _, _ in tpl})


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
        """Re-run every chain: each root must be node-dominant and each
        result must occur in the recorded expansion."""
        ex = _Expander(c)
        for m, chain in self.chains.items():
            cur = self.start
            for step in chain:
                if step.root != cur or not ex.occurs(step.root, step.node,
                                                     step.result):
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
    records that the check held when taken.  ``_expander`` lets
    ``fm_algorithm`` hand over the expansions its closure already made.
    """
    _check_start(c, m, "generation")
    ex = _expander or _Expander(c)
    chains = {m: ()}
    canonical = {m: m}  # one object per monomial, shared by chains and covered
    covered = {i: set() for i in c.nodes}
    heap = [(0, m.key, m)]
    steps = 0
    partial = False
    stop = False
    while heap and not stop:
        total, _, mu = heapq.heappop(heap)
        for i in c.nodes:
            results = ex.results(mu, i)
            if results is None:
                continue
            results = [(canonical.setdefault(nu, nu), n) for nu, _, n in results]
            blocked = mu in covered[i]
            covered[i].update(nu for nu, _ in results)
            if blocked:
                continue
            if steps >= budget:
                partial = True
                stop = True
                break
            steps += 1
            for nu, nu_steps in sorted(results, key=lambda r: r[0].key):
                if nu in chains:
                    continue
                chains[nu] = chains[mu] + (TraceStep(i, mu, nu),)
                heapq.heappush(heap, (total + nu_steps, nu.key, nu))
                if stop_on_dominant and nu.is_dominant():
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
    out = _fm_closure(c, m, budget, order_within_level, ex)
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
    (forced dominant or None, steps, diagnostic) of an inconclusive exit."""
    _check_start(c, m, "the closure")
    mult = {m: 1}
    colored = {i: {} for i in c.nodes}  # node-i share of unsettled multiplicities
    steps = 0

    def tie_key(nu):
        return order_within_level(nu) if order_within_level else nu.key

    heap = [(0, tie_key(m), m)]
    while heap:
        total, _, mu = heapq.heappop(heap)
        if steps >= budget:
            return None, steps, "step budget exhausted"
        steps += 1
        for i in c.nodes:
            share = colored[i]
            coeff = mult[mu] - share.pop(mu, 0)
            if not coeff:
                continue
            results = ex.results(mu, i)
            if results is None:
                return None, steps, (f"node-{i} class leaves non-dominant "
                                     f"{format_monomial(mu)} unexplained")
            new = []
            for nu, t, nu_steps in results:
                f = share[nu] = share.get(nu, 0) + coeff * t
                old = mult.get(nu, 0)
                if f > old:
                    mult[nu] = f
                if not old:
                    new.append((nu, total + nu_steps))
            for nu, nu_total in sorted(new, key=lambda r: r[0].key):
                heapq.heappush(heap, (nu_total, tie_key(nu), nu))
                if nu.is_dominant():
                    return nu, steps, (
                        "closure forces dominant monomial "
                        f"{format_monomial(nu)} but the generation process "
                        "found no replayable witness within budget")

    return SpecialnessReport(SPECIAL_FM_CONSISTENT, m,
                             qchar=QCharacter(mult, highest=m), steps=steps)

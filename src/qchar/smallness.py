"""Smallness of Kirillov-Reshetikhin standard modules.

The closed-form criterion: on a simply-laced diagram the standard module
attached to the length-k string at node i is small iff k <= 2 or i is a
leaf whose distance d_i to the nearest branch node satisfies k <= d_i + 1
(d_i infinite when there is no branch node, as in type A, where leaf
strings of every length are small).  A rank-1 diagram has a single node of
degree 0; it passes the leaf arm as well, so every rank-1 string is small.

The empirical pipeline checks the same statement through characters: every
dominant monomial below the string is enumerated inside its locality box
and each one is tested for a second dominant monomial in the character of
its simple module.  A certified second dominant monomial anywhere makes
the standard module not small; all-clear closures make it small.  An
entry with no other enumerated dominant monomial below it needs no
closure: every monomial of its simple module's character lies below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cartan import (
    CartanData,
    DiagramError,
    classify_nodes,
    parse_diagram,
)
from .expansion import (
    DEFAULT_FM_STEPS,
    DEFAULT_PROCESS_STEPS,
    INCONCLUSIVE,
    NOT_SPECIAL,
    GenerationTrace,
    _Expander,
    fm_algorithm,
)
from .monomials import (
    AWitness,
    Monomial,
    format_monomial,
    kr_highest,
    parse_monomial,
)

SMALL = "Small"
NOT_SMALL = "NotSmall"
UNDETERMINED = "Undetermined"

DEFAULT_ENUM_NODES = 1_000_000


@dataclass(frozen=True)
class Budgets:
    fm_steps: int = DEFAULT_FM_STEPS
    process_steps: int = DEFAULT_PROCESS_STEPS
    enum_nodes: int = DEFAULT_ENUM_NODES


def classify(c: CartanData, i, k: int) -> str:
    """Closed-form smallness verdict for the level-k string at node i.

    Independent of the spectral parameter.  Rejects non-simply-laced
    diagrams (the statement is only available simply-laced).
    """
    if not c.simply_laced:
        raise DiagramError("smallness criterion requires a simply-laced diagram")
    if i not in c.nodes:
        raise DiagramError(f"node {i} not in diagram {c.name}")
    if k < 1:
        raise ValueError("level k must be >= 1")
    if k <= 2:
        return SMALL
    if c.degree(i) <= 1:
        di = classify_nodes(c).d[i]
        if di is None or k <= di + 1:
            return SMALL
    return NOT_SMALL


@dataclass
class Enumeration:
    """Dominant monomials below a string monomial, with their witnesses."""

    entries: list  # [(Monomial, AWitness)]
    partial: bool
    visited: int


def _support_box(c, i, k, r):
    """Cells (j, power) that can carry a root-step count for a dominant
    monomial below the level-k string at node i based at power r.

    A node enters only within graph distance k-1 of i, powers only within
    the distance-shrunk window, and (on bipartite diagrams) only on the
    parity that keeps all Y-contributions on the sublattice the string
    generates.  Cells are ordered by descending power for the search.
    """
    color = c.two_coloring()
    beta = None
    if color is not None:
        beta = (r + k - 1 + color[i]) % 2
    cells = []
    for j, d in c.distances((i,)).items():
        if d > k - 1:
            continue
        for rel in range(d + 1 - k, k - d):
            p = r + rel
            if beta is not None and (p + beta + color[j] + 1) % 2 != 0:
                continue
            cells.append((j, p))
    cells.sort(key=lambda jp: (-jp[1], jp[0]))
    return cells


def enumerate_dominant_below(c: CartanData, i, k: int, r: int,
                             budget: int = DEFAULT_ENUM_NODES) -> Enumeration:
    """All dominant monomials m' <= X for X the level-k string at node i.

    Depth-first search over root-step tables supported on the locality box,
    per-cell counts capped at k, scanning powers from the top down, in one
    loop with the counts as its stack, so no box is too deep for it.  The
    exponents live in a list indexed by the box's keys (those of X and of
    every cell's A-row), and a cell's step is a tuple of (position, change)
    pairs.  A branch dies as soon as a negative exponent sits on a key that
    no remaining cell can raise.  This is sound: A_{j,p}^{-1} raises only
    the keys Y_{l,p} with l adjacent to j (the negative entries of A_{j,p})
    and lowers every other key it touches, so such an exponent stays
    negative on every leaf below.

    The prune is a finalisation test.  ``levels[idx]`` holds the keys that
    cell idx touches and that no later cell raises.  A node that sets the
    count of cell idx has a live parent, whose negative keys were all
    raisable from cell idx on; a key that cell idx does not touch keeps the
    parent's exponent and, if negative, stays raisable after idx.  So a
    node holds a negative key that nothing below it raises exactly when
    some key in ``levels[idx]`` is negative, and this test kills the same
    nodes as comparing every negative key with the keys raisable after idx.
    Each child is counted in ``visited`` and then tested before the search
    descends into it, so ``visited``, ``partial`` and the budget count
    every node either test would reach.  At a leaf nothing is raisable, so
    a live leaf is dominant.

    The keys that cell idx lowers fix its count range once, when the search
    enters the depth: on a simply-laced diagram each count lowers each of
    them by exactly 1, so counts 0..top with top = min(k, their exponents)
    keep them nonnegative and run only the test on the others.  Count 0
    keeps the live parent's exponents, so top >= 0.  Counts top+1..k, the
    dead tail, are counted in ``visited`` in one step, within the budget,
    and never built.  An entry's key and witness are read off the exponents
    and counts in canonical key and cell order, computed once per call, so
    no entry is sorted.  Every entry is checked against its witness applied
    to X, which recomputes it through the A-rows.
    """
    if not c.simply_laced:
        raise DiagramError("dominant-monomial enumeration is implemented for "
                           "simply-laced diagrams")
    if i not in c.nodes:
        raise DiagramError(f"node {i} not in diagram {c.name}")
    X = kr_highest(c, i, k, r)
    if budget <= 0:
        return Enumeration(entries=[], partial=True, visited=0)
    cells = _support_box(c, i, k, r)
    if not cells:  # the root X, counted and dominant, is the only node
        return Enumeration(entries=[(X, AWitness())], partial=False, visited=1)
    pos = {key: q for q, (key, _) in enumerate(X.items())}
    steps = [tuple((pos.setdefault((l, p + d), len(pos)), -ae)
                   for (l, d), ae in c.a_row(j)) for j, p in cells]
    u = dict(X.items())
    expo = [u.get(key, 0) for key in pos]
    # levels[idx]: cell idx's step, then the keys it touches and no later
    # cell raises, as (keys that cell idx lowers, the others)
    levels = []
    raised = set()
    for st in reversed(steps):
        levels.append((st, tuple(q for q, x in st if q not in raised and x < 0),
                       tuple(q for q, x in st if q not in raised and x > 0)))
        raised.update(q for q, x in st if x > 0)
    levels.reverse()

    # the search stack: the count at each depth and the top of its range
    counts = [0] * len(levels)
    tops = [0] * len(levels)
    out = []
    korder = None  # positions of the keys in canonical order, at the first entry
    partial = False
    visited = 1  # the root is X itself, counted and dominant
    depth = v = 0  # v: the next count to try at this depth
    st, lowered, others = levels[0]
    top = 0  # count 0 is in every range; a new depth sets its own top there
    last = len(levels) - 1
    while True:
        if v <= top:
            if v:
                for q, x in st:
                    expo[q] += x
                counts[depth] = v
            else:  # a new depth: each count lowers each lowered key by 1
                top = k
                for q in lowered:
                    if expo[q] < top:
                        top = expo[q]
                tops[depth] = top
            if visited >= budget:
                partial = True
                break
            visited += 1
            for q in others:
                if expo[q] < 0:
                    break
            else:
                if depth < last:  # a live child: descend into it
                    depth, v = depth + 1, 0
                    st, lowered, others = levels[depth]
                    continue
                if korder is None:
                    skeys = sorted(pos)
                    korder = [pos[key] for key in skeys]
                    corder = sorted(range(len(cells)), key=cells.__getitem__)
                    scells = [cells[idx] for idx in corder]
                m = Monomial._from_key(tuple([
                    (key, e) for key, e in zip(skeys, map(expo.__getitem__, korder))
                    if e]))
                wit = AWitness._from_key(tuple([
                    (cell, n) for cell, n in zip(scells, map(counts.__getitem__, corder))
                    if n]))
                if wit.apply(c, X) != m:
                    raise AssertionError(
                        "enumeration witness does not reach its monomial")
                out.append((m, wit))
            v += 1
            continue
        # counts top+1..k leave a lowered key negative, and nothing below
        # raises it: count them as dead nodes, up to the budget, unbuilt
        if visited + k - top > budget:
            visited, partial = budget, True
            break
        visited += k - top
        v = counts[depth]  # every count at this depth is done: undo it
        if v:
            for q, x in st:
                expo[q] -= v * x
            counts[depth] = 0
        depth -= 1
        if depth < 0:
            break
        v = counts[depth] + 1
        st, lowered, others = levels[depth]
        top = tops[depth]
    out.sort(key=lambda ew: ew[0].key)
    return Enumeration(entries=out, partial=partial, visited=visited)


@dataclass
class EmpiricalRecord:
    """Character-level evidence for one (diagram, node, level) cell: what
    the verdict and the output read, and no character.  ``not_special``
    holds the certifying ``SpecialnessReport``s in entry order, each with
    its entry as ``subject``; a consistent closure leaves nothing.  The
    verdict is NotSmall on a certificate, Small on a complete enumeration
    with nothing undetermined, and Undetermined otherwise."""

    entries: list = field(default_factory=list)   # [(Monomial, AWitness)]
    not_special: list = field(default_factory=list)  # [SpecialnessReport]
    undetermined: list = field(default_factory=list)  # [Monomial]
    no_candidate: list = field(default_factory=list)  # special without a closure
    partial_enumeration: bool = False

    @property
    def verdict(self) -> str:
        if self.not_special:
            return NOT_SMALL
        if self.partial_enumeration or self.undetermined:
            return UNDETERMINED
        return SMALL


@dataclass
class SmallnessVerdict:
    """The closed-form verdict of one cell beside its empirical evidence."""

    diagram: str
    node: int
    k: int
    r: int
    theoretical: str
    empirical: EmpiricalRecord

    @property
    def agree(self) -> bool:
        return self.empirical.verdict == self.theoretical

    def _doc(self) -> dict:
        emp = self.empirical
        return {"diagram": self.diagram, "node": self.node, "k": self.k,
                "r": self.r, "theoretical": self.theoretical,
                "empirical": {
                    "dominant_count": len(emp.entries),
                    "dominant": [{"monomial": m, "witness_table": w}
                                 for m, w in emp.entries],
                    "witnesses": [{"monomial": rep.subject, "witness": rep.witness,
                                   "chain": [s._doc() for s in rep.chain]}
                                  for rep in emp.not_special],
                    "undetermined": emp.undetermined,
                    "no_candidate": emp.no_candidate,
                    "partial_enumeration": emp.partial_enumeration,
                    "verdict": emp.verdict,
                },
                "agree": self.agree}


def no_candidate_entries(enum: Enumeration) -> list:
    """Entries m' other than the string X that are special without a closure.

    When the enumeration is complete and no other entry lies below m',
    L(m') is special: every monomial of chi_q(L(m')) is <= m' <= X, so
    every dominant one is an entry below m' (Frenkel-Mukhin).  Entries
    share X, so d <= m' iff w_d - w_{m'} >= 0 entrywise.  X itself (the
    empty witness table) keeps its closure even when it is the only entry.
    """
    if enum.partial:
        return []
    tables = [dict(w.items()) for _, w in enum.entries]
    return [m for (m, w), t in zip(enum.entries, tables) if t and not any(
        d != t and all(d.get(cell, 0) >= n for cell, n in w.items())
        for d in tables)]


def check_small_empirical(c: CartanData, i, k: int, r: int,
                          budgets: Budgets = Budgets()) -> SmallnessVerdict:
    """Verify the smallness verdict through characters.

    Enumerates the dominant monomials below the string and runs the
    closure on each entry that ``no_candidate_entries`` does not clear;
    ``EmpiricalRecord.verdict`` combines the outcomes.  The closures build
    no character, as the verdict reads none, and only a certifying report
    is kept.  The closures of one cell share one expansion engine.
    """
    theoretical = classify(c, i, k)
    enum = enumerate_dominant_below(c, i, k, r, budget=budgets.enum_nodes)
    record = EmpiricalRecord(entries=enum.entries,
                             no_candidate=no_candidate_entries(enum),
                             partial_enumeration=enum.partial)
    # every entry lies at or above the lowest power of the string X
    ex = _Expander(c, base=r - c.r(i) * (k - 1))
    cleared = set(record.no_candidate)
    for m, _w in enum.entries:
        if m in cleared:
            continue
        rep = fm_algorithm(c, m, budget=budgets.fm_steps,
                           process_budget=budgets.process_steps,
                           _expander=ex, _qchar=False)
        if rep.verdict == NOT_SPECIAL:
            record.not_special.append(rep)
        elif rep.verdict == INCONCLUSIVE:
            record.undetermined.append(m)
    return SmallnessVerdict(diagram=c.name, node=i, k=k, r=r,
                            theoretical=theoretical, empirical=record)


def sweep(diagrams, kmax: int, r: int = 0,
          budgets: Budgets = Budgets()) -> list:
    """Empirical-vs-closed-form verdicts for every node and level up to kmax."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not diagrams:
        raise ValueError("no diagrams to sweep")
    return [check_small_empirical(c, i, k, r, budgets)
            for c in diagrams for i in c.nodes for k in range(1, kmax + 1)]


# --- built-in counterexample replays --------------------------------------

@dataclass
class ReplayResult:
    name: str
    passed: bool
    details: list


# name, diagram, node i, level k, base power r, start one root step below
# the string, monomials the start's certifying chain passes (witness last)
_REMARKS = (
    ("sl4-interior-string", "A3", 2, 3, 2, "1_1 3_1 2_4",
     ("1_3^-1 2_2^2 2_4 3_3^-1", "2_2")),
    ("fork-d4-leaf-level-4", "D4", 1, 4, 2, "1_3 1_5 2_0",
     ("1_1 1_3 1_5 2_2^-1 3_1 4_1", "1_1 1_3 1_5 2_2 3_3^-1 4_3^-1",
      "1_1 1_3^2 1_5 2_4^-1", "1_1 1_3")),
    ("triangle-cycle-level-3", "A2~", 2, 3, 2, "1_1 0_1 2_4",
     ("0_2 0_3^-1 1_2 1_3^-1 2_2^2 2_4", "0_2 1_2 2_2")),
)


def _replay(name, spec, i, k, r, start, reach, budgets):
    """Replay one ``_REMARKS`` row: the level-k string at node i is not small.

    Each line but the start's dominance and the closed form reads the one
    cell the row runs: the start's entry gives its witness table, and its
    certificate's chain must pass each listed monomial and replay apart
    from the engine; a start without one reaches only itself.  An affine
    row caps budgets at 400: its closures stop only at their caps (its
    simple modules are infinite dimensional), and its chain needs far less.
    """
    c = parse_diagram(spec)
    if c.affine:
        budgets = Budgets(min(budgets.fm_steps, 400),
                          min(budgets.process_steps, 400), budgets.enum_nodes)
    m = parse_monomial(start)
    listed = [parse_monomial(t) for t in reach]
    cell = check_small_empirical(c, i, k, r, budgets)
    w = next((w for e, w in cell.empirical.entries if e == m), None)
    rep = next((p for p in cell.empirical.not_special if p.subject == m), None)
    witness, chain = (rep.witness, rep.chain) if rep else (None, ())
    trace = GenerationTrace(m, {m: (), witness: chain} if rep else {m: ()})
    passed = {m, *(s.result for s in chain)}
    checks = [
        (m.is_dominant(), f"start {format_monomial(m)} is dominant"),
        (w is not None and w.total() == 1,
         f"start sits one root step below the level-{k} string at node {i}"),
        *((t in passed, f"certificate chain passes {format_monomial(t)}")
          for t in listed),
        (trace.replay(c), "generation chains replay"),
        (witness is not None, "closure flags the start not special"),
        (witness == listed[-1], f"witness is {format_monomial(listed[-1])}"),
        (cell.empirical.verdict == NOT_SMALL, "empirical verdict NotSmall"),
        (cell.agree, "closed form agrees"),
    ]
    return ReplayResult(name, all(ok for ok, _ in checks),
                        [("PASS " if ok else "FAIL ") + text for ok, text in checks])


def verify_counterexamples(budgets: Budgets = Budgets()) -> list:
    """Replay every built-in non-smallness row of ``_REMARKS`` end to end."""
    return [_replay(*row, budgets) for row in _REMARKS]

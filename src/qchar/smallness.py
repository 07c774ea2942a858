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
    _Expander,
    fm_algorithm,
    generate_process,
)
from .monomials import (
    AWitness,
    Monomial,
    divide_as_a_product,
    format_monomial,
    kr_highest,
    parse_monomial,
    plain_json,
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
    per-cell counts capped at k, scanning powers from the top down.  The
    exponents live in a list indexed by the box's keys (those of X and of
    every cell's A-row), and a cell's step is a tuple of (position, change)
    pairs.  A branch dies as soon as a negative exponent sits on a key that
    no remaining cell can raise.  This is sound: A_{j,p}^{-1} raises only
    the keys Y_{l,p} with l adjacent to j (the negative entries of A_{j,p})
    and lowers every other key it touches, so such an exponent stays
    negative on every leaf below.

    The prune is a finalisation test.  ``check[idx]`` holds the keys that
    cell idx-1 touches and that no cell from idx on raises.  A node at
    depth idx has a live parent, whose negative keys were all raisable
    from idx-1 on; a key that cell idx-1 does not touch keeps the parent's
    exponent and, if negative, stays raisable from idx on.  So a node holds
    a negative key that nothing below it raises exactly when some key in
    ``check[idx]`` is negative, and this test kills the same nodes as
    comparing every negative key with the keys raisable from idx on.  Each
    child is counted in ``visited`` and then tested before the search
    descends into it, so ``visited``, ``partial`` and the budget count
    every node either test would reach.  At a leaf nothing is raisable, so
    a live leaf is dominant.  Every emitted monomial is checked against its
    witness applied to X.
    """
    if not c.simply_laced:
        raise DiagramError("dominant-monomial enumeration is implemented for "
                           "simply-laced diagrams")
    if i not in c.nodes:
        raise DiagramError(f"node {i} not in diagram {c.name}")
    X = kr_highest(c, i, k, r)
    cells = _support_box(c, i, k, r)
    n = len(cells)
    pos = {key: q for q, (key, _) in enumerate(X.items())}
    steps = [tuple((pos.setdefault((l, p + d), len(pos)), -ae)
                   for (l, d), ae in c.a_row(j)) for j, p in cells]
    keys = list(pos)
    u = dict(X.items())
    expo = [u.get(key, 0) for key in keys]
    # check[idx]: keys that cell idx-1 touches and no cell from idx on raises
    check = [()] * (n + 1)
    raised = set()
    for idx in range(n, 0, -1):
        st = steps[idx - 1]
        check[idx] = tuple(q for q, _ in st if q not in raised)
        raised.update(q for q, x in st if x > 0)

    counts = [0] * n
    out = []
    visited = 0
    partial = False

    def rec(idx):
        nonlocal visited, partial
        if idx == n:
            m = Monomial(dict(zip(keys, expo)))
            wit = AWitness({cell: v for cell, v in zip(cells, counts) if v})
            if wit.apply(c, X) != m:
                raise AssertionError("enumeration witness does not reach its monomial")
            out.append((m, wit))
            return
        st, chk = steps[idx], check[idx + 1]
        for v in range(k + 1):
            if v:
                for q, x in st:
                    expo[q] += x
                counts[idx] = v
            if visited >= budget:
                partial = True
                break
            visited += 1
            for q in chk:
                if expo[q] < 0:
                    break
            else:
                rec(idx + 1)
                if partial:
                    break
        v = counts[idx]
        if v:
            for q, x in st:
                expo[q] -= v * x
            counts[idx] = 0

    if budget > 0:  # the root is X itself, counted and dominant
        visited = 1
        rec(0)
    else:
        partial = True
    out.sort(key=lambda ew: ew[0].key)
    return Enumeration(entries=out, partial=partial, visited=visited)


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


@dataclass
class EmpiricalRecord:
    """Character-level evidence for one (diagram, node, level) cell."""

    entries: list = field(default_factory=list)   # [(Monomial, AWitness)]
    reports: dict = field(default_factory=dict)   # Monomial -> SpecialnessReport
    not_special: list = field(default_factory=list)
    undetermined: list = field(default_factory=list)
    no_candidate: list = field(default_factory=list)  # special without a closure
    partial_enumeration: bool = False
    verdict: str = UNDETERMINED


@dataclass
class SmallnessVerdict:
    diagram: str
    node: int
    k: int
    r: int
    theoretical: str
    empirical: EmpiricalRecord
    agree: bool

    def _doc(self) -> dict:
        emp = self.empirical
        witnesses = []
        for m in emp.not_special:
            rep = emp.reports[m]
            witnesses.append({"monomial": m, "witness": rep.witness,
                              "chain": [s._doc() for s in rep.chain]})
        return {"diagram": self.diagram, "node": self.node, "k": self.k,
                "r": self.r, "theoretical": self.theoretical,
                "empirical": {
                    "dominant_count": len(emp.entries),
                    "dominant": [{"monomial": m, "witness_table": w}
                                 for m, w in emp.entries],
                    "witnesses": witnesses,
                    "undetermined": emp.undetermined,
                    "no_candidate": emp.no_candidate,
                    "partial_enumeration": emp.partial_enumeration,
                    "verdict": emp.verdict,
                },
                "agree": self.agree}

    def to_json(self) -> dict:
        return plain_json(self._doc())


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
    return [m for m, w in enum.entries if w.v and not any(
        d != w and all(d.v.get(cell, 0) >= n for cell, n in w.items())
        for _, d in enum.entries)]


def check_small_empirical(c: CartanData, i, k: int, r: int,
                          budgets: Budgets = Budgets()) -> SmallnessVerdict:
    """Verify the smallness verdict through characters.

    Enumerates the dominant monomials below the string, runs the closure on
    each, and combines: a certified second dominant monomial anywhere means
    NotSmall; all closures consistent (and the enumeration complete) means
    Small; anything unresolved leaves the cell Undetermined.

    Entries that ``no_candidate_entries`` clears get no closure and no
    report.  The closures of one cell share one expansion engine.
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
                           process_budget=budgets.process_steps, _expander=ex)
        record.reports[m] = rep
        if rep.verdict == NOT_SPECIAL:
            record.not_special.append(m)
        elif rep.verdict == INCONCLUSIVE:
            record.undetermined.append(m)

    if record.not_special:
        record.verdict = NOT_SMALL
    elif not record.undetermined and not record.partial_enumeration:
        record.verdict = SMALL
    else:
        record.verdict = UNDETERMINED
    return SmallnessVerdict(diagram=c.name, node=i, k=k, r=r,
                            theoretical=theoretical, empirical=record,
                            agree=(record.verdict == theoretical))


def sweep(diagrams, kmax: int, r: int = 0,
          budgets: Budgets = Budgets()) -> list:
    """Empirical-vs-closed-form verdicts for every node and level up to kmax."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not diagrams:
        raise ValueError("no diagrams to sweep")
    verdicts = []
    for c in diagrams:
        for i in c.nodes:
            for k in range(1, kmax + 1):
                verdicts.append(check_small_empirical(c, i, k, r, budgets))
    return verdicts


# --- built-in counterexample replays --------------------------------------

@dataclass
class ReplayResult:
    name: str
    passed: bool
    details: list


# name, diagram, node i, level k, base power r, start one root step below
# the string, monomials the generation process must reach (the last one is
# the closure's witness)
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

    Simple modules of an affine diagram's quantum affinization are infinite
    dimensional, so closures stop only at their step caps; an affine row
    caps its budgets at 400, well above what its listed monomials and its
    witness need.
    """
    c = parse_diagram(spec)
    if c.affine:
        budgets = Budgets(min(budgets.fm_steps, 400),
                          min(budgets.process_steps, 400), budgets.enum_nodes)
    m = parse_monomial(start)
    listed = [parse_monomial(t) for t in reach]
    w = divide_as_a_product(c, m, kr_highest(c, i, k, r))
    trace = generate_process(c, m, budget=budgets.process_steps)
    rep = fm_algorithm(c, m, budgets.fm_steps, budgets.process_steps)
    cell = check_small_empirical(c, i, k, r, budgets)
    checks = [
        (m.is_dominant(), f"start {format_monomial(m)} is dominant"),
        (w is not None and w.total() == 1,
         f"start sits one root step below the level-{k} string at node {i}"),
        *((t in trace, f"process generates {format_monomial(t)}") for t in listed),
        (trace.replay(c), "generation chains replay"),
        (rep.verdict == NOT_SPECIAL, "closure flags the start not special"),
        (rep.witness == listed[-1], f"witness is {format_monomial(listed[-1])}"),
        (cell.empirical.verdict == NOT_SMALL, "empirical verdict NotSmall"),
        (cell.agree, "closed form agrees"),
    ]
    return ReplayResult(name, all(ok for ok, _ in checks),
                        [("PASS " if ok else "FAIL ") + text for ok, text in checks])


def verify_counterexamples(budgets: Budgets = Budgets()) -> list:
    """Replay every built-in non-smallness row of ``_REMARKS`` end to end."""
    return [_replay(*row, budgets) for row in _REMARKS]

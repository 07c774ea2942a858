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

from .cartan import CartanData, DiagramError, classify_nodes, graph_distance
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
    a_exponents,
    a_monomial,
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
    for j in c.nodes:
        d = graph_distance(c, i, j)
        if d is None or d > k - 1:
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
    per-cell counts capped at k, scanning powers from the top down.  A
    branch dies as soon as a negative exponent sits on a key that no
    remaining cell can raise.  This is sound: A_{j,p}^{-1} raises
    only the keys Y_{l,p} with l adjacent to j (the negative entries of
    A_{j,p}) and lowers every other key it touches, so such an exponent
    stays negative on every leaf below.  Every emitted monomial is
    round-tripped through the witness solver.
    """
    if not c.simply_laced:
        raise DiagramError("dominant-monomial enumeration is implemented for "
                           "simply-laced diagrams")
    if i not in c.nodes:
        raise DiagramError(f"node {i} not in diagram {c.name}")
    X = kr_highest(c, i, k, r)
    cells = _support_box(c, i, k, r)
    steps = [tuple(a_exponents(c, j, p).items()) for j, p in cells]
    # raisable[idx]: keys that some cell from idx on raises
    raisable = [frozenset()]
    for st in reversed(steps):
        raisable.append(raisable[-1] | {key for key, ae in st if ae < 0})
    raisable.reverse()

    expo = dict(X.items())
    neg = set()
    counts = [0] * len(cells)
    out = []
    visited = 0
    partial = False

    def rec(idx):
        nonlocal visited, partial
        if visited >= budget:
            partial = True
            return
        visited += 1
        if not neg <= raisable[idx]:
            return
        if idx == len(cells):
            m = Monomial(expo)
            wit = AWitness({cell: n for cell, n in zip(cells, counts) if n})
            check = divide_as_a_product(c, m, X)
            if check != wit:
                raise AssertionError("enumeration witness failed round-trip")
            out.append((m, wit))
            return
        rec(idx + 1)
        st = steps[idx]
        for v in range(1, k + 1):
            for key, ae in st:
                w = expo.get(key, 0) - ae
                if w:
                    expo[key] = w
                    if w < 0:
                        neg.add(key)
                    else:
                        neg.discard(key)
                else:
                    del expo[key]
                    neg.discard(key)
            counts[idx] = v
            rec(idx + 1)
            if partial:
                break
        for key, ae in st:  # undo this cell's counts in one pass
            w = expo.get(key, 0) + counts[idx] * ae
            if w:
                expo[key] = w
                if w < 0:
                    neg.add(key)
                else:
                    neg.discard(key)
            else:
                expo.pop(key, None)
                neg.discard(key)
        counts[idx] = 0

    rec(0)
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
    empirical: EmpiricalRecord | None = None
    agree: bool | None = None

    def _doc(self) -> dict:
        out = {"diagram": self.diagram, "node": self.node, "k": self.k,
               "r": self.r, "theoretical": self.theoretical}
        if self.empirical is not None:
            emp = self.empirical
            witnesses = []
            for m in emp.not_special:
                rep = emp.reports[m]
                witnesses.append({"monomial": m, "witness": rep.witness,
                                  "chain": [s._doc() for s in rep.chain]})
            out["empirical"] = {
                "dominant_count": len(emp.entries),
                "dominant": [{"monomial": m, "witness_table": w}
                             for m, w in emp.entries],
                "witnesses": witnesses,
                "undetermined": emp.undetermined,
                "no_candidate": emp.no_candidate,
                "partial_enumeration": emp.partial_enumeration,
                "verdict": emp.verdict,
            }
            out["agree"] = self.agree
        return out

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
    ex = _Expander(c)
    for m, _w in enum.entries:
        if m in record.no_candidate:
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


def _check(details, ok, text):
    details.append(("PASS " if ok else "FAIL ") + text)
    return ok


def _replay_interior_string_sl4(budgets):
    """Length-3 string at the middle node of the A_3 chain is not small."""
    from .cartan import build_diagram
    c = build_diagram("A", 3)
    details = []
    ok = True
    m = parse_monomial("2_0 2_2 2_4")
    mp = m * (a_monomial(c, 2, 1) ** -1)
    ok &= _check(details, mp == parse_monomial("1_1 3_1 2_4"),
                 "first descent is 1_1 3_1 2_4")
    ok &= _check(details, mp.is_dominant(), "descent is dominant")
    trace = generate_process(c, mp, budget=budgets.process_steps)
    listed = [parse_monomial("1_3^-1 3_3^-1 2_2^2 2_4"), parse_monomial("2_2")]
    for t in listed:
        ok &= _check(details, t in trace,
                     f"process generates {format_monomial(t)}")
    ok &= _check(details, trace.replay(c), "generation chains replay")
    rep = fm_algorithm(c, mp, budgets.fm_steps, budgets.process_steps)
    ok &= _check(details, rep.verdict == NOT_SPECIAL,
                 "closure flags the descent not special")
    ok &= _check(details, rep.witness == parse_monomial("2_2"),
                 "witness is 2_2")
    cell = check_small_empirical(c, 2, 3, 2, budgets)
    ok &= _check(details, cell.empirical.verdict == NOT_SMALL,
                 "empirical verdict NotSmall")
    ok &= _check(details, cell.theoretical == NOT_SMALL and cell.agree,
                 "closed form agrees")
    return ReplayResult("sl4-interior-string", bool(ok), details)


def _replay_fork_d4(budgets):
    """Length-4 string at a leaf of D_4 is not small."""
    from .cartan import build_diagram
    c = build_diagram("D", 4)
    details = []
    ok = True
    m = parse_monomial("1_3 1_5 2_0")
    X = kr_highest(c, 1, 4, 2)
    w = divide_as_a_product(c, m, X)
    ok &= _check(details, w is not None and w.key == (((1, 0), 1),),
                 "start sits one root step below the level-4 leaf string")
    trace = generate_process(c, m, budget=budgets.process_steps)
    listed = ["1_1 1_3 1_5 2_2^-1 3_1 4_1", "1_1 1_3 1_5 2_2 3_3^-1 4_3^-1",
              "1_1 1_3^2 1_5 2_4^-1", "1_1 1_3"]
    for t in listed:
        ok &= _check(details, parse_monomial(t) in trace,
                     f"process generates {t}")
    ok &= _check(details, trace.replay(c), "generation chains replay")
    rep = fm_algorithm(c, m, budgets.fm_steps, budgets.process_steps)
    ok &= _check(details, rep.verdict == NOT_SPECIAL,
                 "closure flags the start not special")
    cell = check_small_empirical(c, 1, 4, 2, budgets)
    ok &= _check(details, cell.empirical.verdict == NOT_SMALL,
                 "empirical verdict NotSmall")
    ok &= _check(details, classify(c, 1, 4) == NOT_SMALL and cell.agree,
                 "closed form agrees")
    return ReplayResult("fork-d4-leaf-level-4", bool(ok), details)


def _replay_triangle_cycle(budgets):
    """Length-3 string on the 3-cycle (affine A_2) is not small.

    Simple modules of the triangle's quantum affinization are infinite
    dimensional, so closures stop only at their step caps; the replay
    caps its budgets well below the defaults (the listed monomials and
    the non-specialness witness all sit within a few root steps).
    """
    from .cartan import build_diagram
    c = build_diagram("A", 2, affine=True)
    budgets = Budgets(fm_steps=min(budgets.fm_steps, 400),
                      process_steps=min(budgets.process_steps, 400),
                      enum_nodes=budgets.enum_nodes)
    details = []
    ok = True
    m = parse_monomial("2_0 2_2 2_4")
    mp = m * (a_monomial(c, 2, 1) ** -1)
    ok &= _check(details, mp == parse_monomial("1_1 0_1 2_4"),
                 "first descent is 1_1 0_1 2_4")
    trace = generate_process(c, mp, budget=budgets.process_steps)
    listed = [parse_monomial("1_3^-1 0_3^-1 1_2 0_2 2_2^2 2_4"),
              parse_monomial("2_2 1_2 0_2")]
    for t in listed:
        ok &= _check(details, t in trace,
                     f"process generates {format_monomial(t)}")
    ok &= _check(details, trace.replay(c), "generation chains replay")
    cell = check_small_empirical(c, 2, 3, 2, budgets)
    ok &= _check(details, cell.empirical.verdict == NOT_SMALL,
                 "empirical verdict NotSmall")
    ok &= _check(details, classify(c, 2, 3) == NOT_SMALL and cell.agree,
                 "closed form agrees")
    return ReplayResult("triangle-cycle-level-3", bool(ok), details)


def verify_counterexamples(budgets: Budgets = Budgets()) -> list:
    """Replay the three built-in non-smallness pipelines end to end."""
    return [_replay_interior_string_sl4(budgets),
            _replay_fork_d4(budgets),
            _replay_triangle_cycle(budgets)]

"""Acceptance suite.

One test per acceptance criterion; each prints a single
``[acceptance] criterion N ...: PASS`` line (run pytest with ``-s`` or
check captured output) and asserts its stated runtime bound.  All
comparisons are exact integer equalities.
"""

import itertools
import time

from _characters import qchar_is_thin
from _enum_oracle import box_cells, box_dominants, check_type_A_form
from _fuzz import (
    run_partial_order_axioms,
    run_right_negativity,
    run_weight_bookkeeping,
    run_witness_round_trip,
)
from _sl2 import standard_qchar_sl2

from qchar.cartan import build_diagram
from qchar.expansion import (
    NOT_SPECIAL,
    SPECIAL_FM_CONSISTENT,
    GenerationTrace,
    fm_algorithm,
    generate_process,
)
from qchar.monomials import (
    Monomial,
    a_monomial,
    divide_as_a_product,
    kr_highest,
    parse_monomial,
)
from qchar.smallness import (
    NOT_SMALL,
    Budgets,
    check_small_empirical,
    classify,
    enumerate_dominant_below,
    sweep,
)

A1 = build_diagram("A", 1)


def _report(n, label, t0):
    print(f"[acceptance] criterion {n} ({label}): PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_rank1_closed_forms():
    t0 = time.perf_counter()
    for k in range(1, 11):
        X = kr_highest(A1, 1, k, 0)
        rep = fm_algorithm(A1, X)
        assert rep.verdict == SPECIAL_FM_CONSISTENT
        assert len(rep.qchar) == k + 1
        assert all(t == 1 for t in rep.qchar.terms.values())
        # literal nested-product expansion, built independently here
        expected = {X: 1}
        cur = X
        for t in range(k):
            cur = cur * (a_monomial(A1, 1, k - 2 * t) ** -1)
            expected[cur] = 1
        assert rep.qchar.terms == expected

        std = standard_qchar_sl2(k, 0)
        assert len(std) == 2 ** k
        assert all(t == 1 for t in std.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "rank-1 closed forms k=1..10", t0)


def test_criterion_2_interior_string_sl4():
    t0 = time.perf_counter()
    c = build_diagram("A", 3)
    m = parse_monomial("2_0 2_2 2_4")
    assert m == kr_highest(c, 2, 3, 2)
    mp = m * (a_monomial(c, 2, 1) ** -1)
    assert mp == parse_monomial("1_1 3_1 2_4")
    enum = enumerate_dominant_below(c, 2, 3, 2)
    assert mp in [x for x, _ in enum.entries]

    trace = generate_process(c, mp)
    assert parse_monomial("1_3^-1 3_3^-1 2_2^2 2_4") in trace.chains
    assert parse_monomial("2_2") in trace.chains
    assert trace.replay(c)

    rep = fm_algorithm(c, mp)
    assert rep.verdict == NOT_SPECIAL and rep.witness == parse_monomial("2_2")

    cell = check_small_empirical(c, 2, 3, 2)
    assert cell.theoretical == NOT_SMALL
    assert cell.empirical.verdict == NOT_SMALL and cell.agree
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    _report(2, "interior string of the 4-chain", t0)


def test_criterion_3_fork_leaf_level_4():
    t0 = time.perf_counter()
    c = build_diagram("D", 4)
    m = parse_monomial("1_3 1_5 2_0")
    X = kr_highest(c, 1, 4, 2)
    w = divide_as_a_product(c, m, X)
    assert w is not None and dict(w.key) == {(1, 0): 1}

    trace = generate_process(c, m)
    listed = [m,
              parse_monomial("1_1 1_3 1_5 2_2^-1 3_1 4_1"),
              parse_monomial("1_1 1_3 1_5 2_2 3_3^-1 4_3^-1"),
              parse_monomial("1_1 1_3^2 1_5 2_4^-1"),
              parse_monomial("1_1 1_3")]
    for x in listed:
        assert x in trace.chains
    assert trace.replay(c)

    cell = check_small_empirical(c, 1, 4, 2)
    assert cell.empirical.verdict == NOT_SMALL
    assert classify(c, 1, 4) == NOT_SMALL and cell.agree
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s"
    _report(3, "fork leaf at level 4", t0)


def test_criterion_4_triangle_cycle():
    t0 = time.perf_counter()
    c = build_diagram("A", 2, affine=True)
    m = parse_monomial("2_0 2_2 2_4")
    mp = m * (a_monomial(c, 2, 1) ** -1)
    assert mp == parse_monomial("1_1 0_1 2_4")
    # the cycle's simple modules are infinite dimensional: closures stop
    # only at their caps, so this cell runs tight budgets (no bound is
    # pinned here; the witness sits a few root steps down)
    budgets = Budgets(fm_steps=400, process_steps=400)
    trace = generate_process(c, mp, budget=budgets.process_steps)
    assert parse_monomial("1_3^-1 0_3^-1 1_2 0_2 2_2^2 2_4") in trace.chains
    assert parse_monomial("2_2 1_2 0_2") in trace.chains

    cell = check_small_empirical(c, 2, 3, 2, budgets)
    assert cell.empirical.verdict == NOT_SMALL
    assert cell.theoretical == NOT_SMALL and cell.agree
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.2f}s"
    _report(4, "triangle cycle at level 3", t0)


def test_criterion_5_classification_sweep(closures):
    t0 = time.perf_counter()
    diagrams = [build_diagram("A", n) for n in (1, 2, 3, 4)]
    diagrams.append(build_diagram("D", 4))
    cells = sweep(diagrams, 4)
    assert len(cells) == (1 + 2 + 3 + 4 + 4) * 4
    closed = iter(closures)  # the sweep's closures, cell after cell
    for cell in cells:
        emp = cell.empirical
        assert cell.agree, (cell.diagram, cell.node, cell.k)
        # one closure per entry the cell did not clear, in entry order
        opened = [m for m, _ in emp.entries if m not in emp.no_candidate]
        reps = list(itertools.islice(closed, len(opened)))
        assert [r.subject for r in reps] == opened
        assert not emp.partial_enumeration
        if cell.theoretical == NOT_SMALL:
            assert emp.not_special
            # every flagged module carries a chain that replays
            rep = emp.not_special[0]
            mny = rep.subject
            assert rep.witness.is_dominant() and rep.witness != mny
            replay = GenerationTrace(start=mny, chains={rep.witness: rep.chain})
            diagram = next(c for c in diagrams if c.name == cell.diagram)
            assert replay.replay(diagram)
        else:
            assert not emp.undetermined
            assert all(r.verdict == SPECIAL_FM_CONSISTENT for r in reps)
    assert next(closed, None) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.2f}s"
    _report(5, "classification sweep A1-A4, D4, k<=4", t0)


def _oracle_exhaustive(c, i, k, r, cap):
    """Cap-bounded exhaustive product over the full box, no pruning at all."""
    cells = box_cells(c, i, k, r)
    X = kr_highest(c, i, k, r)
    found = set()
    for values in itertools.product(range(cap + 1), repeat=len(cells)):
        m = X
        for (j, p), v in zip(cells, values):
            if v:
                m = m * (a_monomial(c, j, p) ** (-v))
        if m.is_dominant():
            found.add(m)
    return sorted(found, key=lambda m: m.key)


def test_criterion_6_gap_form_oracle_equivalence():
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        c = build_diagram("A", n)
        for k in range(1, 6):
            enum = enumerate_dominant_below(c, 1, k, 0)
            assert not enum.partial
            mine = [m for m, _ in enum.entries]
            assert mine == box_dominants(c, 1, k, 0, cap=k), (n, k)
            assert check_type_A_form(c, enum.entries, k), (n, k)
    # anchor the pruned oracle against a prune-free product on small cases
    for n, k in [(1, 3), (1, 4), (2, 2), (2, 3), (3, 3)]:
        c = build_diagram("A", n)
        enum = enumerate_dominant_below(c, 1, k, 0)
        assert [m for m, _ in enum.entries] == _oracle_exhaustive(c, 1, k, 0, cap=k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.2f}s"
    _report(6, "gap-form oracle equivalence, chains n<=4 k<=5", t0)


def test_criterion_7_level_two_exactness():
    t0 = time.perf_counter()
    diagrams = [build_diagram("A", n) for n in (2, 3, 4, 5)]
    diagrams += [build_diagram("D", 4), build_diagram("D", 5)]
    for c in diagrams:
        for i in c.nodes:
            X = kr_highest(c, i, 2, 0)
            partner = X * (a_monomial(c, i, 0) ** -1)
            assert partner == Monomial({(j, 0): 1 for j in c.neighbors(i)})
            enum = enumerate_dominant_below(c, i, 2, 0)
            assert sorted([m for m, _ in enum.entries], key=lambda m: m.key) == \
                sorted([X, partner], key=lambda m: m.key)
            rep = fm_algorithm(c, partner)
            assert rep.verdict == SPECIAL_FM_CONSISTENT, (c.name, i)
    _report(7, "level-2 dominant pair exactness, rank<=5", t0)


def test_criterion_8_thin_fundamentals_and_string_modules():
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        c = build_diagram("A", n)
        for i in c.nodes:
            rep = fm_algorithm(c, Monomial.y(i, 0))
            assert rep.verdict == SPECIAL_FM_CONSISTENT
            assert qchar_is_thin(rep.qchar), (n, i)
            for k in range(1, 5):
                X = kr_highest(c, i, k, 0)
                rep = fm_algorithm(c, X)
                assert rep.verdict == SPECIAL_FM_CONSISTENT, (n, i, k)
                assert rep.qchar.dominant_monomials() == [X]
                gate = X * (a_monomial(c, i, k) ** -1)
                for mu in rep.qchar.terms:
                    if mu != X:
                        assert divide_as_a_product(c, mu, gate) is not None
    _report(8, "thin fundamentals and string modules, chains n<=4", t0)


def test_criterion_9_structural_suites():
    t0 = time.perf_counter()
    assert run_witness_round_trip(cases=1000, seed=7) == 1000
    assert run_partial_order_axioms(cases=700, seed=8) >= 2100
    assert run_right_negativity(cases=10_000, seed=9) == 10_000
    assert run_weight_bookkeeping(cases=700, seed=10) == 700

    c = build_diagram("A", 3)
    m = parse_monomial("1_1 3_1 2_4")
    base = fm_algorithm(c, m)
    permuted = fm_algorithm(
        c, m, order_within_level=lambda nu: tuple(reversed(nu.key)))
    assert base.verdict == permuted.verdict == NOT_SPECIAL
    assert base.witness == permuted.witness
    assert fm_algorithm(c, m) == base
    _report(9, "structural property suites", t0)

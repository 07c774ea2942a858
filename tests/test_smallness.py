import dataclasses
import functools
import json

import pytest
from _characters import qchar_is_thin
from _enum_oracle import box_dominants, check_type_A_form

from qchar import expansion, smallness
from qchar.cartan import DiagramError, build_diagram, parse_diagram
from qchar.cli import _json_text
from qchar.expansion import (
    NOT_SPECIAL,
    SPECIAL_FM_CONSISTENT,
    QCharacter,
    fm_algorithm,
)
from qchar.monomials import AWitness, Monomial, a_monomial, kr_highest, parse_monomial
from qchar.smallness import (
    NOT_SMALL,
    SMALL,
    UNDETERMINED,
    Budgets,
    EmpiricalRecord,
    SmallnessVerdict,
    check_small_empirical,
    classify,
    enumerate_dominant_below,
    no_candidate_entries,
    sweep,
    verify_counterexamples,
)

A1 = build_diagram("A", 1)
A2 = build_diagram("A", 2)
A3 = build_diagram("A", 3)
A4 = build_diagram("A", 4)
D4 = build_diagram("D", 4)


def test_classify_rank_one_and_two_always_small():
    for c in (A1, A2):
        for i in c.nodes:
            for k in (1, 2, 3, 7):
                assert classify(c, i, k) == SMALL


def test_classify_chain_interior():
    assert classify(A3, 2, 2) == SMALL
    assert classify(A3, 2, 3) == NOT_SMALL
    assert classify(A3, 1, 9) == SMALL
    assert classify(A3, 3, 9) == SMALL
    assert classify(A4, 3, 5) == NOT_SMALL


def test_classify_fork():
    assert classify(D4, 1, 3) == SMALL
    assert classify(D4, 1, 4) == NOT_SMALL
    assert classify(D4, 2, 2) == SMALL
    assert classify(D4, 2, 3) == NOT_SMALL
    # leaf classification is symmetric under the fork automorphisms
    for k in (1, 2, 3, 4, 5):
        assert len({classify(D4, i, k) for i in (1, 3, 4)}) == 1


def test_classify_longer_forks():
    d5 = build_diagram("D", 5)
    # vector leaf sits three steps from the branch node
    assert classify(d5, 1, 4) == SMALL
    assert classify(d5, 1, 5) == NOT_SMALL
    # spin leaves sit two steps away
    assert classify(d5, 4, 3) == SMALL
    assert classify(d5, 4, 4) == NOT_SMALL
    assert classify(d5, 2, 3) == NOT_SMALL  # interior node
    e6 = build_diagram("E", 6)
    assert classify(e6, 1, 4) == SMALL and classify(e6, 1, 5) == NOT_SMALL
    assert classify(e6, 6, 3) == SMALL and classify(e6, 6, 4) == NOT_SMALL
    assert classify(e6, 4, 3) == NOT_SMALL
    e8 = build_diagram("E", 8)
    # branch node is 5, so the long arm's leaf has d_1 = 5
    assert classify(e8, 1, 6) == SMALL and classify(e8, 1, 7) == NOT_SMALL
    assert classify(e8, 7, 4) == SMALL and classify(e8, 7, 5) == NOT_SMALL
    assert classify(e8, 8, 3) == SMALL and classify(e8, 8, 4) == NOT_SMALL


def test_empirical_matches_on_longer_fork_boundaries():
    d5 = build_diagram("D", 5)
    cell = check_small_empirical(d5, 1, 4, 0)  # k = d_1 + 1 boundary
    assert cell.theoretical == SMALL and cell.agree
    assert not cell.empirical.undetermined
    cell = check_small_empirical(d5, 4, 3, 0)  # k = d_4 + 1 boundary
    assert cell.theoretical == SMALL and cell.agree
    assert not cell.empirical.undetermined


def test_classify_affine():
    tri = build_diagram("A", 2, affine=True)
    for i in tri.nodes:
        assert classify(tri, i, 2) == SMALL
        assert classify(tri, i, 3) == NOT_SMALL
    d4t = build_diagram("D", 4, affine=True)
    assert classify(d4t, 0, 3) == SMALL   # leaf at distance 2 from the hub
    assert classify(d4t, 2, 3) == NOT_SMALL


def test_classify_rejections():
    with pytest.raises(DiagramError):
        classify(build_diagram("B", 2), 1, 1)
    with pytest.raises(DiagramError):
        classify(A3, 9, 1)
    with pytest.raises(ValueError):
        classify(A3, 1, 0)


def test_enumerate_level_one_is_singleton():
    for c, i in [(A3, 2), (D4, 2), (A4, 1)]:
        enum = enumerate_dominant_below(c, i, 1, 0)
        assert [m for m, _ in enum.entries] == [kr_highest(c, i, 1, 0)]


def test_enumerate_level_two_pair():
    for c, i in [(A2, 1), (A3, 2), (D4, 2), (A4, 3)]:
        enum = enumerate_dominant_below(c, i, 2, 0)
        X = kr_highest(c, i, 2, 0)
        partner = X * (a_monomial(c, i, 0) ** -1)
        assert partner == Monomial({(j, 0): 1 for j in c.neighbors(i)})
        assert sorted([m for m, _ in enum.entries], key=lambda m: m.key) == \
            sorted([X, partner], key=lambda m: m.key)


def test_enumerate_contains_counter_descent():
    enum = enumerate_dominant_below(A3, 2, 3, 2)
    assert parse_monomial("1_1 3_1 2_4") in [m for m, _ in enum.entries]


def test_enumerate_witnesses_and_order():
    enum = enumerate_dominant_below(D4, 1, 4, 2)
    X = kr_highest(D4, 1, 4, 2)
    keys = [m.key for m, _ in enum.entries]
    assert keys == sorted(keys)
    for m, w in enum.entries:
        assert m.is_dominant()
        assert w.apply(D4, X) == m
    assert parse_monomial("1_3 1_5 2_0") in [m for m, _ in enum.entries]


def test_enumerate_budget_partial():
    enum = enumerate_dominant_below(D4, 2, 4, 0, budget=10)
    assert enum.partial


def test_enumerate_rejects_non_simply_laced():
    with pytest.raises(DiagramError):
        enumerate_dominant_below(build_diagram("B", 2), 1, 2, 0)


def test_enumerate_rejects_unknown_node():
    with pytest.raises(DiagramError, match="node 9 not in diagram D4"):
        enumerate_dominant_below(D4, 9, 2, 0)


@functools.lru_cache(maxsize=None)
def _complete(name, rank, i, k):
    enum = enumerate_dominant_below(build_diagram(name, rank), i, k, 0)
    assert not enum.partial
    return enum


def test_enumerate_matches_box_oracle_on_forks():
    # the oracle scans the whole box bottom-up and prunes by power alone
    d5, e6 = build_diagram("D", 5), build_diagram("E", 6)
    cases = [(D4, i, k) for i in (1, 2) for k in (1, 2, 3, 4)]
    cases += [(d5, 3, 4), (e6, 3, 4)]
    for c, i, k in cases:
        enum = enumerate_dominant_below(c, i, k, 0)
        assert not enum.partial
        mine = [m for m, _ in enum.entries]
        assert mine == box_dominants(c, i, k, 0, cap=k), (c.name, i, k)


@pytest.mark.parametrize("name, rank, i, entries, visited", [
    ("E", 6, 3, 1156, 128_629),
    ("D", 5, 3, 450, 25_615),
    ("D", 4, 2, 190, 6_385),
])
def test_enumerate_visited_is_pinned(name, rank, i, entries, visited):
    # deterministic search-size counters at k = 5: a weaker prune visits more
    enum = _complete(name, rank, i, 5)
    assert (len(enum.entries), enum.visited) == (entries, visited)


def test_partial_enumeration_is_a_subset():
    full = dict(_complete("E", 6, 3, 5).entries)
    e6 = build_diagram("E", 6)
    for budget in (1_000, 100_000):
        part = enumerate_dominant_below(e6, 3, 5, 0, budget=budget)
        assert part.partial and part.visited == budget
        assert part.entries
        for m, w in part.entries:
            assert full[m] == w


@pytest.mark.parametrize("name, rank, i, k, budget, expected", [
    ("E", 6, 3, 5, 1, (0, 1, True)),
    ("E", 6, 3, 5, 2, (0, 2, True)),
    ("E", 6, 3, 5, 128_628, (1156, 128_628, True)),
    ("E", 6, 3, 5, 128_629, (1156, 128_629, False)),
    ("D", 4, 1, 1, 1, (1, 1, False)),
])
def test_enumerate_budget_edges(name, rank, i, k, budget, expected):
    # (entries, visited, partial): the full E6 node 3, k = 5 search visits
    # 128,629 nodes; at k = 1 the box is empty and the root is the leaf
    enum = enumerate_dominant_below(build_diagram(name, rank), i, k, 0, budget=budget)
    assert (len(enum.entries), enum.visited, enum.partial) == expected


@pytest.mark.parametrize("name, rank, i, k", [("A", 1, 1, 1100), ("D", 4, 1, 300)])
def test_deep_box_ends_at_its_budget(name, rank, i, k):
    # boxes of about 1,100 and 1,200 cells, deeper than the recursion limit:
    # the search runs one loop over its depth, so it stops at the budget
    enum = enumerate_dominant_below(build_diagram(name, rank), i, k, 0, budget=5_000)
    assert enum.partial and enum.visited == 5_000 and enum.entries


def test_zero_budget_builds_no_box(monkeypatch):
    # an empty budget returns before the box is built, so a long string
    # costs nothing; a bad level still raises before the budget is read
    def no_box(*args):
        raise AssertionError("the box was built")

    monkeypatch.setattr(smallness, "_support_box", no_box)
    enum = enumerate_dominant_below(A1, 1, 1_000, 0, budget=0)
    assert (enum.entries, enum.partial, enum.visited) == ([], True, 0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        enumerate_dominant_below(A1, 1, 0, 0, budget=0)


def test_enumerate_checks_each_witness(monkeypatch):
    # a witness that does not reach its entry stops the search: here every
    # witness reaches X
    monkeypatch.setattr("qchar.monomials.AWitness.apply", lambda self, c, m: m)
    with pytest.raises(AssertionError,
                       match="enumeration witness does not reach its monomial"):
        enumerate_dominant_below(A3, 2, 3, 0)


@pytest.mark.parametrize("name, rank, affine, i, k, full", [
    ("D", 4, False, 2, 4, 1_011),
    ("A", 3, False, 2, 4, 211),
    ("A", 2, True, 0, 3, 53),
])
def test_every_budget_cut(name, rank, affine, i, k, full):
    # every cut of the search, those inside a dead tail counted in one step
    # among them, keeps a prefix of the full run's nodes and entries
    c = build_diagram(name, rank, affine=affine)
    whole = enumerate_dominant_below(c, i, k, 0)
    assert (whole.visited, whole.partial) == (full, False)
    witness = dict(whole.entries)
    for budget in range(1, full + 2):
        enum = enumerate_dominant_below(c, i, k, 0, budget=budget)
        assert (enum.visited, enum.partial) == (min(budget, full), budget < full)
        keys = [m.key for m, _ in enum.entries]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for m, w in enum.entries:
            assert witness[m] == w
    assert enum.entries == whole.entries


def test_entries_are_canonical():
    # entries are built from stored orders with no sort: each key must be
    # the one its exponent map sorts to, the witness order included, since
    # JSON renders it
    for name, rank in (("D", 4), ("D", 5), ("E", 6)):
        c = build_diagram(name, rank)
        for i in c.nodes:
            for m, w in _complete(name, rank, i, 4).entries:
                assert m.key == Monomial(dict(m.key)).key
                assert w.key == AWitness(dict(w.key)).key


def test_enumerate_workload_visits_are_pinned():
    # every node of D4, D5 and E6 at k = 4, 5: the benchmark's enumerate cells
    total = sum(_complete(name, rank, i, k).visited
                for name, rank in (("D", 4), ("D", 5), ("E", 6))
                for i in build_diagram(name, rank).nodes for k in (4, 5))
    assert total == 207_316


def test_enumerate_matches_box_oracle_on_affine():
    # A2~ is the triangle: not bipartite, so its box keeps both parities
    assert parse_diagram("A2~").two_coloring() is None
    for spec in ("A2~", "A3~", "D4~"):
        c = parse_diagram(spec)
        for i in c.nodes:
            for k in (1, 2, 3, 4):
                enum = enumerate_dominant_below(c, i, k, 0)
                assert not enum.partial
                mine = [m for m, _ in enum.entries]
                assert mine == box_dominants(c, i, k, 0, cap=k), (spec, i, k)


def test_enumerate_cap_is_not_binding():
    # the per-cell count cap is k; the brute-force oracle over the full box
    # with a cap of k + 2 must find no further dominant monomials at the
    # sweep sizes
    for c, i, k in [(A3, 2, 3), (A4, 2, 4), (D4, 2, 4), (D4, 1, 4)]:
        base = enumerate_dominant_below(c, i, k, 0)
        assert [m for m, _ in base.entries] == box_dominants(c, i, k, 0, cap=k + 2)


def test_gap_form_monomials_are_special_and_thin():
    # every dominant monomial below a first-node string satisfies the gap
    # condition, and its simple module comes out consistent and thin
    for n in (2, 3):
        c = build_diagram("A", n)
        for k in (2, 3, 4):
            enum = enumerate_dominant_below(c, 1, k, 0)
            assert check_type_A_form(c, enum.entries, k)
            for m, _ in enum.entries:
                rep = fm_algorithm(c, m)
                assert rep.verdict == SPECIAL_FM_CONSISTENT, (n, k, str(m))
                assert qchar_is_thin(rep.qchar), (n, k, str(m))


def test_type_a_gap_condition():
    enum = enumerate_dominant_below(A2, 1, 3, 0)
    assert check_type_A_form(A2, enum.entries, 3)
    assert check_type_A_form(A2, enumerate_dominant_below(A2, 1, 1, 0).entries, 1)
    fake = [(parse_monomial("1_0 1_1"), None)]
    assert not check_type_A_form(A2, fake, 3)
    fake2 = [(parse_monomial("1_0 2_1"), None)]  # gap 1 < 1 + 2
    assert not check_type_A_form(A2, fake2, 3)


def test_check_small_empirical_counter_cell(closures):
    cell = check_small_empirical(A3, 2, 3, 2)
    assert cell.theoretical == NOT_SMALL
    assert cell.empirical.verdict == NOT_SMALL
    assert cell.agree
    mp = parse_monomial("1_1 3_1 2_4")
    [rep] = cell.empirical.not_special
    assert rep.subject == mp and rep.verdict == NOT_SPECIAL
    assert rep.witness == parse_monomial("2_2")
    # 2_2 has no other entry below it, so it is cleared without a closure
    assert cell.empirical.no_candidate == [parse_monomial("2_2")]
    assert cell.empirical.no_candidate == no_candidate_entries(
        enumerate_dominant_below(A3, 2, 3, 2))
    assert [r.subject for r in closures] == [
        m for m, _ in cell.empirical.entries if m != parse_monomial("2_2")]
    assert [r for r in closures if r.verdict == NOT_SPECIAL] == [rep]


def test_check_small_empirical_small_cell(closures):
    cell = check_small_empirical(D4, 1, 3, 0)
    assert cell.theoretical == SMALL and cell.empirical.verdict == SMALL
    assert cell.agree and not cell.empirical.undetermined
    assert closures and not cell.empirical.not_special
    for rep in closures:
        assert rep.verdict == SPECIAL_FM_CONSISTENT


def test_verdict_follows_its_evidence():
    # the record's verdict is read off its fields, however they were filled
    enum = enumerate_dominant_below(A3, 2, 3, 2)
    cert = fm_algorithm(A3, parse_monomial("1_1 3_1 2_4"))
    assert cert.verdict == NOT_SPECIAL
    X = kr_highest(A3, 2, 3, 2)
    rows = [
        (dict(not_special=[cert], undetermined=[X], partial_enumeration=True),
         NOT_SMALL),
        (dict(), SMALL),
        (dict(undetermined=[X]), UNDETERMINED),
        (dict(partial_enumeration=True), UNDETERMINED),
    ]
    for fields, verdict in rows:
        record = EmpiricalRecord(entries=enum.entries, **fields)
        assert record.verdict == verdict, fields
        for i in (1, 2):  # a Small and a NotSmall closed form
            theoretical = classify(A3, i, 3)
            cell = SmallnessVerdict("A3", i, 3, 2, theoretical, record)
            assert cell.agree == (verdict == theoretical)
    assert {classify(A3, i, 3) for i in (1, 2)} == {SMALL, NOT_SMALL}


def _reachable(obj, seen=None):
    """Every object reachable from obj through dataclass fields, lists,
    tuples and dicts (keys and values)."""
    seen = {} if seen is None else seen
    if id(obj) in seen:
        return seen
    seen[id(obj)] = obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        parts = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (list, tuple)):
        parts = obj
    elif isinstance(obj, dict):
        parts = [*obj.keys(), *obj.values()]
    else:
        parts = ()
    for part in parts:
        _reachable(part, seen)
    return seen


def test_finished_cell_holds_no_character(closures):
    cell = check_small_empirical(D4, 2, 3, 0)
    # the cell's consistent closures build no character; the same closure
    # called directly builds one term per settled monomial
    assert len(closures) == 9 and cell.empirical.not_special
    consistent = [r for r in closures if r.verdict == SPECIAL_FM_CONSISTENT]
    assert consistent and all(r.qchar is None for r in consistent)
    for rep in consistent:
        full = fm_algorithm(D4, rep.subject)
        assert full.verdict == rep.verdict and len(full.qchar) == rep.steps
    held = _reachable(cell).values()
    assert not any(isinstance(obj, QCharacter) for obj in held)


def test_verdict_json_shape():
    cell = check_small_empirical(A3, 2, 3, 2)
    doc = json.loads(_json_text(cell._doc()))
    assert doc["theoretical"] == NOT_SMALL
    assert doc["empirical"]["verdict"] == NOT_SMALL
    assert doc["empirical"]["dominant_count"] == len(cell.empirical.entries)
    assert doc["agree"] is True
    assert doc["empirical"]["witnesses"]
    assert list(doc["empirical"]) == [
        "dominant_count", "dominant", "witnesses", "undetermined",
        "no_candidate", "partial_enumeration", "verdict"]
    assert doc["empirical"]["no_candidate"] == [[{"node": 2, "power": 2, "exponent": 1}]]
    chain = doc["empirical"]["witnesses"][0]["chain"]
    assert all({"node", "root", "result"} <= set(step) for step in chain)


def _cleared_entries(c, ks):
    for i in c.nodes:
        for k in ks:
            for m in no_candidate_entries(enumerate_dominant_below(c, i, k, 0)):
                yield i, k, m


def test_no_candidate_entries_have_consistent_closures():
    grid = [(build_diagram("A", n), range(1, 5)) for n in (1, 2, 3, 4)]
    grid += [(D4, range(1, 5)), (build_diagram("D", 5), range(1, 3))]
    cleared = 0
    for c, ks in grid:
        for i, k, m in _cleared_entries(c, ks):
            cleared += 1
            assert fm_algorithm(c, m).verdict == SPECIAL_FM_CONSISTENT, (c.name, i, k, m)
    assert cleared == 53


def test_no_candidate_entries_not_refuted_on_affine():
    cleared = 0
    for rank, series in ((2, "A"), (3, "A"), (4, "D")):
        c = build_diagram(series, rank, affine=True)
        for i, k, m in _cleared_entries(c, range(1, 4)):
            cleared += 1
            assert fm_algorithm(c, m, 400, 400).verdict != NOT_SPECIAL, (c.name, i, k, m)
    assert cleared == 24


def test_string_keeps_its_closure(closures):
    # the only entry of a level-1 cell has no candidate, but it is X itself
    c = build_diagram("A", 2, affine=True)
    cell = check_small_empirical(c, 1, 1, 0, Budgets(fm_steps=400, process_steps=400))
    X = kr_highest(c, 1, 1, 0)
    assert cell.empirical.verdict == UNDETERMINED
    assert cell.empirical.undetermined == [X]
    assert cell.empirical.no_candidate == []
    assert [r.subject for r in closures] == [X]


def test_partial_enumeration_clears_nothing(closures):
    # complete, the two listed entries would clear the not-special one
    cell = check_small_empirical(A3, 2, 3, 0, Budgets(enum_nodes=10))
    emp = cell.empirical
    assert emp.partial_enumeration and emp.verdict == NOT_SMALL
    assert len(emp.entries) == 2 and emp.no_candidate == []
    assert [r.subject for r in closures] == [m for m, _ in emp.entries]
    assert [r.subject for r in emp.not_special] == [parse_monomial("1_-1 2_2 3_-1")]


def test_sweep_rejects_kmax_below_one():
    for kmax in (0, -1):
        with pytest.raises(ValueError, match="kmax"):
            sweep([A1], kmax)


def test_sweep_rejects_an_empty_diagram_list():
    with pytest.raises(ValueError, match="no diagrams to sweep"):
        sweep([], 1)


def test_sweep_small_block():
    cells = sweep([A1, A2], 2)
    assert len(cells) == (1 + 2) * 2
    assert all(cell.agree for cell in cells)
    assert all(cell.empirical.verdict == SMALL for cell in cells)


def test_verify_counterexamples_all_pass():
    results = verify_counterexamples(Budgets())
    assert [r.name for r in results] == [
        "sl4-interior-string", "fork-d4-leaf-level-4", "triangle-cycle-level-3"]
    for r in results:
        assert r.passed, r.details


def test_verify_counterexamples_runs_only_stopping_processes(monkeypatch):
    # each row reads the certificate its cell made: every process it runs
    # is a closure's certifying one, which stops on dominant
    stops = []
    original = expansion.generate_process

    def recorded(*args, **kwargs):
        stops.append(kwargs.get("stop_on_dominant", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(expansion, "generate_process", recorded)
    monkeypatch.setattr(smallness, "generate_process", recorded, raising=False)
    assert all(r.passed for r in verify_counterexamples(Budgets()))
    assert stops and all(stops)

"""Structural property suites: partial-order axioms, right-negativity
closure, witness round-trips, weight bookkeeping and closure determinism.
Each suite is a plain function over a seeded generator so the acceptance
module can rerun them standalone."""

from _fuzz import (
    MULTI_LACED,
    run_partial_order_axioms,
    run_right_negativity,
    run_weight_bookkeeping,
    run_witness_round_trip,
)

from qchar.cartan import build_diagram
from qchar.expansion import fm_algorithm, generate_process
from qchar.monomials import Monomial, kr_highest, parse_monomial


def test_witness_round_trip_fuzz():
    assert run_witness_round_trip() == 2500


def test_partial_order_axioms_fuzz():
    assert run_partial_order_axioms() >= 4000


def test_witness_solver_fuzz_multi_laced():
    # B3, C3, F4 and G2: rows whose lower entries sit 2 or 3 powers down
    assert run_witness_round_trip(cases=4000, seed=111, diagrams=MULTI_LACED) == 4000
    assert run_partial_order_axioms(cases=2000, seed=212, diagrams=MULTI_LACED) >= 6000


def test_right_negativity_fuzz():
    assert run_right_negativity() == 10_000


def test_weight_bookkeeping_fuzz():
    assert run_weight_bookkeeping() == 2000


def _reversed_tie(nu):
    # injective remap of the canonical key: reverses every tie-break
    return tuple((-i, -r, -e) for (i, r), e in reversed(nu.key))


def test_fm_order_independence():
    cases = [
        (build_diagram("A", 2), Monomial.y(1, 0)),
        (build_diagram("A", 3), kr_highest(build_diagram("A", 3), 2, 2, 0)),
        (build_diagram("D", 4), Monomial.y(2, 0)),
        (build_diagram("A", 3), parse_monomial("1_1 3_1 2_4")),
        (build_diagram("D", 4), parse_monomial("1_3 1_5 2_0")),
    ]
    for c, m in cases:
        base = fm_algorithm(c, m)
        permuted = fm_algorithm(c, m, order_within_level=_reversed_tie)
        assert base.verdict == permuted.verdict
        if base.qchar is not None:
            assert base.qchar.terms == permuted.qchar.terms
        # certification is independent of the closure's tie order
        assert base.witness == permuted.witness
        assert base.chain == permuted.chain


def test_repeated_runs_identical():
    c = build_diagram("D", 4)
    m = parse_monomial("1_3 1_5 2_0")
    t1 = generate_process(c, m)
    t2 = generate_process(c, m)
    assert t1 == t2
    r1 = fm_algorithm(c, m)
    r2 = fm_algorithm(c, m)
    assert r1 == r2

import functools
import heapq
import random

import pytest
from _characters import qchar_is_thin
from _sl2 import expand_by_classes, kr_qchar_sl2

from qchar import expansion, sl2
from qchar.cartan import CartanData, DiagramError, build_diagram, parse_diagram
from qchar.expansion import (
    DEFAULT_FM_STEPS,
    INCONCLUSIVE,
    NOT_SPECIAL,
    SPECIAL_FM_CONSISTENT,
    GenerationTrace,
    QCharacter,
    TraceStep,
    _Expander,
    expand_Li,
    expand_Li_steps,
    fm_algorithm,
    generate_process,
)
from qchar.monomials import (
    AWitness,
    Monomial,
    a_monomial,
    divide_as_a_product,
    format_monomial,
    kr_highest,
    parse_monomial,
)
from qchar.smallness import (
    SMALL,
    Budgets,
    check_small_empirical,
    enumerate_dominant_below,
)

A1 = build_diagram("A", 1)
A2 = build_diagram("A", 2)
A3 = build_diagram("A", 3)
D4 = build_diagram("D", 4)
A2_AFFINE = build_diagram("A", 2, affine=True)


def test_expand_single_variable():
    m = Monomial.y(2, 5)
    char = expand_Li(A3, m, 2)
    assert char.terms == {m: 1, m * (a_monomial(A3, 2, 6) ** -1): 1}
    assert char.highest == m


def test_expand_no_content():
    m = parse_monomial("1_0 3_2")
    char = expand_Li(A3, m, 2)
    assert char.terms == {m: 1}


def test_expand_string_ladder():
    m = parse_monomial("2_0 2_2 2_4")
    char = expand_Li(A3, m, 2)
    assert char.multiplicity(m) == 1
    assert len(char) == 4  # length-3 string gives a 4-term ladder
    cur = m
    for power in (5, 3, 1):  # nested steps enter from the top down
        cur = cur * (a_monomial(A3, 2, power) ** -1)
        assert char.multiplicity(cur) == 1
    # the one-step interior descent lives in the standard cone below m,
    # not in this ladder (the enumeration tests pick it up there)
    assert m * (a_monomial(A3, 2, 1) ** -1) not in char


def test_expand_requires_node_dominance():
    with pytest.raises(ValueError):
        expand_Li(A3, parse_monomial("2_0^-1"), 2)
    # dominance is only needed at the expanded node
    m = parse_monomial("1_1 2_2^-1 3_5")
    assert expand_Li(A3, m, 1).multiplicity(m) == 1


def test_expand_rejects_a_node_outside_the_diagram():
    for m in (parse_monomial("1_0"), parse_monomial("7_0")):
        with pytest.raises(DiagramError, match="node 7 not in diagram A3"):
            expand_Li(A3, m, 7)
        with pytest.raises(DiagramError, match="node 7 not in diagram A3"):
            expand_Li_steps(A3, m, 7)


def _rank1(powers):
    """A node's power -> exponent map as a monomial on A1."""
    return Monomial({(1, p): e for p, e in powers.items()})


def _rank1_steps(table, highest):
    """highest * prod A_{1,q^p}^{-count} for a rank-1 step table."""
    return AWitness({(1, p): x for p, x in table}).apply(A1, highest)


def test_expand_matches_rank1_restriction():
    # restriction of the expansion to the node recovers the rank-1 character
    cases = [(A3, parse_monomial("2_0 2_2^2 2_6 1_3"), 2),
             (D4, parse_monomial("2_0 2_4 1_1"), 2),
             (A2, parse_monomial("1_0 1_2 2_1"), 1)]
    for c, m, i in cases:
        char = expand_Li(c, m, i)
        got = {}
        for mu, t in char.terms.items():
            restr = _rank1(mu.node_powers(i))
            got[restr] = got.get(restr, 0) + t
        expected = {}
        for table, t in sl2.simple_qchar_sl2(m.node_powers(i)).items():
            restr = _rank1_steps(table, _rank1(m.node_powers(i)))
            expected[restr] = expected.get(restr, 0) + t
        assert got == expected


@pytest.mark.parametrize("series, rank", [("B", 3), ("C", 3), ("F", 4), ("G", 2)])
def test_expand_matches_the_product_over_residue_classes(series, rank):
    # one q_i-stepped rank-1 character against the classes of the power
    # modulo r_i, each expanded at step 1 and multiplied back together
    c = build_diagram(series, rank)
    rng = random.Random(f"classes {series}{rank}")
    two_classes = long_string = 0
    for i in c.nodes:
        ri = c.r(i)
        for _ in range(60):
            e = {}
            for _ in range(rng.randint(0, 5)):
                key = (i, rng.randint(-3 * ri, 3 * ri))
                e[key] = e.get(key, 0) + rng.randint(1, 2)
            for j in rng.sample(c.nodes, min(2, len(c.nodes))):
                if j != i:
                    e[(j, rng.randint(-4, 4))] = rng.choice((-1, 1))
            m = Monomial(e)
            powers = m.node_powers(i)
            got = expand_Li_steps(c, m, i)
            want = expand_by_classes(powers, ri)
            assert got[0] == want[0] == ((), 1, 0)
            assert sorted(got) == sorted(want), (i, m)
            two_classes += len({p % ri for p in powers}) >= 2
            long_string += any(p + 2 * ri in powers for p in powers)
    assert two_classes and long_string


def test_expand_scales_with_symmetrizer():
    # at a long node (r_i = 2) the ladder steps by q_i = q^2
    b2 = build_diagram("B", 2)
    m = Monomial.y(1, 0)
    char = expand_Li(b2, m, 1)
    assert char.terms == {m: 1, m * (a_monomial(b2, 1, 2) ** -1): 1}
    # two residue classes stay independent
    mm = parse_monomial("1_0 1_1")
    char = expand_Li(b2, mm, 1)
    assert len(char) == 4


def test_process_rank1_recovers_string_character():
    for k in (1, 2, 5):
        X = kr_highest(A1, 1, k, 0)
        trace = generate_process(A1, X)
        rep = fm_algorithm(A1, X)
        assert sorted(trace.chains, key=lambda m: m.key) == \
            sorted(rep.qchar.terms, key=lambda m: m.key)
        assert len(trace.chains) == k + 1
        assert not trace.partial


def test_process_counter_example():
    mp = parse_monomial("1_1 3_1 2_4")
    trace = generate_process(A3, mp)
    assert parse_monomial("1_3^-1 3_3^-1 2_2^2 2_4") in trace.chains
    assert parse_monomial("2_2") in trace.chains
    assert trace.replay(A3)
    # chains carry node-dominant roots only
    for chain in trace.chains.values():
        for step in chain:
            assert step.root.is_dominant([step.node])


class _NoEngine:
    def __init__(self, *args, **kwargs):
        raise AssertionError("replay must not build an expansion engine")


@pytest.mark.parametrize("broken", [
    None, "wrong root", "root not node-dominant", "result outside expansion",
    "end is not its monomial", "node outside diagram", "start outside diagram"])
def test_replay_checks_every_chain(broken, monkeypatch):
    # replay checks chains apart from the engine that generates them
    monkeypatch.setattr(expansion, "_Expander", _NoEngine)
    # a genuine A2 trace from 1_0, plus one chain that breaks one rule
    m, nu = parse_monomial("1_0"), parse_monomial("1_2^-1 2_1")
    below = nu * a_monomial(A2, 1, 3) ** -1
    bad = {
        None: {},
        # a genuine step, from a root other than the start
        "wrong root": {parse_monomial("1_4^-1 2_3"): (
            TraceStep(1, parse_monomial("1_2"), parse_monomial("1_4^-1 2_3")),)},
        # nu has 1_2^-1, so it cannot root a node-1 step
        "root not node-dominant": {below: (TraceStep(1, m, nu),
                                           TraceStep(1, nu, below))},
        "result outside expansion": {below: (TraceStep(1, m, below),)},
        "end is not its monomial": {parse_monomial("2_1"): (TraceStep(1, m, nu),)},
        # A2 has no node 3
        "node outside diagram": {nu: (TraceStep(3, m, nu),)},
        "start outside diagram": {},
    }[broken]
    if broken == "start outside diagram":
        # the node-1 step is genuine but for the foreign factor 3_0
        m, nu = m * parse_monomial("3_0"), nu * parse_monomial("3_0")
    trace = GenerationTrace(m, {m: (), nu: (TraceStep(1, m, nu),), **bad})
    assert trace.replay(A2) is (broken is None)


def test_replay_checks_steps_not_admissibility():
    # replay checks that each result occurs in its root's expansion, not
    # that the root was unblocked at the step's node.  On W^{(2)}_2 of D4 the
    # full process generates exactly the character, so it takes none of the
    # expansions that leave it; a chain that ends with one still replays
    m = kr_highest(D4, 2, 2, 0)
    char = fm_algorithm(D4, m).qchar
    trace = generate_process(D4, m)
    assert not trace.partial and set(trace.chains) == set(char.terms)
    assert len(char) == 307
    leaving = {(mu, i): [nu for nu in expand_Li(D4, mu, i).terms if nu not in char]
               for mu in trace.chains for i in D4.nodes if mu.is_dominant([i])}
    leaving = {step: out for step, out in leaving.items() if out}
    assert len(leaving) == 6
    for (mu, i), out in leaving.items():
        nu = out[0]
        forged = GenerationTrace(m, {nu: trace.chains[mu] + (TraceStep(i, mu, nu),)})
        assert forged.replay(D4)


def test_process_fork_example(monkeypatch):
    m = parse_monomial("1_3 1_5 2_0")
    trace = generate_process(D4, m)
    for t in ["1_1 1_3 1_5 2_2^-1 3_1 4_1", "1_1 1_3 1_5 2_2 3_3^-1 4_3^-1",
              "1_1 1_3^2 1_5 2_4^-1", "1_1 1_3"]:
        assert parse_monomial(t) in trace.chains
    assert m in trace.chains and trace.chains[m] == ()
    monkeypatch.setattr(expansion, "_Expander", _NoEngine)
    assert trace.replay(D4)


def test_process_budget_flag():
    trace = generate_process(D4, parse_monomial("1_3 1_5 2_0"), budget=5)
    assert trace.partial


def test_process_subset_of_consistent_closure():
    cases = [(A2, Monomial.y(1, 0)), (A3, Monomial.y(2, 0)),
             (A3, kr_highest(A3, 1, 3, 0)), (D4, Monomial.y(2, 0))]
    for c, m in cases:
        rep = fm_algorithm(c, m)
        assert rep.verdict == SPECIAL_FM_CONSISTENT
        trace = generate_process(c, m)
        assert set(trace.chains) <= set(rep.qchar.terms)


def test_process_witnesses_against_start():
    m = parse_monomial("1_3 1_5 2_0")
    trace = generate_process(D4, m)
    for nu in trace.chains:
        assert divide_as_a_product(D4, nu, m) is not None


def _reference_process(c, m, budget, stop_on_dominant):
    """The generation process read off its definition: mu is blocked at i
    when a generated i-dominant monomial ``other`` lies above mu by a
    nonzero node-i root-step table and has mu in its node-i expansion."""
    def blocks(other, mu, i):
        if not other.is_dominant([i]):
            return False
        w = divide_as_a_product(c, mu, other)
        return (w is not None and w.total() > 0
                and all(j == i for (j, _), _ in w.items())
                and mu in expand_Li(c, other, i))

    chains = {m: ()}
    heap = [(0, m.key, m)]
    steps, partial, stop, blocked = 0, False, False, 0
    while heap and not stop:
        _, _, mu = heapq.heappop(heap)
        for i in c.nodes:
            if not mu.is_dominant([i]):
                continue
            if any(blocks(other, mu, i) for other in chains):
                blocked += 1
                continue
            if steps >= budget:
                partial = stop = True
                break
            steps += 1
            for nu in sorted(expand_Li(c, mu, i).terms, key=lambda x: x.key):
                if nu in chains:
                    continue
                chains[nu] = chains[mu] + (TraceStep(i, mu, nu),)
                total = divide_as_a_product(c, nu, m).total()
                heapq.heappush(heap, (total, nu.key, nu))
                stop = stop or (stop_on_dominant and nu.is_dominant())
            if stop:
                break
    return chains, steps, partial, blocked


@pytest.mark.parametrize("series,rank,affine", [
    ("A", 3, False), ("B", 3, False), ("G", 2, False), ("D", 4, False),
    ("A", 2, True)])
def test_process_matches_its_definition(series, rank, affine):
    c = build_diagram(series, rank, affine=affine)
    rng = random.Random(f"process {series}{rank}{affine}")
    seen = {"partial": 0, "blocked": 0}
    for n in range(6):
        # every other start doubles the bottom of a string, so that its
        # rank-1 expansion holds a second i-dominant monomial to block
        j, p = rng.choice(c.nodes), rng.randint(-3, 3)
        e = {(j, p): 2, (j, p + 2 * c.r(j)): 1} if n % 2 else {}
        for _ in range(rng.randint(1, 2)):
            key = (rng.choice(c.nodes), rng.randint(-3, 3))
            e[key] = e.get(key, 0) + rng.randint(1, 2)
        m = Monomial(e)
        # every budget on two starts, so that a stop one pop early or
        # late shows against the heap-ordered reference
        for budget in [*range(1, 31), 40] if n < 2 else (4, 40):
            for stop_on_dominant in (False, True):
                trace = generate_process(c, m, budget, stop_on_dominant)
                chains, steps, partial, blocked = _reference_process(
                    c, m, budget, stop_on_dominant)
                if stop_on_dominant:
                    # a stopping run keeps the start, its dominant monomials
                    # and their ancestors
                    doms = [nu for nu in chains if nu != m and nu.is_dominant()]
                    kept = {m, *doms, *(step.root for nu in doms
                                        for step in chains[nu])}
                    chains = {nu: chains[nu] for nu in kept}
                assert trace.chains == chains
                assert (trace.steps, trace.partial) == (steps, partial)
                seen["partial"] += partial
                seen["blocked"] += blocked
    assert all(seen.values()), seen


def test_process_blocked_monomial_still_blocks():
    # mu is blocked at node 2 only by a monomial that is itself blocked at
    # node 2, so the results of blocked monomials must count too
    g2 = build_diagram("G", 2)
    m = parse_monomial("1_2^2 2_1^3")
    mu = parse_monomial("1_2^2 1_8^-2 2_1 2_5^2 2_7^2")
    trace = generate_process(g2, m, budget=20)
    chains, steps, partial, _ = _reference_process(g2, m, 20, False)
    assert trace.chains == chains
    assert (trace.steps, trace.partial) == (steps, partial)
    assert mu in chains and mu.is_dominant([2])
    assert not any(step.root == mu and step.node == 2
                   for chain in chains.values() for step in chain)


def test_certifying_run_follows_its_stopping_trace():
    # A process that stops on dominant keeps chains only for the start, the
    # dominant results and their ancestors, and they must replay.
    # fm_algorithm's verdict, witness and chain must follow from that
    # trace: the forced monomial if the process generates it, else the
    # least dominant one, and Inconclusive exactly when the trace has no
    # dominant monomial.  Closure budgets run from 1 to 30.  The first
    # budget at which each closure outcome shows runs every process budget
    # up to 30 and 400, so that the process stops before, at and after its
    # first dominant monomial; a later budget with that outcome runs at its
    # own value.
    starts = [(A3, parse_monomial("1_1 3_1 2_4")),
              (D4, parse_monomial("1_3 1_5 2_0"))]
    for c in (A3, build_diagram("B", 3), build_diagram("G", 2), D4, A2_AFFINE):
        rng = random.Random(f"certify {c.name}")
        for n in range(4):
            # a string of length 2 makes a second dominant monomial likely
            j, p = rng.choice(c.nodes), rng.randint(-3, 3)
            e = {(j, p): 1, (j, p + 2 * c.r(j)): 1} if n % 2 else {}
            for _ in range(rng.randint(1, 2)):
                key = (rng.choice(c.nodes), rng.randint(-3, 3))
                e[key] = e.get(key, 0) + rng.randint(1, 2)
            starts.append((c, Monomial(e)))
    seen = set()
    for c, m in starts:
        ex = _Expander(c)
        stopping = {}
        for process_budget in [*range(1, 31), 400]:
            trace = stopping[process_budget] = generate_process(
                c, m, process_budget, stop_on_dominant=True, _expander=ex)
            doms = trace.dominant_monomials()
            roots = {step.root for mu in doms for step in trace.chains[mu]}
            # nothing else is kept, and every root on a kept chain is kept
            assert set(trace.chains) <= {m, *doms, *roots}
            assert roots <= set(trace.chains)
            assert trace.replay(c)
        outcomes = set()
        for budget in range(1, 31):
            out = expansion._rerun_when_widened(
                expansion._fm_closure, c, m, budget, None, ex)
            if isinstance(out, expansion.SpecialnessReport):
                rep = fm_algorithm(c, m, budget, 400, _expander=ex)
                assert rep == out
                seen.add((rep.verdict, None))
                continue
            forced = out[0]
            process_budgets = stopping if forced not in outcomes else (budget,)
            outcomes.add(forced)
            for process_budget in process_budgets:
                rep = fm_algorithm(c, m, budget, process_budget, _expander=ex)
                trace = stopping[process_budget]
                doms = trace.dominant_monomials()
                if not doms:
                    assert (rep.verdict, rep.witness, rep.chain) == (
                        INCONCLUSIVE, None, ())
                    seen.add((INCONCLUSIVE, None))
                    continue
                witness = forced if forced in trace.chains else doms[0]
                assert (rep.verdict, rep.witness, rep.chain) == (
                    NOT_SPECIAL, witness, trace.chains[witness])
                seen.add((NOT_SPECIAL, witness == forced))
    assert seen == {(SPECIAL_FM_CONSISTENT, None), (INCONCLUSIVE, None),
                    (NOT_SPECIAL, True), (NOT_SPECIAL, False)}


def test_fm_rank1_closed_forms():
    for k in range(1, 8):
        X = kr_highest(A1, 1, k, 0)
        rep = fm_algorithm(A1, X)
        assert rep.verdict == SPECIAL_FM_CONSISTENT
        assert rep.qchar.terms == {_rank1_steps(table, X): t
                                   for table, t in kr_qchar_sl2(k, 0).items()}


def test_fm_counter_not_special():
    # a closure stopped by its budget is certified through the process too
    for budget in (DEFAULT_FM_STEPS, 2):
        rep = fm_algorithm(A3, parse_monomial("1_1 3_1 2_4"), budget=budget)
        assert rep.verdict == NOT_SPECIAL
        assert rep.witness == parse_monomial("2_2")
        assert rep.witness.is_dominant()
        assert rep.chain
        # the chain ends at the witness and starts at the subject
        assert rep.chain[-1].result == rep.witness
        assert rep.chain[0].root == rep.subject


def test_fm_budget_inconclusive():
    rep = fm_algorithm(A3, kr_highest(A3, 2, 3, 0), budget=2)
    assert rep.verdict == INCONCLUSIVE
    assert "budget" in rep.diagnostic


def test_fm_fundamental_first_steps():
    # the ladder opens with the node's own root step, multiplicity one,
    # and every deeper monomial sits below a neighbor step after it
    for c in (A2, A3, build_diagram("A", 4)):
        for i in c.nodes:
            m = Monomial.y(i, 0)
            rep = fm_algorithm(c, m)
            assert rep.verdict == SPECIAL_FM_CONSISTENT
            first = m * (a_monomial(c, i, 1) ** -1)
            assert rep.qchar.multiplicity(first) == 1
            for mu in rep.qchar.terms:
                if mu in (m, first):
                    continue
                hooks = [first * (a_monomial(c, j, 2) ** -1)
                         for j in c.neighbors(i)]
                assert any(divide_as_a_product(c, mu, h) is not None
                           for h in hooks)


def test_fm_fundamental_duality():
    # negating powers and inverting maps the monomial set onto that of
    # another fundamental character
    for c, i in [(A2, 1), (A3, 2), (D4, 1), (D4, 2)]:
        rep = fm_algorithm(c, Monomial.y(i, 0))
        assert rep.verdict == SPECIAL_FM_CONSISTENT
        dual = {Monomial({(j, -s): -e for (j, s), e in m.items()}): t
                for m, t in rep.qchar.terms.items()}
        tops = [m for m in dual if m.is_dominant()]
        assert len(tops) == 1
        top = tops[0]
        assert len(top.key) == 1 and top.key[0][1] == 1
        dual_rep = fm_algorithm(c, top)
        assert dual_rep.verdict == SPECIAL_FM_CONSISTENT
        assert dual_rep.qchar.terms == dual


def test_fm_thin_families():
    for c in (A2, A3):
        for i in c.nodes:
            rep = fm_algorithm(c, Monomial.y(i, 0))
            assert qchar_is_thin(rep.qchar)
    # the fork fundamental at the branch node is not thin
    rep = fm_algorithm(D4, Monomial.y(2, 0))
    assert not qchar_is_thin(rep.qchar)
    assert rep.qchar.dimension() == len(rep.qchar) + 1


def test_fm_string_modules_unique_dominant_and_top_step():
    for c, i, k in [(A2, 1, 3), (A3, 2, 2), (A3, 2, 3), (D4, 2, 2)]:
        X = kr_highest(c, i, k, 0)
        rep = fm_algorithm(c, X)
        assert rep.verdict == SPECIAL_FM_CONSISTENT
        assert rep.qchar.dominant_monomials() == [X]
        gate = X * (a_monomial(c, i, c.r(i) * k) ** -1)
        for mu in rep.qchar.terms:
            if mu != X:
                assert divide_as_a_product(c, mu, gate) is not None


def test_fm_mult_two_forced_by_overlap():
    # two overlapping strings at one node force a repeated lower monomial
    rep = fm_algorithm(D4, Monomial.y(2, 0))
    mult2 = [m for m, t in rep.qchar.terms.items() if t == 2]
    assert mult2 == [parse_monomial("2_2 2_4^-1")]


def _reference_closure(c, m, budget, order_within_level, ex, qchar=True, *,
                       wit, expansions):
    """The closure read off its class definition, in ``_fm_closure``'s
    calling convention.  A node-i class is the settled monomials whose
    witness against m agrees off node i.  After each settle, each class of
    the settled monomial is decomposed greedily from the top into node-i
    expansions; the decomposition must exhaust the class, and it forces
    the multiplicity of every result not settled yet (a maximum over the
    nodes).  ``wit`` caches witnesses against m, ``expansions`` node
    expansions."""
    assert order_within_level is None
    classes = {}

    def witness(nu):
        if nu not in wit:
            wit[nu] = divide_as_a_product(c, nu, m)
        return wit[nu]

    def expand(top, i):
        if (top, i) not in expansions:
            expansions[top, i] = expand_Li(c, top, i).terms
        return expansions[top, i]

    mult, steps = {m: 1}, 0
    heap = [(0, m.key, m)]
    while heap:
        _, _, mu = heapq.heappop(heap)
        if steps >= budget:
            return None, steps, "step budget exhausted"
        steps += 1
        for i in c.nodes:
            off = tuple(kv for kv in witness(mu).items() if kv[0][0] != i)
            members = classes.setdefault((i, off), [])
            members.append(mu)  # settles come in (total, key) order
            rem = {nu: mult[nu] for nu in members}
            forced = {}
            for top in rem:
                coeff = rem[top]
                if coeff < 0:
                    return None, steps, f"node-{i} over-explains"
                if not coeff:
                    continue
                if not top.is_dominant([i]):
                    return None, steps, (f"node-{i} class leaves non-dominant "
                                         f"{format_monomial(top)} unexplained")
                for nu, t in expand(top, i).items():
                    forced[nu] = forced.get(nu, 0) + coeff * t
                    if nu in rem:
                        rem[nu] -= coeff * t
            if any(rem.values()):
                return None, steps, f"node-{i} class not exhausted"
            for nu in sorted(forced.keys() - rem.keys(), key=lambda x: x.key):
                old = mult.get(nu, 0)
                mult[nu] = max(old, forced[nu])
                if not old:
                    heapq.heappush(heap, (witness(nu).total(), nu.key, nu))
                    if nu.is_dominant():
                        return nu, steps, (
                            "closure forces dominant monomial "
                            f"{format_monomial(nu)} but the generation process "
                            "found no replayable witness within budget")
    return expansion.SpecialnessReport(
        SPECIAL_FM_CONSISTENT, m, steps=steps,
        qchar=QCharacter(mult, highest=m) if qchar else None)


def test_closure_matches_class_decomposition(monkeypatch):
    # seeded dominant starts.  A string of length 2 makes a second dominant
    # monomial likely; two doubled strings at one node force two dominant
    # monomials in one expansion, so the push order shows.  Process budget
    # 1 leaves a forced dominant monomial in the diagnostic, 50 lets the
    # process certify it.  Two starts per diagram run every budget up to
    # 30, so that a budget exit one pop early or late shows against the
    # heap-ordered reference.
    seen = set()
    for c in (A3, build_diagram("B", 3), build_diagram("G", 2), D4, A2_AFFINE):
        rng = random.Random(f"closure {c.name}")
        ex = _Expander(c)
        expansions = {}
        for n in range(6):
            j, p = rng.choice(c.nodes), rng.randint(-3, 3)
            r = c.r(j)
            if n % 3 == 2:
                e = {(j, p): 2, (j, p + 2 * r): 1,
                     (j, p + 12 * r): 2, (j, p + 14 * r): 1}
            else:
                e = {(j, p): 1, (j, p + 2 * r): 1} if n % 3 else {}
                for _ in range(rng.randint(1, 2)):
                    key = (rng.choice(c.nodes), rng.randint(-3, 3))
                    e[key] = e.get(key, 0) + rng.randint(1, 2)
            m = Monomial(e)
            # the closure does not read the process budget: run it once
            reference = functools.cache(functools.partial(
                _reference_closure, wit={}, expansions=expansions))
            budgets = [*range(1, 31), 40, 400] if n in (1, 2) else (3, 40, 400)
            for budget in budgets:
                for process_budget in (1, 50):
                    got = fm_algorithm(c, m, budget, process_budget, _expander=ex)
                    with monkeypatch.context() as patch:
                        patch.setattr(expansion, "_fm_closure", reference)
                        want = fm_algorithm(c, m, budget, process_budget,
                                            _expander=ex)
                    assert got == want
                    seen.add((got.verdict,
                              " ".join((got.diagnostic or "").split()[:2])))
    assert seen == {(SPECIAL_FM_CONSISTENT, ""), (NOT_SPECIAL, ""),
                    (INCONCLUSIVE, "step budget"),
                    (INCONCLUSIVE, "closure forces"),
                    (INCONCLUSIVE, "node-2 class")}


def test_thinness_predicate():
    rep = fm_algorithm(A1, kr_highest(A1, 1, 4, 0))
    assert qchar_is_thin(rep.qchar)
    chi = QCharacter({Monomial.y(1, 0): 2})
    assert not qchar_is_thin(chi)


def test_all_monomials_thin_forces_thin_character():
    from _monomials import is_thin_monomial
    consistent = []
    for c in (A2, A3):
        for i in c.nodes:
            consistent.append(fm_algorithm(c, Monomial.y(i, 0)))
            consistent.append(fm_algorithm(c, kr_highest(c, i, 3, 0)))
    consistent.append(fm_algorithm(D4, Monomial.y(2, 0)))
    saw_non_thin = False
    for rep in consistent:
        assert rep.verdict == SPECIAL_FM_CONSISTENT
        if all(is_thin_monomial(m) for m in rep.qchar.terms):
            assert qchar_is_thin(rep.qchar)
        else:
            saw_non_thin = True
    assert saw_non_thin  # the branch-node character exercises the other side


def test_expand_all_outputs_admit_witness():
    cases = [(A3, parse_monomial("2_0 2_2 2_4"), 2),
             (D4, parse_monomial("1_3 1_5 2_0"), 1),
             (A2, parse_monomial("1_0 1_2 2_1"), 2)]
    for c, m, i in cases:
        for mu in expand_Li(c, m, i).terms:
            assert divide_as_a_product(c, mu, m) is not None


def _random_i_dominant(rng, c, i, size=4, span=7):
    """Nonnegative node-i exponents at random powers (negative ones too),
    arbitrary exponents elsewhere; empty node-i content one time in five."""
    e = {}
    if rng.random() > 0.2:
        for _ in range(rng.randint(1, size)):
            key = (i, rng.randint(-span, span))
            e[key] = e.get(key, 0) + rng.randint(1, 2)
    others = [j for j in c.nodes if j != i]
    for _ in range(rng.randint(0, size)):
        key = (rng.choice(others), rng.randint(-span, span))
        e[key] = e.get(key, 0) + rng.choice((-2, -1, 1, 2))
    return Monomial(e)


def _result(c, m, i, table):
    """m times the A_{i,q^p}^{-count} of a node-i step table."""
    return AWitness({(i, p): x for p, x in table}).apply(c, m)


@pytest.mark.parametrize("series,rank,affine", [
    ("A", 3, False), ("B", 3, False), ("C", 3, False), ("G", 2, False),
    ("D", 4, False), ("A", 2, True)])
def test_expander_matches_expand_li_steps(series, rank, affine):
    c = build_diagram(series, rank, affine=affine)
    rng = random.Random(f"{series}{rank}{affine}")
    ex = _Expander(c)  # one engine per diagram, so shapes are reused
    residues, negative, empty = set(), 0, 0
    for _ in range(300):
        i = rng.choice(c.nodes)
        s = c.nodes.index(i)
        m = _random_i_dominant(rng, c, i)
        want = expand_Li_steps(c, m, i)
        assert want[0] == ((), 1, 0)  # the root comes first
        x = ex.start(m)
        assert _reads(ex, x, m)
        tpl = ex.templates(x, s, 0)
        # packed results are the packed results of expand_Li_steps, in order,
        # and each reads back as its product's key and dominance
        got = [(_result(c, m, i, table), t, total) for table, t, total in want[1:]]
        assert [(x + d, t, total) for d, t, total in tpl] == \
            [(ex._pack(mu.items()), t, total) for mu, t, total in got], \
            (format_monomial(m), i)
        results = [x + d for d, _, _ in tpl]
        assert [ex.read(nu) for nu in results] == [mu.key for mu, _, _ in got]
        assert [_dominant(ex, nu) for nu in results] == \
            [mu.is_dominant() for mu, _, _ in got]
        char = expand_Li(c, m, i)
        assert {mu: t for mu, t, _ in got} == {
            mu: t for mu, t in char.terms.items() if mu != m}
        for mu, _, total in got:
            # the delta is a product of node-i root steps, total of them
            w = divide_as_a_product(c, mu, m)
            assert w.total() == total and all(j == i for (j, _), _ in w.items())
        powers = m.node_powers(i)
        residues |= {(i, p % c.r(i)) for p in powers}
        negative += any(p < 0 for p in powers)
        empty += not powers
        # a root with a negative node-i exponent has no expansion at i
        p = min(powers, default=0)
        bad = m * Monomial.y(i, p, -powers.get(p, 0) - 1)
        assert ex.templates(ex.start(bad), s, 0) is None
    assert residues == {(i, r) for i in c.nodes for r in range(c.r(i))}
    assert negative and empty


def test_expander_names_the_callers_monomial():
    b3 = build_diagram("B", 3)
    m = parse_monomial("1_6 1_8^-1 2_3")
    ex = _Expander(b3)
    assert ex.templates(ex.start(m), 0, 0) is None
    with pytest.raises(ValueError) as err:
        expand_Li(b3, m, 1)
    assert format_monomial(m) in str(err.value)
    assert "1_0 1_2^-1" not in str(err.value)  # the shifted shape


def _content(c, i, powers):
    """The content of a node-i restriction ``powers`` (power -> exponent):
    r_i and its (power - base, exponent) pairs, base the largest multiple
    of r_i at or below its lowest power.  The rank-1 character reads
    nothing else, so nodes with one r_i share it."""
    ri = c.r(i)
    base = ri * (min(powers) // ri) if powers else 0
    return ri, tuple(sorted((p - base, e) for p, e in powers.items()))


def _count_contents(monkeypatch):
    """Record the content of every expand_Li_steps call."""
    calls = []
    original = expansion.expand_Li_steps

    def counted(c, m, i):
        calls.append(_content(c, i, m.node_powers(i)))
        return original(c, m, i)

    monkeypatch.setattr(expansion, "expand_Li_steps", counted)
    return calls


def test_fm_expands_each_shape_once(monkeypatch):
    calls = _count_contents(monkeypatch)
    rep = fm_algorithm(D4, kr_highest(D4, 2, 2, 0))
    assert rep.verdict == SPECIAL_FM_CONSISTENT
    assert calls and len(calls) == len(set(calls))
    assert len(calls) < rep.steps  # far fewer shapes than settled monomials


def test_certifying_process_reuses_closure_shapes(monkeypatch):
    # the closure stops early, then the process certifies with its engine
    calls = _count_contents(monkeypatch)
    rep = fm_algorithm(A3, parse_monomial("1_1 3_1 2_4"), budget=2)
    assert rep.verdict == NOT_SPECIAL
    assert len(calls) == len(set(calls))


def test_empirical_cell_expands_each_shape_once(monkeypatch, closures):
    # one engine serves every closure and certifying process of the cell
    calls = _count_contents(monkeypatch)
    check_small_empirical(A3, 2, 3, 2)
    assert len(closures) > 1
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("run", [
    lambda: fm_algorithm(D4, kr_highest(D4, 2, 2, 0)),
    lambda: check_small_empirical(A2_AFFINE, 0, 2, 0, Budgets(400, 400)),
], ids=["D4-kr", "A2~-cell"])
def test_nodes_that_meet_one_content_share_its_expansion(monkeypatch, run):
    # each content is expanded once, at the first node that meets it, and
    # other nodes do meet it: each packs the shared tables with its own row
    calls = _count_contents(monkeypatch)
    met = set()  # (node, content) of each dominant restriction built
    build = _Expander._build

    def counted(self, s, v):
        i = self.c.nodes[s]
        restr = self._node(s, v)
        if all(e > 0 for _, e in restr):
            met.add((i, _content(self.c, i, {p: e for (_, p), e in restr})))
        return build(self, s, v)

    monkeypatch.setattr(_Expander, "_build", counted)
    run()
    assert calls and len(calls) == len(set(calls))
    assert set(calls) == {content for _, content in met}
    assert len(met) > len(calls)


@pytest.mark.parametrize("c, i, k", [(D4, 2, 3), (A2_AFFINE, 0, 2)])
def test_shared_expander_matches_fresh_engines(c, i, k):
    subjects = [m for m, _ in enumerate_dominant_below(c, i, k, 0).entries]
    fresh = {m: fm_algorithm(c, m, 400, 400) for m in subjects}
    for order in (subjects, subjects[::-1]):
        ex = _Expander(c)
        for m in order:
            assert fm_algorithm(c, m, 400, 400, _expander=ex) == fresh[m]


# the diagrams on which the packed layout's two facts are measured
LAYOUT_DIAGRAMS = [("A", 3, False), ("B", 3, False), ("C", 3, False),
                   ("G", 2, False), ("F", 4, False), ("D", 4, False),
                   ("E", 6, False), ("A", 2, True), ("D", 4, True)]


@pytest.mark.parametrize("series,rank,affine", LAYOUT_DIAGRAMS)
def test_expansion_stays_above_its_root_and_moves_fields_by_its_total(
        series, rank, affine):
    # the facts under the packed layout: no delta reaches below the lowest
    # power of its root's node-i restriction or above its top power plus
    # 2 r_i, and no delta entry exceeds its total in size (one A^{-1}
    # factor moves any field by at most 1)
    c = build_diagram(series, rank, affine=affine)
    rng = random.Random(f"layout {c.name}")
    deltas = 0
    for _ in range(300):
        i = rng.choice(c.nodes)
        m = _random_i_dominant(rng, c, i)
        low = min(m.node_powers(i), default=None)
        high = max(m.node_powers(i), default=None)
        for table, _, total in expand_Li_steps(c, m, i)[1:]:
            delta = _result(c, Monomial(), i, table)
            assert min(p for (_, p), _ in delta.items()) >= low
            assert max(p for (_, p), _ in delta.items()) <= high + 2 * c.r(i)
            assert max(abs(e) for _, e in delta.items()) <= total
            deltas += 1
    assert deltas > 300


# D4 with its nodes listed in descending order: slot order is not key order
D4_DESCENDING = CartanData("D4", D4.nodes[::-1], D4.cartan, D4.sym)


@pytest.mark.parametrize("c", [build_diagram(*d) for d in LAYOUT_DIAGRAMS]
                         + [D4_DESCENDING],
                         ids=lambda c: f"{c.name}-{''.join(map(str, c.nodes))}")
def test_engine_reads_each_result_key_as_the_product(c):
    # the engine joins cached per-node pairs in ascending node order; the
    # key must be the product's canonical key, whatever c.nodes order is
    rng = random.Random(f"read {c.name} {c.nodes}")
    ex = _Expander(c)
    seen = {True: 0, False: 0}
    starts = [Monomial()] + [_random_i_dominant(rng, c, rng.choice(c.nodes))
                             for _ in range(300)]
    for m in starts:
        x = ex.start(m)
        assert ex.read(x) == m.key
        assert _dominant(ex, x) == m.is_dominant()
        for s, i in enumerate(c.nodes):
            tpl = ex.templates(x, s, 0)
            if tpl is None:
                continue
            for (d, _, _), (table, _, _) in zip(tpl, expand_Li_steps(c, m, i)[1:]):
                mu = _result(c, m, i, table)
                nu = x + d
                # the mask alone says the same, with no key joined
                assert _dominant(ex, nu) == mu.is_dominant()
                assert ex.read(nu) == mu.key, (format_monomial(m), i)
                seen[mu.is_dominant()] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("c", [build_diagram(*d) for d in LAYOUT_DIAGRAMS],
                         ids=lambda c: c.name)
def test_a_packed_node_int_has_the_sign_of_its_top_exponent(c):
    # the closure and the process read a new result's dominance off the
    # top bit of each field alone (the name is the signed-digit layout's,
    # whose node ints took the sign of their top exponent).  A negative
    # exponent below a positive one would borrow from the next field in
    # that layout; here each must clear its own field's top bit, at any
    # power of any slot, also in a product built as a sum of packed
    # monomials
    rng = random.Random(f"mask {c.name}")
    ex = _Expander(c)
    seen = {"borrow": 0, "negative top": 0, "dominant": 0, "product": 0}
    for _ in range(300):
        e = {}
        for j in c.nodes:
            powers = sorted(rng.sample(range(-6, 7), rng.randint(0, 3)))
            for n, p in enumerate(powers):
                # below the top power, a negative exponent three times in four
                at_top = n == len(powers) - 1
                e[j, p] = rng.choice((-2, -1, 1, 2) if at_top or rng.random() < 0.5
                                     else (-2, -1))
        m = Monomial(e)
        x = ex.start(m)
        assert _reads(ex, x, m) and ex.read(x) == m.key
        assert _dominant(ex, x) == m.is_dominant(), format_monomial(m)
        zero = _restriction(ex, ex.zero, 0)  # the identity of one slot
        for s, j in enumerate(c.nodes):
            powers = m.node_powers(j)
            v = _restriction(ex, x, s)
            assert (v & zero == zero) == all(t > 0 for t in powers.values())
            seen["negative top"] += bool(powers) and powers[max(powers)] < 0
            seen["borrow"] += any(t < 0 < powers.get(p + 1, 0)
                                  for p, t in powers.items())
        seen["dominant"] += m.is_dominant()
        # a product is the sum less the identity; its sign pattern is its own
        other = Monomial.y(rng.choice(c.nodes),
                           rng.randint(ex.base, ex.base + ex.window - 1),
                           rng.choice((-1, 1)))
        y = x + ex._pack(other.items()) - ex.zero
        assert _dominant(ex, y) == (m * other).is_dominant()
        assert ex.read(y) == (m * other).key
        seen["product"] += (m * other).is_dominant() != m.is_dominant()
    assert all(seen.values()), seen


def test_enumerated_entries_lie_above_the_string():
    # so one engine per cell can take the lowest power of the string X
    seen = identities = 0
    for name in ("A3", "A4", "D4", "D5", "E6", "A2~", "A3~", "D4~"):
        c = parse_diagram(name)
        for i in c.nodes:
            for k in range(1, 5):
                for r in (0, 3):
                    low = r - c.r(i) * (k - 1)
                    for m, _ in enumerate_dominant_below(c, i, k, r).entries:
                        assert all(p >= low for (_, p), _ in m.items())
                        seen += 1
                        identities += m.is_identity()
    assert seen > 2000 and identities  # A3 at k = 4 has the identity


@pytest.mark.parametrize("base", [-3, None])
def test_identity_start_runs(base):
    # on a cell engine, and on a fresh engine that has seen no power yet
    ex = _Expander(A3, base=base)
    assert ex.start(Monomial()) == ex.zero
    assert _reads(ex, ex.zero, Monomial())
    rep = fm_algorithm(A3, Monomial(), _expander=ex)
    assert rep.verdict == SPECIAL_FM_CONSISTENT
    assert rep.qchar.terms == {Monomial(): 1}
    assert generate_process(A3, Monomial(), _expander=ex).chains == {Monomial(): ()}


def _restriction(ex, x, s):
    """Node ``c.nodes[s]``'s packed restriction of the packed ``x``."""
    width = ex.window * ex.bits
    return (x >> s * width) & ((1 << width) - 1)


def _dominant(ex, x):
    """Whether the packed ``x`` is dominant, by the mask the runs test."""
    return x & ex.zero == ex.zero


def _reads(ex, x, m):
    """True iff each node restriction of the packed ``x``, read through the
    decoder that ``_Expander._build`` uses, is m's restriction to that
    node, and ``x`` has no bit above its last slot."""
    n = len(ex.c.nodes)
    return (x >> n * ex.window * ex.bits == 0
            and [[(p, e) for (_, p), e in ex._node(s, _restriction(ex, x, s))]
                 for s in range(n)]
            == [list(m.node_powers(j).items()) for j in ex.c.nodes])


def test_packed_layout_round_trips_at_the_field_edges():
    ex = _Expander(D4)
    assert ex.start(Monomial()) == ex.zero
    assert _reads(ex, ex.zero, Monomial())
    m = parse_monomial("1_-3 2_1^-1")
    x = ex.start(m)
    half = 1 << (ex.bits - 1)  # a field holds e + half, for |e| < half
    assert ex.base == -3 and x & (2 * half - 1) == half + 1  # field 0 is power -3
    assert _reads(ex, x, m)
    # a start fits while 2|e| < half: room for |e| root steps below it
    fit = (half - 1) // 2
    for e in (fit, -fit):
        edge = Monomial({(1, -3): e, (2, -2): -e, (3, 997): e, (4, 0): 1})
        x = ex.start(edge)
        assert ex.bits == 8 and _reads(ex, x, edge)
        # the window holds its powers and the reach above them
        assert ex.window >= 997 + 3 + 1 + ex._reach
        # a product is the sum less the identity while every field fits
        other = parse_monomial("1_-2 4_0^-1")
        y = ex.start(other)
        assert ex.bits == 8
        assert _reads(ex, x + y - ex.zero, edge * other)
    # one past that widens the fields; they never wrap
    for e in (fit + 1, -fit - 1):
        wide = _Expander(D4)
        edge = Monomial({(2, 5): e, (2, 6): -1, (3, 5): 1})
        x = wide.start(edge)
        assert wide.bits == 16 and _reads(wide, x, edge)
    big = Monomial.y(1, 0, 40_000)
    a1 = _Expander(A1)
    x = a1.start(big)  # room for 40,000 root steps below it as well
    assert a1.bits == 32 and _reads(a1, x, big)
    # the top power of the window, at the last slot, at both edges of the
    # field: nothing spills past the slot or the int
    ex = _Expander(D4, base=0)
    ex.start(Monomial.y(1, 0, 1))
    top = ex.window - 1
    for e in (fit, -fit):
        edge = Monomial({(1, 0): 1, (4, top): e, (4, top - 1): -e, (3, top): e})
        x = ex.start(edge)
        assert ex.window == top + 1 and _reads(ex, x, edge)


@pytest.mark.parametrize("spec", ["A2~", "D4~", "D4", "E6", "E8", "B3", "F4", "G2"])
def test_windows_keep_every_root_step_visible_to_the_int_hash(spec):
    # Python hashes an int modulo 2^61 - 1, where bits 61 apart weigh the
    # same, so a root step that moved two fields a multiple of 61 fields
    # apart by opposite amounts would keep the hash: at a width of 60 on
    # A2~ every root step does, and the dicts of a run degrade to lists.
    # Every window the engine takes keeps the fields of two slots within
    # the margin of one power difference off such gaps, so every root step
    # from the identity changes its hash, and no two root steps at powers
    # up to 2 r_max apart share one
    c = parse_diagram(spec)
    ex = _Expander(c, base=0)
    rmax = max(map(c.r, c.nodes))
    for wanted in range(1, 130):
        ex._new_layout(wanted)
        assert wanted <= ex.window < wanted + 61
        assert all((d * ex.window + gap) % 61 for d in range(1, len(c.nodes))
                   for gap in range(-2 * rmax, 2 * rmax + 1))
        steps = {}  # hash -> the powers of the root steps that have it
        for i in c.nodes:
            row = ex._pack_tables(i, [(((c.r(i), 1),), 1, 1)], 0)[0][0]
            for p in range(ex.window - 2 * c.r(i)):
                x = ex.zero + (row << ex.bits * p)
                steps.setdefault(hash(x), []).append(p)
        assert hash(ex.zero) not in steps
        assert all(max(ps) - min(ps) > 2 * rmax
                   for ps in steps.values() if len(ps) > 1)


def test_runs_start_over_on_wider_fields():
    # 4-bit fields hold |e| <= 7; the A1 string of length 7 starts at
    # exponent 1, and its node-1 expansion reaches 7 root steps below
    m = kr_highest(A1, 1, 7, 0)
    ex = _Expander(A1)
    ex.bits = 4
    x = ex.start(m)
    with pytest.raises(expansion._FieldsWidened):
        ex.templates(x, 0, 0)
    assert ex.bits == 8
    narrow = _Expander(A1)
    narrow.bits = 4
    assert fm_algorithm(A1, m, _expander=narrow) == fm_algorithm(A1, m)
    # the process widens mid-run, after its first expansions
    start = parse_monomial("1_3 1_5 2_0")
    narrow = _Expander(D4)
    narrow.bits = 4
    trace = generate_process(D4, start, _expander=narrow)
    assert narrow.bits > 4
    assert trace == generate_process(D4, start)
    # 3-bit fields leave room for 2 root steps below the start
    narrow = _Expander(A3)
    narrow.bits = 3
    m = parse_monomial("1_1 3_1 2_4")
    rep = fm_algorithm(A3, m, _expander=narrow)
    assert rep.verdict == NOT_SPECIAL and narrow.bits > 3
    assert rep == fm_algorithm(A3, m)


@pytest.mark.parametrize("spec, start, fm_steps, process_steps", [
    ("D4", "2_-2 2_0 2_2", DEFAULT_FM_STEPS, 400),  # consistent, with character
    ("G2", "1_0 1_1 2_3", DEFAULT_FM_STEPS, 400),
    ("A3", "1_1 3_1 2_4", DEFAULT_FM_STEPS, 400),  # forced, then certified
    ("A3", "1_1 3_1 2_4", 1, 400),  # capped, then certified
    ("A2~", "1_0", 1, 3000),  # capped, and no certificate in budget
])
def test_runs_that_cross_a_window_growth_match_a_wide_engine(
        monkeypatch, spec, start, fm_steps, process_steps):
    # a window that holds the start and its first expansions only grows
    # mid-run, in a closure or in its certifying process; the run starts
    # over, and its report, character and chain are those of an engine
    # whose window held the whole run from the start
    c = parse_diagram(spec)
    m = parse_monomial(start)
    events = []  # each run started, and the total of each widening

    def started(name, run):
        def wrapped(*args):
            events.append(name)
            return run(*args)
        return wrapped

    for name in ("_fm_closure", "_generate"):
        monkeypatch.setattr(expansion, name, started(name, getattr(expansion, name)))
    templates = _Expander.templates

    def tracked(self, x, s, total):
        try:
            return templates(self, x, s, total)
        except expansion._FieldsWidened:
            events.append(total)
            raise

    monkeypatch.setattr(_Expander, "templates", tracked)
    narrow = _Expander(c)
    narrow._reach = 2 * max(map(c.r, c.nodes))
    got = fm_algorithm(c, m, fm_steps, process_steps, _expander=narrow)
    crossed = [e for e in events if not isinstance(e, str)]
    assert crossed and min(crossed) > 0 and narrow.bits == 8
    if fm_steps < DEFAULT_FM_STEPS:
        # the capped closure fits; its certifying process widens
        assert events[events.index(crossed[0]) - 1] == "_generate"
    wide = _Expander(c)
    wide._reach = 200
    wide.start(m)
    window = wide.window
    del events[:]
    assert fm_algorithm(c, m, fm_steps, process_steps, _expander=wide) == got
    assert wide.window == window and all(isinstance(e, str) for e in events)


@pytest.mark.parametrize("series,rank", [("B", 3), ("C", 3), ("G", 2)])
def test_shape_templates_pack_across_restrictions_and_layouts(
        series, rank, monkeypatch):
    # one engine meets a shape at node i (r_i > 1, two residue classes) at
    # restrictions above and below its first one in a layout, then widens
    # and meets it again: each restriction packs its templates once from
    # the shape's step tables, and every template must be the packed
    # product with its delta
    c = build_diagram(series, rank)
    i = max(c.nodes, key=c.r)
    ri, s = c.r(i), c.nodes.index(i)
    j = c.neighbors(i)[0]
    calls = _count_contents(monkeypatch)
    packs = []
    pack = _Expander._pack_tables

    def counted(self, i, tables, shift):
        packs.append(shift)
        return pack(self, i, tables, shift)

    monkeypatch.setattr(_Expander, "_pack_tables", counted)
    ex = _Expander(c, base=-40)
    ex.start(Monomial.y(j, 40))  # a layout that holds every meeting below

    def meet(offset):
        """The packed root of the shape at ``offset``."""
        o = ri * offset
        m = Monomial({(i, o): 1, (i, o + 1): 1, (i, o + 2 * ri): 2, (j, o + 1): -1})
        x = ex.start(m)
        del packs[:]
        tpl = ex.templates(x, s, 0)
        want = expand_Li_steps(c, m, i)[1:]
        assert len(tpl) == len(want) > 2 and len(packs) == 1
        assert [(x + d, t, total) for d, t, total in tpl] == \
            [(ex._pack(_result(c, m, i, table).items()), t, total)
             for table, t, total in want]
        return x

    for o in (0, 3, -2, 5):
        meet(o)
    with pytest.raises(expansion._FieldsWidened):
        ex.templates(meet(6), s, ex._room)
    assert ex.bits == 16
    for o in (4, 7, 1):
        meet(o)
    assert len(calls) == 1  # one expansion served every restriction


def test_empirical_cell_packs_each_template_once(monkeypatch, closures):
    # the cell's engine takes the string's lowest power as its base, so
    # no closure or certifying process of the cell rebuilds a template
    builds = []
    build = _Expander._build

    def counted(self, s, v):
        builds.append((self.c.nodes[s], self._node(s, v)))
        return build(self, s, v)

    monkeypatch.setattr(_Expander, "_build", counted)
    cell = check_small_empirical(A3, 2, 3, 0)
    assert len(closures) > 1 and cell.empirical.not_special  # processes certified
    assert builds and len(builds) == len(set(builds))


def _counted_reads(monkeypatch):
    """The packed monomials ``_Expander.read`` is asked for, in call order."""
    reads = []
    read = _Expander.read

    def counted(self, x):
        reads.append(x)
        return read(self, x)

    monkeypatch.setattr(_Expander, "read", counted)
    return reads


@pytest.mark.parametrize("spec, i, k", [("A4", 1, 4), ("D4", 1, 2), ("A3", 1, 3)])
def test_small_cell_closures_read_no_key(monkeypatch, closures, spec, i, k):
    # a consistent closure settles every level in push order and the cell
    # asks for no character, so no closure joins a key or builds a Monomial
    reads = _counted_reads(monkeypatch)
    cell = check_small_empirical(parse_diagram(spec), i, k, 0)
    assert cell.empirical.verdict == SMALL and reads == []
    assert closures and all(r.steps > 1 and r.qchar is None for r in closures)


def test_capped_closure_reads_only_its_last_level(monkeypatch):
    # a budget that ends inside a level sorts that level alone: the levels
    # above it settle in push order
    m = kr_highest(D4, 2, 2, 0)
    full = fm_algorithm(D4, m)
    sizes = [0] * (full.steps + 1)
    for mu in full.qchar.terms:
        sizes[divide_as_a_product(D4, mu, m).total()] += 1
    last = 9
    above = sum(sizes[:last])
    assert 1 < sizes[last] < above
    reads = _counted_reads(monkeypatch)
    for budget in (above + 1, above + sizes[last] - 1):
        reads.clear()
        out = expansion._fm_closure(D4, m, budget, None, _Expander(D4), False)
        assert out == (None, budget, "step budget exhausted")
        assert 0 < len(reads) <= sizes[last]

"""Self-tests of the benchmark: op lists, the output checker and the tracer.

Run from the root of a qchar checkout:

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import copy
import json
import signal

import run  # first: puts the checkout's src on sys.path

import check  # noqa: E402
import workloads  # noqa: E402
from qchar import parse_diagram  # noqa: E402
from reference import EDGE_SAMPLES, Meter, kernel  # noqa: E402
from tracing import Tracer  # noqa: E402

GOLDEN = check.load_golden()
WORKLOADS = ("sweep", "closure", "enumerate", "affine")


def small_plan(seed, ids):
    """A plan holding only the named ops, at the seed's r and order."""
    full = workloads.plan(ids[0].split("/")[0], seed)
    picked = [(op, argv) for op, argv in zip(full.ops, full.argvs) if op.id in ids]
    return workloads.Plan(full.workload, seed, full.r,
                          [op for op, _ in picked], [argv for _, argv in picked])


def output(op, r):
    argv = workloads.argv_for(op, parse_diagram(op.diagram), r)
    rc, text, err = run.run_op(argv, Meter(during=False))
    assert err is None
    return rc, json.loads(text)


def test_op_lists_are_deterministic_per_seed():
    for workload in WORKLOADS:
        a, b = workloads.plan(workload, 5), workloads.plan(workload, 5)
        assert (a.r, a.ops, a.argvs) == (b.r, b.ops, b.argvs)
        other = workloads.plan(workload, 6)
        assert sorted(op.id for op in other.ops) == sorted(op.id for op in a.ops)
        assert {op.id for op in a.ops} <= set(GOLDEN)


def test_checker_rejects_changed_multiplicity():
    op, r = workloads.Op("closure", "D4", 2, 2), 7
    rc, doc = output(op, r)
    assert check.problems("closure", op, rc, json.dumps(doc), r, GOLDEN) == []
    terms = doc["qchar"]["terms"]
    assert any(t["multiplicity"] > 1 for t in terms)
    terms[-1]["multiplicity"] += 1
    found = check.problems("closure", op, rc, json.dumps(doc), r, GOLDEN)
    assert any(p.startswith("qchar:") for p in found)


def test_checker_rejects_dropped_dominant_and_broken_chain():
    op, r = workloads.Op("sweep", "A3", 2, 3), -5
    rc, doc = output(op, r)
    assert check.problems("sweep", op, rc, json.dumps(doc), r, GOLDEN) == []

    dropped = copy.deepcopy(doc)
    dropped["empirical"]["dominant"].pop()
    found = check.problems("sweep", op, rc, json.dumps(dropped), r, GOLDEN)
    assert any(p.startswith("dominant:") for p in found)

    broken = copy.deepcopy(doc)
    step = broken["empirical"]["witnesses"][0]["chain"][0]
    step["result"][0]["power"] += 2
    found = check.problems("sweep", op, rc, json.dumps(broken), r, GOLDEN)
    assert any(p.startswith("chain step 0") for p in found)


def test_traced_run_restores_every_patched_name():
    plan = small_plan(3, ["sweep/A3/2/3", "sweep/A2/1/2"])
    tracer = Tracer()
    passes = run.Passes(plan)
    with tracer:
        patched = tracer.patched_names()
        passes.run(tracer)
    assert {key for _, key, _ in patched} >= {
        "main", "check_small_empirical", "fm_algorithm", "expand_Li_steps",
        "simple_qchar_sl2", "a_monomial", "__mul__"}
    for owner, key, original in patched:
        assert vars(owner)[key] is original, (owner, key)
    assert passes.failures(GOLDEN)[1] == 0
    assert tracer.metrics()["expansion.expand.calls"] > 0


def traced_counts(seed, ids):
    tracer = Tracer()
    with tracer:
        run.Passes(small_plan(seed, ids)).run(tracer)
    return {k: v for k, v in tracer.metrics().items()
            if not (k.endswith("_s") or k.endswith(".s"))}


def test_traced_counts_repeat_exactly():
    ids = ["sweep/A3/2/3", "sweep/D4/1/3"]
    first = traced_counts(4, ids)
    assert first["smallness.pipeline.closures_after_witness"] > 0
    assert traced_counts(4, ids) == first
    # a different seed shifts every power, which changes only the text width
    moved = traced_counts(9, ids)
    first.pop("cli.out_bytes"), moved.pop("cli.out_bytes")
    assert moved == first


def test_meter_samples_during_the_body_and_disarms():
    original = signal.getsignal(signal.SIGALRM)
    meter = Meter()
    with meter:
        for _ in range(200):
            kernel()
    assert len(meter._samples) > 2 * EDGE_SAMPLES
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is original
    assert 0 < meter.seconds and 0 < meter.reference_seconds

"""qchar benchmark: drives one workload through ``qchar.cli.main``.

Usage, from the root of a qchar checkout:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

One process, one thread, a closed loop with one client: each op starts
when the previous one returns.  A run repeats whole passes over the
workload's op list while the next pass still fits in ``--seconds``; the
first pass warms the caches and is not timed.  Timings are taken at
reference speed (see ``reference.py``): each op's latency is scaled by the
speed of a fixed kernel sampled around and during it, so the host's load
drops out.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, taking each
op at its median timed run; ``--trace 1`` alternates traced and untraced
passes and prints the per-layer metrics, each the median over traced
passes.  Outputs are checked after the timed loop.  The last line of stdout is one
JSON object; result records and spans go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
MIN_OP_S = 0.1  # an untraced timed pass reruns each op until this has gone by

if not (SRC / "qchar" / "__init__.py").is_file():
    sys.exit(f"error: no qchar sources under {SRC}; run from the root of a qchar checkout")
sys.path.insert(0, str(SRC))

import qchar.cli  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S, Meter, speed  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_op(argv, meter):
    """One CLI invocation with stdout captured, timed by ``meter``.

    Returns (exit code, text, error).
    """
    buf = io.StringIO()
    err = None
    try:
        with contextlib.redirect_stdout(buf), meter:
            rc = qchar.cli.main(argv)
    except Exception:  # an op that raises is a failed op, not a failed run
        rc, err = None, traceback.format_exc()
    return rc, buf.getvalue(), err


class Passes:
    """Whole passes over a plan, with per-op latencies and output digests.

    The first pass is a warm-up: its outputs are the ones checked, and it is
    not timed.  Later passes must repeat its outputs byte for byte.  In an
    untraced pass an op runs back to back until ``MIN_OP_S`` has gone by, so
    the shortest ops get as many samples as the longest.  Each timed run of
    an op is kept as measured and at reference speed (see ``reference.py``).
    """

    def __init__(self, plan):
        self.plan = plan
        self.first = None       # [(rc, zlib-compressed text, err)] of the first pass
        self.peak_rss_mb = None  # ru_maxrss after the first pass
        self.walls = {False: [], True: []}  # pass times, by traced
        # by traced, per op: (seconds, reference seconds) of each timed run
        self.samples = {traced: [[] for _ in plan.ops] for traced in (False, True)}
        self.digests = []       # per pass, per run: (op, digest or None if it raised)

    def run(self, tracer=None):
        traced = tracer is not None
        warmup = self.first is None
        if traced:
            tracer.begin_pass(len(self.digests))
        digests, outputs = [], []
        wall = 0.0
        # kernel samples inside an op only where its time is the figure
        meter = Meter(during=not (warmup or traced))
        for n, argv in enumerate(self.plan.argvs):
            if traced:
                tracer.op = n
            op_start = time.perf_counter()
            while True:
                # every run starts from a clean heap, as a fresh CLI process
                # does, so garbage left by earlier runs is not collected inside it
                gc.collect()
                rc, text, err = run_op(argv, meter)
                wall += meter.seconds
                digests.append((n, None if err else
                                hashlib.sha256(f"{rc}\n{text}".encode()).digest()))
                if warmup:
                    # compressed, so what the first pass keeps barely moves its peak
                    outputs.append((rc, zlib.compress(text.encode(), 1), err))
                else:
                    self.samples[traced][n].append((meter.seconds, meter.reference_seconds))
                if traced:
                    tracer.counts["cli.out_bytes"] += len(text)
                if err:
                    print(f"op {self.plan.ops[n].id} raised:\n{err}", file=sys.stderr)
                if warmup or traced or time.perf_counter() - op_start >= MIN_OP_S:
                    break
        if traced:
            tracer.end_pass()
        # what the benchmark keeps (spans above all) stays out of the
        # collections made before later ops
        gc.collect()
        gc.freeze()
        self.digests.append(digests)
        if warmup:
            # later passes reuse a heap the first one grew, so their peak
            # depends on how many passes fit, not on what one op needs
            self.first = outputs
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.walls[traced].append(wall)

    def failures(self, golden):
        """(ops attempted, ops failed, first problems) over every run."""
        bad_ops = {}
        for n, (rc, blob, err) in enumerate(self.first):
            op = self.plan.ops[n]
            try:
                found = [err.strip().splitlines()[-1]] if err else check.problems(
                    self.plan.workload, op, rc, zlib.decompress(blob).decode(),
                    self.plan.r, golden)
            except (KeyError, TypeError) as exc:
                found = [f"output lacks an expected field: {exc!r}"]
            if found:
                bad_ops[n] = f"{op.id}: {found[0]}"
        failed = 0
        for digests in self.digests:
            for n, d in digests:
                if n in bad_ops or d is None or d != self.digests[0][n][1]:
                    failed += 1
                    bad_ops.setdefault(n, f"{self.plan.ops[n].id}: output differs "
                                          "from the first pass")
        attempted = sum(len(d) for d in self.digests)
        return attempted, failed, sorted(bad_ops.values())

    def per_op(self, traced=False, scaled=True):
        """Each op's median timed run, at reference speed or as measured."""
        return [statistics.median(s[scaled] for s in runs) for runs in self.samples[traced]]


def tail(values):
    """(percentile, value): the highest percentile with ten values above it."""
    s = sorted(values)
    n = len(s)
    pct = (100 * (n - 10)) // n
    return pct, s[math.ceil(pct * n / 100) - 1]


def setup_seconds(workload, seed):
    """Median over fresh interpreters of interpreter start to first op.

    It is at reference speed, scaled by the median kernel speed that the
    fresh interpreters measured once set up: a few kernel runs are too short
    to stand for one set-up, but together they stand for the probes' span.
    """
    seconds, speeds = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(seed), "--setup-probe"],
                              capture_output=True, text=True, check=True, timeout=120)
        ready, runs_per_s = map(float, done.stdout.split()[-2:])
        seconds.append(ready - start)
        speeds.append(runs_per_s)
    return statistics.median(seconds) * statistics.median(speeds) * REFERENCE_S


def environment(seed, r):
    """What a result depends on besides the code: machine, interpreter, load."""
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
            "seed": seed, "r": r}


def run_workload(args, spec):
    workload = args.workload
    entry = next(w for w in spec["workloads"] if w["name"] == workload)
    plan = workloads.plan(workload, args.seed)
    env = environment(args.seed, plan.r)
    golden = check.load_golden()
    setup_s = None if args.trace else setup_seconds(workload, args.seed)

    passes = Passes(plan)
    tracer = Tracer() if args.trace else None
    begin = time.perf_counter()
    passes.run()  # warm-up: fills the library's caches, not timed
    # when tracing, alternate traced and untraced passes; once one untraced
    # pass after the warm-up is done, start a pass only while one as long
    # as the last of its kind still fits in the budget
    for traced in itertools.cycle((True, False) if args.trace else (False,)):
        walls = passes.walls[traced]
        if (walls and len(passes.walls[False]) > 1
                and time.perf_counter() - begin + walls[-1] > args.seconds):
            break
        if traced:
            with tracer:
                passes.run(tracer)
        else:
            passes.run()
    attempted, failed, bad = passes.failures(golden)

    n_ops = len(plan.ops)
    print(f"workload {workload}: {n_ops} ops per pass; why: {entry['why']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes: {len(passes.walls[False])} untraced (the first a warm-up), "
          f"{len(passes.walls[True])} traced")
    notes = {}
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (
            math.fsum(passes.per_op(traced=True, scaled=False))
            / math.fsum(passes.per_op(scaled=False)) - 1)
        notes["expansion.expand.shape_ratio"] = (
            f"{metrics['expansion.expand.shapes']:g} shapes / "
            f"{metrics['expansion.expand.calls']:g} calls")
        wanted = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload}.tsv")
    else:
        per_op = passes.per_op()
        pct, tail_s = tail(per_op)
        metrics = {"setup_s": setup_s, "wall_s": math.fsum(per_op),
                   "op_p50_ms": statistics.median(per_op) * 1e3,
                   "op_tail_ms": tail_s * 1e3, "peak_rss_mb": passes.peak_rss_mb}
        raw = passes.per_op(scaled=False)
        runs = [len(r) for r in passes.samples[False]]
        notes["setup_s"] = f"median of {SETUP_PROBES} fresh interpreters"
        notes["wall_s"] = (f"sum over ops of their median run, of {min(runs)} to "
                           f"{max(runs)}; {math.fsum(raw):.4g} s as measured")
        notes["op_p50_ms"] = f"{statistics.median(raw) * 1e3:.4g} ms as measured"
        notes["op_tail_ms"] = (f"p{pct} of {n_ops} ops; {tail(raw)[1] * 1e3:.4g} ms "
                               "as measured")
        wanted = spec["end_to_end"]
    for m in wanted:
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']:<46} {metrics[m['name']]:>14.6g} {m['unit']}{note}")
    print(f"fail_frac: {failed}/{attempted} ops = {failed / attempted:g}")
    for line in bad[:10]:
        print(f"FAILED {line}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload, why=entry["why"], ops=n_ops,
                  passes={"untraced": passes.walls[False], "traced": passes.walls[True]},
                  env=env, trace=args.trace, seconds=args.seconds,
                  runs_s={op.id: passes.samples[False][n] for n, op in enumerate(plan.ops)})
    with open(OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=2)
    print(json.dumps(result))


def run_all(args, spec):
    """Each workload in its own process, so memory and caches stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for entry in spec["workloads"]:
        done = subprocess.run([sys.executable, __file__, "--workload", entry["name"],
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.exit(f"error: workload {entry['name']} exited with {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{entry['name']}.{name}"] = value
    print(json.dumps(combined))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        workloads.plan(args.workload, args.seed)
        ready = time.monotonic()
        print(ready, speed())
    elif args.workload == "all":
        run_all(args, spec)
    else:
        run_workload(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

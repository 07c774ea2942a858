"""Regenerate benchmarks/golden.json from the current library at r = 0.

Run from the root of a qchar checkout:

    python3 benchmarks/make_golden.py

Only regenerate when a change to the library is meant to change the
pinned outputs, and say which in the change's notes.
"""

from __future__ import annotations

import json

import run  # first: puts the checkout's src on sys.path

import check  # noqa: E402
import workloads  # noqa: E402


def main():
    golden = {}
    for workload in ("sweep", "closure", "enumerate", "affine"):
        plan = workloads.plan(workload, seed=0, r=0)
        for op, argv in zip(plan.ops, plan.argvs):
            _, rc, text, err = run.run_op(argv)
            if err:
                raise SystemExit(f"{op.id} raised:\n{err}")
            golden[op.id] = check.summary(workload, json.loads(text), 0)
            print(op.id, rc, flush=True)
    with open(check.GOLDEN_PATH, "w") as f:
        json.dump(dict(sorted(golden.items())), f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
